"""Similarity retrieval with the sentiment-consistency filter.

Candidates come back from the index by cosine similarity; given a focus
sentiment, candidates whose sentiment differs from it by more than the
tolerance are dropped and the best N survivors form the context. The pool
starts at `RetrievalConfig.pool` and widens until enough survivors are found
(or the index is exhausted), so the selection is always exactly equal to
filter-everything-then-take-N. If the filter empties the pool entirely,
retrieval falls back to pure similarity and flags the bundle. The caller
decides whether to filter and which episode to leave out, by its arguments.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from typing import Iterable

from .chunking import segment
from .errors import ContractError, ValidationError
from .gateway import SentimentScore
from .index import FlatIndex, IndexEntry, build_index
from .story import Story
from .summarize import EpisodeSummary, build_retrieval_document

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class RetrievalConfig:
    top_n: int = 5
    sentiment_tolerance: float = 0.3
    exclude_self: bool = True  # evaluation leaves the focus episode out of its own context
    context_char_budget: int = 12_000
    filter_queries: bool = True  # apply the sentiment filter during QA too

    def __post_init__(self):
        if self.top_n <= 0:
            raise ValidationError("top_n", "must be positive")
        if not (0.0 <= self.sentiment_tolerance <= 1.0):
            raise ValidationError("sentiment_tolerance", "must be in [0, 1]")
        if self.context_char_budget <= 0:
            raise ValidationError("context_char_budget", "must be positive")

    @property
    def pool(self) -> int:
        """The width of the first search, 4 * top_n; the search widens as needed, so no result depends on it."""
        return 4 * self.top_n


@dataclass(frozen=True, slots=True)
class SummaryRecord:
    """What retrieval needs to know about one indexed unit."""

    entry_id: str
    story_id: str
    episode_index: int
    sentiment: float
    text: str


@dataclass(frozen=True, slots=True)
class ContextEntry:
    story_id: str
    episode_index: int
    score: float
    sentiment: float
    text: str
    # formatted once, at construction: the budget check, the prompt and the digest all read it
    block: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        header = f"[{self.story_id}#{self.episode_index}] (similarity={self.score:.4f}, sentiment={self.sentiment:.3f})"
        object.__setattr__(self, "block", f"{header}\n{self.text}\n")


@dataclass(frozen=True, slots=True)
class ContextBundle:
    focus: str
    selected: tuple[ContextEntry, ...]
    truncated: bool = False
    sentiment_filter_bypassed: bool = False

    def render(self) -> str:
        return "\n".join(entry.block for entry in self.selected)

    def digest(self) -> str:
        payload = self.focus + "\x00" + self.render()
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def episode_refs(self) -> list[tuple[str, int]]:
        return [(e.story_id, e.episode_index) for e in self.selected]


def retrieval_units(
    story: Story, summaries: list[EpisodeSummary], granularity: str
) -> list[tuple[str, SummaryRecord]]:
    """(kind, record) for each retrieval unit of one story, in story order.

    A unit is a summary's retrieval document ("summary"), an episode's raw
    text ("episode", when summarization is ablated) or a chunk of an episode
    ("chunk"). Each carries its episode's summary sentiment.
    """
    sentiments = {s.episode_index: s.sentiment.value for s in summaries}
    if granularity == "summary":
        units = [(d.doc_id, d.episode_index, d.text) for d in map(build_retrieval_document, summaries)]
    elif granularity == "episode":
        units = [(f"{story.story_id}#{ep.index}", ep.index, ep.text) for ep in story.episodes]
    elif granularity == "chunk":
        units = [
            (chunk.chunk_id, ep.index, chunk.text)
            for ep in story.episodes
            for chunk in segment(ep, story_id=story.story_id)
        ]
    else:
        raise ContractError(f"unknown granularity {granularity!r}")
    return [
        (granularity, SummaryRecord(entry_id, story.story_id, episode_index, sentiments[episode_index], text))
        for entry_id, episode_index, text in units
    ]


def build_retrieval_index(units: list[tuple[str, SummaryRecord]], vectors, dim: int):
    """An index of `units`, each with its vector of `vectors` (in unit
    order), and their records by entry id."""
    index = build_index(
        dim, [(r.entry_id, kind, r.story_id, r.episode_index, vec) for (kind, r), vec in zip(units, vectors)]
    )
    return index, {record.entry_id: record for _, record in units}


def retrieve_related(
    focus_text: str,
    focus_sentiment: SentimentScore | None,
    index: FlatIndex,
    records: dict[str, SummaryRecord],
    config: RetrievalConfig,
    gateway,
    *,
    exclude_ref: tuple[str, int] | None = None,
    restrict_story: str | None = None,
    focus_label: str = "",
    query_vector=None,
) -> ContextBundle:
    """Build the context bundle for one focus text.

    A focus_sentiment turns the sentiment filter on (None: off). exclude_ref
    drops that episode from candidacy (self-retrieval says nothing useful
    about an episode under evaluation); restrict_story limits candidacy to
    one story. query_vector is the focus text's embedding when the caller
    already has it; otherwise it is embedded here.
    """
    if len(index) == 0:
        raise ContractError("index empty")
    if not focus_text:
        raise ContractError("focus_text must be non-empty")

    filtering = focus_sentiment is not None
    query = gateway.embed([focus_text])[0] if query_vector is None else query_vector

    # widen the pool until enough survivors exist or everything was scanned,
    # keeping the result identical to filter-all-then-top-N; exclusion is by
    # episode ref, not entry id, so every chunk of the focus episode goes
    pool = config.pool
    while True:
        hits = index.search_top_n(query, n=pool, story=restrict_story, exclude=exclude_ref)
        if filtering:
            survivors = [
                h for h in hits
                if abs(focus_sentiment.value - _record(records, h.entry_id).sentiment)
                <= config.sentiment_tolerance
            ]
        else:
            survivors = list(hits)
        if len(survivors) >= config.top_n or len(hits) < pool:
            break
        pool *= 2

    bypassed = False
    if filtering and not survivors and hits:
        logger.info("sentiment filter removed every candidate; falling back to similarity only")
        survivors = list(hits)
        bypassed = True
    if len(survivors) < config.top_n:
        logger.debug("only %d survivors for top_n=%d", len(survivors), config.top_n)

    chosen = survivors[: config.top_n]
    entries = []
    used = 0
    truncated = False
    for hit in chosen:
        record = _record(records, hit.entry_id)
        entry = ContextEntry(
            story_id=record.story_id,
            episode_index=record.episode_index,
            score=hit.score,
            sentiment=record.sentiment,
            text=record.text,
        )
        cost = len(entry.block) + (1 if entries else 0)  # rendered block + joiner
        if used + cost > config.context_char_budget:
            truncated = True
            break
        entries.append(entry)
        used += cost

    return ContextBundle(
        focus=focus_label or focus_text[:80],
        selected=tuple(entries),
        truncated=truncated,
        sentiment_filter_bypassed=bypassed,
    )


def retrieve_for_query(
    question: str,
    index: FlatIndex,
    records: dict[str, SummaryRecord],
    config: RetrievalConfig,
    gateway,
    *,
    restrict_story: str | None = None,
    query_vector=None,
) -> ContextBundle:
    """Retrieval for question answering; the question's own tone is the focus sentiment.

    The tone is scored, and filters, only when `config.filter_queries` holds.
    query_vector is the question's embedding when the caller already has it.
    """
    if not question or not question.strip():
        raise ContractError("question must be non-empty")
    sentiment = gateway.score_sentiment(question) if config.filter_queries else None
    return retrieve_related(
        question,
        sentiment,
        index,
        records,
        config,
        gateway,
        restrict_story=restrict_story,
        focus_label=f"query:{question[:72]}",
        query_vector=query_vector,
    )


def _record(records: dict[str, SummaryRecord], entry_id: str) -> SummaryRecord:
    try:
        return records[entry_id]
    except KeyError:
        raise ContractError(f"index entry {entry_id!r} has no summary record") from None


def records_to_dict(records: dict[str, SummaryRecord]) -> dict:
    """What `.records.json` holds of each record: only what the index's
    `.meta.json` entry lacks, its sentiment and text."""
    return {entry_id: {"sentiment": r.sentiment, "text": r.text} for entry_id, r in records.items()}


# the shape of each value of the object `records_to_dict` returns
RECORD_SHAPE = {"sentiment": float, "text": str}


def records_from_dict(raw: dict, entries: Iterable[IndexEntry]) -> dict[str, SummaryRecord]:
    """The records of the index `entries` from `records_to_dict`'s object:
    the story and episode of each come from its entry. A value may hold more
    fields, such as the story and episode an older layout wrote; they are
    not read."""
    return {
        e.entry_id: SummaryRecord(
            e.entry_id, e.story_id, e.episode_index, raw[e.entry_id]["sentiment"], raw[e.entry_id]["text"]
        )
        for e in entries
    }
