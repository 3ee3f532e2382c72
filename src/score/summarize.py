"""Per-episode structured summaries and the retrieval documents built from them.

A summary digests one episode into plot points, character actions, key-item
interactions, relationship notes, emotional shifts, and a sentiment score.
The retrieval document flattens that digest into a deterministic text layout
(synopsis, then ACTIONS:, then ITEMS:) that embeds well and parses back.

A story's summaries file holds its summaries in episode order and nothing
else: a summary's story is the file's, and its episode its position.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import lexicon
from .errors import ValidationError
from .gateway import SentimentScore, extract_json_value
from .story import CharacterAction, Episode, ItemInteraction, ItemState, KeyItem, key_items_json

logger = logging.getLogger(__name__)

# Sentence-initial words that never name a character.
_NOT_NAMES = frozenset(
    {
        "The", "A", "An", "It", "But", "Then", "However", "When", "While",
        "After", "Before", "That", "This", "There", "In", "On", "At", "By",
        "No", "Yes", "And", "As", "His", "Her", "Their", "Its", "Flames",
        "Travelers", "Smoke", "Artisans", "Craftsmen", "Night", "Morning",
    }
)

_NO_VALUE = "-"

# a sentence holding one of these words is a plot point and implies its items' state
_STATE_WORDS = lexicon.DESTROYED_WORDS | lexicon.LOST_WORDS | lexicon.EXPLANATION_WORDS


@dataclass(frozen=True, slots=True)
class EpisodeSummary:
    story_id: str
    episode_index: int
    synopsis: str
    plot_points: tuple[str, ...]
    actions: tuple[CharacterAction, ...]
    interactions: tuple[ItemInteraction, ...]
    relationships: tuple[str, ...]
    emotional_changes: tuple[str, ...]
    sentiment: SentimentScore

    def __post_init__(self):
        if not self.synopsis.strip():
            raise ValidationError("synopsis", "must be non-empty")


@dataclass(frozen=True, slots=True)
class RetrievalDocument:
    doc_id: str
    story_id: str
    episode_index: int
    text: str

    def __post_init__(self):
        if not self.text:
            raise ValidationError("text", "must be non-empty")


def summarize_episode(episode: Episode, items: list[KeyItem], gateway, *, story_id: str) -> EpisodeSummary:
    """Produce a structured summary; deterministic rules under the mock backend."""
    if gateway.is_mock:
        return rule_summarize(episode, items, gateway, story_id=story_id)
    fields = gateway.complete_parsed(
        "summarize",
        lambda reply: _parse_summary_reply(reply, items),
        episode_text=episode.text,
        items_json=key_items_json(items),
    )
    return EpisodeSummary(
        story_id=story_id, episode_index=episode.index, **fields, sentiment=gateway.score_sentiment(episode.text)
    )


def rule_summarize(episode: Episode, items: list[KeyItem], gateway, *, story_id: str) -> EpisodeSummary:
    analysed = lexicon.sentence_tokens(episode.text)
    sents = [episode.text[s:e] for s, e, _ in analysed]
    positive, negative = lexicon.sentiment_lexicon()
    tone_words = positive | negative

    synopsis = " ".join(sents[:2]) if sents else episode.text.strip()

    actions: list[CharacterAction] = []
    plot_points: list[str] = []
    interactions: list[ItemInteraction] = []
    relationships: list[str] = []
    emotional_changes: list[str] = []

    patterns = [(item, lexicon.alias_pattern(item.names)) for item in items]

    for sentence, (_, _, toks) in zip(sents, analysed):
        words = sentence.split()
        name = _leading_name(words)
        if name is not None:
            actions.append(CharacterAction(character=name, description=sentence))

        tokset = set(toks)
        implied = lexicon.state_for_tokens(toks) if tokset & _STATE_WORDS else None
        if implied is not None:
            plot_points.append(sentence)
        if tokset & tone_words:
            emotional_changes.append(sentence)
        if _names_in_sentence(words) >= 2:
            relationships.append(sentence)

        for item, pattern in patterns:
            if not pattern.search(sentence):
                continue
            interactions.append(
                ItemInteraction(
                    item_id=item.item_id,
                    description=sentence,
                    actor=name,
                    implied_state=implied,
                )
            )

    return EpisodeSummary(
        story_id=story_id,
        episode_index=episode.index,
        synopsis=synopsis,
        plot_points=tuple(plot_points[:5]),
        actions=tuple(actions),
        interactions=tuple(interactions),
        relationships=tuple(relationships),
        emotional_changes=tuple(emotional_changes),
        sentiment=gateway.score_sentiment(episode.text),
    )


def _leading_name(words: list[str]) -> str | None:
    if len(words) < 2:
        return None
    first = words[0].strip(",.;:!?\"'")
    second = words[1].strip(",.;:!?\"'")
    if first.istitle() and first not in _NOT_NAMES and second and second[0].islower():
        return first
    return None


def _names_in_sentence(words: list[str]) -> int:
    names = set()
    for word in words[1:]:  # position 0 is ambiguous with sentence case
        cleaned = word.strip(",.;:!?\"'")
        if cleaned.istitle() and cleaned not in _NOT_NAMES:
            names.add(cleaned)
    # the leading word still counts when it parses as a name
    lead = _leading_name(words)
    if lead:
        names.add(lead)
    return len(names)


# the reply to `summarize`, whose lists may be null for none; an interaction's
# `item_id` is left out of it, as in `tracker`'s extraction reply
_NOTES = ([str], None)
_SUMMARY_REPLY_SHAPE = {
    "synopsis": str,
    "plot_points?": _NOTES,
    "actions?": ([{"character?": str, "description?": str}], None),
    "interactions?": ([{"actor?": (str, None), "description?": str, "implied_state?": (ItemState, None)}], None),
    "relationships?": _NOTES,
    "emotional_changes?": _NOTES,
}


def _parse_summary_reply(reply, items) -> dict:
    """The `EpisodeSummary` fields of a reply but `story_id`, `episode_index` and `sentiment`."""
    raw = extract_json_value(reply, _SUMMARY_REPLY_SHAPE)
    if not raw["synopsis"].strip():
        raise ValueError("empty synopsis")

    known = tuple(k.item_id for k in items)  # found by equality, so an unhashable id is no error
    interactions = []
    for entry in raw.get("interactions") or ():
        item_id = entry.get("item_id")
        if item_id not in known:
            logger.warning("summary names undeclared item %r; dropped", item_id)
            continue
        implied = entry.get("implied_state")
        interactions.append(
            ItemInteraction(
                item_id=item_id,
                description=_one_line(entry.get("description", "")) or "(unspecified)",
                actor=entry.get("actor") or None,
                implied_state=ItemState(implied) if implied else None,
            )
        )
    actions = [
        CharacterAction(
            character=entry.get("character") or "(unknown)",
            description=_one_line(entry.get("description", "")) or "(unspecified)",
        )
        for entry in raw.get("actions") or ()
    ]
    return dict(
        synopsis=_one_line(raw["synopsis"]),
        plot_points=tuple(raw.get("plot_points") or ()),
        actions=tuple(actions),
        interactions=tuple(interactions),
        relationships=tuple(raw.get("relationships") or ()),
        emotional_changes=tuple(raw.get("emotional_changes") or ()),
    )


def _one_line(text: str) -> str:
    return " ".join(text.split())


# ---------------------------------------------------------------------------
# Retrieval documents
# ---------------------------------------------------------------------------


def build_retrieval_document(summary: EpisodeSummary) -> RetrievalDocument:
    """Flatten a summary into the deterministic retrieval-document layout.

    Order is preserved exactly as given; two summaries differing only in
    ordering produce different documents.
    """
    lines = [summary.synopsis, "ACTIONS:"]
    for action in summary.actions:
        lines.append(f"- {action.character} | {_one_line(action.description)}")
    lines.append("ITEMS:")
    for inter in summary.interactions:
        state = inter.implied_state.value if inter.implied_state else _NO_VALUE
        actor = inter.actor if inter.actor else _NO_VALUE
        lines.append(f"- {inter.item_id} | actor={actor} | state={state} | {_one_line(inter.description)}")
    return RetrievalDocument(
        doc_id=f"{summary.story_id}#{summary.episode_index}",
        story_id=summary.story_id,
        episode_index=summary.episode_index,
        text="\n".join(lines),
    )


# ---------------------------------------------------------------------------
# Summary file persistence
# ---------------------------------------------------------------------------


def summary_to_dict(summary: EpisodeSummary) -> dict:
    """What a summaries file holds of one summary: all but its story and
    episode, which the file's name and the summary's position give."""
    return {
        "synopsis": summary.synopsis,
        "plot_points": list(summary.plot_points),
        "actions": [{"character": a.character, "description": a.description} for a in summary.actions],
        "interactions": [
            {
                "item_id": i.item_id,
                "actor": i.actor,
                "description": i.description,
                "implied_state": i.implied_state.value if i.implied_state else None,
            }
            for i in summary.interactions
        ],
        "relationships": list(summary.relationships),
        "emotional_changes": list(summary.emotional_changes),
        "sentiment": summary.sentiment.value,
    }


SUMMARY_SHAPE = {
    "synopsis": str,
    "plot_points": [str],
    "actions": [{"character": str, "description": str}],
    "interactions": [{"item_id": str, "actor?": (str, None), "description": str, "implied_state?": (ItemState, None)}],
    "relationships": [str],
    "emotional_changes": [str],
    "sentiment": float,
}


def summary_from_dict(raw: dict, story_id: str, episode_index: int) -> EpisodeSummary:
    """The summary `raw` holds, of episode `episode_index` of story `story_id`."""
    return EpisodeSummary(
        story_id=story_id,
        episode_index=episode_index,
        synopsis=raw["synopsis"],
        plot_points=tuple(raw["plot_points"]),
        actions=tuple(CharacterAction(character=a["character"], description=a["description"]) for a in raw["actions"]),
        interactions=tuple(
            ItemInteraction(
                item_id=i["item_id"],
                actor=i.get("actor"),
                description=i["description"],
                implied_state=ItemState(i["implied_state"]) if i.get("implied_state") else None,
            )
            for i in raw["interactions"]
        ),
        relationships=tuple(raw["relationships"]),
        emotional_changes=tuple(raw["emotional_changes"]),
        sentiment=SentimentScore(value=raw["sentiment"]),
    )


def summaries_to_dict(summaries: list[EpisodeSummary]) -> dict:
    """The summaries file of a story: its summaries, one per episode in episode order."""
    return {"summaries": [summary_to_dict(s) for s in summaries]}


SUMMARIES_SHAPE = {"summaries": [SUMMARY_SHAPE]}


def summaries_from_dict(raw: dict, story_id: str) -> list[EpisodeSummary]:
    """The summaries of story `story_id` that `summaries_to_dict`'s object
    holds; each one's episode is its position. A summary of a file written
    by an older version may hold more fields, such as its story and episode;
    they are not read."""
    return [summary_from_dict(s, story_id, i) for i, s in enumerate(raw["summaries"])]
