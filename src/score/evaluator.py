"""Facet-scored episode evaluations, question answering, metrics, and the
SCORE-vs-baseline comparison harness.

The evaluation prompt is grounded: the deterministic tracker's continuity
errors ride along, any detected error caps the key-item-continuity facet,
and cited errors are validated against the tracker output so no invented
error citation survives. Metrics are pure arithmetic over the structured
results; anything that would need missing gold data is reported as absent,
never fabricated.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import re
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterable, Iterator

from . import lexicon, prompts
from .errors import ContractError, EvaluationError, ValidationError
from .gateway import SENDING_ONLY_FIELDS, GatewayConfig, extract_json_value
from .index import FlatIndex
from .jsonio import canonical_dumps
from .retrieval import (
    ContextBundle,
    RetrievalConfig,
    SummaryRecord,
    build_retrieval_index,
    retrieval_units,
    retrieve_for_query,
    retrieve_related,
)
from .story import Episode, ItemState, Story
from .summarize import EpisodeSummary, summarize_episode
from .tracker import (
    ContinuityError,
    ItemObservation,
    ItemTimeline,
    StoryStates,
    correct_story_timelines,
    detect_story_errors,
    error_to_dict,
    extract_item_statuses,
    story_timelines,
)

logger = logging.getLogger(__name__)

FACETS = (
    "character_consistency",
    "plot_progression",
    "emotional_authenticity",
    "key_item_continuity",
)

# Facet cap applied whenever the tracker flagged this episode.
_ERROR_FACET_CAP = 3.0

_EPISODE_REF_RE = re.compile(r"\bepisode\s+(\d+)", re.IGNORECASE)

_QA_STOPWORDS = frozenset(
    {
        "a", "an", "and", "are", "at", "became", "become", "by", "did", "does",
        "episode", "for", "happen", "happened", "how", "in", "is", "it", "its",
        "of", "on", "or", "the", "to", "was", "were", "what", "when", "where",
        "which", "who", "whom", "why", "with",
    }
)


@dataclass(frozen=True)
class EpisodeEvaluation:
    story_id: str
    episode_index: int
    facet_scores: dict[str, float]
    rationale: str
    continuity_errors_cited: tuple[ContinuityError, ...]
    context_digest: str
    item_states: dict[str, ItemState] = field(default_factory=dict)

    def __post_init__(self):
        missing = [f for f in FACETS if f not in self.facet_scores]
        if missing:
            raise ValidationError("facet_scores", f"missing facets: {missing}")
        for name, value in self.facet_scores.items():
            if not (1.0 <= value <= 5.0):
                raise ValidationError(f"facet_scores.{name}", f"must be in [1, 5], got {value}")

    @property
    def facet_average(self) -> float:
        return sum(self.facet_scores[f] for f in FACETS) / len(FACETS)


@dataclass(frozen=True)
class QAResult:
    question: str
    answer: str
    supporting_episodes: tuple[tuple[str, int], ...]
    correct: bool | None = None
    story_id: str = ""
    gold_item_id: str | None = None


@dataclass(frozen=True)
class GoldQA:
    story_id: str
    question: str
    answer: str
    item_id: str | None = None


@dataclass(frozen=True)
class GoldData:
    """Ground truth for metric computation; either part may be absent."""

    item_assertions: tuple[tuple[str, str, int, ItemState], ...] = ()
    qa: tuple[GoldQA, ...] = ()


@dataclass
class MetricsReport:
    consistency: float | None
    coherence: float | None
    item_status: float | None
    complex_qa: float | None
    per_story: dict[str, dict[str, float | None]]
    config_digest: str

    def to_dict(self) -> dict:
        return {
            "consistency": self.consistency,
            "coherence": self.coherence,
            "item_status": self.item_status,
            "complex_qa": self.complex_qa,
            "per_story": self.per_story,
            "config_digest": self.config_digest,
        }


# ---------------------------------------------------------------------------
# Episode evaluation
# ---------------------------------------------------------------------------


def evaluate_episode(
    episode: Episode,
    summary: EpisodeSummary,
    timelines: dict[str, ItemTimeline],
    errors: list[ContinuityError],
    context: ContextBundle,
    gateway,
    *,
    story_id: str,
) -> EpisodeEvaluation:
    """Score one episode across the four narrative facets.

    `timelines` are the timelines the evaluation is allowed to see (the
    corrected ones in the full pipeline); `errors` are the story's detected
    continuity errors. Any error landing on this episode caps
    key_item_continuity at 3 no matter what the backend said.
    """
    episode_errors = [e for e in errors if e.reappearance_episode == episode.index]
    asserted = {
        item_id: state
        for item_id, tl in sorted(timelines.items())
        if (state := tl.resolved_state_at(episode.index)) is not None
    }

    if gateway.is_mock:
        facets = _mock_facet_scores(summary, episode_errors)
        rationale = (
            f"tracker: {len(episode_errors)} continuity error(s); "
            f"actions={len(summary.actions)}; plot_points={len(summary.plot_points)}; "
            f"sentiment={summary.sentiment.value:.3f}"
        )
        cited = tuple(episode_errors)
    else:
        facets, rationale, cited, reply_states = _llm_evaluate(episode, episode_errors, context, gateway)
        asserted = reply_states or asserted

    if episode_errors:
        facets["key_item_continuity"] = min(facets["key_item_continuity"], _ERROR_FACET_CAP)

    return EpisodeEvaluation(
        story_id=story_id,
        episode_index=episode.index,
        facet_scores=facets,
        rationale=rationale,
        continuity_errors_cited=cited,
        context_digest=context.digest(),
        item_states=asserted,
    )


def _mock_facet_scores(summary: EpisodeSummary, episode_errors: list[ContinuityError]) -> dict[str, float]:
    """Deterministic rubric: max continuity when the tracker is clean,
    one-point bumps for structured content and pronounced tone."""
    if episode_errors:
        continuity = max(1.0, 4.0 - len(episode_errors))
    else:
        continuity = 5.0
    return {
        "character_consistency": 4.0 if summary.actions else 3.0,
        "plot_progression": 4.0 if summary.plot_points else 3.0,
        "emotional_authenticity": 4.0 if abs(summary.sentiment.value - 0.5) >= 0.1 else 3.0,
        "key_item_continuity": continuity,
    }


def _llm_evaluate(episode, episode_errors, context, gateway):
    prompt = prompts.render(
        gateway.template("evaluate"),
        episode_text=episode.text,
        context=context.render() or "(no context retrieved)",
        errors_json=json.dumps([error_to_dict(e) for e in episode_errors], ensure_ascii=False),
    )
    return gateway.complete_parsed(
        prompt, lambda reply: _parse_evaluation_reply(reply, episode_errors), EvaluationError, "evaluation"
    )


# the reply to `evaluate`; an asserted state that is no `ItemState` is dropped, not refused
_EVALUATION_REPLY_SHAPE = {
    "facet_scores": {name: float for name in FACETS},
    "rationale?": str,
    "cited_error_indexes?": ([int], None),
    "item_states?": (dict, None),
}


def _parse_evaluation_reply(reply, episode_errors):
    raw = extract_json_value(reply, _EVALUATION_REPLY_SHAPE)
    facets = {}
    for name in FACETS:
        value = float(raw["facet_scores"][name])
        if not (1.0 <= value <= 5.0):
            logger.warning("facet %s=%s out of range; clamped", name, value)
            value = min(5.0, max(1.0, value))
        facets[name] = value

    cited = []
    for idx in raw.get("cited_error_indexes") or ():
        if 0 <= idx < len(episode_errors):
            cited.append(episode_errors[idx])
        else:
            logger.warning("reply cites nonexistent error index %r; dropped", idx)

    states = {}
    for item_id, value in (raw.get("item_states") or {}).items():
        try:
            states[item_id] = ItemState(value)
        except ValueError:
            logger.warning("reply asserts invalid state %r for %r; dropped", value, item_id)
    return facets, raw.get("rationale", ""), tuple(cited), states


# ---------------------------------------------------------------------------
# Question answering
# ---------------------------------------------------------------------------


def answer_query(question: str, bundle: ContextBundle, gateway, *, story_id: str = "") -> QAResult:
    """Answer from the bundle only; refuses rather than inventing."""
    if not question or not question.strip():
        raise ContractError("question must be non-empty")
    if not bundle.selected:
        return QAResult(
            question=question,
            answer="insufficient context",
            supporting_episodes=(),
            correct=False,
            story_id=story_id,
        )
    if gateway.is_mock:
        answer, refs = _mock_answer(question, bundle)
    else:
        answer, refs = _llm_answer(question, bundle, gateway)
    return QAResult(
        question=question,
        answer=answer,
        supporting_episodes=tuple(refs),
        story_id=story_id,
    )


def _mock_answer(question: str, bundle: ContextBundle) -> tuple[str, list[tuple[str, int]]]:
    """Deterministic extractive answer.

    Scans the bundle in rank order for a sentence that shares a content
    word with the question and, when the question names a state transition,
    a verb of the same class; falls back to the top-ranked entry.
    """
    q_tokens = set(lexicon.tokens(question))
    target_classes = []
    if q_tokens & lexicon.DESTROYED_WORDS:
        target_classes.append(lexicon.DESTROYED_WORDS)
    if q_tokens & lexicon.LOST_WORDS:
        target_classes.append(lexicon.LOST_WORDS)
    content = q_tokens - _QA_STOPWORDS - lexicon.DESTROYED_WORDS - lexicon.LOST_WORDS

    for entry in bundle.selected:
        for sentence in lexicon.sentences(entry.text):
            toks = set(lexicon.tokens(sentence))
            if content and not (toks & content):
                continue
            if target_classes and not any(toks & cls for cls in target_classes):
                continue
            return (
                f"Episode {entry.episode_index}: {_strip_bullet(sentence)}",
                [(entry.story_id, entry.episode_index)],
            )

    top = bundle.selected[0]
    first = lexicon.sentences(top.text)
    snippet = _strip_bullet(first[0]) if first else top.text[:120]
    return f"Episode {top.episode_index}: {snippet}", [(top.story_id, top.episode_index)]


def _strip_bullet(sentence: str) -> str:
    # document bullet lines carry "id | actor=... | state=... | description"
    if sentence.startswith("- ") and " | " in sentence:
        return sentence.rsplit(" | ", 1)[-1]
    return sentence


def _llm_answer(question, bundle, gateway):
    prompt = prompts.render(gateway.template("answer"), question=question, context=bundle.render())
    return gateway.complete_parsed(prompt, lambda reply: _parse_answer_reply(reply, bundle), EvaluationError, "answer")


# the reply to `answer`; a supporting id that names no episode of the bundle is dropped
_ANSWER_REPLY_SHAPE = {"answer": str, "supporting_episode_ids?": ([str], None)}


def _parse_answer_reply(reply, bundle):
    raw = extract_json_value(reply, _ANSWER_REPLY_SHAPE)
    valid_refs = set(bundle.episode_refs())
    refs = []
    for ref in raw.get("supporting_episode_ids") or ():
        story_id, _, idx = ref.rpartition("#")
        try:
            parsed = (story_id, int(idx))
        except ValueError:
            logger.warning("unparseable supporting id %r; dropped", ref)
            continue
        if parsed in valid_refs:
            refs.append(parsed)
        else:
            logger.warning("supporting id %r not in the bundle; dropped", ref)
    return raw["answer"], refs


def grade_answer(result: QAResult, gold: GoldQA) -> QAResult:
    """Correct iff the gold answer appears in the reply (case/space-insensitive)."""
    expected = _normalize(gold.answer)
    got = _normalize(result.answer)
    return replace(result, correct=expected in got, gold_item_id=gold.item_id, story_id=gold.story_id)


def _normalize(text: str) -> str:
    return " ".join(text.casefold().split())


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def compute_metrics(
    evaluations: list[EpisodeEvaluation],
    qa_results: list[QAResult],
    timelines_by_story: dict[str, dict[str, ItemTimeline]],
    gold: GoldData | None,
    *,
    reference: dict[str, dict[str, ItemTimeline]] | None = None,
    config_digest: str = "",
) -> MetricsReport:
    """Aggregate the four headline metrics.

    consistency: share of responses whose asserted item states do not
      contradict `reference`, the corrected timelines (by default the passed ones).
    coherence: mean facet average, rescaled affinely from [1,5] to [0,100].
    item_status: share of the passed stories' gold item-state assertions
      their timelines reproduce. complex_qa: share of gold-graded questions
      answered correctly. Metrics lacking inputs are None, never fabricated.
    """
    if not evaluations and not qa_results:
        raise ContractError("nothing to aggregate")
    reference = timelines_by_story if reference is None else reference

    story_ids = sorted(
        {e.story_id for e in evaluations}
        | {q.story_id for q in qa_results if q.story_id}
        | set(timelines_by_story)
    )
    # one grouping pass each, keeping input order within a story
    evals_by_story = _group_by(evaluations, lambda e: e.story_id)
    qa_by_story = _group_by(qa_results, lambda q: q.story_id)
    tracked_gold = [g for g in gold.item_assertions if g[0] in timelines_by_story] if gold else []
    gold_by_story = _group_by(tracked_gold, lambda g: g[0])
    per_story: dict[str, dict[str, float | None]] = {}
    for story_id in story_ids:
        story_evals = evals_by_story.get(story_id, [])
        story_qa = qa_by_story.get(story_id, [])
        per_story[story_id] = {
            "consistency": _consistency(story_evals, story_qa, reference),
            "coherence": _coherence(story_evals),
            "item_status": _item_status(gold_by_story.get(story_id, []), timelines_by_story),
            "complex_qa": _complex_qa(story_qa),
        }

    return MetricsReport(
        consistency=_consistency(evaluations, qa_results, reference),
        coherence=_coherence(evaluations),
        item_status=_item_status(tracked_gold, timelines_by_story),
        complex_qa=_complex_qa(qa_results),
        per_story=per_story,
        config_digest=config_digest,
    )


def _group_by(items, key) -> dict:
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


def _coherence(evaluations: list[EpisodeEvaluation]) -> float | None:
    if not evaluations:
        return None
    rescaled = [(e.facet_average - 1.0) / 4.0 * 100.0 for e in evaluations]
    return sum(rescaled) / len(rescaled)


def _complex_qa(qa_results: list[QAResult]) -> float | None:
    graded = [q for q in qa_results if q.correct is not None]
    if not graded:
        return None
    return 100.0 * sum(1 for q in graded if q.correct) / len(graded)


def _item_status(
    gold_assertions: list[tuple[str, str, int, ItemState]],
    timelines_by_story: dict[str, dict[str, ItemTimeline]],
) -> float | None:
    if not gold_assertions:
        return None
    correct = 0
    for story_id, item_id, episode_index, true_state in gold_assertions:
        timeline = timelines_by_story.get(story_id, {}).get(item_id)
        reported = timeline.resolved_state_at(episode_index) if timeline else None
        if reported is true_state:
            correct += 1
    return 100.0 * correct / len(gold_assertions)


def _consistency(
    evaluations: list[EpisodeEvaluation],
    qa_results: list[QAResult],
    reference: dict[str, dict[str, ItemTimeline]],
) -> float | None:
    total = len(evaluations) + len(qa_results)
    if total == 0:
        return None
    conflicting = 0
    for evaluation in evaluations:
        assertions = [
            (evaluation.story_id, item_id, evaluation.episode_index, state)
            for item_id, state in evaluation.item_states.items()
        ]
        if _has_conflict(assertions, reference):
            conflicting += 1
    for qa in qa_results:
        if _has_conflict(_answer_assertions(qa), reference):
            conflicting += 1
    return 100.0 * (1.0 - conflicting / total)


def _has_conflict(assertions, reference) -> bool:
    for story_id, item_id, episode_index, state in assertions:
        timeline = reference.get(story_id, {}).get(item_id)
        if timeline is None:
            continue
        expected = timeline.resolved_state_at(episode_index)
        if expected is not None and expected is not state:
            return True
    return False


def _answer_assertions(qa: QAResult) -> list[tuple[str, str, int, ItemState]]:
    """Deterministic assertion extraction from a structured extractive answer."""
    if qa.gold_item_id is None or not qa.story_id:
        return []
    match = _EPISODE_REF_RE.search(qa.answer)
    if not match:
        return []
    episode_index = int(match.group(1))
    toks = set(lexicon.tokens(qa.answer.split(":", 1)[-1]))
    if toks & lexicon.DESTROYED_WORDS:
        state = ItemState.DESTROYED
    elif toks & lexicon.LOST_WORDS:
        state = ItemState.LOST
    else:
        return []
    return [(qa.story_id, qa.gold_item_id, episode_index, state)]


# ---------------------------------------------------------------------------
# Pipeline orchestration and the comparison harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ablations:
    """Module toggles mirroring the comparison configurations; True = enabled."""

    tracking: bool = True
    summary: bool = True
    retrieval: bool = True
    sentiment: bool = True

    def disabled(self) -> list[str]:
        return [name for name in ("tracking", "summary", "retrieval", "sentiment") if not getattr(self, name)]

    @classmethod
    def baseline(cls) -> "Ablations":
        """The plain-model protocol: no tracking, no summaries, no retrieval."""
        return cls(tracking=False, summary=False, retrieval=False, sentiment=False)


@dataclass(frozen=True)
class PipelineConfig:
    gateway: GatewayConfig
    retrieval: RetrievalConfig
    ablations: Ablations = Ablations()

    def to_dict(self) -> dict:
        """Every field that can change a request or a result; the gateway's
        sending-only fields are left out, so they change no run id."""
        raw = asdict(self)
        for name in SENDING_ONLY_FIELDS:
            del raw["gateway"][name]
        return raw

    def digest(self) -> str:
        return hashlib.sha256(canonical_dumps(self.to_dict()).encode("utf-8")).hexdigest()[:16]


@dataclass
class PipelineResult:
    report: MetricsReport
    evaluations: list[EpisodeEvaluation]
    qa_results: list[QAResult]
    states: dict[str, StoryStates]
    summaries: dict[str, list[EpisodeSummary]]


@dataclass
class _StoryRun:
    """One story's state inside its group, filled in stage by stage; no stage redoes a given output."""

    story: Story
    questions: list[GoldQA] = field(default_factory=list)
    summaries: list[EpisodeSummary] | None = None  # stage 2
    states: StoryStates | None = None  # stage 3: the raw timelines and their errors
    extracted: list[list[ItemObservation]] = field(default_factory=list)  # stage 1, per episode
    corrected: dict[str, ItemTimeline] = field(default_factory=dict)  # stage 3
    # stage 4: (kind, record) of each retrieval unit, one per episode in episode order
    units: list[tuple[str, SummaryRecord]] = field(default_factory=list)
    # one per unit: the raw rows, not the index's normalized copies, are the
    # episodes' query vectors, since search normalizes a query itself
    vectors: list = field(default_factory=list)
    question_vectors: list = field(default_factory=list)  # one per question
    index: FlatIndex | None = None
    records: dict[str, SummaryRecord] = field(default_factory=dict)

    def timelines(self, tracking: bool) -> dict[str, ItemTimeline]:
        """The timelines its evaluations see: the corrected ones, unless tracking is ablated."""
        return self.corrected if tracking else self.states[0]


def _stage_groups(runs: Iterable[_StoryRun], limit: int) -> Iterator[list[_StoryRun]]:
    """`runs` in groups of consecutive runs whose episodes plus questions, the texts stage 4
    embeds, add up to at most `limit`; a larger run is a group of its own."""
    group, total = [], 0
    for run in runs:
        n = len(run.story.episodes) + len(run.questions)
        if group and total + n > limit:
            yield group
            group, total = [], 0
        group.append(run)
        total += n
    if group:
        yield group


def _map_episodes(runs: list[_StoryRun], gateway, fn: Callable) -> list[list]:
    """`fn(episode, story)` over every episode of `runs` in one `gateway.map`, one list per run."""
    done = iter(gateway.map(lambda job: fn(*job), [(ep, run.story) for run in runs for ep in run.story.episodes]))
    return [[next(done) for _ in run.story.episodes] for run in runs]


def _extract_stage(runs: list[_StoryRun], gateway) -> None:
    """Stage 1: every episode's item observations, for each story without states."""
    todo = [run for run in runs if run.states is None]
    made = _map_episodes(todo, gateway, lambda ep, story: extract_item_statuses(ep, story.key_items, gateway))
    for run, extracted in zip(todo, made):
        run.extracted = extracted


def _summary_stage(runs: list[_StoryRun], gateway, full: bool) -> None:
    """Stage 2: every episode's summary and tone (`_minimal_summary` unless `full`), for each story without them."""
    todo = [run for run in runs if run.summaries is None]
    summarize = summarize_episode if full else _minimal_summary
    made = _map_episodes(todo, gateway, lambda ep, s: summarize(ep, s.key_items, gateway, story_id=s.story_id))
    for run, summaries in zip(todo, made):
        run.summaries = summaries


def _track_stage(runs: list[_StoryRun]) -> None:
    """Stage 3: each story's observations folded and checked (unless it has states), and its timelines corrected."""
    for run in runs:
        if run.states is None:
            timelines = story_timelines(run.story.key_items, run.extracted)
            run.states = (timelines, detect_story_errors(timelines))
        run.corrected = correct_story_timelines(*run.states)


def _index_stage(runs: list[_StoryRun], gateway, granularity: str, retrieval: bool) -> None:
    """Stage 4: each story's retrieval units; with `retrieval`, one `gateway.embed` of
    the group's documents and questions, and each story's index."""
    for run in runs:
        run.units = retrieval_units(run.story, run.summaries, granularity)
    if not retrieval:
        return
    texts = [text for run in runs for text in [r.text for _, r in run.units] + [q.question for q in run.questions]]
    vectors = iter(gateway.embed(texts))
    for run in runs:
        run.vectors = [next(vectors) for _ in run.units]
        run.question_vectors = [next(vectors) for _ in run.questions]
        run.index, run.records = build_retrieval_index(run.units, run.vectors, gateway.config.embed_dim)


def _evaluate_stage(
    runs: list[_StoryRun], gateway, ablations: Ablations, retrieval_cfg: RetrievalConfig, evaluated: Callable
) -> tuple[list[EpisodeEvaluation], list[QAResult]]:
    """Stage 5: one `gateway.map` over the group's `evaluated` episodes, then its questions."""

    def evaluate_one(run, ep):
        story = run.story
        focus = run.units[ep.index][1]
        if ablations.retrieval and len(story.episodes) > 1:
            bundle = retrieve_related(
                focus.text,
                run.summaries[ep.index].sentiment if ablations.sentiment else None,
                run.index,
                run.records,
                retrieval_cfg,
                gateway,
                exclude_ref=(story.story_id, ep.index) if retrieval_cfg.exclude_self else None,
                focus_label=focus.entry_id,
                query_vector=run.vectors[ep.index],
            )
        else:
            bundle = ContextBundle(focus=focus.entry_id, selected=())
        timelines, errors = run.timelines(ablations.tracking), run.states[1]
        return evaluate_episode(
            ep, run.summaries[ep.index], timelines, errors, bundle, gateway, story_id=story.story_id
        )

    def answer_one(run, i):
        gq = run.questions[i]
        if ablations.retrieval:
            bundle = retrieve_for_query(
                gq.question, run.index, run.records, retrieval_cfg, gateway, query_vector=run.question_vectors[i]
            )
        else:
            bundle = ContextBundle(focus=f"query:{gq.question[:72]}", selected=())
        return grade_answer(answer_query(gq.question, bundle, gateway, story_id=run.story.story_id), gq)

    tasks = [functools.partial(evaluate_one, run, ep) for run in runs for ep in evaluated(run.story)]
    n = len(tasks)
    tasks += [functools.partial(answer_one, run, i) for run in runs for i in range(len(run.questions))]
    done = gateway.map(lambda task: task(), tasks)
    return done[:n], done[n:]


def stage_outputs(stories: list[Story], gateway, stage: str) -> dict:
    """Each story's `stage` output by story id, as `PipelineResult` holds it:
    "states" runs stages 1 and 3 of `run_pipeline`, "summaries" stage 2."""
    made = {}
    for group in _stage_groups(map(_StoryRun, stories), gateway.config.embed_batch_limit):
        if stage == "states":
            _extract_stage(group, gateway)
            _track_stage(group)
        else:
            _summary_stage(group, gateway, full=True)
        made.update((run.story.story_id, getattr(run, stage)) for run in group)
    return made


def run_pipeline(
    stories: list[Story],
    gateway,
    config: PipelineConfig,
    gold: GoldData | None = None,
    *,
    episode: tuple[str, int] | None = None,
    states: dict[str, StoryStates] | None = None,
    summaries: dict[str, list[EpisodeSummary]] | None = None,
) -> PipelineResult:
    """Run extract -> summarize -> track -> index -> evaluate -> QA over a corpus.

    `episode`, a (story_id, episode index), runs that one story and
    evaluates that one episode of it, with the same context a full run
    gives it, and answers no question; the metrics cover that evaluation.
    `states` and `summaries`, by story id as `PipelineResult` holds them,
    were made before: a story they hold is not tracked, or not summarized,
    again (`summaries` go unused when summarization is ablated).

    Stories run in story_id order, in the groups of `_stage_groups`. Each
    group runs five stages; `stage_outputs` runs stages 1 to 3 alone:
    1. extraction: one `gateway.map` over every episode;
    2. summary and tone (tone only, when summarization is ablated): one `gateway.map` over every episode;
    3. each story's timelines are folded, checked and corrected;
    4. one `gateway.embed` of every document and question, and each story's retrieval index;
    5. one `gateway.map` over every evaluation and every question.
    No mapped item maps again; on the remote path each map keeps the request
    slots full across the group's stories. Memory stays bounded by one group.

    Deterministic under the mock backend or in replay mode: every stage is
    a pure function of its inputs, and `gateway.map` keeps input order at
    any `max_parallel`. Results are folded in story, episode and question
    order.
    """
    ablations = config.ablations
    retrieval_cfg = config.retrieval
    if not ablations.sentiment:  # the one switch for the filter of episodes and questions alike
        retrieval_cfg = replace(retrieval_cfg, filter_queries=False)
    # one unit per episode: its summary's document, or its raw text when
    # summarization is ablated; each unit's vector is also its episode's
    # retrieval focus
    granularity = "summary" if ablations.summary else "episode"

    gold_by_story: dict[str, list[GoldQA]] = {}
    if episode is not None:
        stories = [s for s in stories if s.story_id == episode[0]]
    elif gold:  # a one-episode run answers no question
        for gq in gold.qa:
            gold_by_story.setdefault(gq.story_id, []).append(gq)

    def evaluated(story):
        return story.episodes if episode is None else story.episodes[episode[1] : episode[1] + 1]

    evaluations: list[EpisodeEvaluation] = []
    qa_results: list[QAResult] = []
    made_states, made_summaries, timelines, reference = {}, {}, {}, {}  # timelines: what evaluations saw
    states, summaries = states or {}, (summaries or {}) if ablations.summary else {}
    runs = (
        _StoryRun(s, gold_by_story.get(s.story_id, []), summaries.get(s.story_id), states.get(s.story_id))
        for s in sorted(stories, key=lambda s: s.story_id)
    )
    for group in _stage_groups(runs, gateway.config.embed_batch_limit):
        _extract_stage(group, gateway)
        _summary_stage(group, gateway, ablations.summary)
        _track_stage(group)
        _index_stage(group, gateway, granularity, ablations.retrieval)
        group_evaluations, group_answers = _evaluate_stage(group, gateway, ablations, retrieval_cfg, evaluated)
        evaluations += group_evaluations
        qa_results += group_answers
        for run in group:
            story_id = run.story.story_id
            made_states[story_id], made_summaries[story_id] = run.states, run.summaries
            timelines[story_id], reference[story_id] = run.timelines(ablations.tracking), run.corrected
    report = compute_metrics(
        evaluations, qa_results, timelines, gold, reference=reference, config_digest=config.digest()
    )
    return PipelineResult(report, evaluations, qa_results, made_states, made_summaries)


def _minimal_summary(episode: Episode, items, gateway, *, story_id: str) -> EpisodeSummary:
    """Summary stub for the no-summarization configuration: synopsis and tone
    only; `items` go unused, as `summarize_episode` takes them."""
    sents = lexicon.sentences(episode.text)
    return EpisodeSummary(
        story_id=story_id,
        episode_index=episode.index,
        synopsis=" ".join(sents[:2]) if sents else episode.text.strip(),
        plot_points=(),
        actions=(),
        interactions=(),
        relationships=(),
        emotional_changes=(),
        sentiment=gateway.score_sentiment(episode.text),
    )


@dataclass
class ComparisonReport:
    config_a: PipelineConfig
    config_b: PipelineConfig
    report_a: MetricsReport
    report_b: MetricsReport
    digest_collision: bool
    # side a's stage outputs, by story id as `PipelineResult` holds them
    states: dict[str, StoryStates]
    summaries: dict[str, list[EpisodeSummary]]

    def deltas(self) -> dict[str, float | None]:
        out: dict[str, float | None] = {}
        for name in ("consistency", "coherence", "item_status", "complex_qa"):
            a = getattr(self.report_a, name)
            b = getattr(self.report_b, name)
            out[name] = (a - b) if (a is not None and b is not None) else None
        return out


def run_comparison(
    stories: list[Story],
    gold: GoldData | None,
    gateway,
    config_a: PipelineConfig,
    config_b: PipelineConfig,
    *,
    states: dict[str, StoryStates] | None = None,
    summaries: dict[str, list[EpisodeSummary]] | None = None,
) -> ComparisonReport:
    """Evaluate the identical corpus and question set under two
    configurations; `states` and `summaries` serve both runs as in
    `run_pipeline`, and the report holds side a's."""
    collision = config_a.digest() == config_b.digest()
    if collision:
        logger.warning("both comparison configs have digest %s; comparing a config to itself", config_a.digest())
    result_a = run_pipeline(stories, gateway, config_a, gold, states=states, summaries=summaries)
    result_b = run_pipeline(stories, gateway, config_b, gold, states=states, summaries=summaries)
    return ComparisonReport(
        config_a=config_a,
        config_b=config_b,
        report_a=result_a.report,
        report_b=result_b.report,
        digest_collision=collision,
        states=result_a.states,
        summaries=result_a.summaries,
    )
