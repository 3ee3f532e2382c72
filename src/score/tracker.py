"""Per-item state timelines, continuity-error detection, and state correction.

The rule is deliberately narrow: an item that was last marked lost or
destroyed and then claims to be active again, without the text explaining
the return, is a continuity error. Correction keeps the prior terminal
state standing instead of accepting the bad transition.

Detection always reads the raw observation stream. Correction only marks
the offending observation as suppressed, so the effective (resolved) state
falls back to the prior state by carry-forward; re-running detection on a
corrected timeline reports the same errors, which keeps the audit trail
stable.
"""

from __future__ import annotations

import bisect
import functools
import logging
from dataclasses import dataclass, replace

from . import lexicon
from .errors import ContractError, ValidationError
from .gateway import extract_json_value
from .story import Episode, ItemState, KeyItem, TERMINAL_STATES, key_items_json

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class ItemObservation:
    """One observed state of an item in one episode.

    `evidence` is a [start, end) character span into the episode text.
    `explained` marks observations whose sentence narratively reintroduces
    the item (repaired, recovered, ...). `suppressed` is set by correction
    and never by extraction.
    """

    item_id: str
    episode_index: int
    state: ItemState
    evidence: tuple[int, int] | None = None
    explained: bool = False
    suppressed: bool = False

    def __post_init__(self):
        if self.episode_index < 0:
            raise ValidationError("episode_index", "must be >= 0")
        if self.evidence is not None and (len(self.evidence) != 2 or not 0 <= self.evidence[0] < self.evidence[1]):
            raise ValidationError("evidence", f"invalid span {list(self.evidence)}")


@dataclass(frozen=True)  # not slotted: `_standing`, a cached_property, is kept in the instance __dict__
class ItemTimeline:
    """Observations of one item, ordered by episode (ties keep insertion order)."""

    item_id: str
    observations: tuple[ItemObservation, ...] = ()

    def __len__(self) -> int:
        return len(self.observations)

    def episode_resolution(self, *, include_suppressed: bool = True) -> list[ItemObservation]:
        """The standing observation per episode: the last one in text order.

        With include_suppressed=False, corrected-away observations are
        skipped; an episode whose every observation is suppressed
        contributes nothing (its effective state carries forward).
        """
        per_episode: dict[int, ItemObservation] = {}
        for obs in self.observations:
            if not include_suppressed and obs.suppressed:
                continue
            per_episode[obs.episode_index] = obs
        return [per_episode[e] for e in sorted(per_episode)]

    def resolved_state_at(self, episode_index: int) -> ItemState | None:
        """Effective state at an episode on the corrected view, carrying forward."""
        episodes, states = self._standing
        pos = bisect.bisect_right(episodes, episode_index)
        return states[pos - 1] if pos else None

    @functools.cached_property
    def _standing(self) -> tuple[list[int], list[ItemState]]:
        """Episodes of the corrected view's standing observations, ascending,
        and their states; resolved once per timeline, which is immutable."""
        standing = self.episode_resolution(include_suppressed=False)
        return [obs.episode_index for obs in standing], [obs.state for obs in standing]


@dataclass(frozen=True, slots=True)
class ContinuityError:
    """An unexplained lost/destroyed -> active transition."""

    item_id: str
    prior_episode: int
    prior_state: ItemState
    reappearance_episode: int
    claimed_state: ItemState
    explanation_found: bool

    def __post_init__(self):
        if self.prior_state not in TERMINAL_STATES:
            raise ValidationError("prior_state", f"must be lost or destroyed, got {self.prior_state.value}")
        if self.claimed_state is not ItemState.ACTIVE:
            raise ValidationError("claimed_state", f"must be active, got {self.claimed_state.value}")
        if self.prior_episode >= self.reappearance_episode:
            raise ValidationError(
                "prior_episode",
                f"must precede reappearance ({self.prior_episode} >= {self.reappearance_episode})",
            )


def record_observation(timeline: ItemTimeline, obs: ItemObservation) -> ItemTimeline:
    """Insert an observation in episode order; ties go after existing entries."""
    if obs.item_id != timeline.item_id:
        raise ContractError(f"observation item {obs.item_id!r} does not match timeline {timeline.item_id!r}")
    keys = [o.episode_index for o in timeline.observations]
    pos = bisect.bisect_right(keys, obs.episode_index)
    observations = timeline.observations[:pos] + (obs,) + timeline.observations[pos:]
    return ItemTimeline(item_id=timeline.item_id, observations=observations)


def detect_continuity_errors(timeline: ItemTimeline) -> list[ContinuityError]:
    """Flag every unexplained reappearance after a terminal state.

    Works on the raw per-episode resolution (suppression is ignored), and
    keys on the transition: once an item stands active again, later active
    mentions are not re-flagged.
    """
    errors: list[ContinuityError] = []
    prior: ItemObservation | None = None
    for obs in timeline.episode_resolution(include_suppressed=True):
        if (
            prior is not None
            and prior.state in TERMINAL_STATES
            and obs.state is ItemState.ACTIVE
            and not obs.explained
        ):
            errors.append(
                ContinuityError(
                    item_id=timeline.item_id,
                    prior_episode=prior.episode_index,
                    prior_state=prior.state,
                    reappearance_episode=obs.episode_index,
                    claimed_state=ItemState.ACTIVE,
                    explanation_found=False,
                )
            )
        prior = obs
    return errors


def correct_timeline(timeline: ItemTimeline, errors: list[ContinuityError]) -> ItemTimeline:
    """Suppress each flagged reappearance so the prior state keeps standing.

    The offending observation stays in the timeline (audit trail); only its
    `suppressed` marker changes. Idempotent.
    """
    flagged = set()
    for err in errors:
        if err.item_id != timeline.item_id:
            raise ContractError(f"error for item {err.item_id!r} applied to timeline {timeline.item_id!r}")
        flagged.add(err.reappearance_episode)
    if not flagged:
        return timeline

    last_at_episode: dict[int, int] = {}
    for i, obs in enumerate(timeline.observations):
        last_at_episode[obs.episode_index] = i

    observations = list(timeline.observations)
    for episode in flagged:
        idx = last_at_episode.get(episode)
        if idx is None:
            raise ContractError(f"no observation at episode {episode} to correct")
        observations[idx] = replace(observations[idx], suppressed=True)
    return ItemTimeline(item_id=timeline.item_id, observations=tuple(observations))


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def extract_item_statuses(episode: Episode, items: list[KeyItem], gateway) -> list[ItemObservation]:
    """One observation per key item mentioned in the episode.

    An episode in whose text no alias of any item occurs, in any case and
    even inside a longer word, mentions none, so it has none, on either
    backend and without a request: the `extract_states` template fixes that
    reply as `[]`. The test is a superset of the whole-word matcher of
    `rule_extract`, so it drops none of its observations, and a mention the
    model may read as one ("swords", "C++" before a space) is still sent.
    Otherwise the mock backend runs the deterministic rule extractor, and
    the remote backend asks the model for structured JSON (one repair
    reprompt).
    """
    if not any(lexicon.alias_pattern(item.names, whole_words=False).search(episode.text) for item in items):
        return []
    if gateway.is_mock:
        return rule_extract(episode, items)
    return gateway.complete_parsed(
        "extract_states",
        lambda reply: _parse_extraction_reply(reply, episode, items),
        episode_text=episode.text,
        items_json=key_items_json(items),
    )


def rule_extract(episode: Episode, items: list[KeyItem]) -> list[ItemObservation]:
    """Lexicon-driven extraction.

    Per item, the last mentioning sentence decides the state (the episode's
    end state is what carries forward) and any mentioning sentence with an
    explanation word marks the whole episode's observation explained.
    """
    analysed = lexicon.sentence_tokens(episode.text)

    observations: list[ItemObservation] = []
    for item in items:
        pattern = lexicon.alias_pattern(item.names)
        state: ItemState | None = None
        evidence: tuple[int, int] | None = None
        explained = False
        for s, e, toks in analysed:
            if not pattern.search(episode.text, s, e):
                continue
            state = lexicon.state_for_tokens(toks)
            evidence = (s, e)
            explained = explained or lexicon.has_explanation(toks)
        if state is not None:
            observations.append(
                ItemObservation(
                    item_id=item.item_id,
                    episode_index=episode.index,
                    state=state,
                    evidence=evidence,
                    explained=explained,
                )
            )
    return observations


# the reply to `extract_states`: one object per item the episode mentions. Its
# `item_id` is left out, as an id of any other kind names no declared item
# either, and is dropped as an unknown one is.
_EXTRACTION_REPLY_SHAPE = [{"state": ItemState, "explained?": bool, "evidence?": ([int], None)}]


def _parse_extraction_reply(reply: str, episode: Episode, items: list[KeyItem]) -> list[ItemObservation]:
    known = tuple(k.item_id for k in items)  # found by equality, so an unhashable id is no error
    observations = []
    for entry in extract_json_value(reply, _EXTRACTION_REPLY_SHAPE):
        item_id = entry.get("item_id")
        if item_id not in known:
            logger.warning("extractor reply names undeclared item %r; dropped", item_id)
            continue
        evidence = entry.get("evidence")
        if evidence is not None and (len(evidence) != 2 or not 0 <= evidence[0] < evidence[1] <= len(episode.text)):
            raise ValueError(f"evidence {evidence} is not a [start, end) span inside the episode text")
        observations.append(
            ItemObservation(
                item_id=item_id,
                episode_index=episode.index,
                state=ItemState(entry["state"]),
                evidence=None if evidence is None else tuple(evidence),
                explained=entry.get("explained", False),
            )
        )
    return observations


# ---------------------------------------------------------------------------
# Story-level folding and the states file
# ---------------------------------------------------------------------------


def story_timelines(items: list[KeyItem], extracted: list[list[ItemObservation]]) -> dict[str, ItemTimeline]:
    """Per-item timelines of each episode's observations, `extracted` in episode order."""
    timelines = {k.item_id: ItemTimeline(item_id=k.item_id) for k in items}
    for observations in extracted:
        for obs in observations:
            timelines[obs.item_id] = record_observation(timelines[obs.item_id], obs)
    return {k: tl for k, tl in timelines.items() if tl.observations}


def detect_story_errors(timelines: dict[str, ItemTimeline]) -> list[ContinuityError]:
    errors: list[ContinuityError] = []
    for item_id in sorted(timelines):
        errors.extend(detect_continuity_errors(timelines[item_id]))
    errors.sort(key=lambda e: (e.reappearance_episode, e.item_id))
    return errors


def correct_story_timelines(
    timelines: dict[str, ItemTimeline], errors: list[ContinuityError]
) -> dict[str, ItemTimeline]:
    by_item: dict[str, list[ContinuityError]] = {}
    for err in errors:
        by_item.setdefault(err.item_id, []).append(err)
    return {
        item_id: correct_timeline(tl, by_item.get(item_id, []))
        for item_id, tl in timelines.items()
    }


def error_to_dict(err: ContinuityError) -> dict:
    return {
        "item_id": err.item_id,
        "prior_episode": err.prior_episode,
        "prior_state": err.prior_state.value,
        "reappearance_episode": err.reappearance_episode,
        "claimed_state": err.claimed_state.value,
        "explanation_found": err.explanation_found,
    }


ERROR_SHAPE = {
    "item_id": str,
    "prior_episode": int,
    "prior_state": ItemState,
    "reappearance_episode": int,
    "claimed_state": ItemState,
    "explanation_found": bool,
}


def error_from_dict(raw: dict) -> ContinuityError:
    return ContinuityError(
        item_id=raw["item_id"],
        prior_episode=raw["prior_episode"],
        prior_state=ItemState(raw["prior_state"]),
        reappearance_episode=raw["reappearance_episode"],
        claimed_state=ItemState(raw["claimed_state"]),
        explanation_found=raw["explanation_found"],
    )


# a story's raw timelines, by item id, and their continuity errors
StoryStates = tuple[dict[str, ItemTimeline], list[ContinuityError]]


def states_to_dict(states: StoryStates) -> dict:
    """The on-disk item-state file: the raw timelines alone.

    Neither the continuity errors nor the corrected timelines are stored;
    `states_from_dict` detects the errors again, and correct_story_timelines
    reproduces the corrected timelines from them.
    """
    timelines, _ = states
    return {
        "timelines": [
            {
                "item_id": item_id,
                "observations": [
                    {
                        "episode": o.episode_index,
                        "state": o.state.value,
                        "explained": o.explained,
                        "evidence": list(o.evidence) if o.evidence else None,
                    }
                    for o in timelines[item_id].observations
                ],
            }
            for item_id in sorted(timelines)
        ],
    }


_OBSERVATION_SHAPE = {"episode": int, "state": ItemState, "explained": bool, "evidence": ([int], None)}
_TIMELINE_SHAPE = {"item_id": str, "observations": [_OBSERVATION_SHAPE]}
STATES_SHAPE = {"timelines": [_TIMELINE_SHAPE]}


def states_from_dict(raw: dict) -> StoryStates:
    """The timelines `states_to_dict`'s object holds, and the errors they
    show. A file written by an older version may also hold its story id and
    errors; they are not read."""
    timelines = {}
    for entry in raw["timelines"]:
        item_id = entry["item_id"]
        tl = ItemTimeline(item_id=item_id)
        for o in entry["observations"]:
            tl = record_observation(
                tl,
                ItemObservation(
                    item_id=item_id,
                    episode_index=o["episode"],
                    state=ItemState(o["state"]),
                    evidence=tuple(o["evidence"]) if o["evidence"] else None,
                    explained=o["explained"],
                ),
            )
        timelines[item_id] = tl
    return timelines, detect_story_errors(timelines)
