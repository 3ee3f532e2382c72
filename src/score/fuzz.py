"""Synthetic story corpora with exact ground truth and planted continuity faults.

Generation is template-based, never model-based, so the truth is known by
construction: every event sentence uses exactly the word forms the rule
extractor keys on. Planted violations reintroduce a lost or destroyed item
with an active-voice sentence; a configurable share of them is preceded by
an explanation sentence, which makes the reappearance legal and must NOT
be flagged. Same seed, same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import ValidationError
from .evaluator import GoldData, GoldQA
from .story import Episode, ItemState, KeyItem, Story
from .tracker import ERROR_SHAPE, ContinuityError, error_from_dict, error_to_dict

_ITEMS = (
    "sword", "amulet", "lantern", "dagger", "compass", "chalice", "banner",
    "locket", "crown", "mirror", "flute", "tome", "pendant", "spear",
    "shield", "horn", "idol", "orb", "scepter", "talisman",
)
_CHARACTERS = (
    "Aldric", "Mira", "Toren", "Isolde", "Bram", "Selene",
    "Corin", "Wren", "Edda", "Fenn", "Joris", "Lyra",
)
_PLACES = (
    "forest", "harbor", "citadel", "marsh", "village", "canyon",
    "abbey", "bazaar", "glacier", "catacombs", "orchard", "quarry",
)
_GENRES = ("science_fiction", "drama", "fantasy", "comedy")

# Every filler starts with The/A so the action-pattern rule never fires on it.
_FILLERS = {
    "positive": (
        "The morning felt bright and hopeful.",
        "The {place} rang with warm laughter and gentle cheer.",
        "A calm and cheerful peace settled over the {place}.",
    ),
    "negative": (
        "A gloomy dread settled over the {place}.",
        "The night turned dark and bitter with sorrow.",
        "The {place} lay under grief and despair.",
    ),
    "neutral": (
        "The road wound past the {place} at dusk.",
        "A thin line of smoke rose over the {place}.",
        "The bells of the {place} marked the hour.",
    ),
}

_INTRO = (
    "{char} carried the {item} through the {place}.",
    "{char} studied the {item} by candlelight.",
    "{char} kept the {item} close at hand.",
)
_MENTION = (
    "{char} polished the {item} by the fire.",
    "{char} held the {item} up to the light.",
    "The {item} rested in {char}'s pack.",
)
_LOST = (
    "The {item} was lost in the {place}.",
    "{char} found that the {item} had vanished.",
    "The {item} went missing during the crossing.",
)
_DESTROYED = (
    "The {item} was destroyed in the blaze.",
    "The {item} shattered on the stone floor.",
    "Flames burned the {item} to ash.",
)
_EXPLANATION = (
    "The {item} was repaired by the smith.",
    "A traveler recovered the {item} from the river.",
    "The {item} was restored at the temple shrine.",
    "Artisans rebuilt the {item} overnight.",
)
_REINTRO = (
    "{char} carried the {item} once more.",
    "The {item} gleamed again in {char}'s hands.",
    "{char} raised the {item} high above the crowd.",
)
_RELATIONSHIP = (
    "{char} trusted {char2} on the long road.",
    "{char} argued with {char2} beneath the walls.",
)


@dataclass(frozen=True, slots=True)
class FuzzSpec:
    seed: int
    n_stories: int = 10
    episodes_per_story: tuple[int, int] = (6, 12)
    items_per_story: tuple[int, int] = (2, 4)
    violation_rate: float = 0.3
    explained_rate: float = 0.2

    def __post_init__(self):
        if self.n_stories <= 0:
            raise ValidationError("n_stories", "must be positive")
        for name in ("episodes_per_story", "items_per_story"):
            lo, hi = getattr(self, name)
            if lo <= 0 or hi < lo:
                raise ValidationError(name, f"invalid range ({lo}, {hi})")
        for name in ("violation_rate", "explained_rate"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValidationError(name, f"must be in [0, 1], got {value}")


@dataclass(frozen=True, slots=True)
class TrueState:
    episode: int
    state: ItemState
    explained: bool


@dataclass
class GroundTruth:
    """Exact truth for a generated corpus."""

    true_timelines: dict[str, dict[str, tuple[TrueState, ...]]] = field(default_factory=dict)
    planted_errors: dict[str, tuple[ContinuityError, ...]] = field(default_factory=dict)
    qa: tuple[GoldQA, ...] = ()

    def to_gold(self) -> GoldData:
        assertions = []
        for story_id in sorted(self.true_timelines):
            for item_id in sorted(self.true_timelines[story_id]):
                for ts in self.true_timelines[story_id][item_id]:
                    assertions.append((story_id, item_id, ts.episode, ts.state))
        return GoldData(item_assertions=tuple(assertions), qa=self.qa)

    def total_planted(self) -> int:
        return sum(len(v) for v in self.planted_errors.values())


@dataclass(frozen=True, slots=True)
class DetectionScore:
    precision: float
    recall: float
    f1: float
    degenerate: bool = False  # nothing reported: precision 1.0 by convention


def generate_corpus(spec: FuzzSpec) -> tuple[list[Story], GroundTruth]:
    """Deterministic corpus + ground truth for a spec."""
    stories = []
    truth = GroundTruth()
    qa: list[GoldQA] = []
    for i in range(spec.n_stories):
        rng = random.Random(spec.seed * 1_000_003 + i)
        story, timelines, planted, story_qa = _generate_story(spec, i, rng)
        stories.append(story)
        truth.true_timelines[story.story_id] = timelines
        truth.planted_errors[story.story_id] = tuple(planted)
        qa.extend(story_qa)
    truth.qa = tuple(qa)
    return stories, truth


def _generate_story(spec: FuzzSpec, ordinal: int, rng: random.Random):
    story_id = f"fuzz-{spec.seed}-{ordinal:04d}"
    n_eps = rng.randint(*spec.episodes_per_story)
    n_items = rng.randint(*spec.items_per_story)
    items = rng.sample(_ITEMS, min(n_items, len(_ITEMS)))
    chars = rng.sample(_CHARACTERS, 3)
    place = rng.choice(_PLACES)

    # per-episode sentence lists; fillers first, then event sentences
    sentences: list[list[str]] = []
    for _ in range(n_eps):
        mood = rng.choice(("positive", "negative", "neutral"))
        pool = _FILLERS[mood]
        picks = rng.sample(pool, 2)
        sentences.append([p.format(place=place) for p in picks])
        if rng.random() < 0.3:
            c1, c2 = rng.sample(chars, 2)
            sentences[-1].append(rng.choice(_RELATIONSHIP).format(char=c1, char2=c2))

    timelines: dict[str, tuple[TrueState, ...]] = {}
    planted: list[ContinuityError] = []
    story_qa: list[GoldQA] = []

    for item in items:
        script = _item_script(spec, n_eps, rng)
        char = rng.choice(chars)
        states: list[TrueState] = []

        intro_ep, mention_eps, terminal = script["intro"], script["mentions"], script["terminal"]
        sentences[intro_ep].append(rng.choice(_INTRO).format(char=char, item=item, place=place))
        states.append(TrueState(intro_ep, ItemState.ACTIVE, False))
        for m in mention_eps:
            sentences[m].append(rng.choice(_MENTION).format(char=char, item=item))
            states.append(TrueState(m, ItemState.ACTIVE, False))

        if terminal is not None:
            terminal_ep, terminal_state = terminal
            pool = _LOST if terminal_state is ItemState.LOST else _DESTROYED
            sentences[terminal_ep].append(rng.choice(pool).format(char=char, item=item, place=place))
            states.append(TrueState(terminal_ep, terminal_state, False))
            verb = "lost" if terminal_state is ItemState.LOST else "destroyed"
            story_qa.append(
                GoldQA(
                    story_id=story_id,
                    question=f"In which episode was the {item} {verb}?",
                    answer=f"episode {terminal_ep}",
                    item_id=item,
                )
            )

            violation = script["violation"]
            if violation is not None:
                violation_ep, explained = violation
                if explained:
                    sentences[violation_ep].append(rng.choice(_EXPLANATION).format(item=item))
                    sentences[violation_ep].append(rng.choice(_REINTRO).format(char=char, item=item))
                    # legally active again
                    states.append(TrueState(violation_ep, ItemState.ACTIVE, True))
                else:
                    sentences[violation_ep].append(rng.choice(_REINTRO).format(char=char, item=item))
                    # the claim is an error: the narrative truth keeps the terminal state
                    states.append(TrueState(violation_ep, terminal_state, False))
                    planted.append(
                        ContinuityError(
                            item_id=item,
                            prior_episode=terminal_ep,
                            prior_state=terminal_state,
                            reappearance_episode=violation_ep,
                            claimed_state=ItemState.ACTIVE,
                            explanation_found=False,
                        )
                    )
        timelines[item] = tuple(sorted(states, key=lambda s: s.episode))

    episodes = tuple(
        Episode(index=i, text=" ".join(parts)) for i, parts in enumerate(sentences)
    )
    story = Story(
        story_id=story_id,
        title=f"The {items[0].title()} of the {place.title()}",
        genre=_GENRES[ordinal % len(_GENRES)],
        key_items=tuple(KeyItem(item_id=item, names=(item,)) for item in items),
        episodes=episodes,
    )
    planted.sort(key=lambda e: (e.reappearance_episode, e.item_id))
    return story, timelines, planted, story_qa


def _item_script(spec: FuzzSpec, n_eps: int, rng: random.Random) -> dict:
    """Episode plan for one item: intro < mentions < terminal < violation."""
    intro = rng.randint(0, max(0, n_eps - 3))
    terminal = None
    violation = None
    mention_hi = n_eps - 1

    if n_eps - 1 > intro and rng.random() < 0.65:
        terminal_ep = rng.randint(intro + 1, n_eps - 1)
        terminal_state = rng.choice((ItemState.LOST, ItemState.DESTROYED))
        terminal = (terminal_ep, terminal_state)
        mention_hi = terminal_ep - 1
        if terminal_ep < n_eps - 1 and rng.random() < spec.violation_rate:
            violation_ep = rng.randint(terminal_ep + 1, n_eps - 1)
            violation = (violation_ep, rng.random() < spec.explained_rate)

    candidates = list(range(intro + 1, mention_hi + 1))
    rng.shuffle(candidates)
    mentions = sorted(candidates[: rng.randint(0, min(2, len(candidates)))])
    return {"intro": intro, "mentions": mentions, "terminal": terminal, "violation": violation}


def score_detection(
    reported: dict[str, list[ContinuityError]], truth: GroundTruth
) -> DetectionScore:
    """Precision/recall/F1 of reported errors, matched on (story, item, reappearance).

    Stories the ground truth does not cover are out of scope: errors
    reported for them are neither false positives nor hits.
    """
    covered = set(truth.true_timelines)
    reported_keys = {
        (story_id, e.item_id, e.reappearance_episode)
        for story_id, errs in reported.items()
        if story_id in covered
        for e in errs
    }
    planted_keys = {
        (story_id, e.item_id, e.reappearance_episode)
        for story_id, errs in truth.planted_errors.items()
        for e in errs
    }
    tp = len(reported_keys & planted_keys)
    degenerate = not reported_keys
    precision = 1.0 if degenerate else tp / len(reported_keys)
    recall = 1.0 if not planted_keys else tp / len(planted_keys)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return DetectionScore(precision=precision, recall=recall, f1=f1, degenerate=degenerate)


# ---------------------------------------------------------------------------
# ground_truth.json
# ---------------------------------------------------------------------------


def truth_to_dict(truth: GroundTruth) -> dict:
    return {
        "stories": [
            {
                "story_id": story_id,
                "items": [
                    {
                        "item_id": item_id,
                        "truth": [
                            {"episode": ts.episode, "state": ts.state.value, "explained": ts.explained}
                            for ts in truth.true_timelines[story_id][item_id]
                        ],
                    }
                    for item_id in sorted(truth.true_timelines[story_id])
                ],
                "planted_errors": [error_to_dict(e) for e in truth.planted_errors.get(story_id, ())],
            }
            for story_id in sorted(truth.true_timelines)
        ],
        "qa": [
            {"story_id": q.story_id, "item_id": q.item_id, "question": q.question, "answer": q.answer}
            for q in truth.qa
        ],
    }


TRUTH_SHAPE = {
    "stories": [
        {
            "story_id": str,
            "items?": [{"item_id": str, "truth": [{"episode": int, "state": ItemState, "explained": bool}]}],
            "planted_errors?": [ERROR_SHAPE],
        }
    ],
    "qa": [{"story_id": str, "question": str, "answer": str, "item_id?": (str, None)}],
}


def truth_from_dict(raw: dict) -> GroundTruth:
    truth = GroundTruth()
    for entry in raw.get("stories", []):
        story_id = entry["story_id"]
        truth.true_timelines[story_id] = {
            item["item_id"]: tuple(
                TrueState(t["episode"], ItemState(t["state"]), t["explained"]) for t in item["truth"]
            )
            for item in entry.get("items", [])
        }
        truth.planted_errors[story_id] = tuple(error_from_dict(e) for e in entry.get("planted_errors", []))
    truth.qa = tuple(
        GoldQA(
            story_id=q["story_id"],
            question=q["question"],
            answer=q["answer"],
            item_id=q.get("item_id"),
        )
        for q in raw.get("qa", [])
    )
    return truth
