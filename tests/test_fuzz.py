import random

import pytest

from score.errors import ValidationError
from score.evaluator import stage_outputs
from score.fuzz import (
    DetectionScore,
    FuzzSpec,
    generate_corpus,
    score_detection,
    truth_from_dict,
    truth_to_dict,
)
from score.story import ItemState, serialize_story


def small_spec(**kw):
    defaults = dict(seed=11, n_stories=6, violation_rate=0.4, explained_rate=0.3)
    defaults.update(kw)
    return FuzzSpec(**defaults)


def test_same_seed_gives_byte_identical_corpora():
    a_stories, a_truth = generate_corpus(small_spec())
    b_stories, b_truth = generate_corpus(small_spec())
    assert [serialize_story(s) for s in a_stories] == [serialize_story(s) for s in b_stories]
    assert truth_to_dict(a_truth) == truth_to_dict(b_truth)


def test_different_seeds_differ():
    a, _ = generate_corpus(small_spec(seed=1))
    b, _ = generate_corpus(small_spec(seed=2))
    assert [serialize_story(s) for s in a] != [serialize_story(s) for s in b]


def test_zero_violation_rate_plants_nothing():
    _, truth = generate_corpus(small_spec(violation_rate=0.0))
    assert truth.total_planted() == 0


def test_planted_errors_are_consistent_with_true_timelines():
    _, truth = generate_corpus(small_spec(n_stories=20))
    for story_id, errors in truth.planted_errors.items():
        for err in errors:
            states = truth.true_timelines[story_id][err.item_id]
            by_episode = {s.episode: s for s in states}
            assert by_episode[err.prior_episode].state is err.prior_state
            # the truth retains the terminal state at the violation episode
            assert by_episode[err.reappearance_episode].state is err.prior_state


def test_detection_is_exact_on_generated_corpora(mock_gateway):
    stories, truth = generate_corpus(small_spec(n_stories=40))
    states = stage_outputs(stories, mock_gateway, "states")
    reported = {story_id: errors for story_id, (_, errors) in states.items()}
    score = score_detection(reported, truth)
    assert score.precision == 1.0 and score.recall == 1.0 and score.f1 == 1.0


def test_explained_plantings_are_never_flagged(mock_gateway):
    # every violation explained: detection must stay silent on them
    for seed in range(5):
        stories, truth = generate_corpus(
            small_spec(seed=seed, violation_rate=1.0, explained_rate=1.0, n_stories=10)
        )
        assert truth.total_planted() == 0
        for _, errors in stage_outputs(stories, mock_gateway, "states").values():
            assert errors == []


def test_fully_unexplained_violations_all_detected(mock_gateway):
    stories, truth = generate_corpus(
        small_spec(seed=3, violation_rate=1.0, explained_rate=0.0, n_stories=10)
    )
    assert truth.total_planted() > 0
    states = stage_outputs(stories, mock_gateway, "states")
    reported = {story_id: errors for story_id, (_, errors) in states.items()}
    assert score_detection(reported, truth).recall == 1.0


def test_gold_qa_points_at_terminal_episodes():
    stories, truth = generate_corpus(small_spec(n_stories=10))
    by_id = {s.story_id: s for s in stories}
    assert truth.qa, "expected at least one gold question"
    for q in truth.qa:
        episode = int(q.answer.split()[-1])
        story = by_id[q.story_id]
        assert 0 <= episode < len(story.episodes)
        states = truth.true_timelines[q.story_id][q.item_id]
        terminal = [s for s in states if s.episode == episode][0]
        assert terminal.state in (ItemState.LOST, ItemState.DESTROYED)


# ---------------------------------------------------------------------------
# score_detection conventions
# ---------------------------------------------------------------------------


def test_reported_equals_planted_scores_one():
    _, truth = generate_corpus(small_spec(violation_rate=1.0, explained_rate=0.0))
    reported = {sid: list(errs) for sid, errs in truth.planted_errors.items()}
    score = score_detection(reported, truth)
    assert score == DetectionScore(precision=1.0, recall=1.0, f1=1.0, degenerate=False)


def test_empty_report_is_degenerate_precision_one():
    _, truth = generate_corpus(small_spec(violation_rate=1.0, explained_rate=0.0))
    assert truth.total_planted() > 0
    score = score_detection({}, truth)
    assert score.precision == 1.0 and score.recall == 0.0 and score.degenerate


def test_uncovered_stories_are_out_of_scoring_scope():
    _, truth = generate_corpus(small_spec(violation_rate=1.0, explained_rate=0.0))
    reported = {sid: list(errs) for sid, errs in truth.planted_errors.items()}
    # an extra story the ground truth knows nothing about must not hurt precision
    from score.story import ItemState
    from score.tracker import ContinuityError

    reported["hand-written"] = [
        ContinuityError("key", 1, ItemState.DESTROYED, 2, ItemState.ACTIVE, False)
    ]
    score = score_detection(reported, truth)
    assert score.precision == 1.0 and score.recall == 1.0


def test_random_subset_recall_is_exact():
    _, truth = generate_corpus(small_spec(seed=9, n_stories=30, violation_rate=0.8, explained_rate=0.0))
    pairs = [(sid, e) for sid, errs in truth.planted_errors.items() for e in errs]
    assert len(pairs) >= 4
    rng = random.Random(0)
    for k in range(len(pairs) + 1):
        subset = rng.sample(pairs, k)
        reported = {}
        for sid, err in subset:
            reported.setdefault(sid, []).append(err)
        score = score_detection(reported, truth)
        assert score.recall == k / len(pairs)
        if k:
            assert score.precision == 1.0 and not score.degenerate


# ---------------------------------------------------------------------------
# validation and persistence
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValidationError):
        FuzzSpec(seed=1, n_stories=0)
    with pytest.raises(ValidationError):
        FuzzSpec(seed=1, violation_rate=1.5)
    with pytest.raises(ValidationError):
        FuzzSpec(seed=1, episodes_per_story=(5, 2))


def test_truth_round_trip():
    _, truth = generate_corpus(small_spec())
    loaded = truth_from_dict(truth_to_dict(truth))
    assert truth_to_dict(loaded) == truth_to_dict(truth)
    assert loaded.qa == truth.qa


def test_gold_conversion_counts():
    _, truth = generate_corpus(small_spec(n_stories=10))
    gold = truth.to_gold()
    expected = sum(
        len(states) for items in truth.true_timelines.values() for states in items.values()
    )
    assert len(gold.item_assertions) == expected
    assert len(gold.qa) == len(truth.qa)
