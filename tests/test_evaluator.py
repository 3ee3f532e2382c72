import gc
from dataclasses import fields, replace

import pytest

from score import evaluator, retrieval
from score.errors import ContractError, ValidationError
from score.evaluator import (
    FACETS,
    METRIC_NAMES,
    Ablations,
    ComparisonReport,
    EpisodeEvaluation,
    GoldData,
    GoldQA,
    MetricsReport,
    PipelineConfig,
    QAResult,
    answer_query,
    compute_metrics,
    evaluate_episode,
    grade_answer,
    run_comparison,
    run_pipeline,
)
from score.fuzz import FuzzSpec, generate_corpus
from score.gateway import GatewayConfig, LlmGateway
from score.index import FlatIndex
from score.retrieval import ContextBundle, ContextEntry, RetrievalConfig, build_retrieval_index, retrieval_units
from score.story import Episode, ItemState, KeyItem
from score.summarize import EpisodeSummary, rule_summarize
from score.tracker import (
    ItemObservation,
    ItemTimeline,
    correct_story_timelines,
    detect_continuity_errors,
    detect_story_errors,
    record_observation,
)


def evaluation(story_id="s", episode=0, scores=None, item_states=None):
    return EpisodeEvaluation(
        story_id=story_id,
        episode_index=episode,
        facet_scores=scores or {f: 3.0 for f in FACETS},
        rationale="r",
        continuity_errors_cited=(),
        context_digest="d",
        item_states=item_states or {},
    )


def timeline(entries, item="sword"):
    tl = ItemTimeline(item_id=item)
    for ep, state in entries:
        tl = record_observation(tl, ItemObservation(item_id=item, episode_index=ep, state=state))
    return tl


def bundle_with(texts, story_id="s"):
    entries = tuple(
        ContextEntry(story_id=story_id, episode_index=i, score=1.0 - i * 0.1, sentiment=0.5, text=t)
        for i, t in enumerate(texts)
    )
    return ContextBundle(focus="f", selected=entries)


# ---------------------------------------------------------------------------
# metric arithmetic
# ---------------------------------------------------------------------------


def test_coherence_rescale_exact():
    evaluations = [
        evaluation(scores={f: 1.0 for f in FACETS}),
        evaluation(episode=1, scores={f: 3.0 for f in FACETS}),
        evaluation(episode=2, scores={f: 5.0 for f in FACETS}),
    ]
    report = compute_metrics(evaluations, [], {}, None)
    assert report.coherence == 50.0


def test_all_threes_give_fifty():
    report = compute_metrics([evaluation()], [], {}, None)
    assert report.coherence == 50.0


def test_complex_qa_two_of_four_is_fifty():
    qa = [
        QAResult("q1", "a", (), correct=True, story_id="s"),
        QAResult("q2", "a", (), correct=True, story_id="s"),
        QAResult("q3", "a", (), correct=False, story_id="s"),
        QAResult("q4", "a", (), correct=False, story_id="s"),
    ]
    report = compute_metrics([evaluation()], qa, {}, None)
    assert report.complex_qa == 50.0


def test_all_correct_gives_hundred():
    qa = [QAResult("q", "a", (), correct=True, story_id="s")]
    assert compute_metrics([evaluation()], qa, {}, None).complex_qa == 100.0


def test_missing_gold_reports_none_not_fabricated():
    report = compute_metrics([evaluation()], [], {}, None)
    assert report.item_status is None
    assert report.complex_qa is None


def test_metrics_require_some_input():
    with pytest.raises(ContractError):
        compute_metrics([], [], {}, None)


def test_item_status_counts_matching_resolved_states():
    timelines = {"s": {"sword": timeline([(0, ItemState.ACTIVE), (2, ItemState.LOST)])}}
    gold = GoldData(
        item_assertions=(
            ("s", "sword", 0, ItemState.ACTIVE),
            ("s", "sword", 2, ItemState.LOST),
            ("s", "sword", 3, ItemState.LOST),     # carry-forward
            ("s", "sword", 1, ItemState.DESTROYED),  # wrong on purpose
        )
    )
    report = compute_metrics([evaluation()], [], timelines, gold)
    assert report.item_status == 75.0


def test_consistency_flags_contradicting_assertions():
    # raw timeline with an unexplained reappearance: corrected reference says LOST at 4
    tl = timeline([(0, ItemState.ACTIVE), (2, ItemState.LOST), (4, ItemState.ACTIVE)])
    timelines = {"s": {"sword": tl}}
    reference = {"s": correct_story_timelines(timelines["s"], detect_story_errors(timelines["s"]))}
    consistent = evaluation(episode=2, item_states={"sword": ItemState.LOST})
    conflicting = evaluation(episode=4, item_states={"sword": ItemState.ACTIVE})
    report = compute_metrics([consistent, conflicting], [], timelines, None, reference=reference)
    assert report.consistency == 50.0
    # without a reference, the timelines passed are the reference
    assert compute_metrics([consistent, conflicting], [], reference, None).consistency == 50.0


@pytest.mark.parametrize(
    "answer, consistency",
    [("Episode 3: The sword was lost in the river.", 50.0), ("Episode 3: The sword was destroyed.", 100.0)],
    ids=["conflicting", "agreeing"],
)
def test_consistency_counts_an_answer_that_contradicts_the_corrected_timeline(answer, consistency):
    reference = {"s": {"sword": timeline([(0, ItemState.ACTIVE), (3, ItemState.DESTROYED)])}}
    qa = [QAResult("q", answer, (("s", 3),), correct=True, story_id="s", gold_item_id="sword")]
    report = compute_metrics([evaluation()], qa, reference, None)
    assert report.consistency == consistency


def test_metric_bounds():
    evaluations = [evaluation(scores={f: 5.0 for f in FACETS})]
    report = compute_metrics(evaluations, [], {}, None)
    assert 0.0 <= report.coherence <= 100.0
    assert report.consistency == 100.0


# ---------------------------------------------------------------------------
# evaluation invariants and the mock rubric
# ---------------------------------------------------------------------------


def test_all_four_facets_required():
    with pytest.raises(ValidationError, match="missing facets"):
        EpisodeEvaluation(
            story_id="s", episode_index=0,
            facet_scores={"character_consistency": 3.0},
            rationale="", continuity_errors_cited=(), context_digest="",
        )


def test_facet_range_enforced():
    bad = {f: 3.0 for f in FACETS}
    bad["plot_progression"] = 6.0
    with pytest.raises(ValidationError, match="plot_progression"):
        EpisodeEvaluation(
            story_id="s", episode_index=0, facet_scores=bad,
            rationale="", continuity_errors_cited=(), context_digest="",
        )


def _evaluate_episode_of(story_text_by_ep, item, focus_ep, mock_gateway):
    episodes = [Episode(index=i, text=t) for i, t in enumerate(story_text_by_ep)]
    items = [KeyItem(item, (item,))]
    tl = ItemTimeline(item_id=item)
    from score.tracker import rule_extract

    for ep in episodes:
        for obs in rule_extract(ep, items):
            tl = record_observation(tl, obs)
    errors = detect_continuity_errors(tl)
    summary = rule_summarize(episodes[focus_ep], items, mock_gateway, story_id="s")
    return evaluate_episode(
        episodes[focus_ep], summary, {item: tl}, errors,
        ContextBundle(focus="f", selected=()), mock_gateway, story_id="s",
    )


def test_injected_error_is_cited_and_caps_the_facet(mock_gateway):
    texts = [
        "Mira carried the sword through the forest.",
        "The sword shattered on the stone floor.",
        "Mira carried the sword once more.",
    ]
    result = _evaluate_episode_of(texts, "sword", 2, mock_gateway)
    assert result.facet_scores["key_item_continuity"] <= 3.0
    assert len(result.continuity_errors_cited) == 1
    assert result.continuity_errors_cited[0].reappearance_episode == 2


def test_error_free_story_scores_max_continuity(mock_gateway):
    texts = [
        "Mira carried the sword through the forest.",
        "Mira polished the sword by the fire.",
    ]
    result = _evaluate_episode_of(texts, "sword", 1, mock_gateway)
    assert result.facet_scores["key_item_continuity"] == 5.0


def test_asserted_item_states_come_from_corrected_view(mock_gateway):
    texts = [
        "Mira carried the sword through the forest.",
        "The sword was lost in the marsh.",
        "Mira carried the sword once more.",
    ]
    # build corrected timelines by letting evaluate_episode see corrected data
    episodes = [Episode(index=i, text=t) for i, t in enumerate(texts)]
    items = [KeyItem("sword", ("sword",))]
    from score.tracker import correct_timeline, rule_extract

    tl = ItemTimeline(item_id="sword")
    for ep in episodes:
        for obs in rule_extract(ep, items):
            tl = record_observation(tl, obs)
    errors = detect_continuity_errors(tl)
    corrected = correct_timeline(tl, errors)
    summary = rule_summarize(episodes[2], items, mock_gateway, story_id="s")
    result = evaluate_episode(
        episodes[2], summary, {"sword": corrected}, errors,
        ContextBundle(focus="f", selected=()), mock_gateway, story_id="s",
    )
    assert result.item_states == {"sword": ItemState.LOST}


# ---------------------------------------------------------------------------
# question answering
# ---------------------------------------------------------------------------


def test_empty_bundle_refuses(mock_gateway):
    result = answer_query("Where is the sword?", ContextBundle(focus="f", selected=()), mock_gateway)
    assert result.answer == "insufficient context"
    assert result.correct is None  # ungraded, as every answer is until `grade_answer`
    assert result.supporting_episodes == ()


def test_mock_answer_finds_matching_sentence(mock_gateway):
    bundle = bundle_with(
        ["Nothing here about items.", "The sword shattered on the stone floor.", "More filler."]
    )
    result = answer_query("In which episode was the sword destroyed?", bundle, mock_gateway)
    assert "Episode 1" in result.answer
    assert "shattered" in result.answer
    assert result.supporting_episodes == (("s", 1),)


def test_mock_answer_cuts_only_a_bullet_line_to_its_description(mock_gateway):
    # a retrieval document's bullet is "- id | actor=... | description"; story text may hold " | " too
    question = "In which episode was the sword lost?"
    for text, quoted in (
        ("The sword was lost | far to the north.", "The sword was lost | far to the north."),
        ("- sword | actor=Mira | state=lost | The sword was lost at sea.", "The sword was lost at sea."),
    ):
        assert answer_query(question, bundle_with([text]), mock_gateway).answer == f"Episode 0: {quoted}"


def test_supporting_episodes_subset_of_bundle(mock_gateway):
    bundle = bundle_with(["The crown gleamed.", "The crown was lost in the marsh."])
    result = answer_query("In which episode was the crown lost?", bundle, mock_gateway)
    assert set(result.supporting_episodes) <= set(bundle.episode_refs())


def test_grading_is_substring_based():
    result = QAResult("q", "Episode 4: The sword shattered.", (), story_id="s")
    gold = GoldQA(story_id="s", question="q", answer="episode 4", item_id="sword")
    assert grade_answer(result, gold).correct is True
    assert grade_answer(result, replace(gold, answer="episode 5")).correct is False


def test_question_must_be_nonempty(mock_gateway):
    with pytest.raises(ContractError):
        answer_query("", ContextBundle(focus="f", selected=()), mock_gateway)


# ---------------------------------------------------------------------------
# pipeline and comparison harness
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_setup():
    stories, truth = generate_corpus(FuzzSpec(seed=5, n_stories=8, violation_rate=0.5, explained_rate=0.2))
    return stories, truth


def pipeline_config(**kw):
    return PipelineConfig(
        gateway=GatewayConfig(backend="mock"),
        retrieval=RetrievalConfig(),
        **kw,
    )


def test_full_pipeline_reaches_perfect_item_status(fuzz_setup, mock_gateway):
    stories, truth = fuzz_setup
    result = run_pipeline(stories, mock_gateway, pipeline_config(), truth.to_gold())
    assert result.report.item_status == 100.0
    assert result.report.consistency == 100.0


def test_disabling_tracking_lowers_item_status(fuzz_setup, mock_gateway):
    stories, truth = fuzz_setup
    gold = truth.to_gold()
    full = run_pipeline(stories, mock_gateway, pipeline_config(), gold)
    ablated = run_pipeline(
        stories, mock_gateway, pipeline_config(ablations=Ablations(tracking=False)), gold
    )
    assert truth.total_planted() > 0
    assert ablated.report.item_status < full.report.item_status


def test_disabling_retrieval_lowers_complex_qa(fuzz_setup, mock_gateway):
    stories, truth = fuzz_setup
    gold = truth.to_gold()
    full = run_pipeline(stories, mock_gateway, pipeline_config(), gold)
    ablated = run_pipeline(
        stories, mock_gateway, pipeline_config(ablations=Ablations(retrieval=False)), gold
    )
    assert ablated.report.complex_qa < full.report.complex_qa
    assert ablated.report.complex_qa == 0.0  # every answer is a refusal


def test_an_ablated_retrieval_builds_no_index(fuzz_setup, mock_gateway, monkeypatch):
    import score.evaluator

    def no_index(*args):
        raise AssertionError("build_retrieval_index called with retrieval ablated")

    monkeypatch.setattr(score.evaluator, "build_retrieval_index", no_index)
    stories, truth = fuzz_setup
    config = pipeline_config(ablations=Ablations(retrieval=False))
    result = run_pipeline(stories[:3], mock_gateway, config, truth.to_gold())
    assert len(result.evaluations) == sum(len(s.episodes) for s in stories[:3])
    assert result.qa_results and result.report.complex_qa == 0.0  # every answer is a refusal


def test_sentiment_ablation_disables_the_filter(fuzz_setup, mock_gateway):
    stories, truth = fuzz_setup
    config = pipeline_config(ablations=Ablations(sentiment=False))
    result = run_pipeline(stories, mock_gateway, config, truth.to_gold())
    assert "sentiment" in config.ablations.disabled()
    assert result.report.complex_qa is not None


@pytest.mark.parametrize(
    "retrieval, ablations, episodes_filter, episodes_exclude, questions_filter",
    [
        (RetrievalConfig(), Ablations(), True, True, True),
        (RetrievalConfig(), Ablations(sentiment=False), False, True, False),
        (RetrievalConfig(exclude_self=False), Ablations(), True, False, True),
        (RetrievalConfig(filter_queries=False), Ablations(), True, True, False),
    ],
    ids=["default", "ablate-sentiment", "keep-self", "unfiltered-questions"],
)
def test_run_pipeline_passes_each_retrieval_decision_as_an_argument(
    fuzz_setup, mock_gateway, monkeypatch, retrieval, ablations, episodes_filter, episodes_exclude, questions_filter
):
    # retrieve_related reads no switch from the config: the sentiment it is
    # given turns its filter on, and the exclude_ref it is given leaves out
    import score.evaluator
    import score.retrieval

    calls = []
    real = score.retrieval.retrieve_related

    def recording(focus_text, focus_sentiment, *args, **kw):
        calls.append((kw["focus_label"].startswith("query:"), focus_sentiment is not None, kw.get("exclude_ref")))
        return real(focus_text, focus_sentiment, *args, **kw)

    monkeypatch.setattr(score.retrieval, "retrieve_related", recording)
    monkeypatch.setattr(score.evaluator, "retrieve_related", recording)
    stories, truth = fuzz_setup
    config = PipelineConfig(GatewayConfig(backend="mock"), retrieval, ablations)
    run_pipeline(stories[:3], mock_gateway, config, truth.to_gold())
    episodes = [(filtered, excluded is not None) for query, filtered, excluded in calls if not query]
    questions = [filtered for query, filtered, excluded in calls if query]
    assert episodes and questions
    assert set(episodes) == {(episodes_filter, episodes_exclude)}
    assert set(questions) == {questions_filter}


def test_same_config_comparison_has_zero_deltas(fuzz_setup, mock_gateway):
    stories, truth = fuzz_setup
    config = pipeline_config()
    comparison = run_comparison(stories[:3], truth.to_gold(), mock_gateway, config, config)
    assert comparison.digest_collision
    assert all(d == 0.0 for d in comparison.deltas().values() if d is not None)


def test_a_metric_missing_on_one_side_has_no_delta():
    def report(**values):
        return MetricsReport(**{**dict.fromkeys(METRIC_NAMES, 50.0), **values}, per_story={}, config_digest="")

    config = pipeline_config()
    a, b = report(complex_qa=None), report(coherence=None, item_status=40.0)
    comparison = ComparisonReport(config, config, a, b, digest_collision=False)
    assert comparison.deltas() == {"consistency": 0.0, "coherence": None, "item_status": 10.0, "complex_qa": None}


def test_the_states_stage_folds_and_checks_each_story_and_corrects_none(fuzz_setup, mock_gateway, monkeypatch):
    """`stage_outputs(..., "states")` makes what a states file holds, the raw timelines and
    their errors, and corrects no timeline; a pipeline run corrects each story's once."""
    corrected = []
    correct = evaluator.correct_story_timelines
    monkeypatch.setattr(evaluator, "correct_story_timelines", lambda *run: corrected.append(run) or correct(*run))
    stories = fuzz_setup[0][:3]
    states = evaluator.stage_outputs(stories, mock_gateway, "states")
    assert corrected == []
    assert "extracted" not in {f.name for f in fields(evaluator.StoryRun)}
    result = run_pipeline(stories, mock_gateway, pipeline_config())
    assert result.states == states and len(corrected) == len(stories)
    assert all(errors == detect_story_errors(timelines) for timelines, errors in states.values())


def test_pipeline_is_deterministic(fuzz_setup, mock_gateway):
    stories, truth = fuzz_setup
    a = run_pipeline(stories[:3], mock_gateway, pipeline_config(), truth.to_gold())
    b = run_pipeline(stories[:3], mock_gateway, pipeline_config(), truth.to_gold())
    assert a.report == b.report
    assert a.evaluations == b.evaluations
    assert a.qa_results == b.qa_results


def test_a_run_holds_the_summaries_of_one_group_at_a_time(fuzz_setup, monkeypatch):
    """At each group's evaluate stage the live summaries of the run's stories
    are that group's, one per episode, and none outlives the run. Counted with
    `gc.get_objects()`: a slotted summary takes no weak reference."""
    stories, _ = fuzz_setup
    stories = [replace(s, story_id=f"held-{s.story_id}") for s in stories]  # no other test's summary is counted

    def live():
        gc.collect()
        return sum(isinstance(o, EpisodeSummary) and o.story_id.startswith("held-") for o in gc.get_objects())

    seen = []
    evaluate = evaluator._evaluate_stage

    def counting(runs, *args):
        seen.append((live(), sum(len(run.story.episodes) for run in runs)))
        assert not hasattr(runs[0].summaries[0], "__dict__")
        return evaluate(runs, *args)

    monkeypatch.setattr(evaluator, "_evaluate_stage", counting)
    config = PipelineConfig(GatewayConfig(backend="mock", embed_batch_limit=20), RetrievalConfig())
    result = run_pipeline(stories, LlmGateway(config.gateway), config)
    assert len(seen) >= 3
    assert all(held == episodes for held, episodes in seen)  # each group's own summaries, and no other
    assert len(result.evaluations) == sum(len(s.episodes) for s in stories)
    assert live() == 0


@pytest.mark.parametrize("ablations", [Ablations(), Ablations(retrieval=False)], ids=["full", "ablate-retrieval"])
def test_a_run_builds_one_index_per_group(fuzz_setup, monkeypatch, ablations):
    stories, truth = fuzz_setup
    groups, built = [], []
    evaluate, build = evaluator._evaluate_stage, evaluator.build_retrieval_index

    def counting_groups(runs, *args):
        groups.append([run.story.story_id for run in runs])
        return evaluate(runs, *args)

    def counting_builds(kind, units, *args):
        built.append(list(dict.fromkeys(record.story_id for record in units)))
        return build(kind, units, *args)

    monkeypatch.setattr(evaluator, "_evaluate_stage", counting_groups)
    monkeypatch.setattr(evaluator, "build_retrieval_index", counting_builds)
    gateway = GatewayConfig(backend="mock", embed_batch_limit=20)
    config = PipelineConfig(gateway, RetrievalConfig(), ablations)
    result = run_pipeline(stories, LlmGateway(gateway), config, truth.to_gold())
    assert len(groups) >= 3 and any(len(group) > 1 for group in groups)
    assert built == (groups if ablations.retrieval else [])  # one index of each group's stories, in story order
    assert len(result.evaluations) == sum(len(s.episodes) for s in stories)


def _bundle_facts(bundle: ContextBundle):
    entries = [(e.story_id, e.episode_index, e.score.hex(), e.sentiment, e.text) for e in bundle.selected]
    return bundle.digest(), entries, bundle.truncated, bundle.sentiment_filter_bypassed


@pytest.mark.parametrize(
    "retrieval_cfg",
    [RetrievalConfig(), RetrievalConfig(top_n=2), RetrievalConfig(exclude_self=False)],
    ids=["default", "top-2", "keep-self"],
)
def test_a_group_index_searched_by_story_gives_the_bundles_of_an_index_per_story(monkeypatch, retrieval_cfg):
    # seed 20 draws stories of 1, 26, 5, 9 and 22 episodes: a lone episode, and
    # two stories longer than a first search, whose searches screen inside the story
    stories, truth = generate_corpus(FuzzSpec(seed=20, n_stories=5, episodes_per_story=(1, 28)))
    config = PipelineConfig(GatewayConfig(backend="mock"), retrieval_cfg)
    assert sorted(len(s.episodes) for s in stories) == [1, 5, 9, 22, 26]
    assert max(len(s.episodes) for s in stories) - 1 > config.retrieval.pool
    gateway = LlmGateway(config.gateway)
    calls, screened = [], []
    related, screen = retrieval.retrieve_related, FlatIndex._screened

    def recording(*args, **kw):
        calls.append((args, kw, related(*args, **kw)))
        return calls[-1][2]

    def recording_screen(index, unit, rows):
        screened.append((len(index), {index.entries[i].story_id for i in rows}, len(rows)))
        return screen(index, unit, rows)

    monkeypatch.setattr(evaluator, "retrieve_related", recording)
    monkeypatch.setattr(retrieval, "retrieve_related", recording)  # the one retrieve_for_query calls
    monkeypatch.setattr(FlatIndex, "_screened", recording_screen)
    result = run_pipeline(stories, gateway, config, truth.to_gold())
    episodes = sum(len(s.episodes) for s in stories)
    assert len(calls) == episodes + len(truth.qa) == len(result.evaluations) + len(result.qa_results)
    assert any(n == episodes and len(ids) == 1 and rows > config.retrieval.pool for n, ids, rows in screened)

    summaries = evaluator.stage_outputs(stories, gateway, "summaries")
    own = {}
    for story in stories:
        units = retrieval_units(story, summaries[story.story_id], "summary")
        vectors = gateway.embed([record.text for record in units])
        own[story.story_id] = build_retrieval_index("summary", units, vectors, config.gateway.embed_dim)
    for (focus, sentiment, index, records, cfg, gw), kw, bundle in calls:
        story_id = kw.pop("restrict_story")
        assert len(index) == episodes and story_id in own  # the one group's index (70 texts), searched by story
        alone = related(focus, sentiment, *own[story_id], cfg, gw, **kw)
        assert _bundle_facts(bundle) == _bundle_facts(alone)
        if len(own[story_id][0]) == 1 and not kw["focus_label"].startswith("query:"):
            # a lone episode: left out of its own search, or its own only candidate
            assert len(bundle.selected) == (0 if retrieval_cfg.exclude_self else 1)


def test_config_digest_distinguishes_ablations():
    a = pipeline_config()
    b = pipeline_config(ablations=Ablations(tracking=False))
    assert a.digest() != b.digest()


def test_config_digest_leaves_out_the_embedding_batch_limit():
    # the limit only decides how texts are grouped on the wire: no key, no result
    small = PipelineConfig(gateway=GatewayConfig(backend="mock", embed_batch_limit=16), retrieval=RetrievalConfig())
    assert small.digest() == pipeline_config().digest()
    assert "embed_batch_limit" not in small.to_dict()["gateway"]


def test_disabling_tracking_never_increases_item_status_across_seeds(mock_gateway):
    for seed in range(1, 5):
        stories, truth = generate_corpus(
            FuzzSpec(seed=seed, n_stories=5, violation_rate=0.5, explained_rate=0.2)
        )
        gold = truth.to_gold()
        full = run_pipeline(stories, mock_gateway, pipeline_config(), gold)
        ablated = run_pipeline(
            stories, mock_gateway, pipeline_config(ablations=Ablations(tracking=False)), gold
        )
        assert ablated.report.item_status <= full.report.item_status


# ---------------------------------------------------------------------------
# remote evaluation path
# ---------------------------------------------------------------------------


class ScriptedTransport:
    def __init__(self, replies):
        self.replies = list(replies)

    def __call__(self, url, body, timeout, headers):
        return {"choices": [{"message": {"content": self.replies.pop(0)}}]}


def _remote(replies):
    return LlmGateway(
        GatewayConfig(backend="remote", base_url="http://fake.local", model_name="m"),
        transport=ScriptedTransport(replies),
    )


EVAL_REPLY = """
{"facet_scores": {"character_consistency": 4, "plot_progression": 4,
                  "emotional_authenticity": 3, "key_item_continuity": 5},
 "rationale": "solid", "cited_error_indexes": [0, 7],
 "item_states": {"sword": "active", "ghost": "bogus"}}
"""


def test_remote_evaluation_caps_facet_and_validates_citations(mock_gateway):
    texts = [
        "Mira carried the sword through the forest.",
        "The sword shattered on the stone floor.",
        "Mira carried the sword once more.",
    ]
    episodes = [Episode(index=i, text=t) for i, t in enumerate(texts)]
    items = [KeyItem("sword", ("sword",))]
    from score.tracker import rule_extract

    tl = ItemTimeline(item_id="sword")
    for ep in episodes:
        for obs in rule_extract(ep, items):
            tl = record_observation(tl, obs)
    errors = detect_continuity_errors(tl)
    assert len(errors) == 1

    gw = _remote([EVAL_REPLY])
    summary = rule_summarize(episodes[2], items, mock_gateway, story_id="s")
    result = evaluate_episode(
        episodes[2], summary, {"sword": tl}, errors,
        ContextBundle(focus="f", selected=()), gw, story_id="s",
    )
    # model said 5; the detected error caps it
    assert result.facet_scores["key_item_continuity"] == 3.0
    # index 7 does not exist; only the real error survives
    assert result.continuity_errors_cited == (errors[0],)
    # invalid state value dropped, valid one kept
    assert result.item_states == {"sword": ItemState.ACTIVE}


def test_remote_answer_drops_hallucinated_refs(mock_gateway):
    reply = '{"answer": "Episode 1: it broke.", "supporting_episode_ids": ["s#1", "s#99", "junk"]}'
    gw = _remote([reply])
    bundle = bundle_with(["a.", "b."])
    result = answer_query("what broke?", bundle, gw)
    assert result.supporting_episodes == (("s", 1),)


@pytest.mark.parametrize(
    "facet, extra",
    [
        ("null", ""),
        ("[4]", ""),
        ('{"v": 4}', ""),
        pytest.param("1" + "0" * 400, "", id="int-too-large-for-float"),
        ("4", ', "cited_error_indexes": 0'),
        ("4", ', "item_states": ["sword"]'),
        # each of these used to be read: "3" as 3.0, true as 1.0, [true] as a citation of
        # error 1, and a rationale of another type as its Python repr
        ('"3"', ""),
        ("true", ""),
        ("4", ', "cited_error_indexes": [true]'),
        ("4", ', "cited_error_indexes": ["0"]'),
        ("4", ', "rationale": {"a": 1}'),
        ("4", ', "rationale": null'),
    ],
)
def test_remote_evaluation_wrong_shape_ends_in_evaluation_error(mock_gateway, facet, extra):
    # a null facet used to escape the repair path as a TypeError
    from score.errors import GatewayReplyError

    bad = (
        '{"facet_scores": {"character_consistency": ' + facet + ', "plot_progression": 4, '
        '"emotional_authenticity": 3, "key_item_continuity": 5}' + extra + "}"
    )
    gw = _remote([bad, bad])
    episode = Episode(index=0, text="Mira carried the sword.")
    summary = rule_summarize(episode, [KeyItem("sword", ("sword",))], mock_gateway, story_id="s")
    with pytest.raises(GatewayReplyError):
        evaluate_episode(episode, summary, {}, [], ContextBundle(focus="f", selected=()), gw, story_id="s")
    assert gw._transport.replies == []  # the repair prompt was sent


def test_remote_answer_supporting_ids_must_be_strings():
    # 5 used to be read as the id "5", and dropped as naming no episode
    from score.errors import GatewayReplyError

    bad = '{"answer": "Episode 1: it broke.", "supporting_episode_ids": ["s#1", 5]}'
    gw = _remote([bad, bad])
    with pytest.raises(GatewayReplyError, match=r"\$\.supporting_episode_ids\[1\]: must be a string, got 5$"):
        answer_query("what broke?", bundle_with(["a.", "b."]), gw)


def test_remote_answer_wrong_shape_refs_end_in_evaluation_error():
    from score.errors import GatewayReplyError

    bad = '{"answer": "Episode 1: it broke.", "supporting_episode_ids": 1}'
    gw = _remote([bad, bad])
    with pytest.raises(GatewayReplyError, match="supporting_episode_ids"):
        answer_query("what broke?", bundle_with(["a.", "b."]), gw)
