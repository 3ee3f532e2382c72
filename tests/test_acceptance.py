"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line so a plain `pytest -s
tests/test_acceptance.py` reads as a checklist.
"""

import functools
import itertools
import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from score.cli import main as cli_main
from score.evaluator import (
    FACETS,
    Ablations,
    EpisodeEvaluation,
    GoldData,
    GoldQA,
    PipelineConfig,
    QAResult,
    compute_metrics,
    run_pipeline,
    stage_outputs,
)
from score.fuzz import FuzzSpec, generate_corpus, score_detection
from score.gateway import GatewayConfig, LlmGateway, SentimentScore
from score.index import FlatIndex, build_index
from score.retrieval import RetrievalConfig, SummaryRecord, retrieve_related
from score.story import ItemState, parse_story, serialize_story
from score.tracker import (
    ItemObservation,
    ItemTimeline,
    detect_continuity_errors,
    record_observation,
)
from test_index import cosine

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def criterion(name):
    """Print the one-line verdict for a criterion, pass or fail."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  {name}")
                raise
            print(f"PASS  {name}")

        return run

    return wrap


# ---------------------------------------------------------------------------
# 1. Continuity detection on fuzz corpora: exact precision/recall, < 30 s
# ---------------------------------------------------------------------------


@criterion("continuity detection: seeds 1-10 x 100 stories, precision = recall = 1.0, < 30 s")
def test_continuity_detection_exact_on_fuzz_corpora():
    gateway = LlmGateway(GatewayConfig(backend="mock"))
    started = time.monotonic()
    for seed in range(1, 11):
        spec = FuzzSpec(seed=seed, n_stories=100, violation_rate=0.3, explained_rate=0.2)
        stories, truth = generate_corpus(spec)
        states = stage_outputs(stories, gateway, "states")
        reported = {story_id: errors for story_id, (_, errors) in states.items()}
        score = score_detection(reported, truth)
        assert score.precision == 1.0, f"seed {seed}: precision {score.precision}"
        assert score.recall == 1.0, f"seed {seed}: recall {score.recall}"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Reappearance-predicate equivalence, exhaustive to length 6
# ---------------------------------------------------------------------------


def _oracle(sequence):
    """Literal transcription of the reappearance rule (see module tests)."""
    errors = []
    for k in range(1, len(sequence)):
        state, explained = sequence[k]
        prior_state, _ = sequence[k - 1]
        if state is ItemState.ACTIVE and not explained and prior_state in (
            ItemState.LOST,
            ItemState.DESTROYED,
        ):
            errors.append((k - 1, prior_state, k))
    return errors


@criterion("predicate equivalence: all 3^L sequences, L <= 6, zero mismatches")
def test_detection_predicate_equivalence_exhaustive():
    states = (ItemState.ACTIVE, ItemState.LOST, ItemState.DESTROYED)
    checked = 0
    for length in range(0, 7):
        for combo in itertools.product(states, repeat=length):
            timeline = ItemTimeline(item_id="x")
            for episode, state in enumerate(combo):
                timeline = record_observation(
                    timeline,
                    ItemObservation(
                        item_id="x",
                        episode_index=episode,
                        state=state,
                    ),
                )
            got = [
                (e.prior_episode, e.prior_state, e.reappearance_episode)
                for e in detect_continuity_errors(timeline)
            ]
            expected = _oracle([(s, False) for s in combo])
            assert got == expected, f"mismatch for {combo}"
            checked += 1
    assert checked == sum(3**n for n in range(7))


# ---------------------------------------------------------------------------
# 3. Vector search oracle equality and cosine properties
# ---------------------------------------------------------------------------


@criterion("vector search: 100 queries over 1,000 vectors match the full-scan oracle")
def test_search_matches_oracle_at_scale():
    rng = np.random.default_rng(12345)
    dim = 32
    rows = []
    for i in range(1000):
        vec = rng.normal(size=dim)
        rows.append((f"v{i:05d}", "summary", "s", i, vec / np.linalg.norm(vec)))
    index = build_index(dim, rows)

    for _ in range(100):
        query = rng.normal(size=dim)
        got = [(h.entry_id, h.score) for h in index.search_top_n(query, n=10)]

        unit = query / np.linalg.norm(query)
        scored = sorted(
            ((float(np.dot(e.embedding, unit)), e.entry_id) for e in index.entries),
            key=lambda t: (-t[0], t[1]),
        )
        expected = [(entry_id, score) for score, entry_id in scored[:10]]
        # ids and order must match exactly; scores agree to the last ulp or two
        # (BLAS matrix-vector vs per-row dot)
        assert [g[0] for g in got] == [e[0] for e in expected]
        for (_, got_score), (_, want_score) in zip(got, expected):
            assert got_score == pytest.approx(want_score, abs=1e-12)

        # positive-scale ranking invariance over the full hit list
        full = [h.entry_id for h in index.search_top_n(query, n=1000)]
        for alpha in (0.001, 7.5):
            assert [h.entry_id for h in index.search_top_n(query * alpha, n=1000)] == full


@criterion("cosine: symmetry <= 1e-12, scale invariance, bounds within 1e-9 over 10,000 pairs")
def test_cosine_properties_at_scale():
    rng = np.random.default_rng(777)
    for _ in range(10_000):
        u = rng.normal(size=8) * rng.choice([0.01, 1.0, 100.0])
        v = rng.normal(size=8) * rng.choice([0.01, 1.0, 100.0])
        a = cosine(u, v)
        assert abs(a - cosine(v, u)) <= 1e-12
        assert -1.0 - 1e-9 <= a <= 1.0 + 1e-9
        alpha = float(rng.uniform(0.1, 10.0))
        assert abs(cosine(u * alpha, v) - a) <= 1e-9


# ---------------------------------------------------------------------------
# 4. Sentiment-filter soundness and oracle equality
# ---------------------------------------------------------------------------


def _synthetic_store(gateway, n, rng):
    words = (
        "river stone lantern road night morning harbor forest sword crown "
        "gate wall tower bridge ship garden letter song dance feast"
    ).split()
    rows = []
    records = {}
    texts = [" ".join(rng.choices(words, k=rng.randint(4, 10))) for _ in range(n)]
    for i, (text, vec) in enumerate(zip(texts, gateway.embed(texts))):
        entry_id = f"s#{i}"
        rows.append((entry_id, "summary", "s", i, vec))
        records[entry_id] = SummaryRecord(entry_id, "s", i, rng.random(), text)
    return build_index(gateway.config.embed_dim, rows), records, words


@criterion("sentiment filter: 1,000 randomized calls sound and equal to the brute-force oracle")
def test_sentiment_filter_soundness_and_oracle_equality():
    gateway = LlmGateway(GatewayConfig(backend="mock"))
    rng = random.Random(2718)
    calls = 0
    bypasses = 0
    corpus_sizes = [rng.randint(5, 120) for _ in range(18)] + [1000, 400]
    for size in corpus_sizes:
        index, records, words = _synthetic_store(gateway, size, rng)
        for _ in range(50):
            config = RetrievalConfig(
                top_n=rng.randint(1, 8),
                sentiment_tolerance=rng.choice([0.02, 0.1, 0.3, 0.7]),
                exclude_self=False,
                context_char_budget=10_000_000,
            )
            sigma = SentimentScore(rng.random())
            focus = " ".join(rng.choices(words, k=6))
            bundle = retrieve_related(focus, sigma, index, records, config, gateway)

            # soundness
            if bundle.sentiment_filter_bypassed:
                bypasses += 1
            else:
                for entry in bundle.selected:
                    assert abs(sigma.value - entry.sentiment) <= config.sentiment_tolerance

            # oracle equality: filter everything, then take N
            (qvec,) = gateway.embed([focus])
            qvec = qvec / np.linalg.norm(qvec)  # the same normalization search applies
            scored = sorted(
                ((float(np.dot(e.embedding, qvec)), e.entry_id) for e in index.entries),
                key=lambda t: (-t[0], t[1]),
            )
            survivors = [
                eid for s, eid in scored
                if abs(sigma.value - records[eid].sentiment) <= config.sentiment_tolerance
            ]
            if not survivors:
                survivors = [eid for _, eid in scored]
            expected = survivors[: config.top_n]
            got = [f"{e.story_id}#{e.episode_index}" for e in bundle.selected]
            assert got == expected
            calls += 1
    assert calls == 1000
    assert bypasses > 0, "expected the bypass path to be exercised"


# ---------------------------------------------------------------------------
# 5. Replay reproducibility: byte-identical reports
# ---------------------------------------------------------------------------


@criterion("reproducibility: two replay-mode evaluate runs write byte-identical reports")
def test_replay_evaluate_reports_are_byte_identical(tmp_path):
    project = tmp_path / "proj"
    argv = ["--project", str(project)]
    assert cli_main([*argv, "fuzz", "--seed", "3", "--stories", "4", "--rate", "0.4"]) == 0
    for command in (["summarize"], ["track"], ["index"], ["evaluate"]):
        assert cli_main([*argv, "--cache-mode", "record", *command]) == 0

    assert cli_main([*argv, "--cache-mode", "replay", "evaluate"]) == 0
    replay_report = _replay_report_path(project)
    first = replay_report.read_bytes()
    replay_report.unlink()  # force the second run to rewrite from scratch
    assert cli_main([*argv, "--cache-mode", "replay", "evaluate"]) == 0
    second = replay_report.read_bytes()
    assert first == second


def _replay_report_path(project: Path) -> Path:
    # the recording and the replays write one report: cache_mode is not part of the run id
    (path,) = (project / "reports").glob("*.json")
    return path


# ---------------------------------------------------------------------------
# 6. Round trips
# ---------------------------------------------------------------------------


@criterion("round-trips: story JSON and index save/load are lossless")
def test_round_trips(tmp_path):
    stories, _ = generate_corpus(FuzzSpec(seed=99, n_stories=10))
    for story in stories:
        assert parse_story(serialize_story(story)) == story
        assert serialize_story(story) == serialize_story(parse_story(serialize_story(story)))

    rng = np.random.default_rng(4)
    rows = []
    for i in range(100):
        rows.append((f"e{i}", "summary", "s", i, rng.normal(size=16)))
    index = build_index(16, rows)
    index.save(tmp_path / "idx")
    loaded = FlatIndex.load(tmp_path / "idx")
    for _ in range(20):
        query = rng.normal(size=16)
        assert index.search_top_n(query, n=10) == loaded.search_top_n(query, n=10)
    for a, b in zip(index.entries, loaded.entries):
        assert (a.entry_id, a.kind, a.story_id, a.episode_index) == (
            b.entry_id, b.kind, b.story_id, b.episode_index,
        )
        assert np.array_equal(a.embedding, b.embedding)


# ---------------------------------------------------------------------------
# 7. Ablation direction on the fuzz corpus with the hand-labeled QA set
# ---------------------------------------------------------------------------


@criterion("ablation direction: no tracking lowers item_status; no retrieval lowers complex_qa")
def test_ablation_directions():
    fixture = json.loads((FIXTURE_DIR / "gold_qa_20.json").read_text())
    spec_raw = fixture["fuzz_spec"]
    spec = FuzzSpec(
        seed=spec_raw["seed"],
        n_stories=spec_raw["n_stories"],
        episodes_per_story=tuple(spec_raw["episodes_per_story"]),
        items_per_story=tuple(spec_raw["items_per_story"]),
        violation_rate=spec_raw["violation_rate"],
        explained_rate=spec_raw["explained_rate"],
    )
    stories, truth = generate_corpus(spec)
    questions = tuple(
        GoldQA(story_id=q["story_id"], question=q["question"], answer=q["answer"], item_id=q["item_id"])
        for q in fixture["questions"]
    )
    assert len(questions) == 20
    gold = GoldData(item_assertions=truth.to_gold().item_assertions, qa=questions)

    gateway = LlmGateway(GatewayConfig(backend="mock"))
    base = PipelineConfig(gateway=gateway.config, retrieval=RetrievalConfig())

    full = run_pipeline(stories, gateway, base, gold)
    no_tracking = run_pipeline(
        stories, gateway,
        PipelineConfig(gateway=gateway.config, retrieval=RetrievalConfig(), ablations=Ablations(tracking=False)),
        gold,
    )
    no_retrieval = run_pipeline(
        stories, gateway,
        PipelineConfig(gateway=gateway.config, retrieval=RetrievalConfig(), ablations=Ablations(retrieval=False)),
        gold,
    )

    assert truth.total_planted() > 0
    assert no_tracking.report.item_status < full.report.item_status, (
        f"{no_tracking.report.item_status} !< {full.report.item_status}"
    )
    assert no_retrieval.report.complex_qa < full.report.complex_qa, (
        f"{no_retrieval.report.complex_qa} !< {full.report.complex_qa}"
    )

    # the fraction is exactly matches/20, graded independently here
    matches = sum(1 for q in full.qa_results if q.correct)
    assert full.report.complex_qa == 100.0 * matches / 20


# ---------------------------------------------------------------------------
# 8. Metric arithmetic at exact values
# ---------------------------------------------------------------------------


@criterion("metric arithmetic: facets {1,3,5} -> coherence 50.0; QA 2/4 -> 50.0")
def test_metric_arithmetic_exact():
    def evaluation(episode, value):
        return EpisodeEvaluation(
            story_id="s",
            episode_index=episode,
            facet_scores={facet: value for facet in FACETS},
            rationale="",
            continuity_errors_cited=(),
            context_digest="",
        )

    report = compute_metrics(
        [evaluation(0, 1.0), evaluation(1, 3.0), evaluation(2, 5.0)], [], {}, None
    )
    assert report.coherence == 50.0

    qa = [
        QAResult("q1", "a", (), correct=True, story_id="s"),
        QAResult("q2", "a", (), correct=True, story_id="s"),
        QAResult("q3", "a", (), correct=False, story_id="s"),
        QAResult("q4", "a", (), correct=False, story_id="s"),
    ]
    report = compute_metrics([evaluation(0, 3.0)], qa, {}, None)
    assert report.complex_qa == 50.0
