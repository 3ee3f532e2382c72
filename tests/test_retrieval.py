import math
import random
from dataclasses import replace

import numpy as np
import pytest

from score.errors import ContractError
from score.gateway import SentimentScore
from score.index import FlatIndex, build_index
from score.retrieval import (
    RetrievalConfig,
    SummaryRecord,
    records_from_dict,
    records_to_dict,
    retrieve_for_query,
    retrieve_related,
)

WORDS = (
    "river stone lantern road night morning harbor forest sword crown "
    "gate wall tower bridge ship garden letter song dance feast"
).split()


def synth_corpus(gateway, n, seed, story_id="s"):
    """n random-text entries with random sentiments, indexed and recorded."""
    rng = random.Random(seed)
    rows = []
    records = {}
    texts = []
    for i in range(n):
        text = " ".join(rng.choices(WORDS, k=rng.randint(4, 12)))
        texts.append(text)
    vectors = gateway.embed(texts)
    for i, (text, vec) in enumerate(zip(texts, vectors)):
        entry_id = f"{story_id}#{i}"
        rows.append((entry_id, "summary", story_id, i, vec))
        records[entry_id] = SummaryRecord(
            entry_id=entry_id,
            story_id=story_id,
            episode_index=i,
            sentiment=rng.random(),
            text=text,
        )
    return build_index(gateway.config.embed_dim, rows), records


def oracle_selection(index, records, query_vec, focus_sigma, config, exclude_ref=None):
    """Filter-everything-then-top-N, with the same bypass rule; it filters iff focus_sigma is given."""
    scored = []
    for entry in index.entries:
        if exclude_ref and (entry.story_id, entry.episode_index) == exclude_ref:
            continue
        scored.append((float(np.dot(entry.embedding, query_vec)), entry.entry_id))
    scored.sort(key=lambda t: (-t[0], t[1]))
    if focus_sigma is not None:
        survivors = [
            (s, eid) for s, eid in scored
            if abs(focus_sigma - records[eid].sentiment) <= config.sentiment_tolerance
        ]
    else:
        survivors = scored
    bypassed = focus_sigma is not None and not survivors and bool(scored)
    if bypassed:
        survivors = scored
    return [eid for _, eid in survivors[: config.top_n]], bypassed


def big_budget(**kw):
    kw.setdefault("context_char_budget", 10_000_000)
    return RetrievalConfig(**kw)


def test_identical_text_ranks_first_with_unit_score(mock_gateway):
    index, records = synth_corpus(mock_gateway, 30, seed=1)
    focus = records["s#7"].text
    sigma = SentimentScore(records["s#7"].sentiment)
    bundle = retrieve_related(focus, sigma, index, records, big_budget(), mock_gateway)
    assert bundle.selected[0].episode_index == 7
    assert bundle.selected[0].score == pytest.approx(1.0, abs=1e-9)


def test_high_similarity_but_large_sentiment_gap_is_excluded(mock_gateway):
    rows = []
    texts = {
        0: "the silver sword gleamed in the morning light",
        1: "the silver sword gleamed in the morning sun",   # near-duplicate, far sentiment
        2: "a ship sailed into the quiet harbor at dawn",
    }
    sentiments = {0: 0.5, 1: 0.95, 2: 0.45}
    records = {}
    for i, text in texts.items():
        (vec,) = mock_gateway.embed([text])
        rows.append((f"s#{i}", "summary", "s", i, vec))
        records[f"s#{i}"] = SummaryRecord(f"s#{i}", "s", i, sentiments[i], text)
    index = build_index(mock_gateway.config.embed_dim, rows)

    config = big_budget(top_n=2, sentiment_tolerance=0.3)
    bundle = retrieve_related(texts[0], SentimentScore(0.5), index, records, config, mock_gateway,
                              exclude_ref=("s", 0))
    picked = [e.episode_index for e in bundle.selected]
    assert 1 not in picked  # |0.95 - 0.5| > tau, despite near-identical text
    assert picked == [2]  # the next survivor is promoted
    assert not bundle.sentiment_filter_bypassed


def test_bypass_when_filter_removes_everything(mock_gateway):
    index, records = synth_corpus(mock_gateway, 12, seed=3)
    focus = records["s#0"].text
    # tolerance 0 and an impossible focus sigma: nothing survives
    config = big_budget(top_n=4, sentiment_tolerance=0.0, exclude_self=False)
    bundle = retrieve_related(focus, SentimentScore(1.0), index, records, config, mock_gateway)
    assert bundle.sentiment_filter_bypassed
    assert len(bundle.selected) == 4  # top-N by similarity alone


def test_selection_equals_filter_then_top_n_oracle(mock_gateway):
    rng = random.Random(42)
    for trial in range(60):
        index, records = synth_corpus(mock_gateway, rng.randint(5, 60), seed=trial)
        config = big_budget(
            top_n=rng.randint(1, 8),
            sentiment_tolerance=rng.choice([0.05, 0.15, 0.3, 0.6]),
            exclude_self=False,
        )
        focus = " ".join(rng.choices(WORDS, k=6))
        sigma = SentimentScore(rng.random())
        if trial % 4 == 3:  # no focus sentiment: the filter is off
            sigma = None
        (qvec,) = mock_gateway.embed([focus])
        bundle = retrieve_related(focus, sigma, index, records, config, mock_gateway)
        expected, expect_bypass = oracle_selection(index, records, qvec, sigma and sigma.value, config)
        got = [f"{e.story_id}#{e.episode_index}" for e in bundle.selected]
        assert got == expected, f"trial {trial}"
        assert bundle.sentiment_filter_bypassed == expect_bypass


def test_filter_soundness(mock_gateway):
    rng = random.Random(9)
    index, records = synth_corpus(mock_gateway, 40, seed=9)
    for _ in range(50):
        config = big_budget(top_n=5, sentiment_tolerance=rng.choice([0.1, 0.3]), exclude_self=False)
        sigma = SentimentScore(rng.random())
        bundle = retrieve_related(" ".join(rng.choices(WORDS, k=5)), sigma, index, records, config, mock_gateway)
        if not bundle.sentiment_filter_bypassed:
            for entry in bundle.selected:
                assert abs(sigma.value - entry.sentiment) <= config.sentiment_tolerance


def test_exclude_self_never_returns_focus(mock_gateway):
    index, records = synth_corpus(mock_gateway, 20, seed=5)
    focus = records["s#4"].text
    sigma = SentimentScore(records["s#4"].sentiment)
    bundle = retrieve_related(
        focus, sigma, index, records, big_budget(sentiment_tolerance=1.0), mock_gateway,
        exclude_ref=("s", 4),
    )
    assert all(e.episode_index != 4 for e in bundle.selected)


def test_budget_drops_whole_entries_from_the_tail(mock_gateway):
    index, records = synth_corpus(mock_gateway, 10, seed=7)
    unbounded = retrieve_related(
        records["s#0"].text, SentimentScore(0.5), index, records,
        big_budget(top_n=6, sentiment_tolerance=1.0), mock_gateway,
    )
    budget = len(unbounded.selected[0].block) + 1 + len(unbounded.selected[1].block)
    config = RetrievalConfig(top_n=6, sentiment_tolerance=1.0, context_char_budget=budget)
    bundle = retrieve_related(
        records["s#0"].text, SentimentScore(0.5), index, records, config, mock_gateway
    )
    assert bundle.truncated
    assert len(bundle.render()) <= budget
    assert [e.episode_index for e in bundle.selected] == [
        e.episode_index for e in unbounded.selected[: len(bundle.selected)]
    ]


def test_a_bundle_fills_its_budget_to_the_last_character(mock_gateway):
    """An entry costs its block plus the joiner before it: two entries fit a budget of
    exactly their rendered length, and one character less keeps only the first."""
    index, records = synth_corpus(mock_gateway, 10, seed=7)
    unbounded = retrieve_related(
        records["s#0"].text, None, index, records, big_budget(top_n=6), mock_gateway,
    )
    exact = len(unbounded.selected[0].block) + 1 + len(unbounded.selected[1].block)
    for budget, kept in ((exact, 2), (exact - 1, 1)):
        config = RetrievalConfig(top_n=6, context_char_budget=budget)
        bundle = retrieve_related(records["s#0"].text, None, index, records, config, mock_gateway)
        assert bundle.selected == unbounded.selected[:kept] and bundle.truncated
        assert len(bundle.render()) <= budget


def test_a_candidate_exactly_the_tolerance_from_the_focus_survives_the_filter(mock_gateway):
    # 0.5, 0.25 and 0.75 are exact in binary, so |0.5 - 0.75| is exactly the tolerance
    index, records = synth_corpus(mock_gateway, 6, seed=11)
    sentiments = {"s#2": 0.75, "s#3": math.nextafter(0.75, 1.0), "s#4": 0.25}
    records = {eid: replace(r, sentiment=sentiments.get(eid, 0.0)) for eid, r in records.items()}
    config = big_budget(top_n=4, sentiment_tolerance=0.25, exclude_self=False)
    bundle = retrieve_related(records["s#0"].text, SentimentScore(0.5), index, records, config, mock_gateway)
    assert sorted(e.episode_index for e in bundle.selected) == [2, 4]  # s#3 is just past it
    assert not bundle.sentiment_filter_bypassed


def test_query_retrieval_finds_verbatim_synopsis(mock_gateway):
    index, records = synth_corpus(mock_gateway, 25, seed=11)
    question = records["s#13"].text
    config = big_budget(sentiment_tolerance=1.0)
    bundle = retrieve_for_query(question, index, records, config, mock_gateway)
    assert bundle.selected[0].episode_index == 13


def test_empty_question_is_contract_error(mock_gateway):
    index, records = synth_corpus(mock_gateway, 5, seed=13)
    with pytest.raises(ContractError):
        retrieve_for_query("   ", index, records, big_budget(), mock_gateway)


def test_top_n_beyond_corpus_returns_all_not_truncated(mock_gateway):
    index, records = synth_corpus(mock_gateway, 4, seed=15)
    config = big_budget(top_n=50, sentiment_tolerance=1.0)
    bundle = retrieve_for_query("river stone road", index, records, config, mock_gateway)
    assert len(bundle.selected) == 4
    assert not bundle.truncated


def test_restrict_story_limits_candidates(mock_gateway):
    rows = []
    records = {}
    for story in ("a", "b"):
        for i in range(3):
            text = f"{story} text number {i} about the {WORDS[i]}"
            (vec,) = mock_gateway.embed([text])
            entry_id = f"{story}#{i}"
            rows.append((entry_id, "summary", story, i, vec))
            records[entry_id] = SummaryRecord(entry_id, story, i, 0.5, text)
    index = build_index(mock_gateway.config.embed_dim, rows)
    bundle = retrieve_for_query(
        "text about the river", index, records, big_budget(sentiment_tolerance=1.0),
        mock_gateway, restrict_story="b",
    )
    assert bundle.selected and all(e.story_id == "b" for e in bundle.selected)


def test_records_round_trip(mock_gateway):
    index, records = synth_corpus(mock_gateway, 6, seed=21)
    written = records_to_dict(records)
    assert all(value.keys() == {"sentiment", "text"} for value in written.values())
    assert records_from_dict(written, index.entries) == records


def test_widening_recovers_survivors_beyond_initial_pool(mock_gateway, monkeypatch):
    # 40 entries; only the 25 lowest-similarity ones pass the filter, so the
    # first search, of 4*top_n = 12, holds no survivor and must widen
    rows = []
    records = {}
    base = "alpha beta gamma delta"
    texts = [f"{base} epsilon {i}" for i in range(15)] + [
        " ".join(random.Random(i).choices(WORDS, k=6)) for i in range(25)
    ]
    vectors = mock_gateway.embed(texts)
    for i, (text, vec) in enumerate(zip(texts, vectors)):
        entry_id = f"s#{i}"
        rows.append((entry_id, "summary", "s", i, vec))
        # the fifteen most similar entries carry far-off sentiments
        records[entry_id] = SummaryRecord(entry_id, "s", i, 0.99 if i < 15 else 0.4, text)
    index = build_index(mock_gateway.config.embed_dim, rows)
    config = big_budget(top_n=3, sentiment_tolerance=0.2, exclude_self=False)
    assert config.pool == 12
    searches = []
    search = FlatIndex.search_top_n

    def counting_search(self, query, **kw):
        searches.append(kw["n"])
        return search(self, query, **kw)

    monkeypatch.setattr(FlatIndex, "search_top_n", counting_search)
    sigma = SentimentScore(0.4)
    bundle = retrieve_related(base + " epsilon", sigma, index, records, config, mock_gateway)
    assert len(searches) >= 2 and searches[0] == 12
    (qvec,) = mock_gateway.embed([base + " epsilon"])
    expected, _ = oracle_selection(index, records, qvec, sigma.value, config)
    assert [f"{e.story_id}#{e.episode_index}" for e in bundle.selected] == expected
    assert not bundle.sentiment_filter_bypassed
    assert all(e.sentiment == 0.4 for e in bundle.selected)


@pytest.mark.parametrize("restrict_story", [None, "s1"])
def test_chunk_exclusion_drops_every_chunk_of_the_focus_episode(mock_gateway, restrict_story):
    # chunk entries are "story#episode#cK"; exclusion is by episode ref, so all
    # chunks of the focus episode go, although their entry ids all differ
    rng = random.Random(31)
    rows = []
    records = {}
    focus_chunks = []
    for story in ("s0", "s1", "s2"):
        for ep in range(8):
            for k in range(3):
                text = " ".join(rng.choices(WORDS, k=8))
                entry_id = f"{story}#{ep}#c{k}"
                (vec,) = mock_gateway.embed([text])
                rows.append((entry_id, "chunk", story, ep, vec))
                records[entry_id] = SummaryRecord(entry_id, story, ep, 0.5, text)
                if (story, ep) == ("s1", 4):
                    focus_chunks.append(text)
    index = build_index(mock_gateway.config.embed_dim, rows)
    assert len(index) > big_budget().pool  # the corpus-wide search screens
    focus = " ".join(focus_chunks)
    config = big_budget(top_n=10, sentiment_tolerance=1.0)
    bundle = retrieve_related(
        focus, SentimentScore(0.5), index, records, config, mock_gateway,
        exclude_ref=("s1", 4), restrict_story=restrict_story,
    )
    assert len(bundle.selected) == 10
    assert ("s1", 4) not in bundle.episode_refs()
    kept = retrieve_related(
        focus, SentimentScore(0.5), index, records, config, mock_gateway,
        exclude_ref=None, restrict_story=restrict_story,
    )
    assert kept.episode_refs()[:3] == [("s1", 4)] * 3  # the focus chunks rank first
