"""LlmGateway.map and the pipeline's overlapped model calls.

Results must not depend on `max_parallel`; threads are used only where a
request can wait on the network; every counter in GatewayStats, and every
entry the workers write to the shared cache connection, survives heavy
thread switching.
"""

import contextlib
import dataclasses
import hashlib
import json
import re
import sqlite3
import sys
import threading
import time
from collections import Counter

import pytest

from score import gateway as gateway_module
from score.cache import CACHE_FILE
from score.errors import GatewayReplyError, TransportError
from score.evaluator import Ablations, PipelineConfig, run_comparison, run_pipeline, stage_outputs
from score.fuzz import FuzzSpec, generate_corpus
from score.gateway import GatewayConfig, LlmGateway, hashed_embedding, request_digest
from score.lexicon import mock_sentiment_value
from score.retrieval import RetrievalConfig
from score.story import Episode, KeyItem, Story
from score.summarize import build_retrieval_document
from score.tracker import rule_extract

_SECTION_RE = {
    "items_json": re.compile(r"Key items \(JSON\):\n(.*?)\n\nEpisode text:\n", re.DOTALL),
    "extract_text": re.compile(r"Episode text:\n(.*?)\n\nFor every key item", re.DOTALL),
    "summary_text": re.compile(r"Episode text:\n(.*?)\n\nReply with ONLY", re.DOTALL),
    "sentiment_text": re.compile(r"Text:\n(.*?)\n\nReply with ONLY", re.DOTALL),
    "context_ref": re.compile(r"^\[([^\]\n]+#\d+)\] \(similarity=", re.MULTILINE),
}


def _section(name, prompt):
    return _SECTION_RE[name].search(prompt).group(1)


class StoryModel:
    """Deterministic remote model: each reply is a pure function of its request.

    Extraction follows the rule extractor, so tracking stays exact; summary,
    evaluation and answer replies are derived from the prompt's hash, so any
    change in what the pipeline sends, or in which reply goes to which
    caller, changes the results.
    """

    def __init__(self, latency_s=0.002, dim=256):
        self.latency_s = latency_s
        self.dim = dim
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, url, body, timeout, headers):
        with self._lock:
            self.calls += 1
        time.sleep(self.latency_s)
        if url.endswith("/embeddings"):
            return {
                "data": [
                    {"index": i, "embedding": hashed_embedding(text, self.dim).tolist()}
                    for i, text in enumerate(body["input"])
                ]
            }
        prompt = body["messages"][0]["content"]
        return {"choices": [{"message": {"content": self._reply(prompt)}}]}

    def _reply(self, prompt):
        h = int.from_bytes(hashlib.sha256(prompt.encode("utf-8")).digest()[:8], "little")
        if prompt.startswith("You are tracking"):
            items = [KeyItem(i["item_id"], tuple(i["names"])) for i in json.loads(_section("items_json", prompt))]
            observations = rule_extract(Episode(index=0, text=_section("extract_text", prompt)), items)
            return json.dumps(
                [
                    {"item_id": o.item_id, "state": o.state.value, "explained": o.explained, "evidence": list(o.evidence)}
                    for o in observations
                ]
            )
        if prompt.startswith("Summarize"):
            text = _section("summary_text", prompt)
            return json.dumps({"synopsis": f"{text[:40]} ({h % 97})", "plot_points": [text[-30:]]})
        if prompt.startswith("Rate the emotional tone"):
            return repr(mock_sentiment_value(_section("sentiment_text", prompt)))
        if prompt.startswith("Evaluate"):
            facets = ("character_consistency", "plot_progression", "emotional_authenticity", "key_item_continuity")
            scores = {name: 1 + (h >> (8 * i)) % 5 for i, name in enumerate(facets)}
            return json.dumps({"facet_scores": scores, "rationale": f"r{h % 1000}", "cited_error_indexes": [0]})
        if prompt.startswith("Answer"):
            refs = _SECTION_RE["context_ref"].findall(prompt)
            return json.dumps({"answer": f"a{h % 1000}", "supporting_episode_ids": refs[h % 2 :][:2]})
        raise AssertionError(f"unexpected prompt: {prompt[:80]!r}")


@pytest.fixture(scope="module")
def corpus():
    stories, truth = generate_corpus(FuzzSpec(seed=5, n_stories=4))
    return stories, truth.to_gold()


def _remote_run(corpus, max_parallel, *, cache_mode="off", cache_dir=None):
    stories, gold = corpus
    config = GatewayConfig(
        backend="remote", base_url="http://fake.local/v1", model_name="m",
        max_parallel=max_parallel, cache_mode=cache_mode,
    )
    gateway = LlmGateway(config, cache_dir=cache_dir, transport=StoryModel())
    result = run_pipeline(stories, gateway, PipelineConfig(gateway=config, retrieval=RetrievalConfig()), gold)
    return result, gateway


def test_remote_pipeline_results_do_not_depend_on_max_parallel(corpus):
    serial, serial_gw = _remote_run(corpus, 1)
    parallel, parallel_gw = _remote_run(corpus, 8)
    assert parallel.evaluations == serial.evaluations
    assert parallel.qa_results == serial.qa_results
    # max_parallel is not part of the config digest, so the whole report is equal
    assert parallel.report == serial.report
    assert parallel.states == serial.states
    assert serial_gw.stats.max_in_flight == 1
    assert 2 <= parallel_gw.stats.max_in_flight <= 8
    assert parallel_gw.stats.transport_calls == serial_gw.stats.transport_calls
    # a run keeps no summary; its stage 2 alone makes the same ones at both widths
    stories = corpus[0]
    assert stage_outputs(stories, parallel_gw, "summaries") == stage_outputs(stories, serial_gw, "summaries")


def test_record_mode_sends_the_same_requests_at_any_max_parallel(corpus, tmp_path):
    serial, serial_gw = _remote_run(corpus, 1, cache_mode="record", cache_dir=tmp_path / "a")
    parallel, parallel_gw = _remote_run(corpus, 8, cache_mode="record", cache_dir=tmp_path / "b")
    assert parallel_gw.stats.transport_calls == serial_gw.stats.transport_calls
    assert parallel_gw.stats.cache_misses == serial_gw.stats.cache_misses
    assert parallel_gw.stats.cache_hits == serial_gw.stats.cache_hits
    assert parallel.evaluations == serial.evaluations
    assert parallel.qa_results == serial.qa_results
    recorded = lambda root: {p.name: p.read_bytes() for p in root.rglob("*.json")}
    assert recorded(tmp_path / "a") == recorded(tmp_path / "b")


def _threads_used(gateway, n=6):
    seen = []

    def fn(i):
        seen.append(threading.get_ident())
        time.sleep(0.005 * (n - i))  # later items finish first
        return i * i

    assert gateway.map(fn, range(n)) == [i * i for i in range(n)]
    return set(seen)


def test_map_runs_on_the_calling_thread_for_mock_and_replay(tmp_path):
    main = threading.get_ident()
    mock = LlmGateway(GatewayConfig(backend="mock", max_parallel=8, cache_mode="record"), cache_dir=tmp_path)
    assert _threads_used(mock) == {main}
    replay = LlmGateway(
        GatewayConfig(backend="remote", base_url="http://fake.local/v1", max_parallel=8, cache_mode="replay"),
        cache_dir=tmp_path,
    )
    assert _threads_used(replay) == {main}


def test_map_uses_worker_threads_where_requests_wait_on_the_network(tmp_path):
    main = threading.get_ident()
    for mode in ("off", "record"):
        gw = LlmGateway(
            GatewayConfig(backend="remote", base_url="http://fake.local/v1", max_parallel=3, cache_mode=mode),
            cache_dir=tmp_path,
        )
        used = _threads_used(gw)
        assert main not in used and 1 <= len(used) <= 3
    single = LlmGateway(GatewayConfig(backend="remote", base_url="http://fake.local/v1", max_parallel=1))
    assert _threads_used(single) == {main}


def test_map_raises_the_first_failure_in_input_order():
    gw = LlmGateway(GatewayConfig(backend="remote", base_url="http://fake.local/v1", max_parallel=4))

    def fn(i):
        time.sleep(0.01 if i == 1 else 0.0)
        if i in (1, 3):
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="item 1"):
        gw.map(fn, range(6))


def test_mock_run_embeds_each_document_and_question_once(monkeypatch, mock_gateway):
    stories, truth = generate_corpus(FuzzSpec(seed=7, n_stories=100))
    texts = []

    def counting(text, dim):
        texts.append(text)
        return hashed_embedding(text, dim)

    monkeypatch.setattr(gateway_module, "hashed_embedding", counting)
    config = PipelineConfig(gateway=mock_gateway.config, retrieval=RetrievalConfig())
    result = run_pipeline(stories, mock_gateway, config, truth.to_gold())
    episodes = sum(len(s.episodes) for s in stories)
    assert len(result.evaluations) == episodes
    assert len(texts) == episodes + len(truth.qa)


class RequestLog(StoryModel):
    """StoryModel that keeps each embedding batch and each text whose tone it was asked for."""

    def __init__(self):
        super().__init__(latency_s=0.0)
        self.embed_batches = []
        self.toned = []

    def __call__(self, url, body, timeout, headers):
        with self._lock:
            if url.endswith("/embeddings"):
                self.embed_batches.append(list(body["input"]))
            elif body["messages"][0]["content"].startswith("Rate the emotional tone"):
                self.toned.append(_section("sentiment_text", body["messages"][0]["content"]))
        return super().__call__(url, body, timeout, headers)


def _logged_run(corpus, retrieval_config, **gateway_fields):
    stories, gold = corpus
    config = GatewayConfig(
        backend="remote", base_url="http://fake.local/v1", model_name="m", max_parallel=4, **gateway_fields
    )
    model = RequestLog()
    gateway = LlmGateway(config, transport=model)
    run_pipeline(stories, gateway, PipelineConfig(gateway=config, retrieval=retrieval_config), gold)
    return model


def _expected_embed_batches(texts: dict[str, list[str]], limit: int) -> tuple[list[set[str]], int]:
    """The text set of each embedding request, and the number of groups: a
    group of consecutive stories (by id) closes before a story whose texts
    would take it past `limit`, each group's texts go out in requests of at
    most `limit`, and a text already sent is not sent again."""
    groups, total = [], 0
    for story_id in sorted(texts):
        if not groups or total + len(texts[story_id]) > limit:
            groups.append([])
            total = 0
        groups[-1].extend(texts[story_id])
        total += len(texts[story_id])
    expected, sent = [], set()
    for group in groups:
        for start in range(0, len(group), limit):
            batch = set(group[start : start + limit]) - sent
            if batch:
                expected.append(batch)
                sent |= batch
    return expected, len(groups)


def test_a_storys_questions_are_embedded_in_one_request(corpus):
    """One embedding request per group of consecutive stories, carrying each
    distinct document and question of the group once; a story with more
    texts than the limit is a group of its own, sent in requests of at most
    the limit."""
    stories, gold = corpus
    asked = {}
    for gq in gold.qa:
        asked.setdefault(gq.story_id, []).append(gq.question)
    assert max(len(qs) for qs in asked.values()) >= 2  # the corpus has a story with several questions
    questions = {gq.question for gq in gold.qa}
    remote = GatewayConfig(backend="remote", base_url="http://fake.local/v1", model_name="m")
    summaries = stage_outputs(stories, LlmGateway(remote, transport=StoryModel(latency_s=0.0)), "summaries")
    for limit in (256, 25, 12):
        model = _logged_run(corpus, RetrievalConfig(), embed_batch_limit=limit)
        texts = {
            story.story_id: [build_retrieval_document(s).text for s in summaries[story.story_id]]
            + asked.get(story.story_id, [])
            for story in stories
        }
        expected, n_groups = _expected_embed_batches(texts, limit)
        if limit == 256:
            assert n_groups == 1 and len(expected) == 1
        else:
            assert n_groups > 1
        if limit == 12:
            assert len(expected) > n_groups  # a story larger than the limit is split
        assert [set(batch) for batch in model.embed_batches] == expected
        assert all(len(batch) == len(set(batch)) <= limit for batch in model.embed_batches)
        assert questions <= set(model.toned)  # the query filter reads each question's tone


def test_a_question_asked_of_two_stories_is_embedded_once(corpus, tmp_path):
    """With the cache off and in record mode, whether the two stories share
    a group (limit 256) or not (limit 20)."""
    stories, gold = corpus
    first, second = sorted(stories, key=lambda s: s.story_id)[:2]
    shared = next(gq for gq in gold.qa if gq.story_id == first.story_id)
    doubled = dataclasses.replace(gold, qa=(*gold.qa, dataclasses.replace(shared, story_id=second.story_id)))
    for mode in ("off", "record"):
        for limit in (256, 20):
            config = GatewayConfig(
                backend="remote", base_url="http://fake.local/v1", model_name="m",
                max_parallel=4, cache_mode=mode, embed_batch_limit=limit,
            )
            model = RequestLog()
            with LlmGateway(config, cache_dir=tmp_path / f"{mode}-{limit}", transport=model) as gateway:
                pipeline_config = PipelineConfig(gateway=config, retrieval=RetrievalConfig())
                result = run_pipeline(stories, gateway, pipeline_config, doubled)
            embedded = [text for batch in model.embed_batches for text in batch]
            assert embedded.count(shared.question) == 1
            assert len(embedded) == len(set(embedded))
            assert len(model.embed_batches) == (1 if limit == 256 else len(stories))
            answered = [q for q in result.qa_results if q.question == shared.question]
            assert [q.story_id for q in answered] == [first.story_id, second.story_id]


def _request_kind(body: str) -> str:
    url, payload = body.split(" ", 1)
    if url.endswith("/embeddings"):
        return "embedding"
    prompt = json.loads(payload)["messages"][0]["content"]
    for prefix, kind in _PROMPT_KINDS:
        if prompt.startswith(prefix):
            return kind
    raise AssertionError(f"unexpected prompt: {prompt[:80]!r}")


_PROMPT_KINDS = (
    ("You are tracking", "extraction"),
    ("Summarize", "summary"),
    ("Rate the emotional tone", "tone"),
    ("Evaluate", "evaluation"),
    ("Answer", "answer"),
)


def test_a_remote_run_sends_a_pinned_number_of_requests_of_each_kind(corpus):
    """The call budget of one fixed corpus: a change that sends more
    requests of any kind fails here, not only in the benchmark."""
    stories, gold = corpus
    model = BodyLog()
    config = GatewayConfig(backend="remote", base_url="http://fake.local/v1", model_name="m", max_parallel=4)
    gateway = LlmGateway(config, transport=model)
    run_pipeline(stories, gateway, PipelineConfig(gateway=config, retrieval=RetrievalConfig()), gold)
    assert sum(len(story.episodes) for story in stories) == 40 and len(gold.qa) == 9
    # the corpus repeats one episode text, whose extraction, summary and
    # tone are sent once; 21 of the 39 distinct episodes name none of their
    # story's key items, so they send no extraction; every question's tone is
    # read by the query filter; the 4 stories are one group, which sends one
    # embedding request
    assert Counter(map(_request_kind, model.bodies)) == {
        "extraction": 18,
        "summary": 39,
        "tone": 39 + 9,
        "evaluation": 40,
        "answer": 9,
        "embedding": 1,
    }
    assert gateway.stats.transport_calls == len(model.bodies) == 155


def test_a_questions_tone_is_scored_only_when_the_query_filter_reads_it(corpus):
    stories, gold = corpus
    model = _logged_run(corpus, RetrievalConfig(filter_queries=False))
    questions = {gq.question for gq in gold.qa}
    assert not questions & set(model.toned)
    assert set(model.toned) == {ep.text for story in stories for ep in story.episodes}


# ---------------------------------------------------------------------------
# the memo of a remote gateway with cache off
# ---------------------------------------------------------------------------


class BodyLog(StoryModel):
    """StoryModel that keeps the canonical form of every request it is sent."""

    def __init__(self):
        super().__init__(latency_s=0.0)
        self.bodies = []

    def __call__(self, url, body, timeout, headers):
        with self._lock:
            self.bodies.append(url + " " + json.dumps(body, sort_keys=True))
        return super().__call__(url, body, timeout, headers)


def test_a_cache_off_run_sends_each_distinct_request_once_and_equals_a_recorded_run(corpus, tmp_path):
    stories, gold = corpus
    first = stories[0]
    repeated = dataclasses.replace(
        first, episodes=(*first.episodes, Episode(index=len(first.episodes), text=first.episodes[0].text))
    )
    # a copy of a story under another id asks for the same extractions, summaries and tones
    copy = dataclasses.replace(stories[1], story_id=stories[1].story_id + "-copy")
    duplicated = ([repeated, copy, *stories[1:]], gold)
    model = BodyLog()
    config = GatewayConfig(backend="remote", base_url="http://fake.local/v1", model_name="m", max_parallel=4)
    gateway = LlmGateway(config, transport=model)
    pipeline_config = PipelineConfig(gateway=config, retrieval=RetrievalConfig())
    off = run_pipeline(duplicated[0], gateway, pipeline_config, gold)
    assert len(model.bodies) == len(set(model.bodies)) == gateway.stats.transport_calls
    assert gateway.stats.memo_hits >= 3 * len(copy.episodes)  # extraction, summary and tone of each copied episode
    recorded, recorded_gw = _remote_run(duplicated, 4, cache_mode="record", cache_dir=tmp_path)
    chat = [body for body in model.bodies if "/chat/" in body]
    embeddings = [json.loads(body.split(" ", 1)[1]) for body in model.bodies if "/embeddings " in body]
    embedded = [text for body in embeddings for text in body["input"]]
    assert len(embedded) == len(set(embedded))  # each text is sent once, whatever batch it rides in
    # the recording keeps one entry per distinct chat request and per distinct embedded text
    assert recorded_gw.stats.cache_misses == len(set(chat)) + len(set(embedded))
    assert off.evaluations == recorded.evaluations
    assert off.qa_results == recorded.qa_results
    assert off.report == recorded.report


def test_a_baseline_comparison_sends_each_distinct_request_once_and_embeds_only_for_side_a(corpus, monkeypatch):
    from score import evaluator

    stories, gold = corpus
    config = GatewayConfig(backend="remote", base_url="http://fake.local/v1", model_name="m", max_parallel=4)
    config_a = PipelineConfig(gateway=config, retrieval=RetrievalConfig())
    config_b = PipelineConfig(gateway=config, retrieval=RetrievalConfig(), ablations=Ablations.baseline())
    alone = BodyLog()
    run_pipeline(stories, LlmGateway(config, transport=alone), config_a, gold)
    model = BodyLog()
    gateway = LlmGateway(config, transport=model)
    extracted = []
    extract = evaluator.extract_item_statuses
    monkeypatch.setattr(
        evaluator, "extract_item_statuses", lambda ep, items, gw: extracted.append(ep) or extract(ep, items, gw)
    )
    comparison = run_comparison(stories, gold, gateway, config_a, config_b)
    assert len(model.bodies) == len(set(model.bodies)) == gateway.stats.transport_calls
    of_kind = lambda log, kind: sorted(body for body in log.bodies if _request_kind(body) == kind)
    assert of_kind(model, "embedding") == of_kind(alone, "embedding")  # side b, which retrieves nothing, embeds nothing
    # side b tracks with side a's states, so it asks for no extraction, and
    # each of its episode tones is one that side a has already had answered
    n_episodes = sum(len(story.episodes) for story in stories)
    assert len(extracted) == n_episodes
    assert of_kind(model, "extraction") == of_kind(alone, "extraction")
    assert gateway.stats.memo_hits >= n_episodes
    assert comparison.report_b.complex_qa == 0.0


def test_a_comparison_given_no_summaries_summarizes_each_episode_once(corpus, monkeypatch):
    """Both sides summarize, and neither run keeps its summaries: the
    comparison makes them once, before side a, and hands them to both."""
    from score import evaluator

    stories, gold = corpus
    config = GatewayConfig(backend="remote", base_url="http://fake.local/v1", model_name="m", max_parallel=4)
    config_a = PipelineConfig(gateway=config, retrieval=RetrievalConfig())
    config_b = PipelineConfig(gateway=config, retrieval=RetrievalConfig(), ablations=Ablations(retrieval=False))
    alone = BodyLog()
    run_pipeline(stories, LlmGateway(config, transport=alone), config_a, gold)
    model = BodyLog()
    summarized = []
    summarize = evaluator.summarize_episode
    monkeypatch.setattr(
        evaluator, "summarize_episode", lambda ep, items, gw, **kw: summarized.append(ep) or summarize(ep, items, gw, **kw)
    )
    run_comparison(stories, gold, LlmGateway(config, transport=model), config_a, config_b)
    of_kind = lambda log, kind: sorted(body for body in log.bodies if _request_kind(body) == kind)
    assert len(summarized) == sum(len(story.episodes) for story in stories)
    sent = of_kind(model, "summary")
    assert sent == of_kind(alone, "summary") and len(sent) == len(set(sent))


def test_the_mock_backend_with_cache_off_computes_no_digest_and_keeps_no_entry(monkeypatch, mock_gateway):
    def no_digest(*args):
        raise AssertionError("request_digest called on the mock cache-off path")

    monkeypatch.setattr(gateway_module, "request_digest", no_digest)
    stories, truth = generate_corpus(FuzzSpec(seed=7, n_stories=6))
    config = PipelineConfig(gateway=mock_gateway.config, retrieval=RetrievalConfig())
    result = run_pipeline(stories, mock_gateway, config, truth.to_gold())
    assert result.qa_results
    assert mock_gateway._store is None and mock_gateway._pending == {}
    assert mock_gateway.stats.memo_hits == mock_gateway.stats.transport_calls == 0


def _complete_under_heavy_switching(gw, prompts):
    """`gw.complete` of each prompt through `gw.map`, switching threads every microsecond."""
    out = {}
    runner = threading.Thread(target=lambda: out.update(replies=gw.map(gw.complete, prompts)))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not runner.is_alive()
    return out["replies"]


def test_the_memo_survives_heavy_thread_switching():
    """Cache off on the remote backend: more workers than cores, a switch
    every microsecond, and still each distinct prompt is sent once."""
    distinct, repeats, workers = 150, 4, 16
    sent = []
    lock = threading.Lock()

    bodies = []

    def transport(url, body, timeout, headers):
        with lock:
            sent.append(body["messages"][0]["content"])
            bodies.append(body)
        return {"choices": [{"message": {"content": "re:" + body["messages"][0]["content"]}}]}

    gw = _remote_gateway(workers, transport)
    prompts = [f"p{i % distinct}" for i in range(distinct * repeats)]
    assert _complete_under_heavy_switching(gw, prompts) == ["re:" + p for p in prompts]
    assert sorted(sent) == sorted(set(prompts))
    stats = gw.stats
    assert stats.transport_calls == distinct
    assert stats.memo_hits + stats.transport_calls == len(prompts)
    assert stats.cache_hits == stats.cache_misses == stats.in_flight == 0
    keys = {request_digest("complete", "m", body) for body in bodies}
    assert len(keys) == distinct and gw._pending == {}
    assert all(gw._store.get(key) is not None for key in keys)
    gw.close()
    assert all(gw._store.get(key) is None for key in keys)


def test_stats_survive_heavy_thread_switching(tmp_path):
    """More workers than cores, a switch every microsecond: no counter update
    and no cache entry is lost."""
    distinct, repeats, workers = 150, 4, 16
    transport_calls = []
    lock = threading.Lock()

    def transport(url, body, timeout, headers):
        with lock:
            transport_calls.append(body["messages"][0]["content"])
        return {"choices": [{"message": {"content": "re:" + body["messages"][0]["content"]}}]}

    gw = LlmGateway(
        GatewayConfig(
            backend="remote", base_url="http://fake.local/v1", max_parallel=workers, cache_mode="record"
        ),
        cache_dir=tmp_path,
        transport=transport,
    )
    prompts = [f"p{i % distinct}" for i in range(distinct * repeats)]
    assert _complete_under_heavy_switching(gw, prompts) == ["re:" + p for p in prompts]
    assert len(transport_calls) == distinct  # each key sent once
    stats = gw.stats
    assert stats.transport_calls == distinct
    assert stats.cache_misses == distinct
    assert stats.cache_hits + stats.cache_misses == len(prompts)
    assert stats.in_flight == 0
    assert 1 <= stats.max_in_flight <= workers
    gw.close()
    with contextlib.closing(sqlite3.connect(tmp_path / CACHE_FILE)) as db:
        rows = db.execute("SELECT request, response FROM entries")
        records = [(json.loads(request), response) for request, response in rows]
    assert {r["request"]["messages"][0]["content"]: response for r, response in records} == {
        f"p{i}": f"re:p{i}" for i in range(distinct)
    }
    assert len(records) == distinct


def test_held_structured_replies_survive_heavy_thread_switching(tmp_path):
    """Record mode, more workers than cores, a switch every microsecond: a
    reply its parser accepts is sent and recorded once, also while identical
    requests arrive during the parse, and one it rejects twice is never
    recorded."""
    distinct, repeats, workers = 60, 4, 16
    sent = []
    lock = threading.Lock()

    def transport(url, body, timeout, headers):
        prompt = body["messages"][0]["content"]
        with lock:
            sent.append(prompt)
        return {"choices": [{"message": {"content": "0.5" if "GOOD" in prompt else "no idea"}}]}

    config = GatewayConfig(
        backend="remote", base_url="http://fake.local/v1", model_name="m", max_parallel=workers, cache_mode="record"
    )
    gw = LlmGateway(config, cache_dir=tmp_path, transport=transport)

    def slow_parse(reply):
        time.sleep(0.001)  # identical requests arrive while the reply waits for its verdict
        return float(reply)

    def tone(text):
        try:
            return gw.complete_parsed("sentiment", slow_parse, text=text)
        except GatewayReplyError:
            return None

    texts = [f"{'GOOD' if i % 2 else 'BAD'} text {i}" for i in range(distinct) for _ in range(repeats)]
    out = {}
    runner = threading.Thread(target=lambda: out.update(tones=gw.map(tone, texts)))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not runner.is_alive()
    assert out["tones"] == [0.5 if text.startswith("GOOD") else None for text in texts]
    accepted = [prompt for prompt in sent if "GOOD" in prompt]
    assert len(accepted) == len(set(accepted)) == distinct // 2  # each sent once
    assert gw._pending == {}
    gw.close()
    with contextlib.closing(sqlite3.connect(tmp_path / CACHE_FILE)) as db:
        rows = db.execute("SELECT request, response FROM entries")
        records = [(json.loads(request), response) for request, response in rows]
    assert sorted(r["request"]["messages"][0]["content"] for r, _ in records) == sorted(accepted)
    assert {response for _, response in records} == {"0.5"}


# ---------------------------------------------------------------------------
# one pool per gateway, nested maps, overlapping stories
# ---------------------------------------------------------------------------


def _remote_gateway(max_parallel, transport=None):
    config = GatewayConfig(backend="remote", base_url="http://fake.local/v1", model_name="m", max_parallel=max_parallel)
    return LlmGateway(config, transport=transport)


def _gateway_threads():
    return {t for t in threading.enumerate() if t.name.startswith("score-gateway")}


def test_nested_map_with_more_outer_items_than_workers_finishes_in_order():
    gw = _remote_gateway(2)
    out = {}

    def outer(i):
        return gw.map(lambda j: (time.sleep(0.002), i * 10 + j)[1], range(5))

    runner = threading.Thread(target=lambda: out.update(result=gw.map(outer, range(7))))
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive(), "nested maps deadlocked"
    assert out["result"] == [[i * 10 + j for j in range(5)] for i in range(7)]


def test_remote_pipeline_never_has_more_worker_threads_than_max_parallel(corpus):
    stories, gold = corpus
    before = _gateway_threads()
    model = StoryModel(latency_s=0.001)
    seen = []

    def transport(url, body, timeout, headers):
        seen.append(len(_gateway_threads() - before))
        return model(url, body, timeout, headers)

    gw = _remote_gateway(3, transport)
    run_pipeline(stories, gw, PipelineConfig(gateway=gw.config, retrieval=RetrievalConfig()), gold)
    assert seen and max(seen) <= 3
    assert 2 <= gw.stats.max_in_flight <= 3


def test_single_episode_stories_overlap():
    """Each story's stage maps have one item, so only overlapping stories fill the slots."""
    stories = [
        Story(story_id=f"s{k}", title="t", genre="other", key_items=(KeyItem("sword", ("sword",)),),
              episodes=(Episode(index=0, text=f"Mira lifted the sword at dawn number {k}."),))
        for k in range(6)
    ]
    gw = _remote_gateway(4, StoryModel(latency_s=0.02))
    result = run_pipeline(stories, gw, PipelineConfig(gateway=gw.config, retrieval=RetrievalConfig()))
    assert [e.story_id for e in result.evaluations] == [f"s{k}" for k in range(6)]
    assert gw.stats.max_in_flight >= 2


def test_inner_map_failure_is_the_first_in_input_order_and_nothing_starts_after_it():
    gw = _remote_gateway(2)
    lock = threading.Lock()
    returned = set()
    late = []

    def inner(outer_id, j):
        with lock:
            if outer_id in returned:
                late.append((outer_id, j))
        if j == 5:
            raise ValueError("item 5")
        time.sleep(0.005)
        if j == 2:
            raise ValueError("item 2")
        return j

    def outer(outer_id):
        try:
            gw.map(lambda j: inner(outer_id, j), range(8))
        except ValueError as e:
            message = str(e)
        else:
            message = "no failure"
        with lock:
            returned.add(outer_id)
        return message

    out = {}
    runner = threading.Thread(target=lambda: out.update(result=gw.map(outer, range(3))))
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive()
    time.sleep(0.05)  # time for a queued item that was wrongly left running to start
    assert out["result"] == ["item 2"] * 3
    assert late == []


def test_collected_gateways_leave_no_worker_threads():
    import gc

    started = set()

    def fn(i):
        started.add(threading.current_thread())
        time.sleep(0.001)
        return i

    for _ in range(20):
        gw = _remote_gateway(3)
        assert gw.map(fn, range(6)) == list(range(6))
        del gw
    gc.collect()
    assert started
    deadline = time.monotonic() + 10
    for thread in started:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    assert not [t for t in started if t.is_alive()]


def test_no_request_goes_out_after_close_returns_from_a_failed_run(tmp_path):
    stories, gold = generate_corpus(FuzzSpec(seed=5, n_stories=3))
    model = StoryModel(latency_s=0.0)
    lock = threading.Lock()
    sent = []
    closed = threading.Event()
    late = []

    def transport(url, body, timeout, headers):
        with lock:
            sent.append(url)
            first = len(sent) == 1
        if first:
            raise TransportError("400 Bad Request", status=400)
        time.sleep(0.3)
        reply = model(url, body, timeout, headers)
        if closed.is_set():
            late.append(url)
        return reply

    config = GatewayConfig(
        backend="remote", base_url="http://fake.local/v1", model_name="m", max_parallel=4, cache_mode="record"
    )
    gw = LlmGateway(config, cache_dir=tmp_path / "cache", transport=transport)
    with pytest.raises(TransportError):
        run_pipeline(stories, gw, PipelineConfig(gateway=config, retrieval=RetrievalConfig()), gold.to_gold())
    gw.close()
    closed.set()
    time.sleep(0.8)  # time for a request still running on a worker to complete
    assert late == []
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [CACHE_FILE]
    # the pool went with close(): a later map starts a new one
    assert gw.map(lambda i: threading.current_thread().name, range(2))[0].startswith("score-gateway")
    gw.close()


def _in_thread(fn, out):
    """Start `fn()` on a thread of its own; a TransportError it raises lands in `out["error"]`."""

    def target():
        try:
            fn()
        except TransportError as e:
            out["error"] = e

    thread = threading.Thread(target=target)
    thread.start()
    return thread


def test_no_transport_attempt_starts_once_close_has_begun():
    # two running items, each a chain of three requests, and two queued ones;
    # close() begins while the first request of each running item is on the wire
    lock = threading.Lock()
    started = []  # (prompt, whether close() had begun)

    def transport(url, body, timeout, headers):
        prompt = body["messages"][0]["content"]
        with lock:
            started.append((prompt, gw._closing.is_set()))
        # an item's reply returns only once close() has begun; its flag stays
        # set until close() returns, which waits for this item
        deadline = time.monotonic() + 10
        while prompt.startswith("item") and not gw._closing.is_set() and time.monotonic() < deadline:
            time.sleep(0.001)
        return {"choices": [{"message": {"content": "ok"}}]}

    gw = _remote_gateway(2, transport)
    out = {}
    runner = _in_thread(lambda: gw.map(lambda i: [gw.complete(f"item {i} step {k}") for k in range(3)], range(4)), out)
    deadline = time.monotonic() + 10
    while len(started) < 2 and time.monotonic() < deadline:
        time.sleep(0.001)
    closer = threading.Thread(target=gw.close)
    closer.start()
    for thread in (closer, runner):
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert sorted(started) == [("item 0 step 0", False), ("item 1 step 0", False)]
    assert "the gateway is closing" in str(out["error"])
    assert gw.complete("again") == "ok"  # a closed gateway may be used again
    gw.close()


def test_a_retry_waiting_out_its_backoff_raises_once_close_begins():
    attempts = []

    def transport(url, body, timeout, headers):
        attempts.append(body["messages"][0]["content"])
        raise TransportError("HTTP 503", status=503, retry_after=3.0)

    gw = _remote_gateway(2, transport)
    out = {}
    runner = _in_thread(lambda: gw.map(lambda i: gw.complete("x") if i == 0 else i, range(2)), out)
    deadline = time.monotonic() + 10
    while not attempts and time.monotonic() < deadline:
        time.sleep(0.001)
    # the retry is in its 3 s backoff wait, or about to begin it: either way
    # close() ends the wait and no second attempt starts
    began = time.monotonic()
    gw.close()
    assert time.monotonic() - began < 2.0
    runner.join(timeout=30)
    assert not runner.is_alive()
    assert attempts == ["x"]
    assert "the gateway is closing" in str(out["error"])


def test_remote_pipeline_reads_each_prompt_template_once(corpus, monkeypatch):
    from score import prompts

    loads = []
    original = prompts.load

    def counting(name, root=None):
        loads.append(name)
        return original(name, root)

    monkeypatch.setattr(prompts, "load", counting)
    stories, gold = corpus
    gw = _remote_gateway(4, StoryModel())
    run_pipeline(stories, gw, PipelineConfig(gateway=gw.config, retrieval=RetrievalConfig()), gold)
    assert sorted(loads) == sorted(set(loads))
    assert set(loads) >= {"extract_states", "summarize", "sentiment", "evaluate", "answer"}
