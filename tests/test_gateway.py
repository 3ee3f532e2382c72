import contextlib
import json
import os
import sqlite3
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from score.errors import (
    ContractError,
    GatewayReplyError,
    PersistenceError,
    SentimentError,
    TransportError,
    UncachedRequestError,
    ValidationError,
)
from score.cache import CACHE_FILE, FORMAT
from score.gateway import (
    GatewayConfig,
    LlmGateway,
    SentimentScore,
    extract_json_value,
    hashed_embedding,
    request_digest,
)
from score.jsonio import canonical_dumps
from test_index import cosine


def remote_config(**kw):
    defaults = dict(backend="remote", base_url="http://fake.local/v1", model_name="test-model")
    defaults.update(kw)
    return GatewayConfig(**defaults)


class FakeTransport:
    """Scriptable transport: a list of responses or exceptions, call counting."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0
        self.bodies = []

    def __call__(self, url, body, timeout, headers):
        self.calls += 1
        self.bodies.append((url, body))
        action = self.script.pop(0) if len(self.script) > 1 else self.script[0]
        if isinstance(action, Exception):
            raise action
        return action


def chat_reply(text):
    return {"choices": [{"message": {"content": text}}]}


def stored_entries(cache_dir) -> dict[str, str]:
    """key -> record of every entry in the cache file under `cache_dir`."""
    with contextlib.closing(sqlite3.connect(Path(cache_dir) / CACHE_FILE)) as db:
        return dict(db.execute("SELECT key, record FROM entries"))


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_remote_backend_requires_base_url():
    with pytest.raises(ValidationError, match="base_url"):
        GatewayConfig(backend="remote")


def test_cache_mode_requires_cache_dir():
    with pytest.raises(ContractError, match="cache_dir"):
        LlmGateway(GatewayConfig(cache_mode="replay"))


def test_sentiment_score_bounds():
    from score.errors import ValidationError

    SentimentScore(0.0)
    SentimentScore(1.0)
    with pytest.raises(ValidationError):
        SentimentScore(1.2)


# ---------------------------------------------------------------------------
# mock backend
# ---------------------------------------------------------------------------


def test_mock_complete_is_deterministic(mock_gateway):
    assert mock_gateway.complete("same prompt") == mock_gateway.complete("same prompt")
    assert mock_gateway.complete("one") != mock_gateway.complete("two")


def test_mock_embed_is_deterministic(mock_gateway):
    a, b = mock_gateway.embed(["abc"]), mock_gateway.embed(["abc"])
    assert np.array_equal(a[0], b[0])
    assert a[0].shape == (mock_gateway.config.embed_dim,)


def test_mock_embeddings_are_unit_norm(mock_gateway):
    (vec,) = mock_gateway.embed(["some words here"])
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)


def test_lexical_overlap_beats_unrelated_text(mock_gateway):
    fixture = [
        ("The knight carried the silver sword to the castle.",
         "A knight carried a silver sword into the castle."),
        ("Rain fell over the quiet harbor all night.",
         "All night rain fell over the quiet harbor."),
        ("The merchant counted coins in the dusty market.",
         "In the dusty market the merchant counted coins."),
        ("Wolves howled beyond the frozen ridge.",
         "Beyond the frozen ridge the wolves howled."),
        ("She read the ancient letter by candlelight.",
         "By candlelight she read the ancient letter."),
    ]
    for (a, a_like) in fixture:
        va, vlike = mock_gateway.embed([a, a_like])
        for (b, _) in fixture:
            if b == a:
                continue
            (vb,) = mock_gateway.embed([b])
            assert cosine(va, vlike) > cosine(va, vb)


def test_embed_rejects_empty_string(mock_gateway):
    with pytest.raises(ContractError):
        mock_gateway.embed(["ok", ""])


def test_embed_batch_splitting_preserves_order():
    gw = LlmGateway(GatewayConfig(backend="mock", embed_batch_limit=2))
    texts = [f"text number {i}" for i in range(7)]
    split = gw.embed(texts)
    whole = LlmGateway(GatewayConfig(backend="mock")).embed(texts)
    for a, b in zip(split, whole):
        assert np.array_equal(a, b)


def test_mock_sentiment_lexicon_behavior(mock_gateway):
    positive = mock_gateway.score_sentiment("a bright hopeful joyful morning")
    assert positive.value > 0.5
    neutral = mock_gateway.score_sentiment("the chair stood near the table")
    assert neutral.value == 0.5
    negative = mock_gateway.score_sentiment("gloomy dread and bitter sorrow")
    assert negative.value < 0.5


def test_hashed_embedding_distinguishes_word_order_via_bigrams():
    a = hashed_embedding("dog bites man", 64)
    b = hashed_embedding("man bites dog", 64)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# remote wire format
# ---------------------------------------------------------------------------


def test_remote_complete_parses_chat_reply():
    transport = FakeTransport([chat_reply("hello there")])
    gw = LlmGateway(remote_config(), transport=transport)
    assert gw.complete("hi") == "hello there"
    url, body = transport.bodies[0]
    assert url.endswith("/chat/completions")
    assert body["messages"][0]["content"] == "hi"
    assert body["model"] == "test-model"


def test_remote_embed_parses_and_orders_by_index():
    dim = 3
    reply = {
        "data": [
            {"index": 1, "embedding": [0.0, 1.0, 0.0]},
            {"index": 0, "embedding": [1.0, 0.0, 0.0]},
        ]
    }
    gw = LlmGateway(remote_config(embed_dim=dim), transport=FakeTransport([reply]))
    vectors = gw.embed(["first", "second"])
    assert np.array_equal(vectors[0], [1.0, 0.0, 0.0])
    assert np.array_equal(vectors[1], [0.0, 1.0, 0.0])


def test_remote_embed_dimension_mismatch_is_a_reply_error():
    reply = {"data": [{"index": 0, "embedding": [0.0, 0.6, 0.8]}, {"index": 1, "embedding": [1.0, 0.0]}]}
    healthy = {"data": [{"index": 0, "embedding": [0.0, 1.0, 0.0]}]}
    transport = FakeTransport([reply, healthy])
    gw = LlmGateway(remote_config(embed_dim=3), transport=transport)
    with pytest.raises(GatewayReplyError, match=r"the embedding of texts\[2\] has dimension \(2,\), expected \(3,\)"):
        gw.embed(["first", "first", "second"])
    # the memo kept no row of the rejected reply, not even the good one
    assert np.array_equal(gw.embed(["first"])[0], [0.0, 1.0, 0.0])
    assert transport.calls == 2 and gw.stats.memo_hits == 0


@pytest.mark.parametrize("component", [float("nan"), float("inf"), float("-inf")])
def test_a_remote_embedding_that_is_not_finite_is_a_reply_error_and_not_recorded(tmp_path, component):
    reply = {"data": [{"index": 0, "embedding": [0.6, component, 0.0]}]}
    gw = LlmGateway(remote_config(embed_dim=3, cache_mode="record"), cache_dir=tmp_path, transport=FakeTransport([reply]))
    with gw, pytest.raises(GatewayReplyError, match=r"texts\[0\] is not finite"):
        gw.embed(["text"])
    assert stored_entries(tmp_path) == {}


def test_a_recorded_embedding_of_another_dimension_is_still_refused_on_replay(tmp_path):
    reply = {"data": [{"index": 0, "embedding": [0.6, 0.8, 0.0]}]}
    with LlmGateway(remote_config(embed_dim=3, cache_mode="record"), cache_dir=tmp_path, transport=FakeTransport([reply])) as gw:
        gw.embed(["text"])
    with LlmGateway(remote_config(embed_dim=5, cache_mode="replay"), cache_dir=tmp_path) as gw:
        with pytest.raises(TransportError, match=r"embedding 0 has dimension \(3,\), expected \(5,\)"):
            gw.embed(["text"])


_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["data", "index", "embedding"]), inner),
    max_leaves=10,
)
_VECTORS = st.integers(1, 4).flatmap(
    lambda dim: st.lists(st.lists(st.floats(), min_size=dim, max_size=dim), min_size=1, max_size=2)
)


@settings(max_examples=80, deadline=None)
@given(
    reply=st.one_of(
        _JSON,
        _VECTORS.map(lambda rows: {"data": [{"index": i, "embedding": row} for i, row in enumerate(rows)]}),
    )
)
@example(reply={"data": [{"index": i, "embedding": [0.6, 0.8, 0.0]} for i in range(2)]})
@example(reply={"data": [{"index": i, "embedding": [0.6, float("nan"), 0.0]} for i in range(2)]})
def test_any_embedding_reply_ends_in_checked_vectors_or_a_gateway_error_and_only_those_are_recorded(reply):
    """Any JSON value or vectors of any dimension, NaN and inf included, as
    the reply: `embed` returns vectors of the configured dimension that are
    finite, or raises an exit-3 error, and a second `record` run over a
    healthy transport then succeeds, from the recording if the first did."""
    config = remote_config(embed_dim=3, cache_mode="record")
    healthy = FakeTransport([{"data": [{"index": i, "embedding": [1.0, 0.0, 0.0]} for i in range(2)]}])
    with tempfile.TemporaryDirectory() as cache_dir:
        with LlmGateway(config, cache_dir=cache_dir, transport=FakeTransport([reply])) as gw:
            try:
                first = gw.embed(["a", "b"])
            except (TransportError, GatewayReplyError):
                first = None
        with LlmGateway(config, cache_dir=cache_dir, transport=healthy) as gw:
            second = gw.embed(["a", "b"])
    assert all(vec.shape == (3,) and np.isfinite(vec).all() for vec in second)
    if first is None:
        assert healthy.calls == 1
    else:
        assert healthy.calls == 0
        assert [vec.tobytes() for vec in second] == [vec.tobytes() for vec in first]


def test_remote_embedding_that_is_not_numbers_is_transport_error(tmp_path):
    reply = {"data": [{"index": 0, "embedding": ["a", "b", "c"]}]}
    gw = LlmGateway(remote_config(embed_dim=3, cache_mode="record"), cache_dir=tmp_path, transport=FakeTransport([reply]))
    with gw, pytest.raises(TransportError, match="malformed embeddings reply"):
        gw.embed(["text"])
    assert stored_entries(tmp_path) == {}


def test_remote_sentiment_parses_decimal_reply():
    gw = LlmGateway(remote_config(), transport=FakeTransport([chat_reply("0.73")]))
    assert gw.score_sentiment("anything").value == pytest.approx(0.73)


def test_remote_sentiment_clamps_out_of_range():
    gw = LlmGateway(remote_config(), transport=FakeTransport([chat_reply("1.7")]))
    assert gw.score_sentiment("anything").value == 1.0


def test_remote_sentiment_reprompts_once_then_fails():
    transport = FakeTransport([chat_reply("no idea"), chat_reply("still no")])
    gw = LlmGateway(remote_config(), transport=transport)
    with pytest.raises(SentimentError):
        gw.score_sentiment("anything")
    assert transport.calls == 2


def test_remote_tone_is_a_complete_request_keyed_by_the_body_it_sends(tmp_path):
    transport = FakeTransport([chat_reply("0.6")])
    with LlmGateway(remote_config(cache_mode="record"), cache_dir=tmp_path, transport=transport) as gw:
        assert gw.score_sentiment("a calm sea").value == 0.6
    ((url, body),) = transport.bodies
    assert url.endswith("/chat/completions") and body["max_tokens"] == 8 and body["temperature"] == 0.0
    ((key, record),) = stored_entries(tmp_path).items()
    assert json.loads(record)["op"] == "complete"
    assert key == request_digest("complete", "test-model", body)


def test_unparseable_tone_reply_gets_the_repair_reprompt(tmp_path):
    (tmp_path / "repair.txt").write_text("PROJECT REPAIR of $raw_reply for $original_prompt", "utf-8")
    transport = FakeTransport([chat_reply("no idea"), chat_reply("0.25")])
    gw = LlmGateway(remote_config(), transport=transport, prompts_root=tmp_path)
    assert gw.score_sentiment("a calm sea").value == 0.25
    first, repair = (body for _, body in transport.bodies)
    assert repair["messages"][0]["content"] == f"PROJECT REPAIR of no idea for {first['messages'][0]['content']}"
    assert repair["max_tokens"] == 8


def test_a_tone_recorded_under_one_template_is_asked_again_under_another(tmp_path):
    prompts_root = tmp_path / "prompts"
    prompts_root.mkdir()
    config = remote_config(cache_mode="record")
    (prompts_root / "sentiment.txt").write_text("TEMPLATE A: $text", "utf-8")
    transport = FakeTransport([chat_reply("0.25"), chat_reply("0.75")])
    with LlmGateway(config, cache_dir=tmp_path / "cache", transport=transport, prompts_root=prompts_root) as gw:
        assert gw.score_sentiment("a calm sea").value == 0.25
    (prompts_root / "sentiment.txt").write_text("TEMPLATE B: $text", "utf-8")
    with LlmGateway(config, cache_dir=tmp_path / "cache", transport=transport, prompts_root=prompts_root) as gw:
        assert gw.score_sentiment("a calm sea").value == 0.75
    sent = [body["messages"][0]["content"] for _, body in transport.bodies]
    assert sent == ["TEMPLATE A: a calm sea", "TEMPLATE B: a calm sea"]


def test_retry_backoff_sequence_and_recovery():
    transport = FakeTransport(
        [TransportError("boom1"), TransportError("boom2"), chat_reply("recovered")]
    )
    gw = LlmGateway(remote_config(max_retries=3), transport=transport)
    delays = []
    gw._sleep = delays.append
    gw._random = lambda: 1.0  # the top of the jitter range: the whole backoff
    assert gw.complete("x") == "recovered"
    assert transport.calls == 3
    assert delays == [0.5, 1.0]  # exponential, factor 2, initial 500ms


def test_retry_waits_a_full_jitter_draw_below_the_backoff():
    transport = FakeTransport([TransportError("boom1"), TransportError("boom2"), chat_reply("recovered")])
    gw = LlmGateway(remote_config(max_retries=3), transport=transport)
    delays = []
    gw._sleep = delays.append
    gw._random = iter([0.25, 0.75]).__next__
    assert gw.complete("x") == "recovered"
    assert delays == [0.125, 0.75]  # 0.25 of 500 ms, then 0.75 of 1 s


def test_retry_after_of_a_throttled_reply_is_honoured_up_to_a_cap():
    transport = FakeTransport(
        [
            TransportError("slow down", status=429, retry_after=7.0),
            TransportError("down for a while", status=503, retry_after=3600.0),
            TransportError("unavailable", status=503),
            chat_reply("recovered"),
        ]
    )
    gw = LlmGateway(remote_config(max_retries=3), transport=transport)
    delays = []
    gw._sleep = delays.append
    gw._random = lambda: 0.5
    assert gw.complete("x") == "recovered"
    assert delays == [7.0, 30.0, 1.0]  # the header, the cap, then jitter: 0.5 of 2 s


@pytest.mark.parametrize(
    "status, header, expected",
    [
        (429, "12", 12.0),
        (503, " 3 ", 3.0),
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", None),  # an HTTP date is not honoured
        (429, "-5", None),
        (429, None, None),
        (500, "12", None),  # only 429 and 503 ask the client to wait
    ],
)
def test_default_transport_carries_retry_after_seconds(monkeypatch, status, header, expected):
    import requests

    from score.gateway import default_transport

    class Reply:
        status_code = status
        text = "busy"
        headers = {} if header is None else {"Retry-After": header}

    monkeypatch.setattr(requests, "post", lambda url, **kwargs: Reply())
    with pytest.raises(TransportError) as caught:
        default_transport("http://fake.local/v1/chat/completions", {}, 1.0, {})
    assert caught.value.status == status and caught.value.retry_after == expected


def test_stats_count_each_retried_attempt():
    unavailable = TransportError("unavailable", status=503)
    transport = FakeTransport([unavailable, unavailable, chat_reply("recovered")])
    gw = LlmGateway(remote_config(max_retries=3), transport=transport)
    gw._sleep = lambda _: None
    assert gw.complete("x") == "recovered"
    assert gw.stats.transport_calls == transport.calls == 3
    assert gw.stats.retries == 2
    gw.complete("y")
    assert gw.stats.transport_calls == 4 and gw.stats.retries == 2


def test_retries_exhausted_raises_transport_error():
    transport = FakeTransport([TransportError("down")])
    gw = LlmGateway(remote_config(max_retries=2), transport=transport)
    gw._sleep = lambda _: None
    with pytest.raises(TransportError, match="after 3 attempts"):
        gw.complete("x")
    assert transport.calls == 3


def test_client_error_is_sent_once_without_backoff():
    transport = FakeTransport([TransportError("HTTP 401: unauthorized", status=401), chat_reply("never")])
    gw = LlmGateway(remote_config(max_retries=3), transport=transport)
    delays = []
    gw._sleep = delays.append
    with pytest.raises(TransportError, match="401"):
        gw.complete("x")
    assert transport.calls == 1
    assert delays == []


@pytest.mark.parametrize("status", [429, 500, 503])
def test_server_errors_and_throttling_are_retried(status):
    transport = FakeTransport([TransportError("unavailable", status=status)])
    gw = LlmGateway(remote_config(max_retries=2), transport=transport)
    delays = []
    gw._sleep = delays.append
    gw._random = lambda: 1.0  # the top of the jitter range: the whole backoff
    with pytest.raises(TransportError, match="after 3 attempts"):
        gw.complete("x")
    assert transport.calls == 3
    assert delays == [0.5, 1.0]


def test_parallelism_bound_is_respected():
    class SlowTransport:
        def __init__(self):
            self.lock = threading.Lock()
            self.calls = 0

        def __call__(self, url, body, timeout, headers):
            with self.lock:
                self.calls += 1
            time.sleep(0.02)
            return chat_reply("ok")

    gw = LlmGateway(remote_config(max_parallel=3), transport=SlowTransport())
    with ThreadPoolExecutor(max_workers=12) as pool:
        list(pool.map(lambda i: gw.complete(f"p{i}"), range(24)))
    assert gw.stats.max_in_flight <= 3
    assert gw.stats.transport_calls == 24


def test_api_key_header_from_environment(monkeypatch):
    seen = {}

    def transport(url, body, timeout, headers):
        seen.update(headers)
        return chat_reply("ok")

    monkeypatch.setenv("SCORE_API_KEY", "sk-test-123")
    LlmGateway(remote_config(), transport=transport).complete("x")
    assert seen.get("Authorization") == "Bearer sk-test-123"


# ---------------------------------------------------------------------------
# cache: record and replay
# ---------------------------------------------------------------------------


def test_record_mode_calls_upstream_once(tmp_path):
    transport = FakeTransport([chat_reply("cached answer")])
    gw = LlmGateway(remote_config(cache_mode="record"), cache_dir=tmp_path, transport=transport)
    first = gw.complete("the prompt")
    second = gw.complete("the prompt")
    assert first == second == "cached answer"
    assert transport.calls == 1
    assert gw.stats.cache_hits == 1 and gw.stats.cache_misses == 1


def test_replay_mode_with_empty_cache_errors_without_network(tmp_path):
    transport = FakeTransport([chat_reply("never")])
    gw = LlmGateway(remote_config(cache_mode="replay"), cache_dir=tmp_path, transport=transport)
    with pytest.raises(UncachedRequestError, match="uncached request"):
        gw.complete("anything")
    assert transport.calls == 0


def test_replay_serves_recorded_responses(tmp_path):
    transport = FakeTransport([chat_reply("original")])
    recorder = LlmGateway(remote_config(cache_mode="record"), cache_dir=tmp_path, transport=transport)
    recorder.complete("p")

    replayer = LlmGateway(
        remote_config(cache_mode="replay"), cache_dir=tmp_path, transport=FakeTransport([chat_reply("fresh")])
    )
    assert replayer.complete("p") == "original"
    assert replayer._transport.calls == 0


def test_cache_layout_is_content_addressed(tmp_path):
    with LlmGateway(GatewayConfig(backend="mock", cache_mode="record"), cache_dir=tmp_path) as gw:
        gw.complete("addressed")
    assert [p.name for p in tmp_path.iterdir()] == [CACHE_FILE]
    entries = stored_entries(tmp_path)
    assert len(entries) == 1
    ((key, record),) = entries.items()
    payload = json.loads(record)
    assert key == request_digest(payload["op"], payload["model"], payload["request"])
    assert set(payload) == {"op", "model", "request", "response"}
    assert record == canonical_dumps(payload)  # compact: no indent, no trailing newline


def test_replay_never_creates_or_writes_the_cache_file(tmp_path):
    with LlmGateway(GatewayConfig(backend="mock", cache_mode="replay"), cache_dir=tmp_path / "empty") as gw:
        with pytest.raises(UncachedRequestError):
            gw.complete("never recorded")
    assert not (tmp_path / "empty").exists()

    with LlmGateway(GatewayConfig(backend="mock", cache_mode="record"), cache_dir=tmp_path) as gw:
        recorded = gw.complete("recorded")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    assert list(before) == [CACHE_FILE]
    with LlmGateway(GatewayConfig(backend="mock", cache_mode="replay"), cache_dir=tmp_path) as gw:
        assert gw.complete("recorded") == recorded
        with pytest.raises(UncachedRequestError):
            gw.complete("never recorded")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def _stamp(cache_dir, version):
    with contextlib.closing(sqlite3.connect(Path(cache_dir) / CACHE_FILE)) as db:
        db.execute(f"PRAGMA user_version = {version}")


def test_a_fresh_recording_is_stamped_with_the_format_number(tmp_path):
    with LlmGateway(GatewayConfig(backend="mock", cache_mode="record"), cache_dir=tmp_path) as gw:
        gw.complete("stamped")
    with contextlib.closing(sqlite3.connect(tmp_path / CACHE_FILE)) as db:
        assert db.execute("PRAGMA user_version").fetchone() == (FORMAT,) != (0,)


def _recording_of_another_format(cache_dir, version):
    """A recording of one tone on the remote backend whose file says format `version`."""
    transport = FakeTransport([chat_reply("0.5")])
    with LlmGateway(remote_config(cache_mode="record"), cache_dir=cache_dir, transport=transport) as gw:
        gw.score_sentiment("a calm sea")
    _stamp(cache_dir, version)
    return (Path(cache_dir) / CACHE_FILE).read_bytes()


@pytest.mark.parametrize("version", [0, FORMAT + 1])
def test_replay_of_a_cache_file_of_another_format_says_record_again(tmp_path, version):
    before = _recording_of_another_format(tmp_path, version)
    gw = LlmGateway(remote_config(cache_mode="replay"), cache_dir=tmp_path, transport=FakeTransport([]))
    message = f"{tmp_path / CACHE_FILE}: recorded by another version of score: record it again"
    with gw, pytest.raises(UncachedRequestError, match=message):
        gw.score_sentiment("a calm sea")  # refused although the file holds the request
    assert gw.stats.transport_calls == gw.stats.cache_hits == 0
    assert (tmp_path / CACHE_FILE).read_bytes() == before


@pytest.mark.parametrize("version", [0, FORMAT + 1])
def test_record_over_a_cache_file_of_another_format_leaves_it_alone(tmp_path, version):
    before = _recording_of_another_format(tmp_path, version)
    transport = FakeTransport([chat_reply("0.5")])
    gw = LlmGateway(remote_config(cache_mode="record"), cache_dir=tmp_path, transport=transport)
    with gw, pytest.raises(PersistenceError, match=f"{CACHE_FILE}: recorded by another version of score"):
        gw.score_sentiment("another sea")
    assert transport.calls == 0
    assert [p.name for p in tmp_path.iterdir()] == [CACHE_FILE]
    assert (tmp_path / CACHE_FILE).read_bytes() == before


def test_a_mock_recording_of_tones_still_replays(tmp_path):
    with LlmGateway(GatewayConfig(backend="mock", cache_mode="record"), cache_dir=tmp_path) as gw:
        recorded = gw.score_sentiment("a bright hopeful morning")
    assert [json.loads(record)["op"] for record in stored_entries(tmp_path).values()] == ["sentiment"]
    with LlmGateway(GatewayConfig(backend="mock", cache_mode="replay"), cache_dir=tmp_path) as gw:
        assert gw.score_sentiment("a bright hopeful morning") == recorded
        with pytest.raises(UncachedRequestError) as missed:
            gw.complete("never recorded")
    assert "record it again" not in str(missed.value)


@pytest.mark.parametrize("mode", ["record", "replay"])
def test_cache_file_that_is_not_a_database_is_persistence_error_naming_it(tmp_path, mode):
    (tmp_path / CACHE_FILE).write_bytes(b"not a database, " * 64)
    transport = FakeTransport([chat_reply("a")])
    with LlmGateway(remote_config(cache_mode=mode), cache_dir=tmp_path, transport=transport) as gw:
        with pytest.raises(PersistenceError, match=f"{CACHE_FILE}: not a usable cache file"):
            gw.complete("p")
    assert transport.calls == 0
    assert (tmp_path / CACHE_FILE).read_bytes() == b"not a database, " * 64


def test_close_releases_the_connection(tmp_path):
    gw = LlmGateway(GatewayConfig(backend="mock", cache_mode="record"), cache_dir=tmp_path)
    gw.complete("first")
    db = gw._store._db
    gw.close()
    assert gw._store._db is None
    with pytest.raises(sqlite3.ProgrammingError):
        db.execute("SELECT 1")
    # the last connection is gone: the write-ahead log is folded into the file
    assert [p.name for p in tmp_path.iterdir()] == [CACHE_FILE]
    with contextlib.closing(sqlite3.connect(tmp_path / CACHE_FILE)) as other:
        assert other.execute("PRAGMA journal_mode").fetchone() == ("delete",)
    gw.close()  # closing twice is harmless
    gw.complete("second")  # and a later request opens the file again
    with gw:
        pass
    assert gw._store._db is None and len(stored_entries(tmp_path)) == 2


def test_cache_off_imports_no_sqlite(tmp_path):
    code = (
        "import sys\n"
        "import score.cli\n"
        "assert 'sqlite3' not in sys.modules, 'import score.cli loaded sqlite3'\n"
        f"assert score.cli.main(['--project', {str(tmp_path)!r}, 'fuzz', '--seed', '3', '--stories', '1']) == 0\n"
        f"assert score.cli.main(['--project', {str(tmp_path)!r}, 'evaluate']) == 0\n"
        "assert 'sqlite3' not in sys.modules, 'a cache-off run loaded sqlite3'\n"
    )
    import score

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(score.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


_finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64)


@settings(max_examples=60, deadline=None)
@given(
    prompt=st.text(min_size=1),
    reply=st.text(),
    rows=st.lists(st.lists(_finite, min_size=3, max_size=3), min_size=1, max_size=3),
)
@example(prompt="\x00\u2028\U0001f600 \"quoted\"\n", reply="caf\u00e9 \u65e5\u672c", rows=[[-0.0, 5e-324, -2.2250738585072014e-308]])
@example(prompt="p", reply="", rows=[[0.0, -0.0, 1.7976931348623157e308]])
def test_record_then_replay_returns_equal_values(prompt, reply, rows):
    """Unicode prompts and replies round-trip exactly, and embeddings bit for bit."""

    def transport(url, body, timeout, headers):
        if url.endswith("/embeddings"):
            return {"data": [{"index": i, "embedding": row} for i, row in enumerate(rows)]}
        return chat_reply(reply)

    texts = [f"{prompt} {i}" for i in range(len(rows))]
    with tempfile.TemporaryDirectory() as cache_dir:
        results = []
        for mode in ("record", "replay"):
            config = remote_config(cache_mode=mode, embed_dim=3)
            with LlmGateway(config, cache_dir=cache_dir, transport=transport) as gw:
                vectors = gw.embed(texts)
                results.append((gw.complete(prompt), [[float(x).hex() for x in vec] for vec in vectors]))
    assert results[0] == results[1] == (reply, [[x.hex() for x in row] for row in rows])


def test_mock_backend_also_goes_through_replay(tmp_path):
    gw = LlmGateway(GatewayConfig(backend="mock", cache_mode="replay"), cache_dir=tmp_path)
    with pytest.raises(UncachedRequestError):
        gw.embed(["text never recorded"])


def test_request_digest_is_stable_and_distinct():
    a = request_digest("complete", "m", {"x": 1, "y": [1, 2]})
    b = request_digest("complete", "m", {"y": [1, 2], "x": 1})
    c = request_digest("complete", "m", {"x": 2, "y": [1, 2]})
    assert a == b != c


# ---------------------------------------------------------------------------
# reply JSON extraction
# ---------------------------------------------------------------------------


def test_extract_json_value_handles_fences_and_prose():
    assert extract_json_value('```json\n{"a": 1}\n```', {"a": int}) == {"a": 1}
    assert extract_json_value('Sure! Here it is: {"a": [1, 2]} hope that helps', {"a": [int]}) == {"a": [1, 2]}
    assert extract_json_value("[1, 2, 3] trailing", [int]) == [1, 2, 3]


def test_extract_json_value_rejects_proseless_garbage():
    with pytest.raises(ValueError):
        extract_json_value("no json here at all", dict)
    with pytest.raises(ValueError):
        extract_json_value("{broken: json", dict)


def test_extract_json_value_names_the_first_value_of_another_shape():
    with pytest.raises(ValidationError, match=r"^\$\.a\[1\]: must be an integer, got \"2\"$"):
        extract_json_value('{"a": [1, "2"]}', {"a": [int]})


def test_record_mode_sends_a_request_in_flight_once(tmp_path):
    """Two threads send one prompt at once: one transport call, and both get the stored reply."""
    calls = []
    lock = threading.Lock()

    def transport(url, body, timeout, headers):
        with lock:
            calls.append(body)
            n = len(calls)
        time.sleep(0.2)
        return chat_reply(f"reply {n}")  # a non-deterministic model

    gw = LlmGateway(remote_config(cache_mode="record", max_parallel=4), cache_dir=tmp_path, transport=transport)
    start = threading.Barrier(2, timeout=10)
    replies = []

    def send():
        start.wait()
        replies.append(gw.complete("same prompt"))

    threads = [threading.Thread(target=send) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    (stored,) = stored_entries(tmp_path).values()
    assert replies == ["reply 1", "reply 1"] == [json.loads(stored)["response"]] * 2
    assert gw.stats.cache_misses == 1 and gw.stats.cache_hits == 1


# ---------------------------------------------------------------------------
# a structured reply is kept only once its parser accepts it
# ---------------------------------------------------------------------------


def test_a_tone_rejected_twice_is_not_recorded_and_the_next_run_asks_again(tmp_path):
    transport = FakeTransport([chat_reply("<html>Bad Gateway</html>")] * 2 + [chat_reply("0.4")])
    config = remote_config(cache_mode="record")
    with LlmGateway(config, cache_dir=tmp_path, transport=transport) as gw, pytest.raises(SentimentError):
        gw.score_sentiment("a calm sea")
    assert stored_entries(tmp_path) == {}
    with LlmGateway(config, cache_dir=tmp_path, transport=transport) as gw:
        assert gw.score_sentiment("a calm sea").value == 0.4
    assert transport.calls == 3 and len(stored_entries(tmp_path)) == 1


def test_a_repaired_tone_is_recorded_with_the_reply_before_it_and_replays(tmp_path):
    transport = FakeTransport([chat_reply("no idea"), chat_reply("0.25")])
    with LlmGateway(remote_config(cache_mode="record"), cache_dir=tmp_path, transport=transport) as gw:
        assert gw.score_sentiment("a calm sea").value == 0.25
    assert len(stored_entries(tmp_path)) == 2
    replay = LlmGateway(remote_config(cache_mode="replay"), cache_dir=tmp_path, transport=FakeTransport([]))
    with replay:
        assert replay.score_sentiment("a calm sea").value == 0.25
    assert replay.stats.transport_calls == 0 and replay.stats.cache_hits == 2


def test_the_cache_off_memo_keeps_no_reply_rejected_twice():
    transport = FakeTransport([chat_reply("junk")] * 2 + [chat_reply("0.4")])
    gw = LlmGateway(remote_config(), transport=transport)
    with pytest.raises(SentimentError):
        gw.score_sentiment("a calm sea")
    assert gw.score_sentiment("a calm sea").value == 0.4
    assert gw.score_sentiment("a calm sea").value == 0.4
    assert transport.calls == 3 and gw.stats.memo_hits == 1


# ---------------------------------------------------------------------------
# the memo of a remote gateway with cache off
# ---------------------------------------------------------------------------


def test_cache_off_sends_each_distinct_request_once_per_gateway():
    transport = FakeTransport([chat_reply("first"), chat_reply("second"), chat_reply("third")])
    gw = LlmGateway(remote_config(), transport=transport)
    assert [gw.complete("a"), gw.complete("b"), gw.complete("a"), gw.complete("a", max_tokens=8)] == [
        "first", "second", "first", "third"
    ]
    assert transport.calls == gw.stats.transport_calls == 3
    assert gw.stats.memo_hits == 1
    assert gw.stats.cache_hits == gw.stats.cache_misses == 0


def test_memoized_vectors_are_shared_read_only_and_close_forgets_them():
    reply = {"data": [{"index": 0, "embedding": [0.6, 0.8, 0.0]}, {"index": 1, "embedding": [0.0, 0.0, 1.0]}]}
    transport = FakeTransport([reply])
    gw = LlmGateway(remote_config(embed_dim=3), transport=transport)
    first, again = gw.embed(["x", "y"]), gw.embed(["x", "y"])
    assert transport.calls == 1 and gw.stats.memo_hits == 2  # one hit per text
    assert all(a is b for a, b in zip(first, again))
    assert np.array_equal(first[0], [0.6, 0.8, 0.0]) and np.array_equal(first[1], [0.0, 0.0, 1.0])
    assert all(vec.dtype == np.float64 and not vec.flags.writeable for vec in first)
    with pytest.raises(ValueError):
        first[0][0] = 1.0
    gw.close()
    after = gw.embed(["x", "y"])
    assert transport.calls == 2
    assert all(np.array_equal(a, b) for a, b in zip(first, after))


# ---------------------------------------------------------------------------
# one request, and one cache entry, per embedded text
# ---------------------------------------------------------------------------


class EmbedLog:
    """Embeddings transport: each text's vector is `hashed_embedding(text, dim)`; keeps each batch sent."""

    def __init__(self, dim=3, latency_s=0.0):
        self.dim = dim
        self.latency_s = latency_s
        self.batches = []
        self._lock = threading.Lock()

    def __call__(self, url, body, timeout, headers):
        with self._lock:
            self.batches.append(list(body["input"]))
        time.sleep(self.latency_s)
        rows = [hashed_embedding(text, self.dim).tolist() for text in body["input"]]
        return {"data": [{"index": i, "embedding": row} for i, row in enumerate(rows)]}


def test_each_embedded_text_is_one_cache_entry_keyed_by_its_one_text_request(tmp_path):
    log = EmbedLog()
    with LlmGateway(remote_config(cache_mode="record", embed_dim=3), cache_dir=tmp_path, transport=log) as gw:
        gw.embed(["a", "b"])
        gw.embed(["b", "c", "a"])
    assert log.batches == [["a", "b"], ["c"]]
    entries = stored_entries(tmp_path)
    assert len(entries) == 3
    for key, raw in entries.items():
        record = json.loads(raw)
        assert record["op"] == "embed" and len(record["request"]["input"]) == 1
        assert key == request_digest("embed", "test-model", record["request"])
        (text,) = record["request"]["input"]
        assert record["response"] == [hashed_embedding(text, 3).tolist()]
    # batching changes no key: texts embedded one by one replay from the rows one batch wrote
    with LlmGateway(remote_config(cache_mode="replay", embed_dim=3), cache_dir=tmp_path) as gw:
        for text in ("c", "a", "b"):
            (vec,) = gw.embed([text])
            assert np.array_equal(vec, hashed_embedding(text, 3))
        assert gw.stats.cache_hits == 3


@pytest.mark.parametrize("mode", ["off", "record"])
def test_embed_sends_each_distinct_miss_once_in_batches_of_at_most_the_limit(tmp_path, mode):
    log = EmbedLog()
    config = remote_config(cache_mode=mode, embed_dim=3, embed_batch_limit=3)
    with LlmGateway(config, cache_dir=tmp_path, transport=log) as gw:
        gw.embed(["b"])
        texts = ["a", "b", "a", "c", "d", "e", "b", "f"]
        vectors = gw.embed(texts)
    assert [np.array_equal(vec, hashed_embedding(t, 3)) for t, vec in zip(texts, vectors)] == [True] * len(texts)
    # calls of at most 3 texts: [a b a] sends a, [c d e] all three, [b f] sends f
    assert log.batches == [["b"], ["a"], ["c", "d", "e"], ["f"]]
    assert gw.stats.transport_calls == 4
    if mode == "record":
        assert gw.stats.cache_misses == 6 and gw.stats.cache_hits == 2
    else:
        assert gw.stats.memo_hits == 2


def test_concurrent_embeds_of_overlapping_texts_send_each_text_once():
    log = EmbedLog(latency_s=0.02)
    gw = LlmGateway(remote_config(embed_dim=3, max_parallel=4), transport=log)
    batches = [["a", "b"], ["b", "c"], ["c", "a", "d"], ["d"]]
    results = gw.map(gw.embed, batches)
    sent = [text for batch in log.batches for text in batch]
    assert sorted(sent) == ["a", "b", "c", "d"]
    for batch, vectors in zip(batches, results):
        assert all(np.array_equal(vec, hashed_embedding(t, 3)) for t, vec in zip(batch, vectors))


def test_an_embeddings_reply_with_a_vector_missing_is_transport_error(tmp_path):
    reply = {"data": [{"index": 0, "embedding": [1.0, 0.0, 0.0]}]}
    config = remote_config(embed_dim=3, cache_mode="record")
    gw = LlmGateway(config, cache_dir=tmp_path, transport=FakeTransport([reply]))
    with gw, pytest.raises(TransportError, match="1 vector"):
        gw.embed(["first", "second"])
    assert stored_entries(tmp_path) == {}


def test_a_failed_request_is_not_remembered_and_its_joined_callers_get_its_error(monkeypatch):
    """The first send of a prompt fails with a 400 while a second caller waits
    on it: both get the error, and the next identical call is sent again."""
    from score import gateway as gateway_module

    joined, entered = threading.Event(), threading.Event()

    class SignalledFuture(gateway_module.Future):
        def result(self, timeout=None):  # only a joining caller waits on the entry
            joined.set()
            return super().result(timeout)

    monkeypatch.setattr(gateway_module, "Future", SignalledFuture)
    calls = []

    def transport(url, body, timeout, headers):
        calls.append(body)
        if len(calls) == 1:
            entered.set()
            assert joined.wait(timeout=10)
            raise TransportError("HTTP 400: bad request", status=400)
        return chat_reply("ok")

    gw = LlmGateway(remote_config(max_parallel=4), transport=transport)
    errors = []

    def send():
        try:
            gw.complete("same prompt")
        except TransportError as e:
            errors.append(e)

    owner = threading.Thread(target=send)
    owner.start()
    assert entered.wait(timeout=10)
    joiner = threading.Thread(target=send)
    joiner.start()
    for t in (owner, joiner):
        t.join(timeout=10)
    assert not owner.is_alive() and not joiner.is_alive()
    assert len(errors) == 2 and errors[0] is errors[1] and errors[0].status == 400
    assert len(calls) == 1
    assert gw.complete("same prompt") == "ok"
    assert len(calls) == 2 and gw.stats.transport_calls == 2
    assert gw.complete("same prompt") == "ok" and len(calls) == 2


def _truncate_the_one_entry(cache_dir):
    (key,) = stored_entries(cache_dir)
    with contextlib.closing(sqlite3.connect(cache_dir / CACHE_FILE)) as db, db:
        db.execute("UPDATE entries SET record = substr(record, 1, 20) WHERE key = ?", (key,))
    return key


def test_unreadable_cache_entry_in_replay_is_persistence_error(tmp_path):
    with LlmGateway(remote_config(cache_mode="record"), cache_dir=tmp_path, transport=FakeTransport([chat_reply("a")])) as gw:
        gw.complete("p")
    key = _truncate_the_one_entry(tmp_path)
    replayer = LlmGateway(remote_config(cache_mode="replay"), cache_dir=tmp_path, transport=FakeTransport([chat_reply("b")]))
    with pytest.raises(PersistenceError, match=f"{key} in .*{CACHE_FILE}"):
        replayer.complete("p")


def test_unreadable_cache_entry_in_record_is_a_miss_and_rewritten(tmp_path):
    with LlmGateway(remote_config(cache_mode="record"), cache_dir=tmp_path, transport=FakeTransport([chat_reply("a")])) as gw:
        gw.complete("p")
    key = _truncate_the_one_entry(tmp_path)
    transport = FakeTransport([chat_reply("b")])
    with LlmGateway(remote_config(cache_mode="record"), cache_dir=tmp_path, transport=transport) as recorder:
        assert recorder.complete("p") == "b"
    assert transport.calls == 1
    assert json.loads(stored_entries(tmp_path)[key])["response"] == "b"


def test_sentiment_prompt_comes_from_the_project_override(tmp_path):
    (tmp_path / "sentiment.txt").write_text("PROJECT TONE PROMPT: $text", "utf-8")
    transport = FakeTransport([chat_reply("0.4")])
    gw = LlmGateway(remote_config(), transport=transport, prompts_root=tmp_path)
    assert gw.score_sentiment("a calm sea").value == 0.4
    assert transport.bodies[0][1]["messages"][0]["content"] == "PROJECT TONE PROMPT: a calm sea"


def test_templates_are_read_once_per_gateway_and_a_new_gateway_sees_edits(tmp_path):
    (tmp_path / "sentiment.txt").write_text("FIRST $text", "utf-8")
    first = LlmGateway(remote_config(), prompts_root=tmp_path)
    assert first.template("sentiment") == "FIRST $text"
    (tmp_path / "sentiment.txt").write_text("SECOND $text", "utf-8")
    assert first.template("sentiment") == "FIRST $text"
    assert LlmGateway(remote_config()).template("sentiment").startswith("Rate the emotional tone")  # no root: bundled
    second = LlmGateway(remote_config(), prompts_root=tmp_path)
    assert second.template("sentiment") == "SECOND $text"
