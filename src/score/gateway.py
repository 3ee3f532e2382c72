"""Uniform access to completion, embedding, and sentiment backends.

Two backends: `remote` speaks the OpenAI-compatible chat-completions and
embeddings wire format over HTTP; `mock` is fully deterministic and
offline (hashed bag-of-words embeddings, lexicon sentiment, hash-derived
completions) so the whole pipeline can run and be tested without a model.

A reply store (`score.cache`) keyed by `request_digest` fronts both backends:
the cache file in `record` and `replay` mode, and on the remote backend with
cache `off` the gateway's memory until `close()`, so each distinct request is
sent once, as a recorded run gets one reply per request (all are sent at
temperature 0). Each call asks the store once for all the keys it needs. A
replay miss is an error, so a replay run is a pure function of (inputs,
config, cache). The mock backend with cache `off` keeps nothing: its replies
cost less than a digest. A failed request is not kept, a chat reply whose
text is not valid Unicode (a lone surrogate) nowhere, a remote embedding
reply only once each vector has the configured dimension and is finite, and a
structured reply only once its parser accepts it (see `complete_parsed`).
`jsonio.parse_json` decodes each HTTP body and each structured reply.
`complete_parsed` alone renders a prompt template: every structured reply
is asked for, repaired and reported there, the error naming its template.

An embedded text is a request of its own, `{"model": m, "input": [text]}`,
so batching changes no key. `embed` answers each text from the store or a
request already in flight, and sends the distinct texts left over in one
request per call of at most `embed_batch_limit` texts. A remote tone is a
chat request like any other; only mock tones are entries of op `sentiment`.
`LlmGateway.map` overlaps requests where they wait on the network.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
import random
import re
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, TypeVar

import numpy as np

from . import lexicon, prompts
from .cache import FileStore, MemoryStore
from .errors import (
    ContractError,
    GatewayReplyError,
    JsonParseError,
    TransportError,
    UncachedRequestError,
    ValidationError,
)
from .jsonio import canonical_dumps, check, parse_json

logger = logging.getLogger(__name__)

API_KEY_ENV = "SCORE_API_KEY"

_BACKENDS = ("remote", "mock")
_CACHE_MODES = ("off", "record", "replay")

_INITIAL_BACKOFF = 0.5
_BACKOFF_FACTOR = 2.0
# the longest `Retry-After` a 429 or 503 reply is honoured for, in seconds
_MAX_RETRY_AFTER = 30.0
# the longest `timeout`, one day in seconds: the transport refuses a far larger one
_MAX_TIMEOUT = 86_400.0
# the largest value of each size config.json sets (README, `config.json`): twice
# the width of the widest embedding models; the concurrent requests a provider
# allows one API key; and a group's texts, whose float64 vectors then take at
# most 1,024 x 16,384 x 8 bytes = 128 MiB
_MAX_SIZES = {"embed_dim": 16_384, "max_parallel": 64, "embed_batch_limit": 1_024}

T = TypeVar("T")
R = TypeVar("R")

# the pool token of the gateway whose worker this thread is; a token, not the
# gateway, so an idle worker keeps no gateway alive
_worker = threading.local()


def _mark_worker(token: object) -> None:
    _worker.pool = token


# GatewayConfig fields that decide how requests are sent, never what is sent
# or what comes back, so no result depends on them
SENDING_ONLY_FIELDS = ("max_parallel", "timeout", "max_retries", "cache_mode", "embed_batch_limit")


@dataclass(frozen=True, slots=True)
class GatewayConfig:
    backend: str = "mock"
    base_url: str = ""
    model_name: str = "mock-small"
    embed_model_name: str = ""  # empty -> model_name
    embed_dim: int = 256
    max_parallel: int = 4
    timeout: float = 30.0
    max_retries: int = 3
    cache_mode: str = "off"
    embed_batch_limit: int = 256

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise ValidationError("backend", f"must be one of {_BACKENDS}, got {self.backend!r}")
        if self.cache_mode not in _CACHE_MODES:
            raise ValidationError("cache_mode", f"must be one of {_CACHE_MODES}, got {self.cache_mode!r}")
        if self.backend == "remote" and not self.base_url:
            raise ValidationError("base_url", "required for the remote backend")
        for name, most in _MAX_SIZES.items():
            value = getattr(self, name)
            if value <= 0:
                raise ValidationError(name, "must be positive")
            if value > most:
                raise ValidationError(name, f"must be at most {most:,}, got {value:,}")
        if not 0.0 < self.timeout <= _MAX_TIMEOUT:  # NaN fails too
            raise ValidationError("timeout", f"must be in (0, {_MAX_TIMEOUT:.0f}] seconds, got {self.timeout}")
        if self.max_retries < 0:
            raise ValidationError("max_retries", "must be >= 0")

    @property
    def effective_embed_model(self) -> str:
        return self.embed_model_name or self.model_name


@dataclass(frozen=True, slots=True)
class SentimentScore:
    """Emotional-tone score in [0, 1]."""

    value: float

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValidationError("value", f"must be in [0, 1], got {self.value}")


@dataclass
class GatewayStats:
    """Counters for tests and logging; guarded by the gateway's lock.

    `retries` counts the transport attempts that repeat a failed one, and
    `memo_hits` the remote cache-off requests answered from the gateway's
    memory instead of the transport. The hit, miss and memo counters count
    requests, and each embedded text is a request of its own.
    """

    transport_calls: int = 0
    retries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    memo_hits: int = 0
    in_flight: int = 0
    max_in_flight: int = 0


def _retry_after_seconds(value: str | None) -> float | None:
    """A `Retry-After` header given in seconds (RFC 9110 sec. 10.2.3); None
    when absent or not a whole number of seconds, such as an HTTP date."""
    match = re.fullmatch(r"\s*([0-9]+)\s*", value or "")
    return float(match.group(1)) if match else None


def default_transport(url: str, body: dict, timeout: float, headers: dict) -> dict:
    """POST JSON and return the decoded JSON reply; raises TransportError."""
    import requests

    try:
        response = requests.post(url, json=body, timeout=timeout, headers=headers)
    except (requests.RequestException, ValueError) as e:  # urllib3's LocationParseError is a ValueError
        raise TransportError(f"POST {url} failed: {e}") from e
    if response.status_code != 200:
        throttled = response.status_code in (429, 503)
        raise TransportError(
            f"POST {url} returned HTTP {response.status_code}: {response.text[:200]}",
            status=response.status_code,
            retry_after=_retry_after_seconds(response.headers.get("Retry-After")) if throttled else None,
        )
    try:
        return parse_json(response.content)
    except JsonParseError as e:
        raise TransportError(f"POST {url} returned non-JSON body ({e})") from None


class LlmGateway:
    """Thread-safe front end over one configured backend plus its reply store.

    A gateway in `record` or `replay` mode holds the cache file open from
    its first request until `close()`; use it as a context manager.
    """

    def __init__(
        self,
        config: GatewayConfig,
        cache_dir: Path | str | None = None,
        transport: Callable[[str, dict, float, dict], dict] | None = None,
        prompts_root: Path | str | None = None,
    ):
        """`prompts_root` is a project's prompts/ directory; its templates
        override the bundled ones in every prompt rendered from `template`."""
        if config.cache_mode != "off" and cache_dir is None:
            raise ContractError(f"cache_mode={config.cache_mode!r} requires a cache_dir")
        self.config = config
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.prompts_root = prompts_root
        self.stats = GatewayStats()
        self._transport = transport or default_transport
        # set while `close()` runs: no transport attempt starts, and a backoff wait ends
        self._closing = threading.Event()
        self._sleep = self._closing.wait  # the backoff wait; patched in tests to avoid real waits
        self._random = random.random  # the jitter source, patched in tests
        self._semaphore = threading.BoundedSemaphore(config.max_parallel)
        self._lock = threading.Lock()
        self._pending: dict[str, Future] = {}  # cache key -> result of the request in flight
        # where replies are kept; none for the mock backend with cache `off`
        self._store: FileStore | MemoryStore | None = None
        if config.cache_mode != "off":
            self._store = FileStore(self.cache_dir, config.cache_mode)
        elif not self.is_mock:
            self._store = MemoryStore()
        self._pool: ThreadPoolExecutor | None = None  # created by the first threaded map
        self._pool_token = object()
        self._templates: dict[str, str] = {}
        self._local = threading.local()  # `held`: the fresh replies of this thread's `complete_parsed`

    def close(self) -> None:
        """Stop the worker pool and close the reply store: replies kept in
        memory are forgotten, and the cache file is closed.

        Map items that have not started are cancelled, and running ones are
        waited for, so no request goes out and no reply reaches the cache
        file after this returns. While it waits, no transport attempt
        starts: a running item's next attempt, or a retry in its backoff
        wait, raises TransportError instead, so only a request already on
        the wire is waited for. A later map starts a new pool, a later
        request is sent again, and a later cached one opens the file again.

        The gateway's counters, when it sent or read anything, are logged
        at INFO level. They are totals since the gateway was made, so a
        gateway closed twice counts its first session again in the second
        line.
        """
        self._closing.set()
        try:
            with self._lock:
                pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
            if self._store is not None:
                self._store.close()
        finally:
            self._closing.clear()
        stats = self.stats
        if stats.transport_calls or stats.cache_hits or stats.cache_misses or stats.memo_hits:
            logger.info(
                "gateway totals: %d transport calls, %d retries, %d memo hits, %d cache hits, %d cache misses, "
                "%d in flight at most",
                stats.transport_calls, stats.retries, stats.memo_hits,
                stats.cache_hits, stats.cache_misses, stats.max_in_flight,
            )

    def __enter__(self) -> "LlmGateway":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def is_mock(self) -> bool:
        return self.config.backend == "mock"

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """`[fn(item) for item in items]`, overlapping calls where requests wait on the network.

        Only the remote backend with cache mode `off` or `record` sends
        requests that wait on a transport; there, `fn` runs on the gateway's
        one pool of `max_parallel` worker threads. The mock backend and
        replay mode are pure CPU and cache reads, which threads cannot speed
        up under the GIL, so they run in the calling thread.

        The pipeline's stages never nest maps. A `map` called on one of the
        pool's own workers runs its items there, in input order, so it never
        waits on work queued behind it and the gateway never has more than
        `max_parallel` worker threads. Results are in input order either
        way; the first exception in input order propagates, and no item of
        this map starts after it returns.
        """
        items = list(items)
        inline = self.is_mock or self.config.cache_mode == "replay" or self.config.max_parallel < 2 or len(items) < 2
        if inline or getattr(_worker, "pool", None) is self._pool_token:
            return [fn(item) for item in items]
        futures = [self._worker_pool().submit(fn, item) for item in items]
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()

    def _worker_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.config.max_parallel,
                    thread_name_prefix="score-gateway",
                    initializer=_mark_worker,
                    initargs=(self._pool_token,),
                )
            return self._pool

    def template(self, name: str) -> str:
        """Prompt template `name`, preferring `<prompts_root>/<name>.txt`; each is
        read once per gateway, so a new gateway sees an edited `prompts/`."""
        with self._lock:
            text = self._templates.get(name)
            if text is None:
                text = self._templates[name] = prompts.load(name, self.prompts_root)
        return text

    # -- public operations ---------------------------------------------------

    def complete(self, prompt: str, *, max_tokens: int = 1024) -> str:
        if not prompt:
            raise ContractError("prompt must be non-empty")
        body = {
            "model": self.config.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0,
            "max_tokens": max_tokens,
        }
        return self._cached("complete", self.config.model_name, [body], lambda _: [self._complete_uncached(body)])[0]

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            return []
        for i, text in enumerate(texts):
            if not text:
                raise ContractError(f"texts[{i}] must be non-empty")
        limit = self.config.embed_batch_limit
        if len(texts) > limit:
            return [vec for start in range(0, len(texts), limit) for vec in self.embed(texts[start : start + limit])]
        model = self.config.effective_embed_model
        # one request per text, so each text has its own key; the texts left
        # to send go out together, each reply being one vector
        vectors = self._cached(
            "embed",
            model,
            [{"model": model, "input": [text]} for text in texts],
            lambda bodies: self._embed_uncached(texts, [body["input"][0] for body in bodies]),
        )
        for i, vec in enumerate(vectors):  # a vector read back from the cache file is checked here
            if vec.shape != (self.config.embed_dim,):
                raise TransportError(f"embedding {i} has dimension {vec.shape}, expected ({self.config.embed_dim},)")
        return vectors

    def score_sentiment(self, text: str) -> SentimentScore:
        """The lexicon's tone of `text` on the mock backend; on the remote one,
        the reply to the `sentiment` template, parsed like any structured reply."""
        if not text:
            raise ContractError("text must be non-empty")
        if not self.is_mock:
            return SentimentScore(self.complete_parsed("sentiment", parse_tone, max_tokens=8, text=text))
        body = {"model": self.config.model_name, "text": text}
        (value,) = self._cached("sentiment", body["model"], [body], lambda _: [lexicon.mock_sentiment_value(text)])
        return SentimentScore(value=float(value))

    # -- backend dispatch ------------------------------------------------------

    def _complete_uncached(self, body: dict) -> str:
        if self.is_mock:
            digest = hashlib.sha256(body["messages"][0]["content"].encode("utf-8")).hexdigest()
            return f"[mock:{digest[:16]}]"
        reply = self._post("/chat/completions", body)
        try:
            content = reply["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as e:
            raise TransportError(f"malformed chat reply: {reply!r:.200}") from e
        if not isinstance(content, str):
            raise TransportError("chat reply content is not a string")
        try:
            content.encode("utf-8")
        except UnicodeEncodeError as e:  # half a surrogate pair, as "\ud83d" decodes: UTF-8 cannot hold it
            raise GatewayReplyError(f"chat reply content holds a lone surrogate at position {e.start}") from None
        return content

    def _embed_uncached(self, texts: Sequence[str], todo: list[str]) -> list[np.ndarray]:
        """The compute step of `embed`: the vector of each text of `todo`, in
        one request.

        A remote reply's vectors are read-only, so that the callers a kept
        reply answers can share them. One of another dimension, or with a
        non-finite component, raises GatewayReplyError naming its text's
        position in `texts`, so that no store keeps a row of the reply.
        """
        dim = self.config.embed_dim
        if self.is_mock:
            return [hashed_embedding(text, dim) for text in todo]
        reply = self._post("/embeddings", {"model": self.config.effective_embed_model, "input": todo})
        try:
            data = sorted(reply["data"], key=lambda d: d["index"])
            vectors = [np.asarray(d["embedding"], dtype=np.float64) for d in data]
        except (KeyError, TypeError, ValueError) as e:
            raise TransportError(f"malformed embeddings reply: {reply!r:.200}") from e
        if len(vectors) != len(todo):
            raise TransportError(f"embeddings reply holds {len(vectors)} vector(s) for {len(todo)} text(s)")
        for text, vec in zip(todo, vectors):
            if vec.shape != (dim,) or not np.isfinite(vec).all():
                problem = f"has dimension {vec.shape}, expected ({dim},)" if vec.shape != (dim,) else "is not finite"
                raise GatewayReplyError(f"the embedding of texts[{texts.index(text)}] {problem}")
            vec.flags.writeable = False
        return vectors

    # -- transport with retry and the parallelism bound ----------------------

    def _post(self, endpoint: str, body: dict) -> dict:
        url = self.config.base_url.rstrip("/") + endpoint
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        last_error: TransportError | None = None
        for attempt in range(self.config.max_retries + 1):
            if last_error is not None:
                self._sleep(self._retry_delay(attempt, last_error))
            with self._semaphore:
                with self._lock:
                    if self._closing.is_set():
                        raise TransportError(f"{endpoint} not sent: the gateway is closing") from last_error
                    self.stats.transport_calls += 1
                    if attempt:
                        self.stats.retries += 1
                    self.stats.in_flight += 1
                    self.stats.max_in_flight = max(self.stats.max_in_flight, self.stats.in_flight)
                try:
                    return self._transport(url, body, self.config.timeout, headers)
                except TransportError as e:
                    if e.status is not None and 400 <= e.status < 500 and e.status != 429:
                        raise  # a client error other than "too many requests": a retry is refused the same way
                    last_error = e
                finally:
                    with self._lock:
                        self.stats.in_flight -= 1
            logger.warning("transport attempt %d/%d failed: %s", attempt + 1, self.config.max_retries + 1, last_error)
        raise TransportError(
            f"{endpoint} failed after {self.config.max_retries + 1} attempts: {last_error}"
        ) from last_error

    def _retry_delay(self, attempt: int, error: TransportError) -> float:
        """Seconds to wait before retry `attempt` (1-based) after `error`.

        The `Retry-After` of a 429 or 503 reply is honoured, up to
        `_MAX_RETRY_AFTER`; otherwise the wait is drawn uniformly from
        [0, backoff) ("full jitter"), so clients that failed together do not
        retry together.
        """
        if error.retry_after is not None:
            return min(error.retry_after, _MAX_RETRY_AFTER)
        return self._random() * _INITIAL_BACKOFF * _BACKOFF_FACTOR ** (attempt - 1)

    # -- structured replies ----------------------------------------------------

    def complete_parsed(
        self, template: str, parse: Callable[[str], R], /, *, max_tokens: int = 1024, **fields: str
    ) -> R:
        """`parse` of the reply to template `template` filled with `fields`, with one repair reprompt.

        A reply `parse` rejects with ValueError or ValidationError goes back
        to the model once, inside the `repair` template. A second unusable
        reply raises GatewayReplyError("unusable <template> reply: ...")
        carrying it, so the message names the file under `prompts/` that
        asked for it. Both requests are sent with `max_tokens`.

        Its replies are kept in the store only once `parse` accepts one; the
        rejected reply before a repair is kept then too, since a replay asks
        for it. Replies rejected twice are kept nowhere, so the next request
        for them is sent again.
        """
        prompt = prompts.render(self.template(template), **fields)
        held = self._local.held = []  # (key, record) of each reply sent for it, kept once `parse` accepts one
        try:
            reply = self.complete(prompt, max_tokens=max_tokens)
            try:
                result = parse(reply)
            except (ValueError, ValidationError):
                repair = prompts.render(self.template("repair"), raw_reply=reply, original_prompt=prompt)
                reply = self.complete(repair, max_tokens=max_tokens)
                try:
                    result = parse(reply)
                except (ValueError, ValidationError) as e:
                    raise GatewayReplyError(f"unusable {template} reply: {e}", raw_reply=reply) from e
            for key, record in held:
                self._store.put(key, record)
            return result
        finally:
            self._local.held = None
            with self._lock:
                for key, _ in held:
                    del self._pending[key]

    # -- cache -----------------------------------------------------------------

    def _cached(self, op: str, model: str, bodies: list[dict], compute: Callable[[list[dict]], list]) -> list:
        """The reply to each of `bodies`, in order; `compute(todo)` sends the
        ones no store entry or request in flight answers, all at once, and
        returns their replies in order. A body repeated within one call is
        one request, and the store is asked once for every key not in flight."""
        store = self._store
        if store is None:
            return compute(bodies)
        keys = [request_digest(op, model, body) for body in bodies]
        # single flight: a request already in flight on another thread is
        # joined, so one key is sent once and every caller gets the reply
        # that is kept. A reply is kept before its key leaves `_pending`, so
        # a later identical request finds it in one or the other.
        replies: dict[str, Any] = {}
        joined: dict[str, Future] = {}
        owned: dict[str, Future] = {}
        todo: dict[str, dict] = {}
        with self._lock:
            for key, body in zip(keys, bodies):
                if key in joined or key in owned:
                    continue
                if key in self._pending:
                    joined[key] = self._pending[key]
                else:
                    owned[key] = self._pending[key] = Future()
                    todo[key] = body
        # the owned keys are answered before any joined one is waited on, so
        # two calls that each join a key the other owns cannot deadlock
        if owned:
            # inside `complete_parsed` a fresh reply is kept only once its
            # parser accepts it; until then it waits in `_pending`, resolved,
            # where identical requests join it as they would find it kept
            held = getattr(self._local, "held", None)
            try:
                hits = store.get_many(op, list(todo))
                self._count(store.hit_counter, len(hits))
                missing = [key for key in todo if key not in hits]
                if missing and store.replays:
                    raise UncachedRequestError(f"uncached request: op={op} key={missing[0]}")
                self._count(store.miss_counter, len(missing))
                fresh = dict(zip(missing, compute([todo[key] for key in missing]))) if missing else {}
                kept = [(key, {"op": op, "model": model, "request": todo[key], "response": reply})
                        for key, reply in fresh.items()]
                if held is None:
                    for key, record in kept:
                        store.put(key, record)
                else:
                    held.extend(kept)
            except BaseException as e:
                # joined callers get the error, and a later identical request is sent again
                with self._lock:
                    for key in owned:
                        del self._pending[key]
                for future in owned.values():
                    future.set_exception(e)
                raise
            replies = {**hits, **fresh}
            with self._lock:
                for key in replies:
                    if held is None or key not in fresh:
                        del self._pending[key]
            for key, response in replies.items():
                owned[key].set_result(response)
        for key, future in joined.items():
            replies[key] = future.result()
        self._count(store.hit_counter, len(joined))
        return [replies[key] for key in keys]

    def _count(self, counter: str | None, n: int) -> None:
        """Add `n` to the GatewayStats field `counter`, if it names one."""
        if counter and n:
            with self._lock:
                setattr(self.stats, counter, getattr(self.stats, counter) + n)


def request_digest(op: str, model: str, body: dict) -> str:
    """Content hash identifying one request across machines and runs."""
    payload = f"{op}\n{model}\n{canonical_dumps(body)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Mock embedding: signed feature hashing over unigrams + bigrams
# ---------------------------------------------------------------------------


# Features whose (bucket, sign) the mock embedding keeps: a fuzz corpus of 1,000
# stories has ~1,700 distinct unigrams and bigrams, and at this bound a corpus
# of free text holds the memo at a few MB.
_FEATURE_MEMO_SIZE = 1 << 14


@functools.lru_cache(maxsize=_FEATURE_MEMO_SIZE)
def _feature_slot(feature: str, dim: int) -> int:
    """2 * bucket + sign bit of one hashed feature, so blake2b runs once per
    distinct feature."""
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=9).digest()
    return 2 * (int.from_bytes(digest[:8], "little") % dim) + (digest[8] & 1)


def hashed_embedding(text: str, dim: int) -> np.ndarray:
    """Deterministic bag-of-words embedding, unit-normalized.

    Case-folded word unigrams and bigrams are hashed into `dim` buckets
    with a hash-derived sign, which preserves lexical similarity well
    enough for retrieval tests without any model. Each bucket is a sum of
    ±1.0 terms, an integer that float64 holds exactly in any order.
    """
    toks = lexicon.tokens(text)
    features = toks + [f"{a} {b}" for a, b in zip(toks, toks[1:])]
    slots = np.array([_feature_slot(feature, dim) for feature in features], dtype=np.int64)
    vec = np.bincount(slots >> 1, weights=(slots & 1) * 2.0 - 1.0, minlength=dim)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        # only a text without word tokens: k tokens give 2k - 1 features, an
        # odd count of ±1 terms, which cannot all cancel
        fallback = int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little")
        vec = np.zeros(dim, dtype=np.float64)
        vec[fallback % dim] = 1.0
        return vec
    return vec / norm


# ---------------------------------------------------------------------------
# Model replies: a tone's decimal, and a structured reply's checked JSON
# ---------------------------------------------------------------------------

# a decimal literal as `float()` reads it: a sign, digits with or without a
# point (".5", "5.", "0.5") and an exponent ("1e-3")
_DECIMAL_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def parse_tone(reply: str) -> float:
    """The first decimal in a tone reply, read as `float()` reads it and
    clamped to [0, 1]; a reply without one is a ValueError."""
    match = _DECIMAL_RE.search(reply)
    if match is None:
        raise ValueError("no decimal in reply")
    value = float(match.group())
    if value < 0.0 or value > 1.0:
        logger.warning("sentiment reply %s out of range; clamped", value)
        value = min(1.0, max(0.0, value))
    return value


def extract_json_value(reply: str, shape: Any):
    """The first JSON object or array in a model reply, checked against
    `shape` (in `jsonio`'s grammar).

    Tolerates surrounding prose and ``` fences. A reply without a value
    `parse_json` accepts raises ValueError, and one whose value does not have
    `shape` raises ValidationError naming the JSON path of its first wrong value.
    """
    starts = [i for i in (reply.find("{"), reply.find("[")) if i != -1]
    if not starts:
        raise ValueError("no JSON value in reply")
    value = parse_json(reply[min(starts) :], prose_after=True)
    check(value, shape)
    return value
