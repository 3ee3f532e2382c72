"""Deterministic stand-in for an OpenAI-compatible model.

A `FakeModel` is passed as `LlmGateway(transport=...)`. It recognises the
five prompt kinds the pipeline sends (extract_states, summarize, evaluate,
answer, sentiment) by matching the prompt against the package's own
templates, and answers `/embeddings`. Every reply is computed from public
package functions (`tracker.rule_extract`, `lexicon.mock_sentiment_value`,
`gateway.hashed_embedding`), so the remote path reproduces the mock
backend's tracking exactly and every reply parses without a repair
reprompt. A repair or sentiment reprompt is counted as `reprompts`; the
benchmark's gates require it to stay 0.

Each call sleeps a fixed latency after computing its reply, so wall time
behaves like a remote model: calls x latency, plus the program's own CPU.
"""

from __future__ import annotations

import json
import re
import threading
import time

from score import prompts
from score.gateway import hashed_embedding
from score.lexicon import (
    DESTROYED_WORDS,
    EXPLANATION_WORDS,
    LOST_WORDS,
    mock_sentiment_value,
    sentences,
    tokens,
)
from score.story import Episode, KeyItem
from score.tracker import rule_extract

PROMPT_KINDS = ("extract_states", "summarize", "evaluate", "answer", "sentiment")

_PLACEHOLDER_RE = re.compile(r"\$(\w+)")
_CONTEXT_HEADER_RE = re.compile(r"^\[(?P<ref>[^\]\n]+#\d+)\] \(similarity=[^)\n]*\)$", re.MULTILINE)
_STATE_WORDS = DESTROYED_WORDS | LOST_WORDS | EXPLANATION_WORDS
_QUESTION_STOPWORDS = frozenset({"in", "which", "episode", "was", "the", "a", "an", "of", "what", "when", "how"})


def _template_regex(template: str) -> tuple[str, re.Pattern]:
    """(literal prefix, full-match regex capturing each $placeholder)."""
    parts = []
    pos = 0
    for match in _PLACEHOLDER_RE.finditer(template):
        parts.append(re.escape(template[pos : match.start()]))
        parts.append(f"(?P<{match.group(1)}>.*?)")
        pos = match.end()
    parts.append(re.escape(template[pos:]))
    prefix = template[: _PLACEHOLDER_RE.search(template).start()]
    return prefix, re.compile("".join(parts), re.DOTALL)


# built at import, so template loads made for the fake model never fall inside a traced block
_TEMPLATES = [(kind, *_template_regex(prompts.load(kind))) for kind in PROMPT_KINDS]


class FakeModel:
    """Transport callable `(url, body, timeout, headers) -> reply dict`.

    Counters (`calls`, `prompt_chars`, `busy_s`, `reprompts`) are guarded by
    a lock, so one instance may serve a gateway with several requests in
    flight. `busy_s` is the time spent computing replies, without the
    injected latency.
    """

    def __init__(self, *, latency_s: float, embed_dim: int):
        self.latency_s = latency_s
        self.embed_dim = embed_dim
        self.calls = 0
        self.prompt_chars = 0
        self.busy_s = 0.0
        self.reprompts = 0
        self._lock = threading.Lock()

    def __call__(self, url: str, body: dict, timeout: float, headers: dict) -> dict:
        start = time.perf_counter()
        if url.endswith("/embeddings"):
            texts = body["input"]
            chars = sum(len(t) for t in texts)
            reply = {
                "data": [
                    {"index": i, "embedding": hashed_embedding(text, self.embed_dim).tolist()}
                    for i, text in enumerate(texts)
                ]
            }
        else:
            prompt = body["messages"][0]["content"]
            chars = len(prompt)
            reply = {"choices": [{"message": {"content": self._reply(prompt)}}]}
        busy = time.perf_counter() - start
        with self._lock:
            self.calls += 1
            self.prompt_chars += chars
            self.busy_s += busy
        if self.latency_s:
            time.sleep(self.latency_s)
        return reply

    def _reply(self, prompt: str) -> str:
        for kind, prefix, pattern in _TEMPLATES:
            if prompt.startswith(prefix):
                match = pattern.fullmatch(prompt)
                if match:
                    return getattr(self, f"_{kind}")(**match.groupdict())
        # a repair prompt, a sentiment retry, or a template the model does not know
        with self._lock:
            self.reprompts += 1
        return "unrecognised prompt"

    # -- one method per prompt kind ------------------------------------------

    def _observations(self, items_json: str, episode_text: str):
        items = [KeyItem(item_id=i["item_id"], names=tuple(i["names"])) for i in json.loads(items_json)]
        return rule_extract(Episode(index=0, text=episode_text), items)

    def _extract_states(self, items_json: str, episode_text: str) -> str:
        return json.dumps(
            [
                {"item_id": o.item_id, "state": o.state.value, "explained": o.explained, "evidence": list(o.evidence)}
                for o in self._observations(items_json, episode_text)
            ]
        )

    def _summarize(self, items_json: str, episode_text: str) -> str:
        sents = sentences(episode_text)
        interactions = [
            {
                "item_id": o.item_id,
                "actor": None,
                "description": episode_text[o.evidence[0] : o.evidence[1]],
                "implied_state": o.state.value,
            }
            for o in self._observations(items_json, episode_text)
        ]
        return json.dumps(
            {
                "synopsis": " ".join(sents[:2]),
                "plot_points": [s for s in sents if set(tokens(s)) & _STATE_WORDS][:5],
                "actions": [],
                "interactions": interactions,
                "relationships": [],
                "emotional_changes": [],
            }
        )

    def _evaluate(self, episode_text: str, context: str, errors_json: str) -> str:
        errors = json.loads(errors_json)
        tone = mock_sentiment_value(episode_text)
        facets = {
            "character_consistency": 4.0,
            "plot_progression": 4.0 if _CONTEXT_HEADER_RE.search(context) else 3.0,
            "emotional_authenticity": 4.0 if abs(tone - 0.5) >= 0.1 else 3.0,
            "key_item_continuity": max(1.0, 4.0 - len(errors)) if errors else 5.0,
        }
        return json.dumps(
            {
                "facet_scores": facets,
                "rationale": f"{len(errors)} tracked continuity error(s)",
                "cited_error_indexes": list(range(len(errors))),
                "item_states": {},
            }
        )

    def _answer(self, question: str, context: str) -> str:
        """Extractive: the first context sentence, in rank order, that names a
        question word and, when the question names a state, a verb of that state."""
        q_tokens = set(tokens(question))
        classes = [words for words in (DESTROYED_WORDS, LOST_WORDS) if q_tokens & words]
        content = q_tokens - _QUESTION_STOPWORDS - DESTROYED_WORDS - LOST_WORDS
        headers = list(_CONTEXT_HEADER_RE.finditer(context))
        for i, header in enumerate(headers):
            end = headers[i + 1].start() if i + 1 < len(headers) else len(context)
            for sentence in sentences(context[header.end() : end]):
                toks = set(tokens(sentence))
                if content & toks and all(toks & words for words in classes):
                    ref = header.group("ref")
                    text = sentence.rsplit(" | ", 1)[-1]
                    return json.dumps(
                        {"answer": f"Episode {ref.rpartition('#')[2]}: {text}", "supporting_episode_ids": [ref]}
                    )
        return json.dumps({"answer": "insufficient context", "supporting_episode_ids": []})

    def _sentiment(self, text: str) -> str:
        return repr(mock_sentiment_value(text))
