"""The mock path's rewritten text and timeline helpers against their loop
versions, kept here verbatim as references: equal results on every input,
bit for bit for embeddings.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from score import lexicon
from score.gateway import hashed_embedding
from score.lexicon import SENTENCE_ENDERS, _WORD_RE
from score.story import ItemState
from score.tracker import ItemObservation, ItemTimeline, record_observation

# ---------------------------------------------------------------------------
# references: the loop versions the helpers replaced
# ---------------------------------------------------------------------------


def reference_tokens(text: str) -> list[str]:
    """Case-folded word tokens."""
    return [t.casefold() for t in _WORD_RE.findall(text)]


def reference_sentence_spans(text: str) -> list[tuple[int, int]]:
    """Character spans of sentences, split after runs of . ! ? or newline.

    Spans are trimmed of surrounding whitespace and always index into the
    original text, so they double as evidence spans.
    """
    spans: list[tuple[int, int]] = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] in SENTENCE_ENDERS:
            while i + 1 < n and text[i + 1] in SENTENCE_ENDERS:
                i += 1
            spans.append((start, i + 1))
            start = i + 1
        i += 1
    if start < n:
        spans.append((start, n))
    trimmed = []
    for s, e in spans:
        while s < e and text[s].isspace():
            s += 1
        while e > s and text[e - 1].isspace():
            e -= 1
        if s < e:
            trimmed.append((s, e))
    return trimmed


def reference_hashed_embedding(text: str, dim: int) -> np.ndarray:
    """Deterministic bag-of-words embedding, unit-normalized.

    Case-folded word unigrams and bigrams are hashed into `dim` buckets
    with a hash-derived sign, which preserves lexical similarity well
    enough for retrieval tests without any model.
    """
    toks = reference_tokens(text)
    features = list(toks) + [f"{a} {b}" for a, b in zip(toks, toks[1:])]
    vec = np.zeros(dim, dtype=np.float64)
    for feature in features:
        digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=9).digest()
        bucket = int.from_bytes(digest[:8], "little") % dim
        sign = 1.0 if digest[8] & 1 else -1.0
        vec[bucket] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        # unreachable for any text with a word token; still, stay total
        fallback = int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little")
        vec[fallback % dim] = 1.0
        return vec
    return vec / norm


def reference_resolved_state_at(self: ItemTimeline, episode_index: int) -> ItemState | None:
    """Effective state at an episode on the corrected view, carrying forward."""
    state = None
    for obs in self.episode_resolution(include_suppressed=False):
        if obs.episode_index > episode_index:
            break
        state = obs.state
    return state


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

# characters where a shortcut could part from the loop: sentence enders,
# non-ASCII whitespace (U+00A0, U+2028, U+3000, U+0085, U+001C), letters whose
# case folding changes length or word boundaries (U+0130, ß, the ﬁ ligature,
# titlecase U+01C5, final sigma), digits, apostrophes and underscores
_PIECES = list("abcXYZ019'_-,;: \t\r.!?\n") + [
    "İ", "ß", "ﬁ", "ǅ", "Σς", " ", " ", "　", "\u0085", "\x1c", "...", "?!\n\n", " \n ",
    "The lantern", "shattered", "lost", "repaired", "Mira", "gloomy dread",
]
texts = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=40).map("".join),
    st.text(max_size=60),
)


@settings(max_examples=400, deadline=None)
@given(texts)
def test_tokens_equal_the_reference(text):
    assert lexicon.tokens(text) == reference_tokens(text)


@settings(max_examples=400, deadline=None)
@given(texts)
def test_sentence_spans_equal_the_reference(text):
    assert lexicon.sentence_spans(text) == reference_sentence_spans(text)


@settings(max_examples=200, deadline=None)
@given(texts)
def test_sentence_tokens_are_the_spans_and_their_tokens(text):
    expected = tuple(
        (s, e, tuple(reference_tokens(text[s:e]))) for s, e in reference_sentence_spans(text)
    )
    assert lexicon.sentence_tokens(text) == expected


@settings(max_examples=300, deadline=None)
@given(texts, st.sampled_from([1, 2, 3, 7, 64, 256]))
def test_hashed_embedding_bytes_equal_the_reference(text, dim):
    got = hashed_embedding(text, dim)
    expected = reference_hashed_embedding(text, dim)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_hashed_embedding_memo_keeps_dimensions_apart():
    text = "The lantern shattered. The lantern was repaired."
    for dim in (256, 7, 256, 1, 7):
        assert hashed_embedding(text, dim).tobytes() == reference_hashed_embedding(text, dim).tobytes()


_observations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.sampled_from(list(ItemState)),
        st.booleans(),  # suppressed
        st.booleans(),  # explained
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(_observations)
def test_resolved_state_at_equals_the_reference(raw):
    timeline = ItemTimeline(item_id="x")
    for episode, state, suppressed, explained in raw:
        obs = ItemObservation(
            item_id="x", episode_index=episode, state=state, explained=explained, suppressed=suppressed,
        )
        timeline = record_observation(timeline, obs)
    for episode in range(-1, 9):
        assert timeline.resolved_state_at(episode) is reference_resolved_state_at(timeline, episode)


def test_alias_pattern_accepts_a_list_or_a_tuple():
    from_list = lexicon.alias_pattern(["key", "old key"])
    from_tuple = lexicon.alias_pattern(("key", "old key"))
    assert from_list.pattern == from_tuple.pattern
    assert from_list.search("the Old Key turned").group() == "Old Key"
    assert from_list.search("a keystone") is None


def test_memos_are_bounded():
    assert lexicon._alias_pattern.cache_info().maxsize is not None
    from score.gateway import _feature_slot

    assert _feature_slot.cache_info().maxsize is not None
