"""Lexicons and light text utilities backing the deterministic (mock) analysis paths.

The verb tables are the contract between the rule-based extractor and the
synthetic-corpus generator: generated event sentences use exactly these
word forms, which is what makes detection exact on generated corpora.
"""

from __future__ import annotations

import functools
import re
from importlib import resources

from .jsonio import parse_json
from .story import ItemState

# Verbs that commit an item to a state when they share a sentence with it.
DESTROYED_WORDS = frozenset({"shattered", "destroyed", "burned", "incinerated", "smashed"})
LOST_WORDS = frozenset({"lost", "vanished", "disappeared", "missing", "misplaced"})

# Words that mark a reintroduction as narratively explained.
EXPLANATION_WORDS = frozenset({"repaired", "restored", "recovered", "rebuilt"})

SENTENCE_ENDERS = ".!?\n"

_WORD_RE = re.compile(r"[\w']+")
_ENDER_RUN_RE = re.compile(f"[{re.escape(SENTENCE_ENDERS)}]+")

# An alias tuple is compiled once per item.
_ALIAS_MEMO_SIZE = 256


def tokens(text: str) -> list[str]:
    """Case-folded word tokens.

    ASCII text is lowered before one `findall`, which gives the same tokens.
    Other text folds token by token, because case folding can move a word
    boundary (U+0130 folds to "i" plus a combining dot, which is no word
    character).
    """
    if text.isascii():
        return _WORD_RE.findall(text.lower())
    return [t.casefold() for t in _WORD_RE.findall(text)]


def state_for_tokens(toks: list[str]) -> ItemState:
    """State implied by a sentence's tokens; plain mentions read as active."""
    tokset = set(toks)
    if tokset & DESTROYED_WORDS:
        return ItemState.DESTROYED
    if tokset & LOST_WORDS:
        return ItemState.LOST
    return ItemState.ACTIVE


def has_explanation(toks: list[str]) -> bool:
    return bool(set(toks) & EXPLANATION_WORDS)


def sentence_spans(text: str) -> list[tuple[int, int]]:
    """Character spans of sentences, split after runs of . ! ? or newline.

    Spans are trimmed of surrounding whitespace (as `str.isspace` defines
    it) and always index into the original text, so they double as
    evidence spans.
    """
    bounds = [m.end() for m in _ENDER_RUN_RE.finditer(text)]
    if not bounds or bounds[-1] < len(text):
        bounds.append(len(text))
    trimmed = []
    start = 0
    for end in bounds:
        # str.strip() drops exactly the characters str.isspace() accepts
        piece = text[start:end]
        body = piece.lstrip()
        s = start + len(piece) - len(body)
        e = s + len(body.rstrip())
        if s < e:
            trimmed.append((s, e))
        start = end
    return trimmed


def sentence_tokens(text: str) -> tuple[tuple[int, int, tuple[str, ...]], ...]:
    """(start, end, tokens) of each sentence of `text`, as `sentence_spans`
    and `tokens` give them."""
    return tuple((s, e, tuple(tokens(text[s:e]))) for s, e in sentence_spans(text))


def sentences(text: str) -> list[str]:
    return [text[s:e] for s, e in sentence_spans(text)]


def alias_pattern(names: tuple[str, ...] | list[str], *, whole_words: bool = True) -> re.Pattern:
    """Case-insensitive matcher for any of an item's aliases.

    With `whole_words` false it also matches an alias inside a longer word
    ("swords") or one that begins or ends in punctuation ("C++", "St."), so
    it finds every occurrence the whole-word matcher finds, and more.
    """
    return _alias_pattern(tuple(names), whole_words)


@functools.lru_cache(maxsize=_ALIAS_MEMO_SIZE)
def _alias_pattern(names: tuple[str, ...], whole_words: bool) -> re.Pattern:
    alts = "|".join(re.escape(n) for n in sorted(names, key=len, reverse=True))
    return re.compile(rf"\b(?:{alts})\b" if whole_words else alts, re.IGNORECASE)


# ---------------------------------------------------------------------------
# Sentiment
# ---------------------------------------------------------------------------


@functools.cache
def sentiment_lexicon() -> tuple[frozenset[str], frozenset[str]]:
    raw = parse_json(resources.files("score").joinpath("data/sentiment_lexicon.json").read_bytes())
    return frozenset(raw["positive"]), frozenset(raw["negative"])


def mock_sentiment_value(text: str) -> float:
    """Deterministic tone score in [0, 1]; 0.5 for lexicon-free text.

    (pos - neg) / (pos + neg + 1), mapped affinely onto [0, 1]; monotone in
    lexicon hits and never saturating to the endpoints.
    """
    positive, negative = sentiment_lexicon()
    toks = tokens(text)
    pos = sum(1 for t in toks if t in positive)
    neg = sum(1 for t in toks if t in negative)
    raw = (pos - neg) / (pos + neg + 1)
    return 0.5 + raw / 2
