"""Sliding-window episode segmentation for embedding.

Chunks cover the episode text exactly, consecutive chunks share exactly
`overlap_chars` characters, and split points prefer sentence ends within a
lookback window so embeddings see whole sentences where possible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError
from .lexicon import SENTENCE_ENDERS
from .story import Episode

DEFAULT_MAX_CHARS = 1200
DEFAULT_OVERLAP_CHARS = 200

# Fraction of max_chars searched backwards for a sentence end.
_BOUNDARY_LOOKBACK = 0.2


@dataclass(frozen=True, slots=True)
class Chunk:
    story_id: str
    episode_index: int
    seq: int
    text: str
    char_range: tuple[int, int]

    @property
    def chunk_id(self) -> str:
        return f"{self.story_id}#{self.episode_index}#c{self.seq}"


def segment(
    episode: Episode,
    max_chars: int = DEFAULT_MAX_CHARS,
    overlap_chars: int = DEFAULT_OVERLAP_CHARS,
    *,
    story_id: str = "",
) -> list[Chunk]:
    """Split an episode into overlapping chunks.

    Deterministic; reassembling chunk texts with the overlap removed
    reproduces the episode text byte for byte.
    """
    if max_chars <= 0:
        raise ContractError(f"max_chars must be positive, got {max_chars}")
    if overlap_chars < 0 or overlap_chars >= max_chars:
        raise ContractError(
            f"overlap_chars must satisfy 0 <= overlap < max_chars, got {overlap_chars} / {max_chars}"
        )

    text = episode.text
    lookback = max(1, int(max_chars * _BOUNDARY_LOOKBACK))
    chunks: list[Chunk] = []
    start = 0
    seq = 0
    while True:
        end = min(start + max_chars, len(text))
        if end < len(text):
            boundary = _last_sentence_end(text, max(start, end - lookback), end)
            # only take the boundary if the next chunk still makes progress
            if boundary is not None and boundary - overlap_chars > start:
                end = boundary
        chunks.append(
            Chunk(
                story_id=story_id,
                episode_index=episode.index,
                seq=seq,
                text=text[start:end],
                char_range=(start, end),
            )
        )
        if end >= len(text):
            return chunks
        start = end - overlap_chars
        seq += 1


def _last_sentence_end(text: str, lo: int, hi: int) -> int | None:
    """Index just past the last sentence-ending character in text[lo:hi)."""
    for i in range(hi - 1, lo - 1, -1):
        if text[i] in SENTENCE_ENDERS:
            return i + 1
    return None
