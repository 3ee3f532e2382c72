"""Exact flat vector store with cosine top-N search.

Corpora here are thousands of units, so exact search is fast enough and
exactly testable against a brute-force oracle; there is deliberately no
approximate structure. An index is an immutable value. Its vectors are
unit-normalized when it is built, which turns search into a dot product.
Search screens, then exactly rescores: one float32 vector-matrix product
over a float32 copy of the matrix screens the candidate rows (it reads half
the bytes of a float64 one; the first search that screens makes the copy),
and only the rows within a rounding margin of the n-th best screened score
are rescored with the float64 per-row dot product the oracle uses. The copy
is stored dimension-major, shape (dim, N), and the product multiplies only
the dimensions in which the float32 query is nonzero, the term-at-a-time
order of an inverted file (Zobel & Moffat, "Inverted files for text search
engines", ACM Computing Surveys 38(2), 2006): a hashed bag-of-words query
touches about 13 of 256 dimensions, so it reads about 5 % of the screen. A
skipped dimension adds an exact ±0 to every screened score, so each score
is still a float32 evaluation of the whole dot product, only in another
order. The margin bounds float32 input rounding, float32 accumulation in
any order, underflow and the float64 score's own error (`_screen_margin`),
so no row of the exact top n is screened out. Ties break on entry_id, so
results are reproducible and bit-for-bit equal to a full scan.

A search's candidates are a story's rows (every row when it names none),
less an excluded episode's and a filter's rejects, so one index of many
stories, searched by story, finds the hits each story's own index would.

An index is saved as `<base>.vec`, whose header alone holds the format
version, dimension and entry count, and `<base>.meta.json`, which holds only
the entries (a `.meta.json` that also repeats the header's facts, as older
ones do, loads; those fields are not read). Saving writes the matrix to disk
from its own buffer, and an unchanged file is compared chunk by chunk, so a
save adds no copy of the matrix to memory; loading reads the file once and
views the matrix in place.
"""

from __future__ import annotations

import functools
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ContractError, PersistenceError
from .jsonio import canonical_bytes, load_json, write_if_changed

_MAGIC = b"SCIX"
_VERSION = 1
_HEADER = struct.Struct("<4sIIQI")  # magic, version, dim, count, payload crc32
# `<base>.meta.json`: one entry per vector, in row order; the dimension and
# count are the `.vec` header's
_META_SHAPE = {"entries": [{"entry_id": str, "kind": str, "story_id": str, "episode_index": int}]}
_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53  # unit roundoff of float64
_TINY32 = 2.0**-126  # smallest normal float32


def _gamma(dim: int, u: float) -> float:
    return dim * u / (1.0 - dim * u)


def _screen_margin(dim: int) -> float:
    """How far below the n-th best screened score a true top-n row can screen.

    The screen is fl32(x32 . q32), where x32 and q32 are the float32
    roundings of a stored unit row x and the unit query q; the exact score
    is the float64 np.dot(x, q). For unit vectors each is close to the real
    x . q (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sec. 3.1: a d-term dot product in any summation order, BLAS blocking
    and FMA included, is within gamma_d * sum|x_i y_i| of the real value,
    gamma_d = d*u / (1 - d*u)):

    - rounding x and q to float32 moves each product x_i q_i by at most
      (2u + u^2) |x_i q_i|, u = 2**-24;
    - the float32 sum of the rounded products is within
      gamma_d(2**-24) * (1 + u)^2 * sum|x_i q_i| of their real sum;
    - Higham's bound assumes no underflow. A component, product or partial
      sum below 2**-126 that is rounded to a subnormal or flushed to zero
      errs by less than 2**-126, and a term has at most two such steps
      (its product, or the input that zeroed it, and its addition):
      2 * d * 2**-126 in all. It also covers float64 underflow;
    - the exact float64 score is within gamma_d(2**-53) of the real value.

    The screen skips the dimensions in which q32 is zero (a component of q
    that is 0, -0 or rounds to 0 in float32). Each skipped product is an
    exact ±0, and adding ±0 to a partial sum leaves its value unchanged, so
    the screened score equals a float32 evaluation of all d terms with the
    zero terms added last: the order-free accumulation bound above covers
    it, and the underflow term already covers a component that float32
    rounding zeroed.

    Since sum|x_i q_i| <= |x| |q| = 1, the screened and exact scores of a
    row differ by at most B, the sum of the four terms. A row that screens
    more than 2B below the n-th best screened score therefore scores
    exactly below each of the n rows that screened at or above it, and
    cannot be in the exact top n. Normalized vectors can exceed norm 1 by a
    few ulps, and the floor is one rounded float64 subtraction, so the
    margin is doubled again to 4B: about 6e-5 at d = 256.
    """
    if dim * _U32 >= 0.5:  # gamma_d is not small here: screen nothing out
        return float("inf")
    inputs = 2 * _U32 + _U32 * _U32
    accumulation = (1 + _U32) ** 2 * _gamma(dim, _U32)
    underflow = 2 * dim * _TINY32
    exact = _gamma(dim, _U64)
    return 4.0 * (inputs + accumulation + underflow + exact)


@dataclass(frozen=True, slots=True, eq=False)
class IndexEntry:
    """A stored unit; `embedding` is unit-normalized, a read-only view of the
    unit's row of the index matrix."""

    entry_id: str
    kind: str  # "summary" | "episode" | "chunk"
    story_id: str
    episode_index: int
    embedding: np.ndarray


class SearchHit(NamedTuple):
    # a named tuple, not a frozen dataclass: a search builds up to n of these,
    # and a frozen dataclass's __init__ costs about as much as a row's dot product
    entry_id: str
    score: float


def _as_vector(values, dim: int | None = None) -> np.ndarray:
    vec = np.asarray(values, dtype=np.float64)
    if vec.ndim != 1:
        raise ContractError(f"embedding must be one-dimensional, got shape {vec.shape}")
    if dim is not None and vec.shape[0] != dim:
        raise ContractError(f"dimension mismatch: expected {dim}, got {vec.shape[0]}")
    if not np.all(np.isfinite(vec)):
        raise ContractError("embedding contains non-finite values")
    return vec


def _unit(vec: np.ndarray, error: str) -> np.ndarray:
    """`vec` divided by its norm; a zero vector raises ContractError(`error`).

    `np.linalg.norm` sums the squared components, whose sum falls below the
    smallest normal float64 (2**-1022), losing bits or all of them, when the
    norm is below 2**-511, and overflows to inf when the norm is above about
    1.3e154 (numpy warns of it). Only then is `vec` first divided by its
    largest |component|; every other vector takes `vec / norm` as is.
    """
    norm = float(np.linalg.norm(vec))
    if norm < 2.0**-511 or norm == math.inf:
        scale = float(np.max(np.abs(vec), initial=0.0))
        if scale == 0.0:
            raise ContractError(error)
        vec = vec / scale
        norm = float(np.linalg.norm(vec))
    return vec / norm


class FlatIndex:
    """An immutable store of unit vectors; search is safe from any number of threads.

    `build_index` builds one from vectors and `load` from saved files; both
    hand this constructor the entries and the matrix of their unit rows,
    each entry's `embedding` a read-only view of its row.
    """

    def __init__(self, dim: int, entries: Sequence[IndexEntry], matrix: np.ndarray):
        if dim <= 0:
            raise ContractError(f"dimension must be positive, got {dim}")
        self._dim = dim
        self._entries = tuple(entries)
        self._matrix = matrix
        story_rows: dict[str, list[int]] = {}
        seen: set[str] = set()
        for row, entry in enumerate(self._entries):
            if entry.entry_id in seen:
                raise ContractError(f"duplicate entry_id {entry.entry_id!r}")
            seen.add(entry.entry_id)
            story_rows.setdefault(entry.story_id, []).append(row)
        # a story whose entries were added together is one run of rows, which
        # the screen reads as a slice, without a gather
        self._story_rows: dict[str, Sequence[int]] = {
            story: range(rows[0], rows[-1] + 1) if rows[-1] - rows[0] == len(rows) - 1 else rows
            for story, rows in story_rows.items()
        }
        self._margin = _screen_margin(dim)

    @functools.cached_property
    def _screen(self) -> np.ndarray:
        """The read-only float32 copy of the matrix that search screens with,
        made by the first search that screens (two threads whose first such
        searches overlap may each make one; the copies are equal). It is
        dimension-major: each dimension is one contiguous row of it. It is
        copied 64 stored rows at a time, so that each block's reads and
        writes stay in cache."""
        screen = np.empty((self._dim, len(self._matrix)), dtype=np.float32)
        for start in range(0, len(self._matrix), 64):
            screen[:, start : start + 64] = self._matrix[start : start + 64].T
        screen.flags.writeable = False
        return screen

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def entries(self) -> tuple[IndexEntry, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def search_top_n(
        self,
        query,
        n: int,
        filter: Callable[[IndexEntry], bool] | None = None,
        *,
        story: str | None = None,
        exclude: tuple[str, int] | None = None,
    ) -> list[SearchHit]:
        """Top-n entries by cosine, ties broken by entry_id ascending.

        Candidates are the entries of `story` (every entry when None), minus
        those of the episode `exclude` = (story_id, episode_index), minus
        those `filter` rejects; only more than n candidates are screened.
        Returns min(n, candidates) hits; an empty index is an error.
        """
        if not self._entries:
            raise ContractError("index empty")
        if n <= 0:
            raise ContractError(f"n must be positive, got {n}")
        unit = _unit(_as_vector(query, dim=self._dim), "zero query vector")
        entries = self._entries

        rows: Sequence[int] = range(len(entries)) if story is None else self._story_rows.get(story, ())
        if exclude is not None or filter is not None:
            keep = filter or (lambda entry: True)
            rows = [i for i in rows if (entries[i].story_id, entries[i].episode_index) != exclude and keep(entries[i])]
        if len(rows) > n:
            screened = self._screened(unit, rows)
            kth = len(screened) - n
            # the floor and the comparison stay float64 (NEP 50 would round
            # a Python float to float32 here, possibly up, past a kept row)
            floor = np.float64(np.partition(screened, kth)[kth]) - self._margin
            rows = [rows[i] for i in np.flatnonzero(screened >= floor).tolist()]

        # exact scores by per-row dot, not the matrix product: BLAS kernels
        # differ from np.dot in the last ulp, which would break exact oracle
        # equality on ties; the screen only decides which rows get here
        scored = [(float(np.dot(entries[i].embedding, unit)), entries[i].entry_id) for i in rows]
        scored.sort(key=lambda t: (-t[0], t[1]))
        return [SearchHit(entry_id, score) for score, entry_id in scored[:n]]

    def _screened(self, unit: np.ndarray, rows: Sequence[int]) -> np.ndarray:
        """The float32 screened scores of `rows`, in their order.

        Only the dimensions in which the float32 query is nonzero are
        multiplied: each skipped term is an exact ±0 of the float32 sum, so a
        score is still a float32 evaluation of the whole dot product, in
        another order (`_screen_margin`). A query without a zero component
        multiplies a run of rows in place; rows that are not one run, such as
        a story's less an excluded episode, are gathered in those dimensions only.
        """
        q32 = unit.astype(np.float32)
        dims = np.flatnonzero(q32)
        if isinstance(rows, range):  # one run of rows, such as every row: a view of the screen, no gather
            screen = self._screen[:, rows.start : rows.stop]
            return q32 @ screen if len(dims) == self._dim else q32[dims] @ screen[dims]
        return q32[dims] @ self._screen[np.ix_(dims, rows)]

    # -- persistence --------------------------------------------------------

    def save(self, base: Path | str) -> None:
        """Write `<base>.vec` (a header of the format version, dimension,
        entry count and checksum, then the binary vectors) and
        `<base>.meta.json` (only `entries`: each row's id, kind, story and
        episode), compact, since an indent would keep `json.dumps` from its C
        encoder.

        The checksum and the writer both take a byte view of the matrix, so
        a save holds no copy of it: only the metadata, and the bounded
        buffer with which `jsonio.write_if_changed` compares an existing file.
        """
        base = Path(base)
        # a view: an index built or loaded here stores its matrix contiguous and little-endian
        payload = np.ascontiguousarray(self._matrix, dtype="<f8").reshape(-1).view(np.uint8)
        header = _HEADER.pack(_MAGIC, _VERSION, self._dim, len(self._entries), zlib.crc32(payload))
        write_if_changed(base.with_suffix(".vec"), header, payload)
        entries = [
            {"entry_id": e.entry_id, "kind": e.kind, "story_id": e.story_id, "episode_index": e.episode_index}
            for e in self._entries
        ]
        write_if_changed(base.with_suffix(".meta.json"), canonical_bytes({"entries": entries}, indent=None))

    @classmethod
    def load(cls, base: Path | str) -> "FlatIndex":
        """Load a saved index."""
        base = Path(base)
        vec_path = base.with_suffix(".vec")
        meta_path = base.with_suffix(".meta.json")
        try:
            raw = vec_path.read_bytes()
        except OSError as e:
            raise PersistenceError(f"{vec_path}: cannot be read ({e})") from None
        if len(raw) < _HEADER.size:
            raise PersistenceError(f"{vec_path}: too short to be an index file")
        magic, version, dim, count, crc = _HEADER.unpack_from(raw)
        if magic != _MAGIC:
            raise PersistenceError(f"{vec_path}: bad magic {magic!r}")
        if version != _VERSION:
            raise PersistenceError(f"{vec_path}: unsupported format version {version}")
        payload = memoryview(raw)[_HEADER.size :]  # a view: the file is read into memory once
        expected = count * dim * 8
        if len(payload) != expected:
            raise PersistenceError(f"{vec_path}: truncated payload ({len(payload)} of {expected} bytes)")
        if zlib.crc32(payload) != crc:
            raise PersistenceError(f"{vec_path}: checksum mismatch")
        matrix = np.frombuffer(payload, dtype="<f8").reshape(count, dim)

        entries = load_json(meta_path, _META_SHAPE)["entries"]
        if len(entries) != count:
            raise PersistenceError(f"{meta_path}: holds {len(entries)} entries, {vec_path.name} {count} vectors")
        # each entry's embedding is its row of the matrix, a read-only view of
        # the file's bytes: no vector is copied
        entries = [
            IndexEntry(e["entry_id"], e["kind"], e["story_id"], e["episode_index"], row)
            for e, row in zip(entries, matrix)
        ]
        try:
            return cls(dim, entries, matrix)
        except ContractError as e:
            raise PersistenceError(f"{meta_path}: {e}") from None


def build_index(dim: int, rows: Iterable[tuple[str, str, str, int, np.ndarray]]) -> FlatIndex:
    """An index of (entry_id, kind, story_id, episode, vector) rows, each vector unit-normalized."""
    rows = list(rows)
    matrix = np.empty((len(rows), dim))
    for i, (*_, vec) in enumerate(rows):
        matrix[i] = _unit(_as_vector(vec, dim=dim), "zero vector rejected")
    matrix.flags.writeable = False
    entries = [IndexEntry(*row[:4], embedding) for row, embedding in zip(rows, matrix)]
    return FlatIndex(dim, entries, matrix)
