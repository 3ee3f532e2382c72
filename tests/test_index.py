import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from score.errors import ContractError, PersistenceError
from score.gateway import hashed_embedding
from score.index import FlatIndex, build_index


def row(entry_id, vec, *, story_id="", episode_index=0, kind="summary"):
    """One `build_index` row."""
    return entry_id, kind, story_id, episode_index, vec


def filled_index(n=50, dim=8, seed=0) -> FlatIndex:
    rng = np.random.default_rng(seed)
    return build_index(dim, [row(f"e{i:04d}", rng.normal(size=dim), story_id="s", episode_index=i) for i in range(n)])


def brute_force_top_n(index: FlatIndex, query, n):
    """Independent oracle: score every entry, sort by (-score, id)."""
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    scored = [(float(np.dot(e.embedding, q)), e.entry_id) for e in index.entries]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [entry_id for _, entry_id in scored[:n]]


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_add_normalizes_at_insertion():
    index = build_index(2, [row("a", [3.0, 4.0])])
    stored = index.entries[0].embedding
    assert np.allclose(stored, [0.6, 0.8], atol=1e-12)


def test_add_to_empty_index():
    index = build_index(4, [row("only", [1, 0, 0, 0])])
    assert len(index) == 1


def test_duplicate_id_rejected():
    with pytest.raises(ContractError, match="duplicate entry_id 'a'"):
        build_index(2, [row("a", [1.0, 0.0]), row("a", [0.0, 1.0])])


def test_zero_vector_rejected():
    with pytest.raises(ContractError, match="zero"):
        build_index(2, [row("z", [0.0, 0.0])])


def test_a_vector_whose_norm_underflows_is_no_zero_vector():
    # each squared component is below the smallest float64, so an unscaled norm reads 0.0
    tiny = np.array([1e-170, 2e-170])
    index = build_index(2, [row("t", tiny), row("b", [-2.0, 1.0])])
    hits = index.search_top_n(tiny * 1e-100, n=2)
    assert [hit.entry_id for hit in hits] == ["t", "b"]
    assert [hit.score for hit in hits] == [pytest.approx(1.0), pytest.approx(0.0, abs=1e-12)]


def test_dimension_mismatch_rejected():
    with pytest.raises(ContractError, match="dimension"):
        build_index(3, [row("a", [1.0, 2.0])])


def test_nonfinite_rejected():
    with pytest.raises(ContractError, match="finite"):
        build_index(2, [row("a", [1.0, float("nan")])])


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_self_similarity_is_one():
    index = build_index(3, [row("a", [1.0, 2.0, 2.0]), row("b", [-1.0, 0.0, 0.5])])
    hits = index.search_top_n([1.0, 2.0, 2.0], n=1)
    assert hits[0].entry_id == "a"
    assert hits[0].score == pytest.approx(1.0, abs=1e-9)


def test_orthogonal_scores_are_zero():
    index = build_index(2, [row("x", [1.0, 0.0])])
    hits = index.search_top_n([0.0, 5.0], n=1)
    assert hits[0].score == pytest.approx(0.0, abs=1e-9)


def test_search_empty_index_errors():
    with pytest.raises(ContractError, match="index empty"):
        build_index(2, []).search_top_n([1.0, 0.0], n=1)


def test_search_matches_brute_force_oracle():
    index = filled_index(n=400, dim=16, seed=3)
    rng = np.random.default_rng(99)
    for _ in range(25):
        query = rng.normal(size=16)
        got = [h.entry_id for h in index.search_top_n(query, n=10)]
        assert got == brute_force_top_n(index, query, 10)


def test_tie_break_on_entry_id():
    index = build_index(2, [row(name, [2.0, 0.0]) for name in ("zeta", "alpha", "mid")])
    hits = index.search_top_n([1.0, 0.0], n=3)
    assert [h.entry_id for h in hits] == ["alpha", "mid", "zeta"]


def test_top_k_is_prefix_of_top_k_plus_one():
    index = filled_index(n=60, dim=8, seed=5)
    query = np.random.default_rng(1).normal(size=8)
    for k in range(1, 12):
        top_k = [h.entry_id for h in index.search_top_n(query, n=k)]
        top_k1 = [h.entry_id for h in index.search_top_n(query, n=k + 1)]
        assert top_k1[:k] == top_k


def full_scan(index: FlatIndex, query, n, *, story=None, exclude=None, filter=None):
    """The oracle with every candidate rule: [(entry_id, score.hex())] of the top n."""
    q = np.asarray(query, dtype=np.float64)
    unit = q / np.linalg.norm(q)
    scored = [
        (float(np.dot(e.embedding, unit)), e.entry_id)
        for e in index.entries
        if (story is None or e.story_id == story)
        and (e.story_id, e.episode_index) != exclude
        and (filter is None or filter(e))
    ]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [(entry_id, score.hex()) for score, entry_id in scored[:n]]


def _nudged(vec, rng, ulps):
    """`vec` with a few coordinates moved by `ulps` units in the last place."""
    out = vec.copy()
    for k in rng.choice(len(vec), size=min(2, len(vec)), replace=False):
        for _ in range(ulps):
            out[k] = np.nextafter(out[k], np.inf if rng.random() < 0.5 else -np.inf)
    return out


def _nudged32(vec, rng, ulps):
    """`vec` with a few coordinates moved by `ulps` float32 ulps, less a float64
    fraction of one, so that neighbours may round to one float32 value or to two."""
    out = vec.copy()
    for k in rng.choice(len(vec), size=min(3, len(vec)), replace=False):
        step = float(np.spacing(np.float32(out[k])))
        out[k] += (ulps - rng.random()) * step * (1 if rng.random() < 0.5 else -1)
    return out


def _with_subnormals(vec, rng):
    """`vec` with some coordinates scaled into the float32 subnormal range (below 2**-126)."""
    out = vec.copy()
    tiny = rng.random(len(vec)) < 0.5
    out[tiny] *= 2.0 ** -int(rng.integers(127, 150))
    return out


_WORDS = "sword lost found ship storm mira kept the a river gold broke".split()
_PATHS = ["all", "story", "exclude", "story+exclude", "filter", "filter+exclude"]


def _text(rng):
    return " ".join(rng.choice(_WORDS, size=int(rng.integers(1, 10))))


def _sparse(dim, rng, k):
    """A vector with `k` nonzero normal components and zeros elsewhere."""
    out = np.zeros(dim)
    out[rng.choice(dim, size=min(k, dim), replace=False)] = rng.normal(size=min(k, dim))
    return out


def _query(kind, dim, rows, rng):
    """A query of `kind`. The kinds after the near-row ones have zero float32
    components by construction, so the screen multiplies only some dimensions."""
    if kind == "random":
        return rng.normal(size=dim)
    if kind in ("row", "near-row", "near-row-f32"):
        source = rows[rng.integers(len(rows))]
        return {"row": source, "near-row": _nudged(source, rng, 2), "near-row-f32": _nudged32(source, rng, 1)}[kind]
    if kind == "one-dim":
        return _sparse(dim, rng, 1)
    if kind == "few-dims":
        return _sparse(dim, rng, int(rng.integers(2, 17)))
    if kind == "all-but-one":
        query = rng.normal(size=dim)
        query[rng.integers(dim)] = 0.0
        return query
    if kind == "hashed":
        return hashed_embedding(_text(rng), dim)
    query = rng.normal(size=dim)
    picked = rng.random(dim) < 0.5
    picked[rng.integers(dim)] = False  # one normal component keeps the query's norm from underflowing
    if kind == "f32-zero":  # nonzero float64 components that round to 0 in float32, even once normalized
        query[picked] *= 2.0 ** -int(rng.integers(160, 1000))
    else:  # "neg-zero": -0.0 components next to +0.0 and nonzero ones
        query[picked] = -0.0
        query[rng.random(dim) < 0.2] = 0.0
    return query


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.one_of(st.integers(1, 24), st.integers(25, 1024)),
    n_rows=st.integers(1, 70),
    n_planted=st.integers(0, 40),
    values=st.sampled_from(["normal", "small-int", "subnormal", "sparse", "hashed"]),
    n=st.one_of(st.integers(1, 8), st.integers(1, 90)),
    query_kind=st.sampled_from(
        [
            "random", "row", "near-row", "near-row-f32",  # dense, unless the rows are sparse
            "one-dim", "few-dims", "all-but-one", "hashed", "f32-zero", "neg-zero",
        ]
    ),
)
def test_search_equals_full_scan_oracle(seed, dim, n_rows, n_planted, values, n, query_kind):
    rng = np.random.default_rng(seed)
    if values == "normal":
        rows = list(rng.normal(size=(n_rows, dim)))
    elif values == "small-int":  # few distinct directions: many exact ties
        rows = list(rng.integers(-2, 3, size=(n_rows, dim)).astype(np.float64))
    elif values == "subnormal":  # float32-subnormal components next to normal ones
        rows = [_with_subnormals(row, rng) for row in rng.normal(size=(n_rows, dim))]
    elif values == "sparse":  # a few nonzero components per row
        rows = [_sparse(dim, rng, int(rng.integers(1, 17))) for _ in range(n_rows)]
    else:  # the mock backend's vectors: few words, so many rows share buckets or are equal
        rows = [hashed_embedding(_text(rng), dim) for _ in range(n_rows)]
    for vec in rows:
        if not vec.any():
            vec[0] = 1.0  # the index rejects zero vectors
    # planted exact duplicates, near-ties a few float64 ulps apart, and
    # near-ties 1-3 float32 ulps apart, whose screened scores may collapse
    # to one float32 value or swap order
    for _ in range(n_planted):
        source = rows[rng.integers(len(rows))]
        kind, ulps = rng.integers(3), int(rng.integers(1, 4))
        if kind == 0:
            rows.append(source.copy())
        else:
            rows.append((_nudged if kind == 1 else _nudged32)(source, rng, ulps))
    ids = rng.permutation(len(rows))  # entry-id order differs from row order
    stories = rng.integers(3, size=len(rows))
    if rng.random() < 0.5:  # each story one run of rows, as when stories are added one after another
        stories.sort()
    index = build_index(
        dim,
        [
            row(f"e{ids[i]:03d}", vec, story_id=f"s{stories[i]}", episode_index=int(rng.integers(3)))
            for i, vec in enumerate(rows)
        ],
    )

    query = _query(query_kind, dim, rows, rng)
    if not query.any():
        query[0] = 1.0
    for path in _PATHS:
        kwargs = {}
        if "story" in path:
            kwargs["story"] = f"s{rng.integers(3)}"
        if "exclude" in path:
            kwargs["exclude"] = (f"s{rng.integers(3)}", int(rng.integers(3)))
        if "filter" in path:
            kept = set(rng.choice(len(rows), size=len(rows) // 2, replace=False).tolist())
            kwargs["filter"] = lambda e: int(e.entry_id[1:]) in kept

        got = [(h.entry_id, h.score.hex()) for h in index.search_top_n(query, n=n, **kwargs)]
        assert got == full_scan(index, query, n, **kwargs), path


def test_screen_keeps_exact_order_among_near_ties():
    # 300 rows one or two ulps apart in one coordinate, and n in the middle of them
    rng = np.random.default_rng(7)
    base = rng.normal(size=64)
    index = build_index(
        64,
        [row(f"r{i:03d}", _nudged(base, rng, int(rng.integers(0, 3))), story_id="s", episode_index=i) for i in range(300)],
    )
    for n in (1, 7, 150, 299, 300, 301):
        got = [(h.entry_id, h.score.hex()) for h in index.search_top_n(base, n=n)]
        assert got == full_scan(index, base, n)


@pytest.mark.parametrize("dim", [1, 3, 256, 1024])
def test_float32_screen_keeps_exact_order_among_float32_near_ties(dim):
    # rows 0-3 float32 ulps from one base row: their screened scores collapse
    # to a few float32 values, often in another order than their exact scores;
    # stories of 60 rows, so story-restricted searches screen too
    rng = np.random.default_rng(dim)
    base = rng.normal(size=dim)
    rows = []
    for i in range(240):
        vec = base.copy() if i % 8 == 0 else _nudged32(base, rng, int(rng.integers(1, 4)))
        rows.append(row(f"r{i:03d}", vec, story_id=f"s{i % 4}", episode_index=i // 4))
    index = build_index(dim, rows)
    for query in (base, _nudged32(base, rng, 1), rng.normal(size=dim)):
        for n in (1, 5, 20, 59, 120):
            for kwargs in ({}, {"story": "s2"}, {"exclude": ("s1", 3)}, {"story": "s0", "exclude": ("s0", 0)}):
                got = [(h.entry_id, h.score.hex()) for h in index.search_top_n(query, n=n, **kwargs)]
                assert got == full_scan(index, query, n, **kwargs), (n, kwargs)


def test_loaded_index_reads_its_vectors_in_place(tmp_path):
    filled_index(n=30, dim=8, seed=5).save(tmp_path / "idx")
    loaded = FlatIndex.load(tmp_path / "idx")
    assert not loaded._matrix.flags.owndata  # a view of the file's bytes, not a copy of them
    # the screen is one read-only float32 copy, dimension-major, made by the first search that screens
    loaded.search_top_n(np.ones(8), n=30)  # every row is a hit: nothing to screen
    assert "_screen" not in vars(loaded)
    loaded.search_top_n(np.ones(8), n=3)
    screen = vars(loaded)["_screen"]
    assert screen.shape == (8, 30) and screen.dtype == np.float32 and screen.flags.c_contiguous
    assert screen.flags.owndata and not screen.flags.writeable
    assert not np.shares_memory(screen, loaded._matrix)
    assert np.array_equal(screen, loaded._matrix.T.astype(np.float32))


def test_story_and_exclude_arguments_match_the_filter_callable():
    rng = np.random.default_rng(3)
    index = build_index(
        4, [row(f"x{i:02d}", rng.normal(size=4), story_id=f"s{i % 4}", episode_index=i % 3) for i in range(40)]
    )
    story_of = {e.entry_id: e.story_id for e in index.entries}
    query = rng.normal(size=4)
    for n in (1, 5, 40):
        by_args = index.search_top_n(query, n=n, story="s1", exclude=("s1", 2))
        by_filter = index.search_top_n(
            query, n=n, filter=lambda e: e.story_id == "s1" and (e.story_id, e.episode_index) != ("s1", 2)
        )
        assert by_args == by_filter
        assert by_args and all(story_of[h.entry_id] == "s1" for h in by_args)
    assert index.search_top_n(query, n=5, story="nobody") == []


def test_filter_predicate_restricts_candidates():
    index = build_index(2, [row("keep", [1.0, 0.0], story_id="a"), row("drop", [1.0, 0.0], story_id="b")])
    hits = index.search_top_n([1.0, 0.0], n=5, filter=lambda e: e.story_id == "a")
    assert [h.entry_id for h in hits] == ["keep"]


def test_n_larger_than_index_returns_all():
    index = filled_index(n=7)
    assert len(index.search_top_n(np.ones(8), n=100)) == 7


def test_query_scale_leaves_ranking_unchanged():
    index = filled_index(n=80, dim=8, seed=11)
    query = np.random.default_rng(2).normal(size=8)
    base = [h.entry_id for h in index.search_top_n(query, n=80)]
    for alpha in (1e-6, 0.5, 3.0, 1e6):
        scaled = [h.entry_id for h in index.search_top_n(query * alpha, n=80)]
        assert scaled == base


# ---------------------------------------------------------------------------
# cosine, the similarity that search scores and mock embeddings are checked by
# ---------------------------------------------------------------------------


def cosine(u, v) -> float:
    """Cosine similarity of two raw (not necessarily normalized) vectors."""
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ContractError("cosine is undefined for zero vectors")
    return float(np.dot(u, v) / (nu * nv))


def test_cosine_self_is_one():
    assert cosine([1.0, 2.0, -3.0], [1.0, 2.0, -3.0]) == pytest.approx(1.0, abs=1e-12)


def test_cosine_opposite_is_minus_one():
    assert cosine([1.0, 2.0], [-1.0, -2.0]) == pytest.approx(-1.0, abs=1e-12)


def test_cosine_zero_vector_is_contract_error():
    with pytest.raises(ContractError):
        cosine([0.0, 0.0], [1.0, 0.0])


@settings(max_examples=200)
@given(
    u=st.lists(st.floats(-100, 100), min_size=3, max_size=3),
    v=st.lists(st.floats(-100, 100), min_size=3, max_size=3),
    alpha=st.floats(1e-3, 1e3),
)
def test_cosine_positive_scale_invariance(u, v, alpha):
    # tiny norms hit float-precision limits long before the 1e-9 tolerance
    if np.linalg.norm(u) < 1e-3 or np.linalg.norm(v) < 1e-3:
        return
    base = cosine(u, v)
    scaled = cosine([x * alpha for x in u], v)
    assert scaled == pytest.approx(base, abs=1e-9)


def test_cosine_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(500):
        u, v = rng.normal(size=6), rng.normal(size=6)
        assert abs(cosine(u, v) - cosine(v, u)) <= 1e-12


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    index = filled_index(n=100, dim=8, seed=13)
    base = tmp_path / "idx"
    index.save(base)
    loaded = FlatIndex.load(base)
    assert len(loaded) == 100 and loaded.dim == 8

    rng = np.random.default_rng(29)
    for _ in range(10):
        query = rng.normal(size=8)
        before = index.search_top_n(query, n=10)
        after = loaded.search_top_n(query, n=10)
        assert before == after

    for a, b in zip(index.entries, loaded.entries):
        assert a.entry_id == b.entry_id and a.kind == b.kind
        assert a.story_id == b.story_id and a.episode_index == b.episode_index
        assert np.array_equal(a.embedding, b.embedding)


def test_saving_an_index_holds_no_copy_of_its_matrix(tmp_path):
    # tracemalloc sees numpy's buffers, so a copy of the matrix shows in the peak
    first, other = filled_index(n=4000, dim=256, seed=3), filled_index(n=4000, dim=256, seed=4)
    matrix_bytes = 4000 * 256 * 8
    base = tmp_path / "idx"
    vec = base.with_suffix(".vec")
    mtimes = []
    for index, label in [(first, "first save"), (first, "unchanged re-save"), (other, "different index over it")]:
        tracemalloc.start()
        try:
            index.save(base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * matrix_bytes, f"{label}: peak {peak / matrix_bytes:.2f}x the matrix"
        assert FlatIndex.load(base)._matrix.tobytes() == index._matrix.tobytes(), label
        mtimes.append(vec.stat().st_mtime_ns)
    assert mtimes[1] == mtimes[0]  # the unchanged re-save wrote nothing


def _stores_each_vector_once(index: FlatIndex) -> bool:
    matrix = index._matrix
    return not matrix.flags.writeable and all(
        np.shares_memory(entry.embedding, matrix) and not entry.embedding.flags.writeable
        for entry in index.entries
    )


def test_frozen_and_loaded_indexes_store_each_vector_once(tmp_path):
    index = filled_index(n=30, dim=8, seed=5)
    assert _stores_each_vector_once(index)
    index.save(tmp_path / "idx")
    loaded = FlatIndex.load(tmp_path / "idx")
    assert _stores_each_vector_once(loaded)
    with pytest.raises(ValueError):
        loaded.entries[0].embedding[0] = 1.0


def test_load_builds_each_entry_once_as_a_view_of_its_matrix_row(tmp_path, monkeypatch):
    from score import index as index_module

    built = []

    class CountedEntry(index_module.IndexEntry):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.entry_id)

    monkeypatch.setattr(index_module, "IndexEntry", CountedEntry)
    ids = [f"e{i:04d}" for i in range(30)]
    made = filled_index(n=30, dim=8, seed=5)
    assert built == ids  # `build_index` too builds one entry per row, and no second one
    made.save(tmp_path / "idx")
    built.clear()
    loaded = FlatIndex.load(tmp_path / "idx")
    assert built == ids
    for index in (made, loaded):
        for i, entry in enumerate(index.entries):
            assert type(entry) is CountedEntry and not entry.embedding.flags.writeable
            assert entry.embedding.base is not None and np.shares_memory(entry.embedding, index._matrix)
            assert np.array_equal(entry.embedding, index._matrix[i])


def test_load_empty_file_is_format_error(tmp_path):
    (tmp_path / "idx.vec").write_bytes(b"")
    (tmp_path / "idx.meta.json").write_text("{}")
    with pytest.raises(PersistenceError, match="too short"):
        FlatIndex.load(tmp_path / "idx")


def test_load_flipped_payload_byte_is_checksum_error(tmp_path):
    index = filled_index(n=5, dim=4)
    base = tmp_path / "idx"
    index.save(base)
    raw = bytearray((tmp_path / "idx.vec").read_bytes())
    raw[-1] ^= 0xFF
    (tmp_path / "idx.vec").write_bytes(bytes(raw))
    with pytest.raises(PersistenceError, match="checksum"):
        FlatIndex.load(base)


def test_load_truncated_payload_errors(tmp_path):
    index = filled_index(n=5, dim=4)
    base = tmp_path / "idx"
    index.save(base)
    raw = (tmp_path / "idx.vec").read_bytes()
    (tmp_path / "idx.vec").write_bytes(raw[:-8])
    with pytest.raises(PersistenceError, match="truncated"):
        FlatIndex.load(base)


def test_load_bad_magic_errors(tmp_path):
    index = filled_index(n=2, dim=4)
    base = tmp_path / "idx"
    index.save(base)
    raw = bytearray((tmp_path / "idx.vec").read_bytes())
    raw[0] ^= 0xFF
    (tmp_path / "idx.vec").write_bytes(bytes(raw))
    with pytest.raises(PersistenceError, match="magic"):
        FlatIndex.load(base)


def test_load_version_mismatch_errors(tmp_path):
    import struct

    index = filled_index(n=2, dim=4)
    base = tmp_path / "idx"
    index.save(base)
    raw = bytearray((tmp_path / "idx.vec").read_bytes())
    raw[4:8] = struct.pack("<I", 999)
    (tmp_path / "idx.vec").write_bytes(bytes(raw))
    with pytest.raises(PersistenceError, match="version"):
        FlatIndex.load(base)


def test_build_index_helper():
    rows = [(f"r{i}", "summary", "s", i, np.eye(4)[i % 4] + 0.01) for i in range(6)]
    index = build_index(4, rows)
    assert len(index) == 6 and index.dim == 4
    assert [(e.entry_id, e.kind, e.story_id, e.episode_index) for e in index.entries] == [r[:4] for r in rows]
    assert all(np.isclose(np.linalg.norm(e.embedding), 1.0) for e in index.entries)
