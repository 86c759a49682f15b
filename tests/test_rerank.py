import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbirkit import io as formats
from cbirkit import _arrays, rerank
from cbirkit.embeddings import EmbeddingMatrix
from cbirkit.errors import ConfigError, DataError
from cbirkit.rerank import (
    QeParams,
    RerankParams,
    _encodings,
    _expanded_sets,
    _neighbor_lists,
    _reciprocal,
    database_augmentation,
    k_reciprocal_rerank,
    query_expansion,
)
from cbirkit.search import Rankings, build_index, knn_search

from oracles import encodings_ref, expand_ref, expanded_sets_ref, rerank_loop_ref, rerank_ref
from util import gallery_ids, pick, query_ids, rng_for, unit_rows


def gmat(data):
    data = np.asarray(data, dtype=float)
    return EmbeddingMatrix(data, gallery_ids(data.shape[0]))


def qmat(data):
    data = np.asarray(data, dtype=float)
    return EmbeddingMatrix(data, query_ids(data.shape[0]))


class TestParams:
    def test_qe_rejects_negative_k(self):
        with pytest.raises(ConfigError):
            QeParams(k=-1)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_qe_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ConfigError, match="alpha must be finite"):
            QeParams(k=3, alpha=alpha)

    def test_rerank_rejects_k2_above_k1(self):
        with pytest.raises(ConfigError):
            RerankParams(k1=5, k2=6)

    def test_rerank_rejects_bad_lambda(self):
        with pytest.raises(ConfigError):
            RerankParams(lam=1.5)


class TestQueryExpansion:
    def test_k0_identity_object(self):
        rng = rng_for(50)
        q = qmat(unit_rows(rng, 4, 6))
        g = gmat(unit_rows(rng, 10, 6))
        assert query_expansion(q, g, QeParams(k=0)) is q

    def test_identical_neighbor_fixed_point(self):
        v = np.array([[0.6, 0.8]])
        q = qmat(v)
        g = gmat(v)
        out = query_expansion(q, g, QeParams(k=1, alpha=0.0))
        assert np.abs(out.data - q.data).max() <= 1e-12

    def test_hand_computed_weighted_sum(self):
        # gallery of three: cosines with q are 1.0, 0.5 and 0.0;
        # with k=2, alpha=1 the update is q + 1*g1 + 0.5*g2, renormalized
        q = qmat([[1.0, 0.0]])
        g = gmat([[1.0, 0.0], [0.5, np.sqrt(3) / 2], [0.0, 1.0]])
        out = query_expansion(q, g, QeParams(k=2, alpha=1.0))
        raw = np.array([1.0, 0.0]) + 1.0 * g.data[0] + 0.5 * g.data[1]
        assert np.allclose(out.data[0], raw / np.linalg.norm(raw), atol=1e-12)

    def test_matches_loop_reference(self):
        rng = rng_for(51)
        q = qmat(unit_rows(rng, 8, 10))
        g = gmat(unit_rows(rng, 30, 10))
        idx = build_index(g)
        k, alpha = 4, 2.0
        out = query_expansion(q, g, QeParams(k=k, alpha=alpha))
        ranked = knn_search(idx, q, k)
        for i, r in enumerate(ranked):
            neighbors = [g.data[g.row_of(item)] for item in r.item_ids]
            exp = expand_ref(q.data[i], neighbors, r.scores.tolist(), alpha)
            assert np.allclose(out.data[i], exp, atol=1e-9)

    def test_output_unit_norm(self):
        rng = rng_for(52)
        q = qmat(unit_rows(rng, 20, 8))
        g = gmat(unit_rows(rng, 50, 8))
        out = query_expansion(q, g, QeParams(k=5, alpha=3.0))
        assert np.abs(np.linalg.norm(out.data, axis=1) - 1.0).max() <= 1e-6

    def test_zero_vector_error_names_query(self):
        # alpha=0 weights the opposite vector fully: q + (-q) = 0
        q = qmat([[1.0, 0.0]])
        g = gmat([[-1.0, 0.0]])
        with pytest.raises(DataError, match="q00000"):
            query_expansion(q, g, QeParams(k=1, alpha=0.0))


class TestDatabaseAugmentation:
    def test_k0_identity(self):
        rng = rng_for(53)
        g = gmat(unit_rows(rng, 6, 4))
        assert database_augmentation(g, QeParams(k=0)) is g

    def test_duplicate_rows_fixed_point(self):
        row = np.array([0.6, 0.8])
        g = EmbeddingMatrix(np.tile(row, (5, 1)), gallery_ids(5))
        for include_self in (True, False):
            out = database_augmentation(g, QeParams(k=3, include_self=include_self))
            assert np.abs(out.data - g.data).max() <= 1e-12

    def test_exclude_self_changes_neighbors(self):
        g = gmat([[1.0, 0.0], [0.0, 1.0]])
        kept = database_augmentation(g, QeParams(k=1, alpha=1.0, include_self=True))
        # self is the only positive-cosine neighbor: row stays put
        assert np.allclose(kept.data, g.data, atol=1e-12)
        dropped = database_augmentation(g, QeParams(k=1, alpha=1.0, include_self=False))
        # the orthogonal row gets weight 0^1 = 0, so direction is unchanged too
        assert np.allclose(dropped.data, g.data, atol=1e-12)

    def test_matches_brute_force_on_fixture(self):
        rng = rng_for(54)
        g = gmat(unit_rows(rng, 20, 6))
        params = QeParams(k=4, alpha=1.0, include_self=True)
        out = database_augmentation(g, params)
        sims = g.data @ g.data.T
        for i in range(20):
            order = sorted(range(20), key=lambda j: (-min(1.0, max(-1.0, sims[i, j])),
                                                     g.ids[j].item_id))
            top = order[: params.k]
            exp = expand_ref(g.data[i], [g.data[j] for j in top],
                             [min(1.0, max(-1.0, sims[i, j])) for j in top], params.alpha)
            assert np.allclose(out.data[i], exp, atol=1e-9)


def _initial_rankings(q, g, k=None):
    idx = build_index(g)
    return knn_search(idx, q, g.n_rows if k is None else k)


class TestKReciprocalRerank:
    def test_lambda_one_is_identity_permutation(self):
        rng = rng_for(55)
        q = qmat(unit_rows(rng, 6, 8))
        g = gmat(unit_rows(rng, 30, 8))
        initial = _initial_rankings(q, g)
        out = k_reciprocal_rerank(q, g, initial, RerankParams(k1=10, k2=4, lam=1.0))
        for before, after in zip(initial, out):
            assert after.item_ids == before.item_ids

    def test_k1_larger_than_gallery(self):
        rng = rng_for(56)
        q = qmat(unit_rows(rng, 2, 4))
        g = gmat(unit_rows(rng, 5, 4))
        with pytest.raises(ConfigError, match="gallery"):
            k_reciprocal_rerank(q, g, _initial_rankings(q, g), RerankParams(k1=6, k2=2))

    def test_k_below_one_rejected(self):
        rng = rng_for(56)
        q = qmat(unit_rows(rng, 2, 4))
        g = gmat(unit_rows(rng, 5, 4))
        with pytest.raises(ConfigError, match="k must be >= 1"):
            k_reciprocal_rerank(q, g, None, RerankParams(k1=2, k2=1), k=0)

    def test_short_initial_rankings_rejected(self):
        rng = rng_for(57)
        q = qmat(unit_rows(rng, 2, 4))
        g = gmat(unit_rows(rng, 30, 4))
        short = _initial_rankings(q, g, k=3)
        with pytest.raises(DataError, match="k1"):
            k_reciprocal_rerank(q, g, short, RerankParams(k1=10, k2=4))

    def test_separated_clusters_stay_separated(self):
        rng = rng_for(58)
        dim = 8
        a = np.zeros(dim); a[0] = 1.0
        b = -a
        ga = a + 0.15 * rng.normal(size=(10, dim))
        gb = b + 0.15 * rng.normal(size=(10, dim))
        g = gmat(np.vstack([ga, gb]) /
                 np.linalg.norm(np.vstack([ga, gb]), axis=1, keepdims=True))
        qa = a + 0.15 * rng.normal(size=(4, dim))
        q = qmat(qa / np.linalg.norm(qa, axis=1, keepdims=True))
        out = k_reciprocal_rerank(q, g, _initial_rankings(q, g),
                                  RerankParams(k1=8, k2=3, lam=0.3))
        cluster_a = {f"g{i:05d}" for i in range(10)}
        for r in out:
            assert set(r.item_ids[:10]) == cluster_a

    def test_matches_definition_oracle(self):
        rng = rng_for(59)
        for lam in (0.0, 0.3, 1.0):
            q = qmat(unit_rows(rng, 8, 6))
            g = gmat(unit_rows(rng, 40, 6))
            initial = _initial_rankings(q, g)
            params = RerankParams(k1=7, k2=3, lam=lam)
            got = k_reciprocal_rerank(q, g, initial, params)
            initial_rows = [[g.row_of(i) for i in r.item_ids] for r in initial]
            ref = rerank_ref(q.data, g.data, initial_rows, params.k1, params.k2, lam)
            for ranking, pairs in zip(got, ref):
                exp = {f"g{row:05d}": d for row, d in pairs}
                for item, score in ranking.entries():
                    assert (1.0 - score) == pytest.approx(exp[item], abs=1e-6)

    def test_final_distance_bounds(self):
        rng = rng_for(60)
        q = qmat(unit_rows(rng, 5, 6))
        g = gmat(unit_rows(rng, 25, 6))
        out = k_reciprocal_rerank(q, g, _initial_rankings(q, g),
                                  RerankParams(k1=6, k2=2, lam=0.3))
        for r in out:
            dstar = 1.0 - r.scores
            assert np.all(dstar >= -1e-12) and np.all(dstar <= 2.0 + 1e-12)

    def test_jaccard_symmetry_of_encoding(self):
        # the min/max-sum distance used on the encoded vectors is symmetric
        rng = rng_for(61)
        v = rng.uniform(0.0, 1.0, size=(10, 30))
        v[v < 0.6] = 0.0
        for _ in range(50):
            i, j = rng.integers(0, 10, size=2)
            dij = 1.0 - np.minimum(v[i], v[j]).sum() / max(np.maximum(v[i], v[j]).sum(), 1e-300)
            dji = 1.0 - np.minimum(v[j], v[i]).sum() / max(np.maximum(v[j], v[i]).sum(), 1e-300)
            assert abs(dij - dji) <= 1e-9

    def test_rankings_matched_by_query_id(self):
        rng = rng_for(63)
        q = qmat(unit_rows(rng, 6, 8))
        g = gmat(unit_rows(rng, 30, 8))
        reversed_initial = _initial_rankings(q, g)[::-1]
        out = k_reciprocal_rerank(q, g, reversed_initial, RerankParams(k1=10, k2=4, lam=1.0))
        for before, after in zip(reversed_initial, out):
            assert after.query_id == before.query_id
            assert after.item_ids == before.item_ids

    def test_unknown_query_id_rejected(self):
        rng = rng_for(64)
        q = qmat(unit_rows(rng, 3, 4))
        g = gmat(unit_rows(rng, 12, 4))
        initial = _initial_rankings(q, g)
        # the second row is the first query's, under an unknown query id
        stray = Rankings(["q00001", "nope"], initial.item_table, initial.codes[[1, 0]],
                         initial.scores[[1, 0]], initial.lengths[[1, 0]])
        with pytest.raises(DataError, match="nope"):
            k_reciprocal_rerank(q, g, stray, RerankParams(k1=4, k2=2))

    def test_unknown_gallery_id_rejected(self):
        rng = rng_for(64)
        q = qmat(unit_rows(rng, 3, 4))
        g = gmat(unit_rows(rng, 12, 4))
        initial = _initial_rankings(q, g)
        row = initial[1]
        stray = Rankings.from_entries(["q00001", "q00000"], [0] * len(row) + [1, 1],
                                      [*row.item_ids, "g00001", "g00001\x00"],
                                      [*row.scores.tolist(), 0.5, 0.25])
        with pytest.raises(DataError, match=r"unknown item_id 'g00001\\x00'"):
            k_reciprocal_rerank(q, g, stray, RerankParams(k1=2, k2=2))

    def test_first_unknown_gallery_id_in_ranking_order_named(self):
        rng = rng_for(64)
        q = qmat(unit_rows(rng, 3, 4))
        g = gmat(unit_rows(rng, 12, 4))
        strays = Rankings.from_entries(["q00002", "q00000"], [0, 0, 0, 1, 1],
                                       ["g00001", "zz", "aa", "bb", "g00002"],
                                       [0.5, 0.25, 0.125, 0.5, 0.25])
        with pytest.raises(DataError, match="unknown item_id 'zz'"):
            k_reciprocal_rerank(q, g, strays, RerankParams(k1=2, k2=2))

    def test_unknown_id_of_a_dropped_row_is_ignored(self, tmp_path):
        rng = rng_for(64)
        q = qmat(unit_rows(rng, 3, 4))
        g = gmat(unit_rows(rng, 12, 4))
        initial = _initial_rankings(q, g, k=4)
        # the first row names "zz", which the gallery lacks; the file's id
        # table keeps it after that row is sliced away
        path = tmp_path / "r.tsv"
        path.write_text("q00000\t1\tzz\t0.5\n" + "".join(
            f"{row.query_id}\t{rank}\t{item}\t{score!r}\n" for row in initial[1:]
            for rank, (item, score) in enumerate(row.entries(), start=1)))
        loaded = formats.load_rankings(path)
        params = RerankParams(k1=1, k2=1)
        assert (k_reciprocal_rerank(q, g, loaded[1:], params)
                == k_reciprocal_rerank(q, g, initial[1:], params))
        # an entry that refers to it still has it named
        with pytest.raises(DataError, match="^unknown item_id 'zz'$"):
            k_reciprocal_rerank(q, g, loaded, params)

    def test_repeated_query_id_rejected(self):
        rng = rng_for(65)
        q = qmat(unit_rows(rng, 3, 4))
        g = gmat(unit_rows(rng, 12, 4))
        initial = _initial_rankings(q, g)
        with pytest.raises(DataError, match="q00001"):
            k_reciprocal_rerank(q, g, pick(initial, [1, 0, 1]), RerankParams(k1=4, k2=2))

    def test_memory_is_not_quadratic(self):
        # one n x n float64 array takes 8 n^2 bytes; the dense method held seven
        rng = rng_for(66)
        q = qmat(unit_rows(rng, 40, 16))
        g = gmat(unit_rows(rng, 2000, 16))
        initial = _initial_rankings(q, g, k=20)
        params = RerankParams(k1=20, k2=6, lam=0.3)
        tracemalloc.start()
        try:
            k_reciprocal_rerank(q, g, initial, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = q.n_rows + g.n_rows
        assert peak < 2 * 8 * n * n

    def test_top_k_memory_is_not_queries_by_gallery(self):
        # one float64 n_q x n_g array (32 MB here) outweighs every other
        # temporary; cutting a whole-gallery re-ranking to k held three
        rng = rng_for(68)
        q = qmat(unit_rows(rng, 2000, 8))
        g = gmat(unit_rows(rng, 2000, 8))
        tracemalloc.start()
        try:
            k_reciprocal_rerank(q, g, None, RerankParams(k1=4, k2=2), k=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * q.n_rows * g.n_rows


def neighbor_lists(rng, n, k1):
    """Each point first in its own list, then k1 distinct others."""
    others = np.argsort(rng.random((n, n)) + 2 * np.eye(n), axis=1)[:, : k1]
    return np.hstack([np.arange(n)[:, None], others])


def reciprocal_ref(neighbors, p, k):
    """R(p, k) as the module docstring defines it, as a set."""
    return {c for c in neighbors[p, : k + 1].tolist() if p in neighbors[c, : k + 1].tolist()}


def expanded_ref(neighbors, p, k1):
    """R*(p) as the module docstring defines it, as a set."""
    full = reciprocal_ref(neighbors, p, k1)
    out = set(full)
    for c in full:
        half = reciprocal_ref(neighbors, c, int(round(k1 / 2)))
        if 3 * len(half & full) >= 2 * len(half):
            out |= half
    return out


class TestNeighborhoodSets:
    @pytest.mark.parametrize("seed, n, k1", [(0, 30, 5), (1, 12, 11), (2, 40, 1), (3, 25, 8)])
    def test_match_the_definitions(self, monkeypatch, seed, n, k1):
        # a one-byte table budget: every pair test runs one row per block
        monkeypatch.setattr(_arrays, "PAIR_TABLE_BYTES", 1)
        neighbors = neighbor_lists(rng_for(seed), n, k1)
        for k in sorted({k1, int(round(k1 / 2))}):
            mask = _reciprocal(neighbors, k)
            for p in range(n):
                assert set(neighbors[p, : k + 1][mask[p]].tolist()) == reciprocal_ref(
                    neighbors, p, k)
        rows, cols = _expanded_sets(neighbors, k1)
        keys = list(zip(rows.tolist(), cols.tolist()))
        assert keys == sorted(set(keys))
        assert keys == [(p, c) for p in range(n) for c in sorted(expanded_ref(neighbors, p, k1))]


@st.composite
def joint_points(draw):
    """Unit rows, some copied onto others so that neighbor lists tie, with
    k1 up to n - 1 and k2 at 1, at k1 or between."""
    n, dim = draw(st.integers(2, 30)), draw(st.integers(2, 5))
    data = unit_rows(rng_for(draw(st.integers(0, 2**32 - 1))), n, dim)
    rows = st.integers(0, n - 1)
    for dst, src in draw(st.lists(st.tuples(rows, rows), max_size=n)):
        data[dst] = data[src]
    k1 = draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)))
    k2 = draw(st.one_of(st.just(1), st.just(k1), st.integers(1, k1)))
    return data, RerankParams(k1=k1, k2=k2)


def multishot_points(seed, items=150, shots=6, looks=14, dim=32):
    """Items of several close shots, each ringed by looser look-alikes."""
    rng = rng_for(seed)
    centers = unit_rows(rng, items, dim)
    radii = np.repeat([[0.12] * shots + [0.24] * looks], items, axis=0)
    rows = centers[:, None] + radii[..., None] * rng.normal(size=(items, shots + looks, dim))
    rows = rows.reshape(-1, dim)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestBlockedEncodings:
    @pytest.mark.parametrize("budget", [1, 31, rerank.BLOCK_ENTRIES])
    @settings(max_examples=150, deadline=None)
    @given(joint_points())
    def test_equal_the_whole_array_forms_bit_for_bit(self, budget, case):
        points, params = case
        neighbors = _neighbor_lists(points, params.k1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rerank, "BLOCK_ENTRIES", budget)
            sets = _expanded_sets(neighbors, params.k1)
            encodings = _encodings(points, neighbors, params)
        expected = (*expanded_sets_ref(neighbors, params.k1),
                    *encodings_ref(points, neighbors, params.k1, params.k2))
        for got, ref in zip((*sets, *encodings), expected):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_memory_stays_near_output_and_budget(self):
        # gathering every point's V entries at once peaked near 9 times the output
        points = multishot_points(70)
        params = RerankParams(k1=20, k2=6)
        neighbors = _neighbor_lists(points, params.k1)
        tracemalloc.start()
        try:
            out = _encodings(points, neighbors, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole R* arrays and the output, plus one block's temporaries
        # and the pair table
        assert peak < 4 * sum(a.nbytes for a in out) + 16 * 8 * rerank.BLOCK_ENTRIES


def _nudged_copies(seed, dim=16, copies=40, others=30, n_q=12):
    """Queries near one row, and a gallery of that row's copies each nudged
    by about 1e-7 per coordinate: their cosines differ by about as much as
    a float32 GEMM's rounding, so the GEMM may order them either way."""
    rng = rng_for(seed)
    base = unit_rows(rng, 1, dim)[0]
    near = base + 1e-7 * rng.normal(size=(copies, dim))
    data = np.vstack([near / np.linalg.norm(near, axis=1, keepdims=True),
                      unit_rows(rng, others, dim)])
    q = base + 0.3 * rng.normal(size=(n_q, dim))
    return qmat(q / np.linalg.norm(q, axis=1, keepdims=True)), gmat(data)


class TestFloat32Filter:
    def test_nudged_copies_need_the_float32_slack(self, monkeypatch):
        # the filter's slack eps_d must cover the float32 GEMM's rounding:
        # with the float64 bound d = dim eps in its place, cutting to k drops
        # candidates of the whole re-ranking's first k
        params = RerankParams(k1=4, k2=2, lam=0.3)

        def cut_differs(q, g):
            whole = k_reciprocal_rerank(q, g, None, params)
            for k in range(1, 25, 3):
                top = k_reciprocal_rerank(q, g, None, params, k=k)
                yield not (np.array_equal(top.codes, whole.codes[:, :k])
                           and np.array_equal(top.scores, whole.scores[:, :k]))

        cases = [_nudged_copies(seed) for seed in range(3)]
        assert not any(any(cut_differs(q, g)) for q, g in cases)
        monkeypatch.setattr(rerank, "gemm_error", lambda dim: dim * np.finfo(np.float64).eps)
        assert any(any(cut_differs(q, g)) for q, g in cases)


@st.composite
def rerank_cases(draw):
    """Small query/gallery sets, some rows copied onto others so that the
    neighbor lists hold exact ties; in basis mode every row is a signed
    basis vector, so most distances tie."""
    dim = draw(st.integers(3, 6))
    n_q, n_g = draw(st.integers(1, 5)), draw(st.integers(2, 14))
    n = n_q + n_g
    if draw(st.booleans()):
        data = np.zeros((n, dim))
        data[np.arange(n), draw(st.lists(st.integers(0, dim - 1), min_size=n, max_size=n))] = \
            draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    else:
        data = unit_rows(rng_for(draw(st.integers(0, 2**32 - 1))), n, dim)
        copies = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for dst, src in draw(st.lists(copies, max_size=4)):
            data[dst] = data[src]
    k1 = draw(st.integers(1, n_g))
    params = RerankParams(k1=k1, k2=draw(st.sampled_from([1, k1])),
                          lam=draw(st.sampled_from([0.0, 0.3, 1.0])))
    depth = draw(st.integers(k1, n_g))
    # rankings for a subset of the queries, in any order
    picked = draw(st.permutations(range(n_q)))[: draw(st.integers(0, n_q))]
    return qmat(data[:n_q]), gmat(data[n_q:]), params, depth, picked


class TestRerankProperties:
    @settings(max_examples=150, deadline=None)
    @given(rerank_cases())
    def test_matches_definition_oracle(self, case):
        q, g, params, depth, picked = case
        initial = _initial_rankings(q, g, k=depth)
        rows = [[g.row_of(i) for i in r.item_ids] for r in initial]
        ref = rerank_ref(q.data, g.data, rows, params.k1, params.k2, params.lam)
        got = k_reciprocal_rerank(q, g, pick(initial, np.array(picked, dtype=np.intp)), params)
        assert [r.query_id for r in got] == [initial[i].query_id for i in picked]
        for qi, ranking in zip(picked, got):
            expected = {f"g{row:05d}": d for row, d in ref[qi]}
            assert sorted(ranking.item_ids) == sorted(expected)
            dstar = 1.0 - ranking.scores
            assert np.abs(dstar - [expected[i] for i in ranking.item_ids]).max() <= 1e-6
            # ascending d*, equal d* by ascending item_id
            for a, b, da, db in zip(ranking.item_ids, ranking.item_ids[1:], dstar, dstar[1:]):
                assert da < db or (da == db and a < b)


@st.composite
def whole_gallery_cases(draw):
    """Random unit rows with some gallery rows repeated, so that candidates
    tie exactly on d*, plus a cut K that may exceed the gallery."""
    dim = draw(st.integers(3, 6))
    n_q, n_g = draw(st.integers(1, 4)), draw(st.integers(2, 14))
    data = unit_rows(rng_for(draw(st.integers(0, 2**32 - 1))), n_q + n_g, dim)
    rows = st.integers(n_q, n_q + n_g - 1)
    for dst, src in draw(st.lists(st.tuples(rows, rows), min_size=1, max_size=5)):
        data[dst] = data[src]
    k1 = draw(st.integers(1, n_g))
    params = RerankParams(k1=k1, k2=draw(st.integers(1, k1)),
                          lam=draw(st.sampled_from([0.0, 0.3, 1.0])))
    return qmat(data[:n_q]), gmat(data[n_q:]), params, draw(st.integers(1, n_g + 2))


def _assert_oracle_cut(got, q, g, params, k):
    """`got` holds the first k of the oracle's whole-gallery re-ranking."""
    ref = rerank_ref(q.data, g.data, [range(g.n_rows)] * q.n_rows,
                     params.k1, params.k2, params.lam)
    for ranking, pairs in zip(got, ref):
        expected = sorted((d, f"g{row:05d}") for row, d in pairs)
        dstar = 1.0 - ranking.scores
        assert len(ranking) == min(k, g.n_rows)
        # the cut holds the oracle's first K distances, in order
        assert np.abs(dstar - [d for d, _ in expected[:k]]).max() <= 1e-6
        oracle = {item: d for d, item in expected}
        assert max(abs(oracle[i] - d) for i, d in zip(ranking.item_ids, dstar)) <= 1e-6
        # every row clear of the cut's last distance is in or out as the oracle says
        last = expected[len(ranking) - 1][0]
        assert {i for d, i in expected if d < last - 1e-6} <= set(ranking.item_ids)
        assert all(oracle[i] <= last + 1e-6 for i in ranking.item_ids)
        # ascending d*, equal d* by ascending item_id
        for a, b, da, db in zip(ranking.item_ids, ranking.item_ids[1:], dstar, dstar[1:]):
            assert da < db or (da == db and a < b)


class TestWholeGalleryRerank:
    @settings(max_examples=150, deadline=None)
    @given(whole_gallery_cases())
    def test_cut_matches_oracle_over_full_gallery(self, case):
        q, g, params, k = case
        got = k_reciprocal_rerank(q, g, None, params).head(k)
        # re-ranking a full search gives the same rows, bit for bit
        searched = k_reciprocal_rerank(q, g, knn_search(build_index(g), q, g.n_rows),
                                       params).head(k)
        assert got == searched
        assert all(np.array_equal(a.scores, b.scores) for a, b in zip(got, searched))
        _assert_oracle_cut(got, q, g, params, k)

    @settings(max_examples=150, deadline=None)
    @given(whole_gallery_cases(), st.data())
    def test_top_k_matches_cut_of_whole_gallery(self, case, data):
        q, g, params, k = case
        # plant near-ties: copies of gallery rows nudged by a few ulps, whose
        # GEMM and exact cosines may order them differently
        rows = g.data.copy()
        for dst, src, steps in data.draw(st.lists(st.tuples(
                st.integers(0, g.n_rows - 1), st.integers(0, g.n_rows - 1), st.integers(-4, 4)),
                max_size=4)):
            rows[dst] = rows[src] + steps * np.spacing(rows[src])
        tops = []
        for gallery in (g, gmat(rows)):
            cut = k_reciprocal_rerank(q, gallery, None, params).head(k)
            got = k_reciprocal_rerank(q, gallery, None, params, k=k)
            assert got == cut
            assert np.array_equal(got.lengths, cut.lengths)
            assert all(np.array_equal(a.scores.view(np.int64), b.scores.view(np.int64))
                       for a, b in zip(got, cut))
            tops.append(got)
        # the oracle's own dot products may put a nudged copy on either side
        # of its source in a neighbor list, so it checks the exact copies only
        _assert_oracle_cut(tops[0], q, g, params, k)

    def test_bytes_do_not_depend_on_query_block(self, tmp_path, monkeypatch):
        rng = rng_for(67)
        data = unit_rows(rng, 60, 8)
        data[40:45] = data[3]
        q, g = qmat(data[:17]), gmat(data[17:])
        found = knn_search(build_index(g), q, 12)
        # ragged rows: every query's own depth, at least k1
        rows = np.arange(len(found))[::-1]
        ragged = Rankings(found.query_ids[rows], found.item_table, found.codes[rows],
                          found.scores[rows], np.minimum(found.lengths[rows], 6 + rows % 7))
        params = RerankParams(k1=6, k2=3, lam=0.3)
        runs = (("whole", None, None), ("ragged", ragged, None),
                ("whole-top", None, 5), ("ragged-top", ragged, 9))

        def outputs(block) -> list[bytes]:
            monkeypatch.setattr(rerank, "RERANK_BLOCK", block)
            out = []
            for name, initial, k in runs:
                path = tmp_path / f"{name}-{block}.tsv"
                formats.save_rankings(k_reciprocal_rerank(q, g, initial, params, k=k), path)
                out.append(path.read_bytes())
            return out

        base = outputs(rerank.RERANK_BLOCK)
        assert base[1].count(b"\n") == sum(6 + i % 7 for i in range(q.n_rows))
        # the top k are the whole re-ranking's first k; shorter rows stay whole
        cut = tmp_path / "cut.tsv"
        formats.save_rankings(k_reciprocal_rerank(q, g, ragged, params).head(9), cut)
        assert cut.read_bytes() == base[3]
        for block in (1, 7):
            assert outputs(block) == base


@st.composite
def loop_cases(draw):
    """Unit rows with exact copies and nudged copies among them, with the
    whole gallery or ragged rankings for a subset of the queries, in any
    order and each row's entries shuffled, and a cut K that may be None or
    exceed the gallery.  A copy moves a few ulps, which the float64 cosines
    may order either way, or about 1e-7 a coordinate, near a float32
    GEMM's rounding."""
    dim = draw(st.integers(3, 6))
    n_q, n_g = draw(st.integers(1, 6)), draw(st.integers(2, 16))
    n = n_q + n_g
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    data = unit_rows(rng, n, dim)
    rows = st.integers(0, n - 1)
    copies = st.tuples(rows, rows, st.integers(-4, 4), st.sampled_from([0.0, 1e-7]))
    for dst, src, steps, unit in draw(st.lists(copies, max_size=n)):
        if unit:
            nudged = data[src] + steps * unit * rng.normal(size=dim)
            data[dst] = nudged / np.linalg.norm(nudged)
        else:
            data[dst] = data[src] + steps * np.spacing(data[src])
    k1 = draw(st.integers(1, n_g))
    params = RerankParams(k1=k1, k2=draw(st.sampled_from([1, k1])),
                          lam=draw(st.sampled_from([0.0, 0.3, 1.0])))
    q, g = qmat(data[:n_q]), gmat(data[n_q:])
    k = draw(st.one_of(st.none(), st.integers(1, n_g + 2)))
    if draw(st.booleans()):
        return q, g, None, params, k
    found = _initial_rankings(q, g)
    picked = draw(st.permutations(range(n_q)))[: draw(st.integers(0, n_q))]
    lengths = np.array([draw(st.integers(k1, n_g)) for _ in picked], dtype=np.int64)
    # padding columns may make the rankings wider than the gallery
    pad = ((0, 0), (0, draw(st.integers(0, 2))))
    codes = np.pad(found.codes[picked], pad)
    for row, length in enumerate(lengths.tolist()):
        codes[row, :length] = draw(st.permutations(codes[row, :length].tolist()))
    ragged = Rankings(found.query_ids[picked], found.item_table, codes,
                      np.pad(found.scores[picked], pad), lengths)
    return q, g, ragged, params, k


def _assert_same_bits(got, ref):
    """Equal query ids, lengths, valid codes and score bits, and zero padding."""
    assert np.array_equal(got.query_ids, ref.query_ids)
    assert np.array_equal(got.lengths, ref.lengths)
    assert got.codes.shape == ref.codes.shape
    valid = np.arange(got.codes.shape[1]) < got.lengths[:, None]
    assert np.array_equal(got.codes[valid], ref.codes[valid])
    assert np.array_equal(got.scores[valid].view(np.int64), ref.scores[valid].view(np.int64))
    assert not got.codes[~valid].any() and not got.scores[~valid].view(np.int64).any()


class TestOneSurvivorPath:
    @pytest.mark.parametrize("block", [1, 7, rerank.RERANK_BLOCK])
    @settings(max_examples=150, deadline=None)
    @given(loop_cases())
    def test_equals_the_forked_loop_bit_for_bit(self, block, case):
        q, g, initial, params, k = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rerank, "RERANK_BLOCK", block)
            got = k_reciprocal_rerank(q, g, initial, params, k=k)
        _assert_same_bits(got, rerank_loop_ref(q, g, initial, params, k=k))

    @pytest.mark.parametrize("depth, k", [(None, 10), (50, None), (50, 7)])
    def test_equals_the_forked_loop_on_multishot_points(self, depth, k):
        # at k = 10 the filter keeps 10 of the 480 gallery rows per query
        points = multishot_points(71, items=30)
        q, g = qmat(points[::5]), gmat(np.delete(points, np.s_[::5], axis=0))
        params = RerankParams(k1=20, k2=6, lam=0.3)
        initial = None if depth is None else _initial_rankings(q, g, k=depth)
        _assert_same_bits(k_reciprocal_rerank(q, g, initial, params, k=k),
                          rerank_loop_ref(q, g, initial, params, k=k))
