import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbirkit import io as formats
from cbirkit import search
from cbirkit.embeddings import EmbeddingMatrix, IdRecord
from cbirkit.errors import ConfigError, DataError
from cbirkit.rerank import (QeParams, RerankParams, database_augmentation, k_reciprocal_rerank,
                            query_expansion)
from cbirkit.search import RankingList, Rankings, build_index, knn_search

from oracles import expand_ref, knn_ref
from util import gallery_ids, output_under_blas_threads, query_ids, rng_for, unit_rows


def gmat(data, categories=None):
    data = np.asarray(data, dtype=float)
    return EmbeddingMatrix(data, gallery_ids(data.shape[0], categories))


def qmat(data, categories=None):
    data = np.asarray(data, dtype=float)
    return EmbeddingMatrix(data, query_ids(data.shape[0], categories))


class TestRankingList:
    def test_rejects_increasing_scores(self):
        with pytest.raises(DataError, match="increase"):
            RankingList("q", ("a", "b"), np.array([0.1, 0.9]))

    def test_rejects_duplicates(self):
        with pytest.raises(DataError, match="duplicate"):
            RankingList("q", ("a", "a"), np.array([0.9, 0.1]))

    def test_head(self):
        r = RankingList("q", ("a", "b", "c"), np.array([0.9, 0.5, 0.1]))
        assert r.head(2).item_ids == ("a", "b")
        assert r.head(10) is r


class TestRankings:
    def test_row_view_equals_ranking_list(self):
        lists = [("q0", ["g2", "g0", "g1"], [0.9, 0.5, -0.25]), ("q1", [], []),
                 ("q2", ["g1\x00"], [0.125])]
        rankings = Rankings.from_flat([q for q, _, _ in lists], [len(i) for _, i, _ in lists],
                                      [i for _, items, _ in lists for i in items],
                                      [s for _, _, scores in lists for s in scores])
        assert len(rankings) == 3
        for i, (query_id, items, scores) in enumerate(lists):
            expected = RankingList(query_id, items, scores)
            assert rankings[i] == expected == rankings[i - 3]
            assert rankings[i].item_ids == tuple(items)
            assert np.array_equal(rankings[i].scores, expected.scores)
        assert rankings == Rankings.of([RankingList(*row) for row in lists])
        assert rankings[1:] == [RankingList(*row) for row in lists[1:]]
        with pytest.raises(IndexError):
            rankings[3]

    def test_columns_are_read_only(self):
        rows = np.array([[1, 0]])
        rankings = Rankings(["q"], np.array(["a", "b"]), rows, np.array([[0.5, 0.25]]), [2])
        assert rankings[0].item_ids == ("b", "a")
        with pytest.raises(ValueError):
            rankings.codes[0, 0] = 0
        rows[0, 0] = 0  # the caller's array stays writable
        with pytest.raises(DataError, match="codes"):
            Rankings(["q"], np.array(["a"]), rows + 1, np.zeros((1, 2)), [2])

    def test_restricted_search_round_trips(self, tmp_path):
        g = gmat(unit_rows(rng_for(46), 9, 4), categories=[1, 1, 1, 1, 1, 1, 2, 2, 2])
        # category 1 fills k, category 2 has fewer rows than k, category 3 none
        q = qmat(unit_rows(rng_for(47), 5, 4), categories=[2, 1, 3, 1, 2])
        rankings = knn_search(build_index(g), q, 4, restrict_to_query_category=True)
        assert rankings.lengths.tolist() == [3, 4, 0, 4, 3]
        path = tmp_path / "r.tsv"
        formats.save_rankings(rankings, path)
        loaded = formats.load_rankings(path)
        # a query with no entries writes no lines
        kept = [r for r in rankings if len(r)]
        assert loaded == kept
        for a, b in zip(loaded, kept):
            assert np.array_equal(a.scores, [float(f"{s:.9g}") for s in b.scores.tolist()])
        formats.save_rankings(loaded, tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()


class TestBuildIndex:
    def test_single_row(self):
        idx = build_index(gmat([[1.0, 0.0]]))
        assert len(idx) == 1

    def test_rejects_non_unit(self):
        with pytest.raises(DataError, match="unit"):
            build_index(gmat([[2.0, 0.0]]))

    def test_partition_sizes(self):
        idx = build_index(gmat(np.eye(3), categories=[1, 1, 2]))
        assert len(idx.category_rows(1)) == 2
        assert len(idx.category_rows(2)) == 1
        assert len(idx.category_rows(9)) == 0

    def test_lazy_partition_built_once(self):
        g = gmat(np.eye(3), categories=[1, 2, 1])
        lazy = build_index(g)
        first = lazy.category_rows(1)
        assert lazy.category_rows(1) is first
        assert first.tolist() == np.nonzero(g.category_ids() == 1)[0].tolist()

    def test_index_equals_raw_matrix_search(self):
        rng = rng_for(40)
        g = gmat(unit_rows(rng, 1000, 16))
        q = qmat(unit_rows(rng, 5, 16))
        idx = build_index(g)
        got = knn_search(idx, q, 10)
        for ranking, qrow in zip(got, q.data):
            exp = knn_ref(g.data, [r.item_id for r in g.ids], qrow, 10)
            assert list(ranking.item_ids) == [e[0] for e in exp]


class TestKnnSearch:
    def test_self_match_scores_one(self):
        rng = rng_for(41)
        g = gmat(unit_rows(rng, 20, 8))
        q = EmbeddingMatrix(g.data[3:4], query_ids(1))
        [r] = knn_search(build_index(g), q, 5)
        assert r.item_ids[0] == "g00003"
        assert r.scores[0] == 1.0

    def test_orthogonal_ties_break_by_id(self):
        g = gmat(np.eye(4)[:3])
        q = qmat([[0.0, 0.0, 0.0, 1.0]])
        [r] = knn_search(build_index(g), q, 3)
        assert list(r.item_ids) == ["g00000", "g00001", "g00002"]
        assert np.all(r.scores == 0.0)

    def test_dimension_mismatch(self):
        rng = rng_for(42)
        g = gmat(unit_rows(rng, 4, 8))
        q = qmat(unit_rows(rng, 2, 6))
        with pytest.raises(DataError, match="dim"):
            knn_search(build_index(g), q, 2)

    def test_k_must_be_positive(self):
        g = gmat([[1.0, 0.0]])
        with pytest.raises(ConfigError):
            knn_search(build_index(g), qmat([[1.0, 0.0]]), 0)

    def test_restriction_limits_candidates(self):
        g = gmat(np.eye(4), categories=[1, 1, 2, 2])
        q = qmat([[1.0, 0.0, 0.0, 0.0]], categories=[2])
        [r] = knn_search(build_index(g), q, 4, restrict_to_query_category=True)
        assert set(r.item_ids) == {"g00002", "g00003"}

    def test_restriction_missing_category_empty(self):
        g = gmat(np.eye(2), categories=[1, 1])
        q = qmat([[1.0, 0.0]], categories=[7])
        [r] = knn_search(build_index(g), q, 2, restrict_to_query_category=True)
        assert len(r) == 0

    def test_short_gallery_gives_short_list(self):
        g = gmat(np.eye(3))
        [r] = knn_search(build_index(g), qmat([[1.0, 0.0, 0.0]]), 10)
        assert len(r) == 3

    def test_scores_bounded(self):
        rng = rng_for(43)
        g = gmat(unit_rows(rng, 100, 12))
        q = qmat(unit_rows(rng, 10, 12))
        for r in knn_search(build_index(g), q, 100):
            assert np.all(r.scores <= 1.0) and np.all(r.scores >= -1.0)

    def test_monotone_k_prefix(self):
        rng = rng_for(44)
        g = gmat(unit_rows(rng, 50, 10))
        q = qmat(unit_rows(rng, 4, 10))
        idx = build_index(g)
        small = knn_search(idx, q, 7)
        big = knn_search(idx, q, 8)
        for s, b in zip(small, big):
            assert b.item_ids[:7] == s.item_ids

    def test_planted_neighbor_recovered(self):
        rng = rng_for(46)
        g = gmat(unit_rows(rng, 5000, 32))
        hits = 0
        trials = 200
        for t in range(trials):
            row = int(rng.integers(0, 5000))
            noise = rng.normal(size=32)
            noise *= 0.01 / np.linalg.norm(noise)
            v = g.data[row] + noise
            v /= np.linalg.norm(v)
            q = EmbeddingMatrix(v[None, :], query_ids(1))
            [r] = knn_search(build_index(g), q, 1)
            hits += r.item_ids[0] == f"g{row:05d}"
        assert hits / trials >= 0.99


def named_gallery(data, names, categories=None):
    """Gallery whose item_ids are `names`, so id order need not follow row order."""
    data = np.asarray(data, dtype=float)
    return EmbeddingMatrix(data, [
        IdRecord(item_id=name, image_id="gallery", box_id=name,
                 category_id=1 if categories is None else int(categories[i]),
                 source="gallery")
        for i, name in enumerate(names)
    ])


def oracle_ranking(gallery, query, k, rows=None):
    rows = range(gallery.n_rows) if rows is None else rows
    return knn_ref([gallery.data[r] for r in rows], [gallery.ids[r].item_id for r in rows],
                   query, k)


def assert_matches_oracle(ranking, expected, atol=1e-12):
    assert list(ranking.item_ids) == [e[0] for e in expected]
    assert np.allclose(ranking.scores, [e[1] for e in expected], rtol=0.0, atol=atol)


class TestKernelTies:
    def test_duplicates_straddle_kth(self):
        rng = rng_for(47)
        data = unit_rows(rng, 60, 8)
        planted = [41, 7, 33, 18, 52]
        data[planted] = data[3]
        names = [f"g{i:05d}" for i in rng.permutation(60)]
        gallery = named_gallery(data, names)
        near = data[[3, 3, 3, 3]] + rng.normal(size=(4, 8)) * 1e-3
        q = qmat(near / np.linalg.norm(near, axis=1, keepdims=True))
        idx = build_index(gallery)
        # six identical rows share the top score; k cuts through the group
        for k in (1, 2, 4, 6, 7, 10):
            for ranking, qrow in zip(knn_search(idx, q, k), q.data):
                assert_matches_oracle(ranking, oracle_ranking(gallery, qrow, k))

    def test_orthogonal_ties_straddle_kth(self):
        # the query is aligned with one row, orthogonal to twelve, opposite to two
        eye = np.eye(13)
        data = np.vstack([eye[1:], -eye[[0, 0]], eye[[0]]])
        names = [f"g{n:05d}" for n in (9, 3, 14, 0, 11, 5, 7, 1, 12, 2, 13, 6, 10, 4, 8)]
        gallery = named_gallery(data, names)
        q = qmat(eye[[0]])
        for k in (1, 5, 13, 14, 15, 20):
            [ranking] = knn_search(build_index(gallery), q, k)
            assert_matches_oracle(ranking, oracle_ranking(gallery, q.data[0], k), atol=0.0)


def kernel_outputs(gallery, queries):
    idx = build_index(gallery)
    full = knn_search(idx, queries, gallery.n_rows)
    return (
        knn_search(idx, queries, 10),
        full,
        knn_search(idx, queries, 4, restrict_to_query_category=True),
        k_reciprocal_rerank(queries, gallery, full, RerankParams(k1=8, k2=3, lam=0.3)),
        query_expansion(queries, idx, QeParams(k=5, alpha=1.0)).data,
        database_augmentation(gallery, QeParams(k=5, alpha=2.0, include_self=False)).data,
    )


class TestKernelInvariance:
    def test_block_size(self, monkeypatch):
        rng = rng_for(48)
        cats = rng.integers(0, 3, size=120)
        data = unit_rows(rng, 120, 12)
        data[60:70] = data[5]
        gallery = gmat(data, categories=cats)
        queries = qmat(unit_rows(rng, 23, 12), categories=rng.integers(0, 4, size=23))
        base = kernel_outputs(gallery, queries)
        for block in (1, 7, queries.n_rows + 5):
            monkeypatch.setattr(search, "QUERY_BLOCK", block)
            other = kernel_outputs(gallery, queries)
            for got, ref in zip(other[:4], base[:4]):
                assert got == ref
                assert all(np.array_equal(a.scores, b.scores) for a, b in zip(got, ref))
            assert np.array_equal(other[4], base[4])
            assert np.array_equal(other[5], base[5])

    def test_blas_threads(self):
        script = (
            "from cbirkit.embeddings import EmbeddingMatrix\n"
            "from cbirkit.rerank import QeParams, RerankParams, database_augmentation\n"
            "from cbirkit.rerank import k_reciprocal_rerank\n"
            "from cbirkit.search import build_index, knn_search\n"
            "from util import gallery_ids, query_ids, rng_for, unit_rows\n"
            "rng = rng_for(49)\n"
            "g = EmbeddingMatrix(unit_rows(rng, 3000, 48), gallery_ids(3000))\n"
            "q = EmbeddingMatrix(unit_rows(rng, 700, 48), query_ids(700))\n"
            "g = database_augmentation(g, QeParams(k=5, alpha=1.0))\n"
            "found = knn_search(build_index(g), q, 10)\n"
            "reranked = k_reciprocal_rerank(q, g, found, RerankParams(k1=10, k2=3, lam=0.3))\n"
            "for r in [*found, *reranked]:\n"
            "    print(r.query_id, *r.item_ids, *(s.hex() for s in r.scores.tolist()))\n"
        )
        outputs = [output_under_blas_threads(script, n) for n in (1, 2)]
        assert outputs[0].count(b"\n") == 1400
        assert outputs[0] == outputs[1]


# Unit vectors whose dot products are exact in any summation order: signed
# basis vectors, and four coordinates of +-0.5.  Ties are then exact in the
# kernel and the oracle alike.
@st.composite
def exact_vectors(draw, n, dim):
    rows = []
    for _ in range(n):
        v = np.zeros(dim)
        if draw(st.booleans()):
            v[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([-1.0, 1.0]))
        else:
            cols = draw(st.lists(st.integers(0, dim - 1), min_size=4, max_size=4, unique=True))
            v[cols] = [draw(st.sampled_from([-0.5, 0.5])) for _ in cols]
        rows.append(v)
    return np.array(rows)


@st.composite
def retrieval_cases(draw):
    dim = draw(st.integers(4, 6))
    n_g = draw(st.integers(1, 14))
    n_q = draw(st.integers(1, 5))
    gallery = draw(exact_vectors(n_g, dim))
    queries = draw(exact_vectors(n_q, dim))
    g_cats = draw(st.lists(st.integers(0, 2), min_size=n_g, max_size=n_g))
    q_cats = draw(st.lists(st.integers(0, 3), min_size=n_q, max_size=n_q))
    names = [f"g{i:05d}" for i in draw(st.permutations(range(n_g)))]
    k = draw(st.integers(1, n_g + 3))
    return (named_gallery(gallery, names, g_cats), qmat(queries, q_cats), k)


class TestKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(retrieval_cases(), st.booleans())
    def test_search_matches_oracle(self, case, restrict):
        gallery, queries, k = case
        got = knn_search(build_index(gallery), queries, k, restrict_to_query_category=restrict)
        cats = gallery.category_ids()
        for ranking, rec, qrow in zip(got, queries.ids, queries.data):
            rows = np.flatnonzero(cats == rec.category_id) if restrict else None
            expected = oracle_ranking(gallery, qrow, k, rows)
            assert ranking.query_id == rec.item_id
            assert list(ranking.item_ids) == [e[0] for e in expected]
            assert np.array_equal(ranking.scores, [e[1] for e in expected])

    @settings(max_examples=100, deadline=None)
    @given(retrieval_cases(), st.sampled_from([0.0, 1.0, 2.0]))
    def test_dba_without_self_matches_oracle(self, case, alpha):
        gallery, _, k = case
        params = QeParams(k=k, alpha=alpha, include_self=False)
        expected = []
        for i in range(gallery.n_rows):
            others = [r for r in range(gallery.n_rows) if r != i]
            top = oracle_ranking(gallery, gallery.data[i], k, others)
            rows = [gallery.row_of(item) for item, _ in top]
            acc = gallery.data[i] + sum(
                (max(s, 0.0) ** alpha) * gallery.data[r] for r, (_, s) in zip(rows, top))
            if not np.any(acc):
                with pytest.raises(DataError, match="zero vector"):
                    database_augmentation(gallery, params)
                return
            expected.append(expand_ref(gallery.data[i], [gallery.data[r] for r in rows],
                                       [s for _, s in top], alpha))
        out = database_augmentation(gallery, params)
        assert np.abs(out.data - np.array(expected)).max() <= 1e-12
