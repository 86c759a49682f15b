import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbirkit import io as formats
from cbirkit import search
from cbirkit.embeddings import EmbeddingMatrix, IdRecord
from cbirkit.errors import ConfigError, DataError, ParseError
from cbirkit.rerank import (QeParams, RerankParams, database_augmentation, k_reciprocal_rerank,
                            query_expansion)
from cbirkit.search import RankingList, Rankings, build_index, knn_search

from oracles import expand_ref, knn_ref
from util import (gallery_ids, output_under_blas_threads, query_ids, ranking_rows, rng_for,
                  unit_rows)


def gmat(data, categories=None):
    data = np.asarray(data, dtype=float)
    return EmbeddingMatrix(data, gallery_ids(data.shape[0], categories))


def qmat(data, categories=None):
    data = np.asarray(data, dtype=float)
    return EmbeddingMatrix(data, query_ids(data.shape[0], categories))


class TestRankingList:
    """One query's ranking row: what `from_entries` rejects in it."""

    def test_rejects_increasing_scores(self):
        with pytest.raises(DataError, match="^ranking for 'q': scores increase$"):
            Rankings.from_entries(["q"], [0, 0], ["a", "b"], [0.1, 0.9])

    def test_rejects_duplicates(self):
        with pytest.raises(DataError, match="^ranking for 'q': duplicate gallery ids$"):
            Rankings.from_entries(["q"], [0, 0], ["a", "a"], [0.9, 0.1])


class TestFromFlat:
    """`Rankings.from_entries`: rankings built from flat entry columns."""

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError,
                           match="^rankings need one row, item id and score per entry$"):
            Rankings.from_entries(["q"], [0, 0, 0], ["a", "b"], [0.1, 0.0])

    @pytest.mark.parametrize("rows, items, scores, fault", [
        ([0, 1, 2], ["a", "b", "c"], [0.5, 0.9, 0.1], "ranking rows must lie in [0, 2)"),
        ([0, 1, 1], ["a", "b", "c"], [0.5, 0.9],
         "rankings need one row, item id and score per entry"),
        ([0, 1], ["a", "b", "c"], [0.5, 0.9, 0.1],
         "rankings need one row, item id and score per entry"),
        ([-1, 1], ["a", "b"], [0.5, 0.9], "ranking rows must lie in [0, 2)"),
    ], ids=["overrun", "few-scores", "leftover", "negative"])
    def test_rejects_bad_rows_and_shapes(self, rows, items, scores, fault):
        with pytest.raises(DataError) as e:
            Rankings.from_entries(["q", "r"], rows, items, scores)
        assert str(e.value) == fault

    @pytest.mark.parametrize("rows, value", [
        ([0.7, True], "0.7"), ([0, True], "True"), ([np.float64(1.0), 0], "np.float64(1.0)"),
        (["0", 1], "'0'"), ([0, np.bool_(True)], "np.True_"), (np.array([0.0, 1.0]), "0.0"),
    ], ids=["float", "bool", "numpy-float", "string", "numpy-bool", "float-array"])
    def test_rejects_rows_that_are_not_integers(self, rows, value):
        # a cast would truncate 0.7 and True to rows 0 and 1
        with pytest.raises(DataError) as e:
            Rankings.from_entries(["q", "r"], rows, ["a", "b"], [0.5, 0.4])
        assert str(e.value) == f"rows: {value} is not an integer"
        for ints in ([0, 1], [np.int64(0), np.uint8(1)], np.array([0, 1], np.int32)):
            assert ranking_rows(Rankings.from_entries(["q", "r"], ints, ["a", "b"],
                                                      [0.5, 0.4])) == [
                ("q", ("a",), [0.5]), ("r", ("b",), [0.4])]

    @pytest.mark.parametrize("rows, items, scores, fault", [
        ([0, 1, 1], ["a", "b", "c"], [0.5, 0.1, 0.9], "'r': scores increase"),
        ([0, 1, 1], ["a", "b", "b"], [0.5, 0.9, 0.1], "'r': duplicate gallery ids"),
        ([0, 1, 1], ["a", "b", "c"], [0.5, 0.9, math.nan], "'r': a score is not finite"),
        ([1, 0, 1, 0], ["a", "a", "b", "b"], [0.5, 0.5, 0.9, 0.1],
         "'r': scores increase"),
        ([1, 0, 0, 1], ["a", "a", "a", "b"], [0.5, 0.5, 0.1, 0.9],
         "'q': duplicate gallery ids"),
    ], ids=["rise", "repeat", "nan", "interleaved-rise", "interleaved-repeat"])
    def test_names_the_faulty_query(self, rows, items, scores, fault):
        # a score may rise and an id recur across rows, not within one
        with pytest.raises(DataError) as e:
            Rankings.from_entries(["q", "r"], rows, items, scores)
        assert str(e.value) == f"ranking for {fault}"

    def test_names_the_query_of_the_earliest_bad_entry(self):
        # r's scores rise in entry 2, q repeats an id in entry 3 and s's
        # scores rise in entry 5; rows interleave, so r's entry comes first
        with pytest.raises(DataError) as e:
            Rankings.from_entries(["q", "r", "s"], [0, 1, 1, 0, 2, 2],
                                  ["a", "a", "b", "a", "c", "d"],
                                  [0.9, 0.5, 0.7, 0.8, 0.1, 0.9])
        assert str(e.value) == "ranking for 'r': scores increase"
        assert e.value.entry == 2

    def test_interleaved_entries_fill_rows_in_entry_order(self):
        rankings = Rankings.from_entries(["q", "r", "s"], [1, 0, 1, 1, 0],
                                         ["c", "a", "a", "b", "c"],
                                         [0.9, 0.8, 0.7, -0.5, 0.25])
        assert ranking_rows(rankings) == [("q", ("a", "c"), [0.8, 0.25]),
                                          ("r", ("c", "a", "b"), [0.9, 0.7, -0.5]),
                                          ("s", (), [])]
        assert rankings.item_table.tolist() == ["a", "b", "c"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                                       st.sampled_from([1.0, 0.5, -0.5, math.inf, math.nan])),
                             min_size=1, max_size=4), max_size=4), st.randoms())
    def test_accepts_what_the_loader_accepts(self, rows, random):
        # the rows' entries, interleaved at random, each row's in its order
        owners = [i for i, r in enumerate(rows) for _ in r]
        random.shuffle(owners)
        queues = [iter(enumerate(r, start=1)) for r in rows]
        entries = [(i, *next(queues[i])) for i in owners]
        # the loader lists the queries in the order they first appear
        first = list(dict.fromkeys(owners))
        try:
            built = Rankings.from_entries([f"q{i}" for i in first],
                                          [first.index(i) for i in owners],
                                          [item for _, _, (item, _) in entries],
                                          [score for _, _, (_, score) in entries])
        except DataError:
            built = None
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.tsv"
            path.write_text("".join(f"q{i}\t{rank}\t{item}\t{score!r}\n"
                                    for i, rank, (item, score) in entries))
            try:
                loaded = formats.load_rankings(path)
            except ParseError:
                loaded = None
        assert (built is None) == (loaded is None)
        assert built is None or ranking_rows(built) == ranking_rows(loaded)


class TestRankings:
    def test_row_view_equals_ranking_list(self):
        lists = [("q0", ["g2", "g0", "g1"], [0.9, 0.5, -0.25]), ("q1", [], []),
                 ("q2", ["g1\x00"], [0.125])]
        rankings = Rankings.from_entries([q for q, _, _ in lists],
                                         [row for row, (_, items, _) in enumerate(lists)
                                          for _ in items],
                                         [i for _, items, _ in lists for i in items],
                                         [s for _, _, scores in lists for s in scores])
        assert len(rankings) == 3
        for i, (query_id, items, scores) in enumerate(lists):
            expected = RankingList(query_id, items, scores)
            assert rankings[i] == expected == rankings[i - 3]
            assert rankings[i].item_ids == tuple(items)
            assert np.array_equal(rankings[i].scores, expected.scores)
        assert ranking_rows(rankings) == [(q, tuple(items), scores) for q, items, scores in lists]
        with pytest.raises(IndexError):
            rankings[3]
        # columns only: no slice, no iteration
        with pytest.raises(TypeError):
            rankings[1:]
        with pytest.raises(TypeError):
            iter(rankings)

    def test_columns_are_read_only(self):
        rows = np.array([[1, 0]])
        rankings = Rankings(["q"], np.array(["a", "b"]), rows, np.array([[0.5, 0.25]]), [2])
        assert rankings[0].item_ids == ("b", "a")
        with pytest.raises(ValueError):
            rankings.codes[0, 0] = 0
        rows[0, 0] = 0  # the caller's array stays writable
        with pytest.raises(DataError, match="codes"):
            Rankings(["q"], np.array(["a"]), rows + 1, np.zeros((1, 2)), [2])

    @pytest.mark.parametrize("codes", [np.array([[1.0, 0.0]]), np.array([[True, False]])],
                             ids=["float", "bool"])
    def test_rejects_codes_that_are_not_integers(self, codes):
        # a float code once built and then raised IndexError on rankings[0]
        with pytest.raises(DataError, match="ranking codes must be integers"):
            Rankings(["q"], np.array(["a", "b"]), codes, np.array([[0.5, 0.25]]), [2])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_scores_within_a_row(self, tmp_path, bad):
        # a NaN score once built and was saved as "nan", which load_rankings rejects
        table, codes = np.array(["a", "b", "c"]), np.array([[0, 1, 2], [2, 1, 0]])
        with pytest.raises(DataError, match="^ranking for 'r': a score is not finite$"):
            Rankings(["q", "r"], table, codes, np.array([[0.5, 0.25, 0], [0.5, bad, 0]]), [3, 2])
        # padding past a row's length is not read, so it goes unchecked
        padded = Rankings(["q", "r"], table, codes, np.array([[0.5, 0.25, 0], [0.5, 0.25, bad]]),
                          [3, 2])
        formats.save_rankings(padded, tmp_path / "r.tsv")
        assert ranking_rows(formats.load_rankings(tmp_path / "r.tsv")) == ranking_rows(padded)

    def test_restricted_search_round_trips(self, tmp_path):
        g = gmat(unit_rows(rng_for(46), 9, 4), categories=[1, 1, 1, 1, 1, 1, 2, 2, 2])
        # category 1 fills k, category 2 has fewer rows than k, category 3 none
        q = qmat(unit_rows(rng_for(47), 5, 4), categories=[2, 1, 3, 1, 2])
        rankings = knn_search(build_index(g), q, 4, restrict_to_query_category=True)
        assert rankings.lengths.tolist() == [3, 4, 0, 4, 3]
        path = tmp_path / "r.tsv"
        formats.save_rankings(rankings, path)
        loaded = formats.load_rankings(path)
        # a query with no entries writes no lines; scores keep 9 digits
        assert ranking_rows(loaded) == [(q, items, [float(f"{s:.9g}") for s in scores])
                                        for q, items, scores in ranking_rows(rankings) if items]
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
        for ranking, qrow in zip(ranking_rows(got), q.data):
            exp = knn_ref(g.data, [r.item_id for r in g.ids], qrow, 10)
            assert list(ranking.item_ids) == [e[0] for e in exp]


class TestKnnSearch:
    def test_self_match_scores_one(self):
        rng = rng_for(41)
        g = gmat(unit_rows(rng, 20, 8))
        q = EmbeddingMatrix(g.data[3:4], query_ids(1))
        [r] = ranking_rows(knn_search(build_index(g), q, 5))
        assert r.item_ids[0] == "g00003"
        assert r.scores[0] == 1.0

    def test_orthogonal_ties_break_by_id(self):
        g = gmat(np.eye(4)[:3])
        q = qmat([[0.0, 0.0, 0.0, 1.0]])
        [r] = ranking_rows(knn_search(build_index(g), q, 3))
        assert list(r.item_ids) == ["g00000", "g00001", "g00002"]
        assert r.scores == [0.0, 0.0, 0.0]

    def test_dimension_mismatch(self):
        rng = rng_for(42)
        g = gmat(unit_rows(rng, 4, 8))
        q = qmat(unit_rows(rng, 2, 6))
        with pytest.raises(DataError, match="dim"):
            knn_search(build_index(g), q, 2)

    @pytest.mark.parametrize("k", [2.5, True, np.float64(2.0)])
    def test_k_must_be_an_integer(self, k):
        index, q = build_index(gmat(np.eye(3))), qmat([[1.0, 0.0, 0.0]])
        with pytest.raises(ConfigError) as e:
            knn_search(index, q, k)
        assert str(e.value) == f"k must be an integer, got {k!r}"
        assert knn_search(index, q, np.int64(2)).codes.shape == (1, 2)

    def test_k_must_be_positive(self):
        g = gmat([[1.0, 0.0]])
        with pytest.raises(ConfigError):
            knn_search(build_index(g), qmat([[1.0, 0.0]]), 0)

    def test_restriction_limits_candidates(self):
        g = gmat(np.eye(4), categories=[1, 1, 2, 2])
        q = qmat([[1.0, 0.0, 0.0, 0.0]], categories=[2])
        [r] = ranking_rows(knn_search(build_index(g), q, 4, restrict_to_query_category=True))
        assert set(r.item_ids) == {"g00002", "g00003"}

    def test_restriction_missing_category_empty(self):
        g = gmat(np.eye(2), categories=[1, 1])
        q = qmat([[1.0, 0.0]], categories=[7])
        [r] = ranking_rows(knn_search(build_index(g), q, 2, restrict_to_query_category=True))
        assert r.item_ids == ()

    def test_restriction_imports_no_masked_arrays(self):
        # np.unique imports numpy.ma, about 1 MB of module objects, on its
        # first call; a fresh process shows whether the search makes one
        script = (
            "import sys\n"
            "from cbirkit.embeddings import EmbeddingMatrix\n"
            "from cbirkit.search import build_index, knn_search\n"
            "from util import gallery_ids, query_ids, rng_for, unit_rows\n"
            "rng = rng_for(50)\n"
            "g = EmbeddingMatrix(unit_rows(rng, 40, 8), gallery_ids(40, rng.integers(0, 3, 40)))\n"
            "q = EmbeddingMatrix(unit_rows(rng, 9, 8), query_ids(9, rng.integers(0, 4, 9)))\n"
            "found = knn_search(build_index(g), q, 5, restrict_to_query_category=True)\n"
            "print(len(found), 'numpy.ma' in sys.modules)\n"
        )
        assert output_under_blas_threads(script, 1) == b"9 False\n"

    def test_short_gallery_gives_short_list(self):
        g = gmat(np.eye(3))
        [r] = ranking_rows(knn_search(build_index(g), qmat([[1.0, 0.0, 0.0]]), 10))
        assert len(r.item_ids) == 3

    def test_scores_bounded(self):
        rng = rng_for(43)
        g = gmat(unit_rows(rng, 100, 12))
        q = qmat(unit_rows(rng, 10, 12))
        for r in ranking_rows(knn_search(build_index(g), q, 100)):
            assert max(r.scores) <= 1.0 and min(r.scores) >= -1.0

    def test_monotone_k_prefix(self):
        rng = rng_for(44)
        g = gmat(unit_rows(rng, 50, 10))
        q = qmat(unit_rows(rng, 4, 10))
        idx = build_index(g)
        small = knn_search(idx, q, 7)
        big = knn_search(idx, q, 8)
        for s, b in zip(ranking_rows(small), ranking_rows(big)):
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
            [r] = ranking_rows(knn_search(build_index(g), q, 1))
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
            for ranking, qrow in zip(ranking_rows(knn_search(idx, q, k)), q.data):
                assert_matches_oracle(ranking, oracle_ranking(gallery, qrow, k))

    def test_orthogonal_ties_straddle_kth(self):
        # the query is aligned with one row, orthogonal to twelve, opposite to two
        eye = np.eye(13)
        data = np.vstack([eye[1:], -eye[[0, 0]], eye[[0]]])
        names = [f"g{n:05d}" for n in (9, 3, 14, 0, 11, 5, 7, 1, 12, 2, 13, 6, 10, 4, 8)]
        gallery = named_gallery(data, names)
        q = qmat(eye[[0]])
        for k in (1, 5, 13, 14, 15, 20):
            [ranking] = ranking_rows(knn_search(build_index(gallery), q, k))
            assert_matches_oracle(ranking, oracle_ranking(gallery, q.data[0], k), atol=0.0)

    def test_nudged_copies_straddle_kth(self):
        # a row and eight copies nudged by -4..4 ulps per coordinate score
        # within a few ulps of each other, where GEMM and exact rounding
        # disagree on their order; every k must cut the full exact ranking
        rng = rng_for(52)
        for dim in (5, 12, 32):
            row = unit_rows(rng, 1, dim)[0]
            data = np.vstack([row + s * np.spacing(row) for s in range(-4, 5)]
                             + [unit_rows(rng, 6, dim)])
            gallery = named_gallery(data, [f"g{n:05d}" for n in rng.permutation(15)])
            q = qmat(np.vstack([data[[4, 0, 8]], unit_rows(rng, 3, dim)]))
            idx = build_index(gallery)
            full = knn_search(idx, q, 15)
            for k in range(1, 15):
                # the reprs tell apart every float bit pattern
                assert repr(ranking_rows(knn_search(idx, q, k))) == repr(ranking_rows(full, k))

    def test_ties_at_the_clip_bounds(self):
        # rows within the 1e-5 norm tolerance score past +-1 before the clip
        # and tie at +-1 after it; k cuts through both groups
        eye = np.eye(4)
        scales = [[1 + 8e-6], [1.0], [1 + 4e-6]]
        data = np.vstack([eye[[0, 0, 0]] * scales, eye[1:3], -eye[[0, 0, 0]] * scales])
        q = qmat(eye[[0]])
        rng = rng_for(50)
        for _ in range(8):
            gallery = named_gallery(data, [f"g{n:05d}" for n in rng.permutation(8)])
            for k in range(1, 9):
                [ranking] = ranking_rows(knn_search(build_index(gallery), q, k))
                assert_matches_oracle(ranking, oracle_ranking(gallery, q.data[0], k), atol=0.0)


def kernel_outputs(gallery, queries):
    idx = build_index(gallery)
    full = knn_search(idx, queries, gallery.n_rows)
    return (
        knn_search(idx, queries, 10),
        full,
        knn_search(idx, queries, 4, restrict_to_query_category=True),
        k_reciprocal_rerank(queries, gallery, full, RerankParams(k1=8, k2=3, lam=0.3)),
        query_expansion(queries, gallery, QeParams(k=5, alpha=1.0)).data,
        database_augmentation(gallery, QeParams(k=5, alpha=2.0, include_self=False)).data,
    )


class TestKernelMemory:
    def test_all_tied_gallery_stays_per_block(self):
        # every candidate of an all-tied gallery survives the filter; scoring
        # them by gathering both sides whole would hold 2 x dim floats per
        # (query, candidate) pair of a block, 512 bytes at 32-d
        rng = rng_for(51)
        m, dim = 2000, 32
        data = np.repeat(unit_rows(rng, 1, dim), m, axis=0)
        queries = unit_rows(rng, search.QUERY_BLOCK + 44, dim)
        tracemalloc.start()
        try:
            rows, scores = search.exact_topk(data, np.arange(m), queries, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.tolist() == [list(range(10))] * queries.shape[0]
        assert peak < 12 * 8 * search.QUERY_BLOCK * m

    def test_tied_gallery_peak_within_twice_distinct(self, monkeypatch):
        # a tied gallery's survivors are verified a slice of rows at a time,
        # so they hold about what the GEMM scores of distinct rows hold
        rng = rng_for(52)
        m, dim = 2000, 32
        queries = unit_rows(rng, 300, dim)
        tied = np.repeat(unit_rows(rng, 1, dim), m, axis=0)

        def traced(data):
            tracemalloc.start()
            try:
                out = search.exact_topk(data, np.arange(m), queries, 10)
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (rows, scores), tied_peak = traced(tied)
        _, distinct_peak = traced(unit_rows(rng, m, dim))
        assert tied_peak < 2 * distinct_peak
        monkeypatch.setattr(search, "_SURVIVOR_SHARE", 1)  # every block in one pass
        whole = search.exact_topk(tied, np.arange(m), queries, 10)
        assert np.array_equal(rows, whole[0]) and np.array_equal(scores, whole[1])

    def test_sliced_verification_matches_one_pass(self, monkeypatch):
        # queries near a vector that half the gallery repeats keep that half
        # as survivors; the others keep about k, so the slices differ
        rng = rng_for(53)
        m, dim = 400, 16
        data = unit_rows(rng, m, dim)
        data[::2] = data[0]
        near = data[0] + 0.05 * rng.normal(size=(60, dim))
        queries = np.vstack([near / np.linalg.norm(near, axis=1, keepdims=True),
                             unit_rows(rng, 60, dim)])[rng.permutation(120)]
        tie_rank = rng.permutation(m)
        calls, verify = [], search._verify
        monkeypatch.setattr(search, "_verify", lambda *a: calls.append(1) or verify(*a))
        sliced = search.exact_topk(data, tie_rank, queries, 7)
        assert len(calls) == 8  # one block of 120 rows, in slices of 15
        calls.clear()
        monkeypatch.setattr(search, "_SURVIVOR_SHARE", 1)
        whole = search.exact_topk(data, tie_rank, queries, 7)
        assert len(calls) == 1
        assert np.array_equal(sliced[0], whole[0]) and np.array_equal(sliced[1], whole[1])
        for query, rows, scores in zip(queries, *sliced):
            ref = knn_ref(data, tie_rank, query, 7)
            assert tie_rank[rows].tolist() == [rank for rank, _ in ref]
            assert scores.tolist() == pytest.approx([s for _, s in ref], abs=1e-12)


class TestFloat32Filter:
    def test_nudged_copies_need_the_float32_slack(self, monkeypatch):
        # copies of one row nudged by about 1e-7 per coordinate have cosines
        # about as far apart as a float32 GEMM's rounding, which may order
        # them either way; with the float64 bound d = dim eps in place of the
        # float32 one, the filter drops members of the exact top k
        rng = rng_for(54)
        cases = []
        for dim in (8, 32, 96):
            base = unit_rows(rng, 1, dim)[0]
            near = base + 1e-7 * rng.normal(size=(60, dim))
            data = np.vstack([near / np.linalg.norm(near, axis=1, keepdims=True),
                              unit_rows(rng, 40, dim)])
            queries = base + 0.3 * rng.normal(size=(20, dim))
            queries /= np.linalg.norm(queries, axis=1, keepdims=True)
            tie_rank = rng.permutation(data.shape[0])
            # at k = m every candidate survives whatever the slack
            full = search.exact_topk(data, tie_rank, queries, data.shape[0])
            cases.append((data, tie_rank, queries, full))

        def dropped():
            for data, tie_rank, queries, (rows, scores) in cases:
                for k in range(1, 30, 2):
                    got = search.exact_topk(data, tie_rank, queries, k)
                    yield not (np.array_equal(got[0], rows[:, :k])
                               and np.array_equal(got[1], scores[:, :k]))

        assert not any(dropped())
        monkeypatch.setattr(search, "gemm_error", lambda dim: dim * np.finfo(np.float64).eps)
        assert any(dropped())


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
                assert ranking_rows(got) == ranking_rows(ref)
            assert np.array_equal(other[4], base[4])
            assert np.array_equal(other[5], base[5])

    def test_blas_threads(self):
        script = (
            "from cbirkit.embeddings import EmbeddingMatrix\n"
            "from cbirkit.rerank import QeParams, RerankParams, database_augmentation\n"
            "from cbirkit.rerank import k_reciprocal_rerank, query_expansion\n"
            "from cbirkit.search import build_index, knn_search\n"
            "from util import gallery_ids, query_ids, ranking_rows, rng_for, unit_rows\n"
            "rng = rng_for(49)\n"
            "g = EmbeddingMatrix(unit_rows(rng, 3000, 48),\n"
            "                    gallery_ids(3000, rng.integers(0, 12, size=3000)))\n"
            "q = EmbeddingMatrix(unit_rows(rng, 700, 48),\n"
            "                    query_ids(700, rng.integers(0, 12, size=700)))\n"
            "g = database_augmentation(g, QeParams(k=5, alpha=1.0))\n"
            "index = build_index(g)\n"
            "found = knn_search(index, q, 10)\n"
            "# twelve categories of about 250 gallery rows each\n"
            "restricted = knn_search(index, q, 10, restrict_to_query_category=True)\n"
            "params = RerankParams(k1=10, k2=3, lam=0.3)\n"
            "reranked = k_reciprocal_rerank(q, g, found, params)\n"
            "top = k_reciprocal_rerank(q, g, None, params, k=10)\n"
            "for rankings in (found, restricted, reranked, top):\n"
            "  for r in ranking_rows(rankings):\n"
            "    print(r.query_id, *r.item_ids, *(s.hex() for s in r.scores))\n"
            "for row in query_expansion(q, g, QeParams(k=5, alpha=1.0)).data:\n"
            "    print(row.tobytes().hex())\n"
        )
        outputs = [output_under_blas_threads(script, n) for n in (1, 2)]
        assert outputs[0].count(b"\n") == 3500
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


@st.composite
def tiled_cases(draw):
    """A gallery sized against the kernel's tile width max(1, m // 4k):
    m < 4k makes it 1, and most other sizes leave a shorter last tile.  Rows
    copied onto others put exact ties in different tiles; a second gallery
    also holds copies nudged by 1 to 4 ulps per coordinate, whose GEMM and
    exact scores may order them differently.  Some queries are gallery
    rows, so the ties reach the top score."""
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, 12 * k + 5))
    dim = draw(st.integers(3, 12))
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    data = unit_rows(rng, m, dim)
    pairs = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    for dst, src in draw(st.lists(pairs, max_size=6)):
        data[dst] = data[src]
    nudged = data.copy()
    steps = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])
    for (dst, src), step in draw(st.lists(st.tuples(pairs, steps), max_size=4)):
        nudged[dst] = data[src] + step * np.spacing(data[src])
    queries = unit_rows(rng, draw(st.integers(1, 4)), dim)
    for i, src in enumerate(draw(st.lists(st.integers(0, m - 1), max_size=queries.shape[0]))):
        queries[i] = data[src]
    names = [f"g{i:05d}" for i in draw(st.permutations(range(m)))]
    return data, nudged, names, qmat(queries), k


class TestKernelProperties:
    @settings(max_examples=200, deadline=None)
    @given(tiled_cases())
    def test_tile_bound_matches_oracle_and_full_ranking(self, case):
        data, nudged, names, queries, k = case
        for rows in (data, nudged):
            gallery = named_gallery(rows, names)
            idx = build_index(gallery)
            got = knn_search(idx, queries, k)
            full = knn_search(idx, queries, gallery.n_rows)
            assert repr(ranking_rows(got)) == repr(ranking_rows(full, k))
            for ranking, qrow in zip(ranking_rows(got), queries.data):
                expected = oracle_ranking(gallery, qrow, gallery.n_rows)
                if rows is data:
                    assert_matches_oracle(ranking, expected[:k])
                    continue
                # the oracle's own dot products may order a nudged copy and
                # its source either way: compare scores rank by rank, and
                # require every clearly better item
                assert np.allclose(ranking.scores, [s for _, s in expected[:k]],
                                   rtol=0.0, atol=1e-12)
                last = expected[len(ranking.item_ids) - 1][1]
                assert {i for i, s in expected if s > last + 1e-12} <= set(ranking.item_ids)

    @settings(max_examples=150, deadline=None)
    @given(retrieval_cases(), st.booleans())
    def test_search_matches_oracle(self, case, restrict):
        gallery, queries, k = case
        got = knn_search(build_index(gallery), queries, k, restrict_to_query_category=restrict)
        cats = gallery.category_ids()
        for ranking, rec, qrow in zip(ranking_rows(got), queries.ids, queries.data):
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
            rows = [gallery.item_ids.tolist().index(item) for item, _ in top]
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
