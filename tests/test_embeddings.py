import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbirkit import embeddings
from cbirkit.embeddings import (
    SOURCES,
    EmbeddingMatrix,
    IdRecord,
    concat_features,
    l2_normalize,
    pca_fit,
    pca_transform,
)
from cbirkit.errors import DataError

from util import gallery_ids, rng_for, unit_rows


def matrix(data, prefix="g"):
    data = np.asarray(data, dtype=float)
    return EmbeddingMatrix(data, gallery_ids(data.shape[0], prefix=prefix))


class TestEmbeddingMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="row 1"):
            matrix([[1.0, 0.0], [np.nan, 1.0]])

    def test_rejects_duplicate_ids(self):
        ids = gallery_ids(2)
        with pytest.raises(DataError, match="duplicate"):
            EmbeddingMatrix(np.eye(2), [ids[0], ids[0]])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            EmbeddingMatrix(np.empty((0, 3)), [])

    def test_data_is_immutable(self):
        m = matrix(np.eye(3))
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0

    def test_split_by_source(self):
        ids = [
            IdRecord("q0", "img0", "b0", 1, "query"),
            IdRecord("g0", "gallery", "g0", 1, "gallery"),
            IdRecord("q1", "img1", "b0", 1, "query"),
        ]
        m = EmbeddingMatrix(np.eye(3), ids)
        q, g = m.split_by_source()
        assert [r.item_id for r in q.ids] == ["q0", "q1"]
        assert [r.item_id for r in g.ids] == ["g0"]
        assert np.array_equal(q.data, np.eye(3)[[0, 2]]) and np.array_equal(g.data, np.eye(3)[[1]])
        with pytest.raises(ValueError):
            q.data[0, 0] = 5.0

    def test_split_copies_each_side_once(self):
        # the multishot workload's 208 queries and 1,640 gallery rows: each
        # side's rows were copied twice and checked again, peaking at about
        # twice the output
        n, rng = 1848, rng_for(87)
        m = EmbeddingMatrix.from_columns(
            rng.normal(size=(n, 32)), [f"i{k:04d}" for k in range(n)], ["img"] * n, ["b"] * n,
            [1] * n, ["query" if k % 9 == 0 else "gallery" for k in range(n)])
        tracemalloc.start()
        try:
            sides = m.split_by_source()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = sum(column.nbytes for side in sides
                  for column in (side.data, side.id_rank, *side._columns))
        assert peak < 1.1 * out


def columns_of(records):
    """The id columns of records, one list per IdRecord field."""
    return [[getattr(r, f.name) for r in records] for f in dataclasses.fields(IdRecord)]


def assert_same_matrix(m, expected):
    assert np.array_equal(m.data, expected.data)
    assert m.ids == expected.ids
    assert m.item_ids.tolist() == expected.item_ids.tolist()
    assert m.id_rank.tolist() == expected.id_rank.tolist()
    assert m.category_ids().tolist() == expected.category_ids().tolist()


# non-ASCII and NUL-bearing ids, so that id order is by code point and ids round-trip
ODD_IDS = st.text(max_size=3) | st.sampled_from(["a", "a\x00b", "é", "图", "\U0001f600", "i\x00"])


@st.composite
def id_tables(draw):
    item_ids = draw(st.lists(ODD_IDS.filter(lambda s: not s.endswith("\x00")
                                            and "\t" not in s and "\n" not in s),
                             min_size=1, max_size=8, unique=True))
    return [IdRecord(item_id, draw(ODD_IDS), draw(ODD_IDS),
                     draw(st.integers(0, 2 ** 63 - 1)), draw(st.sampled_from(SOURCES)))
            for item_id in item_ids]


class TestIdColumns:
    @settings(max_examples=200, deadline=None)
    @given(id_tables())
    def test_constructors_and_derived_matrices_agree(self, records):
        data = np.arange(2.0 * len(records)).reshape(-1, 2)
        by_records = EmbeddingMatrix(data, records)
        by_columns = EmbeddingMatrix.from_columns(data, *columns_of(records))
        assert_same_matrix(by_columns, by_records)
        item_ids = [r.item_id for r in records]
        assert by_records.ids == tuple(records)
        assert by_records.item_ids.tolist() == item_ids
        assert by_records.id_rank.tolist() == [sorted(item_ids).index(i) for i in item_ids]
        assert_same_matrix(by_columns.with_data(data + 1), EmbeddingMatrix(data + 1, records))
        sides = [[i for i, r in enumerate(records) if r.source == s] for s in SOURCES]
        if all(sides):
            for side, expected in zip(by_columns.split_by_source(), sides):
                assert_same_matrix(side, EmbeddingMatrix(data[expected],
                                                         [records[i] for i in expected]))

    # (changes to the second of two good records, message)
    RULES = [
        ({"source": "both"}, "source 'both' must be one of ('query', 'gallery')"),
        ({"category_id": -1}, "category_id -1 must be a non-negative integer"),
        ({"category_id": True}, "category_id True must be a non-negative integer"),
        ({"category_id": 1.0}, "category_id 1.0 must be a non-negative integer"),
        ({"category_id": np.int64(3)}, f"category_id {np.int64(3)!r} must be a non-negative integer"),
        ({"category_id": 2 ** 63}, "category_id 9223372036854775808 out of range"),
        ({"item_id": 5}, "item_id 5 must be a string"),
        ({"image_id": None}, "image_id None must be a string"),
        ({"box_id": b"b"}, "box_id b'b' must be a string"),
        ({"item_id": "a\x00"}, "item_id 'a\\x00' ends in NUL"),
        ({"item_id": "g\t1"}, "item_id 'g\\t1' holds a tab, newline or lone surrogate"),
        ({"item_id": "g\n1"}, "item_id 'g\\n1' holds a tab, newline or lone surrogate"),
        ({"item_id": "g\ud800"}, "item_id 'g\\ud800' holds a tab, newline or lone surrogate"),
        ({"item_id": "a"}, "duplicate item_id 'a'"),
    ]

    @pytest.mark.parametrize("changes, message", RULES, ids=[m for _, m in RULES])
    def test_every_rule_has_one_message(self, changes, message):
        good = [IdRecord("a", "i", "b", 1, "query"), IdRecord("c", "j", "d", 2, "gallery")]
        records = [good[0], dataclasses.replace(good[1], **changes)]
        for build in (lambda: EmbeddingMatrix(np.eye(2), records),
                      lambda: EmbeddingMatrix.from_columns(np.eye(2), *columns_of(records))):
            with pytest.raises(DataError) as e:
                build()
            assert str(e.value) == message

    def test_derived_matrices_check_no_ids(self, monkeypatch):
        m = EmbeddingMatrix(np.eye(3), [IdRecord("q0", "img0", "b0", 1, "query"),
                                        IdRecord("g0", "gallery", "g0", 1, "gallery"),
                                        IdRecord("q1", "img1", "b0", 2, "query")])

        def checked(*columns):
            raise AssertionError("ids checked again")
        monkeypatch.setattr(embeddings, "_id_fault", checked)
        assert m.with_data(m.data * 2).ids == m.ids
        queries, gallery = m.split_by_source()
        assert [r.item_id for r in queries.ids] == ["q0", "q1"]
        assert concat_features([queries, l2_normalize(queries.with_data(queries.data + 1))]).ids \
            == queries.ids


class TestL2Normalize:
    def test_three_four_five(self):
        m = l2_normalize(matrix([[3.0, 4.0]]))
        assert m.data[0] == pytest.approx([0.6, 0.8], abs=1e-12)

    def test_idempotent_on_unit_rows(self):
        rng = rng_for(20)
        m = matrix(unit_rows(rng, 10, 6))
        again = l2_normalize(m)
        assert np.abs(again.data - m.data).max() <= 1e-7

    def test_random_rows_become_unit(self):
        rng = rng_for(21)
        m = l2_normalize(matrix(rng.normal(size=(50, 8)) * 3.0))
        norms = np.linalg.norm(m.data, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-6

    def test_zero_row_names_item(self):
        data = np.ones((3, 4))
        data[1] = 0.0
        with pytest.raises(DataError, match="g00001"):
            l2_normalize(matrix(data))


class TestConcatFeatures:
    def test_single_part_identity(self):
        rng = rng_for(22)
        m = matrix(unit_rows(rng, 4, 5))
        assert concat_features([m]) is m

    def test_requires_normalized_parts(self):
        m = matrix(np.full((2, 2), 3.0))
        with pytest.raises(DataError, match="not L2-normalized"):
            concat_features([m, m])

    def test_mismatched_ids_reported(self):
        rng = rng_for(23)
        a = EmbeddingMatrix(unit_rows(rng, 3, 4), gallery_ids(3))
        other = gallery_ids(3)
        other[1] = IdRecord("weird", "gallery", "weird", 1, "gallery")
        b = EmbeddingMatrix(unit_rows(rng, 3, 4), other)
        with pytest.raises(DataError, match="row 1"):
            concat_features([a, b])
        # a part that shares the first part's id columns is skipped; later parts are compared
        with pytest.raises(DataError, match="row 1"):
            concat_features([a, a.with_data(unit_rows(rng, 3, 4)), b])

    def test_partwise_cosine_halving(self):
        # u = [u1;u2]/sqrt(2), v = [v1;v2]/sqrt(2), u1.v1 = 1, u2.v2 = 0
        u1 = np.array([1.0, 0.0])
        v2 = np.array([0.0, 1.0])
        a = EmbeddingMatrix(np.vstack([u1, u1]), gallery_ids(2))
        b = EmbeddingMatrix(np.vstack([u1, v2]), gallery_ids(2))
        c = concat_features([a, b])
        assert float(c.data[0] @ c.data[1]) == pytest.approx(0.5, abs=1e-12)

    def test_cosine_mean_identity_random(self):
        rng = rng_for(24)
        for _ in range(50):
            parts = [matrix(unit_rows(rng, 6, 8)) for _ in range(3)]
            cat = concat_features(parts)
            i, j = rng.integers(0, 6, size=2)
            direct = float(cat.data[i] @ cat.data[j])
            partwise = np.mean([float(p.data[i] @ p.data[j]) for p in parts])
            assert direct == pytest.approx(partwise, abs=1e-6)

    def test_output_unit_norm(self):
        rng = rng_for(25)
        parts = [matrix(unit_rows(rng, 7, 5)) for _ in range(4)]
        cat = concat_features(parts)
        assert np.abs(np.linalg.norm(cat.data, axis=1) - 1.0).max() <= 1e-6

    def test_no_renormalize_keeps_raw_concat(self):
        rng = rng_for(26)
        parts = [matrix(unit_rows(rng, 3, 4)) for _ in range(2)]
        cat = concat_features(parts, renormalize=False)
        assert np.allclose(np.linalg.norm(cat.data, axis=1), np.sqrt(2.0), atol=1e-9)


class TestPca:
    def test_whitening_unit_covariance(self):
        rng = rng_for(27)
        data = rng.normal(size=(10_000, 2)) * np.array([2.0, 1.0])
        m = matrix(data)
        model = pca_fit(m, whiten=True)
        out = pca_transform(model, m)
        cov = np.cov(out.data, rowvar=False)
        assert np.abs(cov - np.eye(2)).max() <= 5e-2

    def test_full_rank_preserves_distances(self):
        rng = rng_for(28)
        m = matrix(rng.normal(size=(60, 12)))
        model = pca_fit(m, whiten=False)
        out = pca_transform(model, m)
        for _ in range(100):
            i, j = rng.integers(0, 60, size=2)
            before = np.linalg.norm(m.data[i] - m.data[j])
            after = np.linalg.norm(out.data[i] - out.data[j])
            assert after == pytest.approx(before, abs=1e-5)

    def test_transform_centers_training_data(self):
        rng = rng_for(29)
        m = matrix(rng.normal(size=(500, 6)) + 7.0)
        model = pca_fit(m, whiten=False)
        out = pca_transform(model, m)
        assert np.abs(out.data.mean(axis=0)).max() <= 1e-6

    def test_mean_maps_to_zero(self):
        rng = rng_for(30)
        m = matrix(rng.normal(size=(40, 5)))
        model = pca_fit(m, whiten=False)
        projected = (model.mean - model.mean) @ model.components.T
        assert np.abs(projected).max() == 0.0

    def test_deterministic(self):
        rng = rng_for(31)
        m = matrix(rng.normal(size=(100, 8)))
        a = pca_fit(m, whiten=True)
        b = pca_fit(m, whiten=True)
        assert np.array_equal(a.components, b.components)
        out1 = pca_transform(a, m)
        out2 = pca_transform(b, m)
        assert np.array_equal(out1.data, out2.data)

    def test_isotropic_eigenvalues_close(self):
        rng = rng_for(32)
        m = matrix(rng.normal(size=(20_000, 4)))
        model = pca_fit(m)
        spread = model.eigenvalues.max() / model.eigenvalues.min()
        assert spread < 1.1

    def test_roundtrip_inverse(self):
        rng = rng_for(33)
        m = matrix(rng.normal(size=(50, 7)))
        model = pca_fit(m, whiten=False)
        out = pca_transform(model, m)
        recovered = out.data @ model.components + model.mean
        assert np.abs(recovered - m.data).max() <= 1e-5

    def test_rank_deficient_warns_and_floors(self):
        rng = rng_for(34)
        thin = rng.normal(size=(30, 2))
        data = np.hstack([thin, thin @ np.array([[1.0, 2.0], [0.5, -1.0]])])
        m = matrix(data)
        with pytest.warns(RuntimeWarning, match="floor"):
            model = pca_fit(m, whiten=True)
        assert np.all(model.eigenvalues > 0)

    def test_dimension_mismatch(self):
        rng = rng_for(35)
        model = pca_fit(matrix(rng.normal(size=(20, 4))))
        with pytest.raises(DataError, match="dim"):
            pca_transform(model, matrix(rng.normal(size=(5, 3))))

    @pytest.mark.parametrize("out_dim", [2.5, True, np.float64(2.0)])
    def test_out_dim_must_be_an_integer(self, out_dim):
        m = matrix(rng_for(36).normal(size=(40, 6)))
        with pytest.raises(DataError) as e:
            pca_fit(m, out_dim=out_dim)
        assert str(e.value) == f"out_dim must be an integer, got {out_dim!r}"
        assert pca_fit(m, out_dim=np.int64(2)).out_dim == 2

    def test_out_dim_truncates(self):
        rng = rng_for(36)
        m = matrix(rng.normal(size=(40, 6)))
        model = pca_fit(m, out_dim=2)
        out = pca_transform(model, m)
        assert out.dim == 2
        assert model.eigenvalues.shape == (2,)
