import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbirkit import embeddings
from cbirkit import io as formats
from cbirkit.cli import main
from cbirkit.errors import ConfigError
from cbirkit.evaluation import acc_at_k, detection_ap
from cbirkit.search import build_index, knn_search
from cbirkit.synthetic import (
    SyntheticSpec,
    detection_gt,
    generate_synthetic,
    retrieval_pairs,
    synth_detections,
    synth_embeddings,
    synth_item_centers,
    synth_layout,
)

from oracles import synth_detections_ref, synth_layout_ref
from util import boxes_to_dicts, detections


def spec_of(**kwargs):
    defaults = dict(seed=123, num_images=6, num_categories=3, gt_boxes_per_image=2,
                    detector_count=2, embedding_models=2, embedding_dim=8)
    defaults.update(kwargs)
    return SyntheticSpec(**defaults)


class TestSpec:
    def test_seed_required(self):
        with pytest.raises(ConfigError, match="seed"):
            SyntheticSpec.from_dict({"num_images": 3})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="wat"):
            SyntheticSpec.from_dict({"seed": 1, "wat": 2})

    @pytest.mark.parametrize("seed", [-5, -1, 2 ** 64])
    def test_seed_outside_u64_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            SyntheticSpec.from_dict({"seed": seed})

    @pytest.mark.parametrize("value", [2.5, True, np.float64(3.0), "3"])
    @pytest.mark.parametrize("field", ["seed", "num_images", "num_categories",
                                       "gt_boxes_per_image", "detector_count", "embedding_dim",
                                       "embedding_models"])
    def test_integer_fields_must_be_integers(self, field, value):
        # 2.5 images and seed 1.5 used to fail later with a raw TypeError,
        # and num_images=True gave one image
        with pytest.raises(ConfigError) as e:
            SyntheticSpec(**{"seed": 1, field: value})
        assert str(e.value) == f"{field} must be an integer, got {value!r}"

    def test_numpy_integers_are_integers(self):
        spec = SyntheticSpec(seed=np.uint64(3), num_images=np.int64(2))
        assert len(synth_layout(spec)) == 2 * spec.gt_boxes_per_image

    def test_rate_bounds(self):
        with pytest.raises(ConfigError):
            spec_of(miss_rate=1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["jitter_sigma", "score_sigma", "cluster_spread",
                                       "noise_sigma"])
    def test_non_finite_sigma_rejected(self, tmp_path, capsys, field, value):
        # a NaN noise_sigma once failed halfway through writing the files
        message = f"{field} must be finite and >= 0, got {value!r}"
        with pytest.raises(ConfigError) as e:
            SyntheticSpec.from_dict({"seed": 1, "num_images": 3, field: value})
        assert str(e.value) == message
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 1, "num_images": 3, field: value}))
        assert main(["gen-synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()


class TestDeterminism:
    def test_same_seed_same_layout(self):
        a = synth_layout(spec_of())
        b = synth_layout(spec_of())
        assert boxes_to_dicts(a) == boxes_to_dicts(b)

    def test_same_seed_same_files(self, tmp_path):
        generate_synthetic(spec_of(), tmp_path / "a")
        generate_synthetic(spec_of(), tmp_path / "b")
        for name in ("detection_gt.jsonl", "detections_det0.jsonl",
                     "embeddings_m0.emb", "retrieval_gt.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seed_differs(self):
        a = synth_layout(spec_of())
        b = synth_layout(spec_of(seed=124))
        assert boxes_to_dicts(a) != boxes_to_dicts(b)

    def test_streams_independent_of_generation_order(self):
        spec = spec_of(detector_count=3)
        objects = synth_layout(spec)
        late = synth_detections(spec, objects, 2)
        again = synth_detections(spec, objects, 2)
        assert boxes_to_dicts(late) == boxes_to_dicts(again)


def table_rows(dets) -> list[tuple]:
    """A detections table as the oracle's rows."""
    return [(*box, score, category, dets.image_names[image], dets.model_names[model])
            for box, score, category, image, model in zip(
                dets.coords.tolist(), dets.scores.tolist(), dets.category_ids.tolist(),
                dets.image_codes.tolist(), dets.model_codes.tolist())]


def layout_objects(layout):
    """The rows of a layout table as the oracles take them: image_id, box
    and category_id."""
    return [SimpleNamespace(image_id=row["image_id"], box=row["box"],
                            category_id=row["category_id"]) for row in boxes_to_dicts(layout)]


@st.composite
def generator_cases(draw):
    """A spec with its edge values likely (zero noise, rates 0 and 1, one
    category, one box per image), and either its layout or a table of a few
    small boxes that jitter inverts and narrows below one pixel, their
    images interleaved in any order."""
    spec = SyntheticSpec(
        seed=draw(st.integers(0, 2 ** 64 - 1)), num_images=draw(st.integers(1, 6)),
        num_categories=draw(st.sampled_from([1, 2, 5])),
        gt_boxes_per_image=draw(st.sampled_from([1, 2, 4])),
        detector_count=draw(st.integers(1, 3)),
        jitter_sigma=draw(st.sampled_from([0.0, 0.5, 4.0, 300.0])),
        score_sigma=draw(st.sampled_from([0.0, 0.1, 2.0])),
        miss_rate=draw(st.sampled_from([0.0, 0.3, 1.0])),
        fp_rate=draw(st.sampled_from([0.0, 0.3, 1.0])))
    if draw(st.booleans()):
        return spec, synth_layout(spec)
    return spec, detections((x, y, x + w, y + h, 0.0, c, f"img{image:05d}", "")
                            for image, x, y, w, h, c in draw(st.lists(st.tuples(
                                st.integers(0, 3), *[st.floats(0.0, 50.0)] * 2,
                                *[st.sampled_from([0.25, 1.0, 2.0])] * 2, st.integers(1, 3)),
                                min_size=1, max_size=8)))


class TestBulkDraws:
    @settings(max_examples=300, deadline=None)
    @given(generator_cases())
    def test_identical_to_scalar_draws(self, case):
        # the reprs tell apart every float bit pattern, -0.0 and 0.0 included
        spec, layout = case
        regular = synth_layout(spec)
        queries = synth_embeddings(spec, regular, synth_item_centers(spec, regular), 0)
        assert repr([(i, o.image_id, box_id, o.box, o.category_id) for i, (o, box_id) in
                     enumerate(zip(layout_objects(regular), queries.box_ids.tolist()))]) == repr(
            synth_layout_ref(spec))
        for d in range(spec.detector_count):
            assert repr(table_rows(synth_detections(spec, layout, d))) == repr(
                synth_detections_ref(spec, layout_objects(layout), d))


class TestNoiselessLimit:
    def test_detectors_reproduce_gt(self):
        spec = spec_of(jitter_sigma=0.0, score_sigma=0.0, miss_rate=0.0, fp_rate=0.0)
        objects = synth_layout(spec)
        for d in range(spec.detector_count):
            boxes = synth_detections(spec, objects, d)
            assert len(boxes) == len(objects)
            for got, obj in zip(sorted(boxes_to_dicts(boxes),
                                       key=lambda b: (b["image_id"], b["box"][0])),
                                sorted(layout_objects(objects),
                                       key=lambda o: (o.image_id, o.box[0]))):
                assert got["box"] == obj.box
                assert got["score"] == 1.0
                assert got["category_id"] == obj.category_id

    def test_noiseless_retrieval_rank_one(self):
        spec = spec_of(noise_sigma=0.0, cluster_spread=1.0)
        objects = synth_layout(spec)
        centers = synth_item_centers(spec, objects)
        m = synth_embeddings(spec, objects, centers, 0)
        queries, gallery = m.split_by_source()
        rankings = knn_search(build_index(gallery), queries, 1)
        report = acc_at_k(rankings, retrieval_pairs(objects), [1])
        assert report.acc[1] == 1.0

    def test_full_miss_rate_emits_nothing(self):
        spec = spec_of(miss_rate=1.0, fp_rate=0.0)
        objects = synth_layout(spec)
        boxes = synth_detections(spec, objects, 0)
        assert boxes_to_dicts(boxes) == []
        report = detection_ap(boxes, detection_gt(objects), [0.5])
        assert report.ap50 == 0.0


class TestLayoutTable:
    def test_layout_is_the_ground_truth(self):
        spec = spec_of()
        layout = synth_layout(spec)
        assert detection_gt(layout) is layout
        assert layout.image_names == tuple(f"img{i:05d}" for i in range(spec.num_images))
        assert layout.image_codes.tolist() == [i // spec.gt_boxes_per_image
                                               for i in range(len(layout))]
        assert not layout.scores.any() and layout.model_names == ("",)

    def test_query_box_id_counts_its_image_rows_before_it(self):
        # images interleaved: a query's box id is its image id and the
        # number of rows of that image before its own
        images = ["b", "a", "b", "a", "a"]
        layout = detections((0.0, 0.0, 1.0, 1.0, 0.0, 1, image, "") for image in images)
        spec = spec_of(num_categories=1)
        queries, _ = synth_embeddings(spec, layout, synth_item_centers(spec, layout),
                                      0).split_by_source()
        assert queries.box_ids.tolist() == ["b:b0", "a:b0", "b:b1", "a:b1", "a:b2"]
        assert queries.image_ids.tolist() == images
        assert retrieval_pairs(layout) == {f"q{i:06d}": {f"g{i:06d}"} for i in range(5)}


class TestGenerateFiles:
    def test_manifest_and_files(self, tmp_path):
        out = tmp_path / "bench"
        manifest = generate_synthetic(spec_of(), out)
        assert manifest["num_items"] == 12
        boxes = formats.load_detections(out / "detections_det0.jsonl")
        assert all(b["model_id"] == "det0" for b in boxes_to_dicts(boxes))
        m = formats.load_embeddings(out / "embeddings_m0.emb",
                                    out / "embeddings_m0.ids.jsonl")
        assert m.n_rows == 24  # one query + one gallery row per item
        gt = formats.load_retrieval_gt(out / "retrieval_gt.jsonl")
        assert len(gt) == 12

    def test_models_share_ids_checked_once(self, tmp_path, monkeypatch):
        spec = spec_of(embedding_models=3)
        calls, fault = [], embeddings._id_fault

        def counted(*columns):
            calls.append(len(columns[0]))
            return fault(*columns)

        monkeypatch.setattr(embeddings, "_id_fault", counted)
        out = tmp_path / "bench"
        generate_synthetic(spec, out)
        assert calls == [24]
        objects = synth_layout(spec)
        centers = synth_item_centers(spec, objects)
        for m in range(3):
            # each model's files are those of its matrix built on its own
            formats.save_embeddings(synth_embeddings(spec, objects, centers, m),
                                    tmp_path / "alone.emb", tmp_path / "alone.ids.jsonl")
            for suffix in ("emb", "ids.jsonl"):
                assert ((out / f"embeddings_m{m}.{suffix}").read_bytes()
                        == (tmp_path / f"alone.{suffix}").read_bytes())

    def test_saved_embeddings_rows_near_unit(self, tmp_path):
        out = tmp_path / "bench"
        generate_synthetic(spec_of(), out)
        m = formats.load_embeddings(out / "embeddings_m1.emb",
                                    out / "embeddings_m1.ids.jsonl")
        # float32 storage keeps norms well within the index tolerance
        assert np.abs(np.linalg.norm(m.data, axis=1) - 1.0).max() <= 1e-5

    @pytest.mark.parametrize("name, failing_call", [("config.json", 1), ("manifest.json", 2)])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, name, failing_call):
        out = tmp_path / "bench"
        generate_synthetic(spec_of(), out)
        before = (out / name).read_bytes()
        dump, calls = json.dump, []

        def broken(obj, fh, **kwargs):
            # the failing call writes part of the file, then fails
            calls.append(obj)
            if len(calls) == failing_call:
                fh.write("{")
                raise RuntimeError("disk full")
            return dump(obj, fh, **kwargs)

        monkeypatch.setattr(json, "dump", broken)
        with pytest.raises(RuntimeError, match="disk full"):
            generate_synthetic(spec_of(seed=124), out)
        assert (out / name).read_bytes() == before
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
