import json

import numpy as np
import pytest

from cbirkit import io as formats
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

    def test_rate_bounds(self):
        with pytest.raises(ConfigError):
            spec_of(miss_rate=1.5)


class TestDeterminism:
    def test_same_seed_same_layout(self):
        a = synth_layout(spec_of())
        b = synth_layout(spec_of())
        assert a == b

    def test_same_seed_same_files(self, tmp_path):
        generate_synthetic(spec_of(), tmp_path / "a")
        generate_synthetic(spec_of(), tmp_path / "b")
        for name in ("detection_gt.jsonl", "detections_det0.jsonl",
                     "embeddings_m0.emb", "retrieval_gt.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seed_differs(self):
        a = synth_layout(spec_of())
        b = synth_layout(spec_of(seed=124))
        assert a != b

    def test_streams_independent_of_generation_order(self):
        spec = spec_of(detector_count=3)
        objects = synth_layout(spec)
        late = synth_detections(spec, objects, 2)
        again = synth_detections(spec, objects, 2)
        assert late == again


class TestNoiselessLimit:
    def test_detectors_reproduce_gt(self):
        spec = spec_of(jitter_sigma=0.0, score_sigma=0.0, miss_rate=0.0, fp_rate=0.0)
        objects = synth_layout(spec)
        for d in range(spec.detector_count):
            boxes = synth_detections(spec, objects, d)
            assert len(boxes) == len(objects)
            for got, obj in zip(sorted(boxes, key=lambda b: (b.image_id, b.box.x1)),
                                sorted(objects, key=lambda o: (o.image_id, o.box.x1))):
                assert got.box == obj.box
                assert got.score == 1.0
                assert got.category_id == obj.category_id

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
        assert boxes == []
        report = detection_ap(boxes, detection_gt(objects), [0.5])
        assert report.ap50 == 0.0


class TestGenerateFiles:
    def test_manifest_and_files(self, tmp_path):
        out = tmp_path / "bench"
        manifest = generate_synthetic(spec_of(), out)
        assert manifest["num_items"] == 12
        boxes = formats.load_detections(out / "detections_det0.jsonl")
        assert all(b.model_id == "det0" for b in boxes)
        m = formats.load_embeddings(out / "embeddings_m0.emb",
                                    out / "embeddings_m0.ids.jsonl")
        assert m.n_rows == 24  # one query + one gallery row per item
        gt = formats.load_retrieval_gt(out / "retrieval_gt.jsonl")
        assert len(gt) == 12

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
