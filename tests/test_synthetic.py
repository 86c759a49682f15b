import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbirkit import embeddings
from cbirkit import io as formats
from cbirkit.errors import ConfigError
from cbirkit.evaluation import acc_at_k, detection_ap
from cbirkit.search import build_index, knn_search
from cbirkit.synthetic import (
    GtObject,
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
from util import boxes_to_dicts


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
        assert boxes_to_dicts(late) == boxes_to_dicts(again)


def table_rows(dets) -> list[tuple]:
    """A detections table as the oracle's rows."""
    return [(*box, score, category, dets.image_names[image], dets.model_names[model])
            for box, score, category, image, model in zip(
                dets.coords.tolist(), dets.scores.tolist(), dets.category_ids.tolist(),
                dets.image_codes.tolist(), dets.model_codes.tolist())]


@st.composite
def generator_cases(draw):
    """A spec with its edge values likely (zero noise, rates 0 and 1, one
    category, one box per image), and either its layout or a few small
    boxes that jitter inverts and narrows below one pixel."""
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
    objects = [GtObject(i, f"img{image:05d}", f"img{image:05d}:b{i}", (x, y, x + w, y + h), c)
               for i, (image, x, y, w, h, c) in enumerate(draw(st.lists(st.tuples(
                   st.integers(0, 3), *[st.floats(0.0, 50.0)] * 2,
                   *[st.sampled_from([0.25, 1.0, 2.0])] * 2, st.integers(1, 3)),
                   min_size=1, max_size=8)))]
    return spec, objects


class TestBulkDraws:
    @settings(max_examples=300, deadline=None)
    @given(generator_cases())
    def test_identical_to_scalar_draws(self, case):
        # the reprs tell apart every float bit pattern, -0.0 and 0.0 included
        spec, objects = case
        assert repr([(o.item_index, o.image_id, o.box_id, o.box, o.category_id)
                     for o in synth_layout(spec)]) == repr(synth_layout_ref(spec))
        for d in range(spec.detector_count):
            assert repr(table_rows(synth_detections(spec, objects, d))) == repr(
                synth_detections_ref(spec, objects, d))


class TestNoiselessLimit:
    def test_detectors_reproduce_gt(self):
        spec = spec_of(jitter_sigma=0.0, score_sigma=0.0, miss_rate=0.0, fp_rate=0.0)
        objects = synth_layout(spec)
        for d in range(spec.detector_count):
            boxes = synth_detections(spec, objects, d)
            assert len(boxes) == len(objects)
            for got, obj in zip(sorted(boxes_to_dicts(boxes),
                                       key=lambda b: (b["image_id"], b["box"][0])),
                                sorted(objects, key=lambda o: (o.image_id, o.box[0]))):
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
