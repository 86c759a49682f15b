import json

import numpy as np
import pytest

from cbirkit import io as formats
from cbirkit.boxes import BoundingBox, FusedBox, ScoredBox
from cbirkit.embeddings import EmbeddingMatrix
from cbirkit.errors import DataError, EmbeddingFormatError, ParseError
from cbirkit.search import RankingList

from util import gallery_ids, rng_for


class TestDetections:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert formats.load_detections(path) == []

    def test_single_record_roundtrip(self, tmp_path):
        path = tmp_path / "one.jsonl"
        record = {"image_id": "img0", "model_id": "m0", "category_id": 3,
                  "score": 0.75, "bbox": [1.0, 2.0, 3.5, 4.25]}
        path.write_text(json.dumps(record) + "\n")
        [box] = formats.load_detections(path)
        assert box.image_id == "img0"
        assert box.model_id == "m0"
        assert box.category_id == 3
        assert box.score == 0.75
        assert box.box.as_tuple() == (1.0, 2.0, 3.5, 4.25)

    def test_write_then_read_many(self, tmp_path):
        rng = rng_for(80)
        boxes = []
        for i in range(1000):
            x1, y1 = rng.uniform(0, 50, size=2)
            w, h = rng.uniform(1, 30, size=2)
            boxes.append(ScoredBox(
                BoundingBox(float(x1), float(y1), float(x1 + w), float(y1 + h)),
                float(rng.uniform(0, 1)), int(rng.integers(1, 5)),
                f"img{i % 7}", f"m{i % 3}"))
        path = tmp_path / "boxes.jsonl"
        formats.save_detections(boxes, path)
        assert formats.load_detections(path) == boxes

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"image_id": "i", "model_id": "m", "category_id": 1,
                           "score": 0.5, "bbox": [0, 0, 1, 1]})
        path.write_text(good + "\n{broken\n")
        with pytest.raises(ParseError) as err:
            formats.load_detections(path)
        assert err.value.line == 2

    def test_zero_area_box_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        bad = json.dumps({"image_id": "i", "model_id": "m", "category_id": 1,
                          "score": 0.5, "bbox": [5, 5, 5, 9]})
        path.write_text(bad + "\n")
        with pytest.raises(ParseError) as err:
            formats.load_detections(path)
        assert err.value.line == 1

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"image_id": "i", "bbox": [0, 0, 1, 1]}) + "\n")
        with pytest.raises(ParseError, match="model_id|category_id|score"):
            formats.load_detections(path)

    def test_fused_file_loads_as_detections(self, tmp_path):
        fused = [FusedBox(BoundingBox(0, 0, 5, 5), 0.5, 1, "img0", 2,
                          frozenset({"m0", "m1"}))]
        path = tmp_path / "fused.jsonl"
        formats.save_fused_boxes(fused, path)
        [box] = formats.load_detections(path)
        assert box.model_id == "wbf"
        assert box.score == 0.5


class TestDetectionGt:
    def test_roundtrip(self, tmp_path):
        gt = {"img0": [(BoundingBox(0, 0, 5, 5), 1), (BoundingBox(2, 2, 9, 9), 2)],
              "img1": [(BoundingBox(1, 1, 2, 2), 1)]}
        path = tmp_path / "gt.jsonl"
        formats.save_detection_gt(gt, path)
        assert formats.load_detection_gt(path) == gt


class TestEmbeddings:
    def roundtrip(self, tmp_path, data):
        m = EmbeddingMatrix(data, gallery_ids(data.shape[0]))
        formats.save_embeddings(m, tmp_path / "m.emb", tmp_path / "m.ids.jsonl")
        return formats.load_embeddings(tmp_path / "m.emb", tmp_path / "m.ids.jsonl")

    def test_float32_roundtrip_bitwise(self, tmp_path):
        rng = rng_for(81)
        data = rng.normal(size=(100, 64)).astype(np.float32)
        loaded = self.roundtrip(tmp_path, data.astype(np.float64))
        assert np.array_equal(loaded.data, data.astype(np.float64))
        assert [r.item_id for r in loaded.ids] == [f"g{i:05d}" for i in range(100)]

    def test_double_roundtrip_stable(self, tmp_path):
        rng = rng_for(82)
        first = self.roundtrip(tmp_path, rng.normal(size=(10, 4)))
        formats.save_embeddings(first, tmp_path / "n.emb", tmp_path / "n.ids.jsonl")
        second = formats.load_embeddings(tmp_path / "n.emb", tmp_path / "n.ids.jsonl")
        assert np.array_equal(first.data, second.data)
        assert (tmp_path / "m.emb").read_bytes() == (tmp_path / "n.emb").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"NOPE" + b"\x01\x00\x00\x00" * 2 + b"\x00" * 4)
        with pytest.raises(EmbeddingFormatError) as err:
            formats.load_embeddings(path, tmp_path / "missing.jsonl")
        assert err.value.code == "bad_magic"

    def test_zero_rows(self, tmp_path):
        path = tmp_path / "zero.emb"
        path.write_bytes(b"EMB1" + (0).to_bytes(4, "little") + (4).to_bytes(4, "little"))
        with pytest.raises(EmbeddingFormatError) as err:
            formats.load_embeddings(path, tmp_path / "missing.jsonl")
        assert err.value.code == "empty_matrix"

    def test_truncated_payload(self, tmp_path):
        rng = rng_for(83)
        m = EmbeddingMatrix(rng.normal(size=(4, 4)), gallery_ids(4))
        formats.save_embeddings(m, tmp_path / "m.emb", tmp_path / "m.ids.jsonl")
        blob = (tmp_path / "m.emb").read_bytes()
        (tmp_path / "cut.emb").write_bytes(blob[:-8])
        with pytest.raises(EmbeddingFormatError) as err:
            formats.load_embeddings(tmp_path / "cut.emb", tmp_path / "m.ids.jsonl")
        assert err.value.code == "truncated"

    def test_ids_count_mismatch(self, tmp_path):
        rng = rng_for(84)
        m = EmbeddingMatrix(rng.normal(size=(4, 4)), gallery_ids(4))
        formats.save_embeddings(m, tmp_path / "m.emb", tmp_path / "m.ids.jsonl")
        lines = (tmp_path / "m.ids.jsonl").read_text().splitlines()
        (tmp_path / "short.ids.jsonl").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(EmbeddingFormatError) as err:
            formats.load_embeddings(tmp_path / "m.emb", tmp_path / "short.ids.jsonl")
        assert err.value.code == "count_mismatch"

    def test_non_finite_payload_rejected(self, tmp_path):
        header = b"EMB1" + (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
        payload = np.array([[np.inf, 0.0]], dtype="<f4").tobytes()
        (tmp_path / "inf.emb").write_bytes(header + payload)
        (tmp_path / "inf.ids.jsonl").write_text(json.dumps(
            {"row": 0, "item_id": "g0", "image_id": "x", "box_id": "b",
             "category_id": 1, "source": "gallery"}) + "\n")
        with pytest.raises(DataError):
            formats.load_embeddings(tmp_path / "inf.emb", tmp_path / "inf.ids.jsonl")


class TestRankings:
    def test_roundtrip(self, tmp_path):
        rankings = [
            RankingList("q0", ("g1", "g0"), np.array([0.875, 0.25])),
            RankingList("q1", ("g2",), np.array([-0.5])),
        ]
        path = tmp_path / "r.tsv"
        formats.save_rankings(rankings, path)
        loaded = formats.load_rankings(path)
        assert loaded == rankings
        text = path.read_text()
        assert "q0\t1\tg1\t0.875\n" in text

    def test_nine_significant_digits(self, tmp_path):
        r = [RankingList("q", ("g",), np.array([1 / 3]))]
        path = tmp_path / "r.tsv"
        formats.save_rankings(r, path)
        assert path.read_text() == "q\t1\tg\t0.333333333\n"

    def test_rank_sequence_enforced(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q\t1\tg0\t0.9\nq\t3\tg1\t0.5\n")
        with pytest.raises(ParseError, match="out of sequence"):
            formats.load_rankings(path)


    def test_failed_save_keeps_previous_file(self, tmp_path):
        class Broken:
            query_id = "q2"

            def entries(self):
                yield "g1", 0.5
                raise RuntimeError("disk full")

        path = tmp_path / "rankings.tsv"
        good = RankingList("q1", ("g0",), np.array([0.9]))
        formats.save_rankings([good], path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="disk full"):
            formats.save_rankings([good, Broken()], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["rankings.tsv"]


class TestRetrievalGt:
    def test_roundtrip(self, tmp_path):
        gt = {"q0": {"g0", "g3"}, "q1": set()}
        path = tmp_path / "gt.jsonl"
        formats.save_retrieval_gt(gt, path)
        assert formats.load_retrieval_gt(path) == gt

    def test_duplicate_query_rejected(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        line = json.dumps({"query_id": "q0", "matches": ["g0"]})
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(ParseError, match="duplicate"):
            formats.load_retrieval_gt(path)
