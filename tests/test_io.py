import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbirkit import io as formats
from cbirkit.boxes import BoundingBox, FusedBox, ScoredBox, WbfParams, fuse_detections
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

    def test_invalid_utf8_names_its_line(self, tmp_path):
        # bytes are decoded a block at a time; the error still names line 2,
        # ahead of the invalid JSON on line 3
        good = json.dumps({"image_id": "i", "model_id": "m", "category_id": 1,
                           "score": 0.5, "bbox": [0, 0, 1, 1]}).encode()
        path = tmp_path / "bad.jsonl"
        path.write_bytes(good + b"\n" + good.replace(b'"i"', b'"i\xff"') + b"\n{\n")
        with pytest.raises(ParseError, match="UTF-8") as err:
            formats.load_detections(path)
        assert err.value.line == 2

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


def reference_load(lines: list[bytes]):
    """(number of the first line the record format rejects, or None; the
    boxes of a clean file), decided one line at a time."""
    out = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            return lineno, None
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            bbox, score = obj["bbox"], obj["score"]
            category, image_id, model_id = obj["category_id"], obj["image_id"], obj["model_id"]
        except (ValueError, KeyError, TypeError):
            return lineno, None
        if not (isinstance(bbox, list) and len(bbox) == 4
                and all(isinstance(v, (int, float)) for v in bbox)
                and isinstance(score, (int, float)) and isinstance(category, int)
                and isinstance(image_id, str) and isinstance(model_id, str)):
            return lineno, None
        x1, y1, x2, y2 = (float(v) for v in bbox)
        if not (all(math.isfinite(v) for v in (x1, y1, x2, y2)) and x1 < x2 and y1 < y2
                and 0.0 <= score <= 1.0 and category >= 1):
            return lineno, None
        out.append(ScoredBox(BoundingBox(x1, y1, x2, y2), float(score), category,
                             image_id, model_id))
    return None, out


_WRONG_VALUES = [None, "1", [], {}, True, False, 0, -1, 2.5, float("nan"), float("inf"),
                 [1, 2, 3], [0, 0, 5, "9"], [5, 5, 1, 9], [0, 0, 0, 4], [0, float("nan"), 1, 1]]


@st.composite
def fuzzed_detection_files(draw):
    records = [{"image_id": draw(st.sampled_from(["i0", "i1", "ï\x00"])),
                "model_id": draw(st.sampled_from(["m0", "m1"])),
                "category_id": draw(st.integers(1, 3)),
                "score": draw(st.sampled_from([0.0, 0.25, 1.0, 1])),
                "bbox": [0, 0.5, draw(st.integers(1, 9)), 7.25]}
               for _ in range(draw(st.integers(1, 8)))]
    lines = [json.dumps(r).encode() for r in records]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["truncate", "garble", "value", "drop", "replace"]))
        if kind == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
        elif kind == "garble":
            at = draw(st.integers(0, max(len(lines[i]) - 1, 0)))
            lines[i] = (lines[i][:at] + draw(st.sampled_from([b"{", b"]", b",", b'"', b"x", b" ",
                                                              b"\\", b"\xff", b"\xc3"]))
                        + lines[i][at + 1:])
        elif kind in ("value", "drop"):
            record = dict(records[i])
            key = draw(st.sampled_from(sorted(record)))
            if kind == "drop":
                del record[key]
            else:
                record[key] = draw(st.sampled_from(_WRONG_VALUES))
            lines[i] = json.dumps(record).encode()
        else:
            lines[i] = draw(st.sampled_from([b"", b"  ", b"[1, 2]", b"5", b"null", b"{}"]))
    return lines


class TestDetectionFuzz:
    @settings(max_examples=400, deadline=None)
    @given(fuzzed_detection_files())
    def test_only_parse_errors_naming_the_first_bad_line(self, lines):
        bad_line, expected = reference_load(lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.jsonl"
            path.write_bytes(b"\n".join(lines) + b"\n")
            if bad_line is None:
                assert formats.load_detections(path) == expected
            else:
                with pytest.raises(ParseError) as e:
                    formats.load_detections(path)
                assert e.value.line == bad_line


def reference_fused_lines(fused) -> str:
    return "".join(json.dumps({
        "image_id": f.image_id, "model_id": "wbf", "category_id": f.category_id,
        "score": f.score, "bbox": list(f.box.as_tuple()), "cluster_size": f.cluster_size,
        "model_ids": sorted(f.model_ids)}) + "\n" for f in fused)


class TestOddIds:
    IDS = ["img", "img\x00", "imgé", "图像", "img\x00\x00", "a b", 'q"\\']

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(IDS), st.sampled_from(IDS),
                              st.integers(0, 6), st.floats(0.0, 1.0)), max_size=30))
    def test_columnar_path_matches_object_path(self, rows):
        boxes = [ScoredBox(BoundingBox(x, x, x + 5.5, x + 4), score, 1, image, model)
                 for image, model, x, score in rows]
        with tempfile.TemporaryDirectory() as tmp:
            det_path, fused_path = Path(tmp) / "d.jsonl", Path(tmp) / "f.jsonl"
            formats.save_detections(boxes, det_path)
            loaded = formats.load_detections(det_path)
            assert loaded == boxes
            assert sorted(loaded.image_names) == sorted({b.image_id for b in boxes})
            fused = fuse_detections(loaded, WbfParams())
            assert fused == fuse_detections(boxes, WbfParams())
            formats.save_fused_boxes(fused, fused_path)
            assert fused_path.read_text(encoding="utf-8") == reference_fused_lines(fused)
