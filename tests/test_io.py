import functools
import json
import math
import os
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbirkit import boxes, embeddings
from cbirkit import io as formats
from cbirkit.boxes import Detections, FusedDetections, WbfParams, fuse_detections
from cbirkit.embeddings import EmbeddingMatrix, IdRecord
from cbirkit.errors import DataError, EmbeddingFormatError, ParseError
from cbirkit.search import Rankings
from cbirkit.synthetic import SyntheticSpec, synth_detections, synth_layout

from util import (boxes_to_dicts, detections, force_split, fused_to_dicts, gallery_ids,
                  gt_table, no_child_left, ranking_rows, rng_for)

# records per chunk that the line-naming tests read files in: one, a few,
# and the default, which reads each of their files as one chunk
CHUNKS = [1, 3, formats.CHUNK_LINES]


def at_every_chunk(test):
    """`test`, run once with the JSONL readers at each of CHUNKS records per chunk."""
    @functools.wraps(test)
    def run(*args, **kwargs):
        for chunk in CHUNKS:
            with mock.patch.object(formats, "CHUNK_LINES", chunk):
                test(*args, **kwargs)
    return run


class TestDetections:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert boxes_to_dicts(formats.load_detections(path)) == []

    def test_single_record_roundtrip(self, tmp_path):
        path = tmp_path / "one.jsonl"
        record = {"image_id": "img0", "model_id": "m0", "category_id": 3,
                  "score": 0.75, "bbox": [1.0, 2.0, 3.5, 4.25]}
        path.write_text(json.dumps(record) + "\n")
        [box] = boxes_to_dicts(formats.load_detections(path))
        assert box["image_id"] == "img0"
        assert box["model_id"] == "m0"
        assert box["category_id"] == 3
        assert box["score"] == 0.75
        assert box["box"] == (1.0, 2.0, 3.5, 4.25)

    def test_write_then_read_many(self, tmp_path):
        rng = rng_for(80)
        coords, scores, categories = [], [], []
        for _ in range(1000):
            x1, y1 = rng.uniform(0, 50, size=2)
            w, h = rng.uniform(1, 30, size=2)
            coords.append((x1, y1, x1 + w, y1 + h))
            scores.append(rng.uniform(0, 1))
            categories.append(int(rng.integers(1, 5)))
        dets = Detections.from_columns(coords, scores, categories,
                                       [f"img{i % 7}" for i in range(1000)],
                                       [f"m{i % 3}" for i in range(1000)])
        path = tmp_path / "boxes.jsonl"
        formats.save_detections(dets, path)
        loaded = formats.load_detections(path)
        assert boxes_to_dicts(loaded) == boxes_to_dicts(dets)
        assert np.array_equal(loaded.coords, dets.coords)
        assert np.array_equal(loaded.scores, dets.scores)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "boxes.jsonl"
        formats.save_detections(detections([(0, 0, 2, 2, 0.25, 1, "i0", "m")]), path)
        before = path.read_bytes()
        names = formats._names

        def failing(*args):
            # the second row's name fails, after the first row is written
            yield next(iter(names(*args)))
            raise RuntimeError("disk full")

        monkeypatch.setattr(formats, "_names", failing)
        with pytest.raises(RuntimeError, match="disk full"):
            formats.save_detections(detections([(0, 0, 1, 1, 0.5, 1, "i0", "m"),
                                                (0, 0, 1, 1, 0.5, 1, "i1", "m")]), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["boxes.jsonl"]

    @at_every_chunk
    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"image_id": "i", "model_id": "m", "category_id": 1,
                           "score": 0.5, "bbox": [0, 0, 1, 1]})
        path.write_text(good + "\n{broken\n")
        with pytest.raises(ParseError) as err:
            formats.load_detections(path)
        assert err.value.line == 2

    @at_every_chunk
    def test_zero_area_box_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        bad = json.dumps({"image_id": "i", "model_id": "m", "category_id": 1,
                          "score": 0.5, "bbox": [5, 5, 5, 9]})
        path.write_text(bad + "\n")
        with pytest.raises(ParseError) as err:
            formats.load_detections(path)
        assert err.value.line == 1

    @at_every_chunk
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

    @at_every_chunk
    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"image_id": "i", "bbox": [0, 0, 1, 1]}) + "\n")
        with pytest.raises(ParseError, match="model_id|category_id|score"):
            formats.load_detections(path)

    def test_fused_file_loads_as_detections(self, tmp_path):
        fused = FusedDetections([[0, 0, 5, 5]], [0.5], [1], [0], ("img0",), [2], [0, 2], [0, 1],
                                ("m0", "m1"))
        path = tmp_path / "fused.jsonl"
        formats.save_fused_boxes(fused, path)
        [box] = boxes_to_dicts(formats.load_detections(path))
        assert box["model_id"] == "wbf"
        assert box["score"] == 0.5


def by_image(gt) -> dict:
    """A ground-truth table as image -> [(box, category), ...] in row order."""
    out = {}
    for b in boxes_to_dicts(gt):
        assert (b["score"], b["model_id"]) == (0.0, "")
        out.setdefault(b["image_id"], []).append((b["box"], b["category_id"]))
    return out


class TestSplitLoad:
    """`load_detections` over several files, with a forked helper parsing the
    last share of them; every result is that of reading them one by one."""

    @pytest.fixture
    def paths(self, tmp_path):
        spec = SyntheticSpec(seed=5, num_images=40, detector_count=4, fp_rate=0.3)
        layout = synth_layout(spec)
        paths = [tmp_path / f"det{d}.jsonl" for d in range(4)]
        for d, path in enumerate(paths):
            formats.save_detections(synth_detections(spec, layout, d), path)
        return paths

    @staticmethod
    def helper_start(paths) -> int:
        """The index of the first file the helper parses, once the split is forced."""
        with mock.patch.object(formats, "SPLIT_BYTES", 0), \
                mock.patch.object(formats, "_usable_cpus", lambda: 2):
            return formats._helper_start([path.stat().st_size for path in paths])

    @staticmethod
    def spoil(path, line: int) -> None:
        """Replace line `line` of `path` with one that is not JSON."""
        lines = path.read_text().splitlines(keepends=True)
        lines[line - 1] = "{broken\n"
        path.write_text("".join(lines))

    def test_table_equals_reading_one_by_one(self, paths, monkeypatch, caplog):
        serial = formats.load_detections(*paths)
        force_split(monkeypatch)
        with caplog.at_level("INFO", logger="cbirkit.io"):
            split = formats.load_detections(*paths)
        assert no_child_left()
        start = self.helper_start(paths)
        assert 0 < start < len(paths)
        assert boxes_to_dicts(split) == boxes_to_dicts(serial)
        for column in ("coords", "scores", "category_ids", "image_codes", "model_codes"):
            assert np.array_equal(getattr(split, column), getattr(serial, column))
        assert (split.image_names, split.model_names) == (serial.image_names,
                                                          serial.model_names)
        assert caplog.messages == [
            f"load-detections: files=4 bytes={sum(p.stat().st_size for p in paths)} "
            f"records={len(serial)} path=split here_files={start} "
            f"helper_files={4 - start}"]

    @pytest.mark.parametrize("shares", [("here",), ("helper",), ("here", "helper")])
    def test_bad_line_named_as_read_one_by_one(self, paths, monkeypatch, shares):
        start = self.helper_start(paths)
        bad = {"here": (start - 1, 7), "helper": (len(paths) - 1, 3)}
        for share in shares:
            self.spoil(paths[bad[share][0]], bad[share][1])
        with pytest.raises(ParseError) as serial:
            formats.load_detections(*paths)
        index, line = bad[shares[0]]  # the earlier file's error wins
        assert str(serial.value) == f"{paths[index]}:{line}: invalid JSON: " \
                                    "Expecting property name enclosed in double quotes"
        force_split(monkeypatch)
        with pytest.raises(ParseError) as split:
            formats.load_detections(*paths)
        assert no_child_left()
        assert str(split.value) == str(serial.value)
        assert (split.value.path, split.value.line) == (str(paths[index]), line)

    @pytest.mark.parametrize("share", ["here", "helper"])
    def test_missing_file_named_as_read_one_by_one(self, paths, monkeypatch, share):
        start = self.helper_start(paths)
        paths[0 if share == "here" else start].unlink()
        with pytest.raises(FileNotFoundError) as serial:
            formats.load_detections(*paths)
        force_split(monkeypatch)
        with pytest.raises(FileNotFoundError) as split:
            formats.load_detections(*paths)
        assert no_child_left()
        assert str(split.value) == str(serial.value)

    @pytest.mark.parametrize("fault", ["helper dies", "fork fails"])
    def test_helper_without_a_reply_leaves_its_files_to_the_caller(self, paths, monkeypatch,
                                                                  fault):
        serial = formats.load_detections(*paths)
        force_split(monkeypatch)
        caller, load = os.getpid(), formats._load_detections

        def dies_in_the_helper(path):
            if os.getpid() != caller:
                os._exit(1)
            return load(path)

        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        if fault == "helper dies":
            monkeypatch.setattr(formats, "_load_detections", dies_in_the_helper)
        else:
            monkeypatch.setattr(os, "fork", fork)
        assert boxes_to_dicts(formats.load_detections(*paths)) == boxes_to_dicts(serial)
        assert no_child_left()

    @pytest.mark.parametrize("case", ["one path", "below the threshold", "one CPU"])
    def test_never_forks_unless_split(self, paths, monkeypatch, caplog, case):
        force_split(monkeypatch)
        if case == "below the threshold":
            monkeypatch.setattr(formats, "SPLIT_BYTES", sum(p.stat().st_size for p in paths) + 1)
        elif case == "one CPU":
            monkeypatch.setattr(formats, "_usable_cpus", lambda: 1)
        loaded = paths[:1] if case == "one path" else paths

        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        with caplog.at_level("INFO", logger="cbirkit.io"):
            formats.load_detections(*loaded)
        assert caplog.messages[0].endswith(" path=serial")


class TestDetectionGt:
    def test_roundtrip(self, tmp_path):
        gt = gt_table({"img1": [((1, 1, 2, 2), 1)],
                       "img0": [((0, 0, 5, 5), 1), ((2, 2, 9, 9), 2)]})
        path = tmp_path / "gt.jsonl"
        formats.save_detection_gt(gt, path)
        loaded = boxes_to_dicts(formats.load_detection_gt(path))
        rows = boxes_to_dicts(gt)
        # written sorted stably by image id
        assert loaded == [rows[1], rows[2], rows[0]]


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

    @pytest.mark.filterwarnings("error")
    def test_signalling_nan_fails_without_warning(self, tmp_path):
        header = b"EMB1" + (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
        payload = np.array([[0x7FA00000, 0]], dtype="<u4").tobytes()
        (tmp_path / "snan.emb").write_bytes(header + payload)
        (tmp_path / "snan.ids.jsonl").write_text(json.dumps(
            {"row": 0, "item_id": "g0", "image_id": "x", "box_id": "b",
             "category_id": 1, "source": "gallery"}) + "\n")
        with pytest.raises(DataError) as e:
            formats.load_embeddings(tmp_path / "snan.emb", tmp_path / "snan.ids.jsonl")
        assert str(e.value) == f"{tmp_path / 'snan.emb'}: non-finite value in embedding row 0"

    def test_ids_checked_once_per_load(self, tmp_path, monkeypatch):
        m = EmbeddingMatrix(rng_for(85).normal(size=(5, 3)), gallery_ids(5))
        formats.save_embeddings(m, tmp_path / "m.emb", tmp_path / "m.ids.jsonl")
        calls, fault = [], embeddings._id_fault

        def counted(*columns):
            calls.append(len(columns[0]))
            return fault(*columns)

        monkeypatch.setattr(formats, "_id_fault", counted)
        monkeypatch.setattr(embeddings, "_id_fault", counted)
        loaded = formats.load_embeddings(tmp_path / "m.emb", tmp_path / "m.ids.jsonl")
        assert calls == [5]
        assert loaded.ids == m.ids

    def test_identical_sidecar_shares_checked_ids(self, tmp_path, monkeypatch):
        rng = rng_for(86)
        m = EmbeddingMatrix(rng.normal(size=(6, 3)), gallery_ids(6))
        for name in "abc":
            formats.save_embeddings(m.with_data(rng.normal(size=(6, 3))),
                                    tmp_path / f"{name}.emb", tmp_path / f"{name}.ids.jsonl")
        (tmp_path / "c.ids.jsonl").write_text((tmp_path / "c.ids.jsonl").read_text() + "\n")
        parsed, read = [], formats._read_jsonl
        monkeypatch.setattr(formats, "_read_jsonl",
                            lambda path, *args: parsed.append(path) or read(path, *args))
        sidecars = {}
        a, b, c = (formats.load_embeddings(tmp_path / f"{name}.emb",
                                           tmp_path / f"{name}.ids.jsonl", sidecars)
                   for name in "abc")
        # c's sidecar holds the same records with one more (blank) line
        assert parsed == [tmp_path / "a.ids.jsonl", tmp_path / "c.ids.jsonl"]
        def shares_ids(m, other):
            return all(x is y for x, y in zip(
                (m.item_ids, m.image_ids, m.box_ids, m.category_ids(), m.sources),
                (other.item_ids, other.image_ids, other.box_ids, other.category_ids(),
                 other.sources)))

        assert shares_ids(b, a) and not shares_ids(c, a)
        assert a.ids == b.ids == c.ids == m.ids
        assert np.array_equal(b.data, formats.load_embeddings(tmp_path / "b.emb",
                                                              tmp_path / "b.ids.jsonl").data)
        assert list(sidecars.values()) == [a, c]
        with pytest.raises(ValueError):
            b.item_ids[0] = "x"

    def test_identical_sidecar_still_checks_values(self, tmp_path):
        m = EmbeddingMatrix(np.eye(2), gallery_ids(2))
        formats.save_embeddings(m, tmp_path / "a.emb", tmp_path / "a.ids.jsonl")
        header = (tmp_path / "a.emb").read_bytes()[:12]
        (tmp_path / "b.emb").write_bytes(header + np.array([[0, 1], [np.inf, 0]], "<f4").tobytes())
        (tmp_path / "b.ids.jsonl").write_bytes((tmp_path / "a.ids.jsonl").read_bytes())
        sidecars = {}
        formats.load_embeddings(tmp_path / "a.emb", tmp_path / "a.ids.jsonl", sidecars)
        with pytest.raises(DataError) as e:
            formats.load_embeddings(tmp_path / "b.emb", tmp_path / "b.ids.jsonl", sidecars)
        assert str(e.value) == f"{tmp_path / 'b.emb'}: non-finite value in embedding row 1"


class TestRankings:
    def test_roundtrip(self, tmp_path):
        rankings = Rankings.from_entries(["q0", "q1"], [0, 0, 1], ["g1", "g0", "g2"],
                                         [0.875, 1 / 3, -0.5])
        path = tmp_path / "r.tsv"
        formats.save_rankings(rankings, path)
        loaded = formats.load_rankings(path)
        # the file keeps 9 significant digits of each score
        assert ranking_rows(loaded) == [("q0", ("g1", "g0"), [0.875, 0.333333333]),
                                        ("q1", ("g2",), [-0.5])]
        assert ranking_rows(loaded) == [(q, items, [float(f"{s:.9g}") for s in scores])
                                        for q, items, scores in ranking_rows(rankings)]
        text = path.read_text()
        assert "q0\t1\tg1\t0.875\n" in text

    def test_nine_significant_digits(self, tmp_path):
        r = Rankings.from_entries(["q"], [0], ["g"], [1 / 3])
        path = tmp_path / "r.tsv"
        formats.save_rankings(r, path)
        assert path.read_text() == "q\t1\tg\t0.333333333\n"

    def test_rank_sequence_enforced(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q\t1\tg0\t0.9\nq\t3\tg1\t0.5\n")
        with pytest.raises(ParseError, match="out of sequence"):
            formats.load_rankings(path)

    @pytest.mark.parametrize("line, message", [
        ("q\t2\tg1\t0.95", "ranking for 'q': scores increase"),
        ("q\t2\tg0\t0.5", "ranking for 'q': duplicate gallery ids"),
        ("q\t2\tg1\tnan", "score nan is not finite"),
        ("q\t2\tg1\t-inf", "score -inf is not finite"),
    ])
    def test_bad_line_named(self, tmp_path, line, message):
        path = tmp_path / "bad.tsv"
        path.write_text("q\t1\tg0\t0.9\n" + line + "\n")
        with pytest.raises(ParseError) as e:
            formats.load_rankings(path)
        assert str(e.value) == f"{path}:2: {message}"


    def test_score_rise_named_before_a_later_text_fault(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q\t1\tg0\t0.5\nq\t2\tg1\t0.9\nq\t3\tg2\tx\n")
        with pytest.raises(ParseError) as e:
            formats.load_rankings(path)
        assert str(e.value) == f"{path}:2: ranking for 'q': scores increase"

    def test_interleaved_queries_name_the_earliest_line(self, tmp_path):
        # r's rise is on line 3, q's on line 4, though q's entries come first
        path = tmp_path / "bad.tsv"
        path.write_text("q\t1\tg0\t0.5\nr\t1\tg0\t0.5\nr\t2\tg1\t0.9\n"
                        "q\t2\tg1\t0.9\n")
        with pytest.raises(ParseError) as e:
            formats.load_rankings(path)
        assert str(e.value) == f"{path}:3: ranking for 'r': scores increase"

    def test_interleaved_faults_are_found_in_one_pass(self, tmp_path, monkeypatch):
        # 20 queries, interleaved rank by rank: query i repeats its first id
        # at rank 20 - i, so the later a query's first line, the earlier its
        # fault, and q18's, on line 39, is the earliest
        path = tmp_path / "bad.tsv"
        path.write_text("".join(f"q{i}\t{rank}\tg{0 if rank == 20 - i else rank - 1}"
                                f"\t{1 - rank / 64}\n"
                                for rank in range(1, 21) for i in range(20)))
        calls = []
        from_entries = Rankings.from_entries.__func__

        def counted(cls, *args):
            calls.append(args)
            return from_entries(cls, *args)

        monkeypatch.setattr(Rankings, "from_entries", classmethod(counted))
        with pytest.raises(ParseError) as e:
            formats.load_rankings(path)
        assert str(e.value) == f"{path}:39: ranking for 'q18': duplicate gallery ids"
        assert len(calls) == 1

    def test_failed_save_keeps_previous_file(self, tmp_path):
        class Broken(str):
            # fails when its lines are formatted, after the first query's are written
            def __format__(self, spec):
                raise RuntimeError("disk full")

        path = tmp_path / "rankings.tsv"
        formats.save_rankings(Rankings.from_entries(["q1"], [0], ["g0"], [0.9]), path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="disk full"):
            formats.save_rankings(Rankings.from_entries(["q1", Broken("q2")], [0, 1],
                                                        ["g0", "g1"], [0.9, 0.5]), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["rankings.tsv"]


class TestRetrievalGt:
    def test_roundtrip(self, tmp_path):
        gt = {"q0": {"g0", "g3"}, "q1": set()}
        path = tmp_path / "gt.jsonl"
        formats.save_retrieval_gt(gt, path)
        assert formats.load_retrieval_gt(path) == gt

    @at_every_chunk
    def test_duplicate_query_rejected(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        line = json.dumps({"query_id": "q0", "matches": ["g0"]})
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(ParseError, match="duplicate"):
            formats.load_retrieval_gt(path)


def load_ids(path):
    data = path.with_name("m.emb")
    data.write_bytes(b"EMB1" + (2).to_bytes(4, "little") + (2).to_bytes(4, "little")
                     + np.ones((2, 2), dtype="<f4").tobytes())
    return formats.load_embeddings(data, path)


_DET = {"image_id": "i", "model_id": "m", "category_id": 1, "score": 0.5, "bbox": [0, 0, 1, 1]}
_GT = {"image_id": "i", "category_id": 1, "bbox": [0, 0, 1, 1]}
_ID = {"row": 0, "item_id": "a", "image_id": "x", "box_id": "b", "category_id": 1,
       "source": "query"}
# (loader, first record, changes to it on line 2, message on line 2); no
# number is a boolean, integers fit in int64, and ground truth takes the
# detections' category rule
FIELD_RULES = [
    (formats.load_detections, _DET, {"category_id": True, "score": True},
     "field 'category_id' has wrong type: True"),
    (formats.load_detections, _DET, {"score": False}, "field 'score' has wrong type: False"),
    (formats.load_detections, _DET, {"bbox": [0, 0, True, 1]}, "bbox must be [x1, y1, x2, y2]"),
    (formats.load_detections, _DET, {"category_id": 2 ** 63},
     "category_id 9223372036854775808 out of range"),
    (formats.load_detection_gt, _GT, {"category_id": False},
     "field 'category_id' has wrong type: False"),
    (formats.load_detection_gt, _GT, {"category_id": 0}, "category_id 0 must be an integer >= 1"),
    (formats.load_detection_gt, _GT, {"category_id": 10 ** 23},
     "category_id 100000000000000000000000 out of range"),
    (load_ids, _ID, {"row": False}, "field 'row' has wrong type: False"),
    (load_ids, _ID, {"row": 1, "source": "gallery"}, "duplicate item_id 'a'"),
    (load_ids, _ID, {"row": 1, "item_id": "a\x00"}, "item_id 'a\\x00' ends in NUL"),
    (load_ids, _ID, {"row": 1, "item_id": "g\t1"},
     "item_id 'g\\t1' holds a tab, newline or lone surrogate"),
    (load_ids, _ID, {"row": 1, "item_id": "g\ud800"},
     "item_id 'g\\ud800' holds a tab, newline or lone surrogate"),
    (load_ids, _ID, {"row": 1, "item_id": "c", "category_id": 10 ** 23},
     "category_id 100000000000000000000000 out of range"),
    (formats.load_retrieval_gt, {"query_id": "q", "matches": []}, {"matches": [True]},
     "matches must be a list of strings"),
]


@pytest.mark.parametrize("loader, record, changes, message", FIELD_RULES,
                         ids=[f"{rule[0].__name__}-{rule[3]}" for rule in FIELD_RULES])
@at_every_chunk
def test_field_rules_name_the_line(tmp_path, loader, record, changes, message):
    path = tmp_path / "f.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps({**record, **changes}) + "\n")
    with pytest.raises(ParseError) as e:
        loader(path)
    assert str(e.value).startswith(f"{path}:2: {message}")


# (loader, first record, a record with a bad value, its message)
VALUE_FAULTS = [
    (formats.load_detections, _DET, {**_DET, "score": 1.5}, "score 1.5 outside [0, 1]"),
    (formats.load_detection_gt, _GT, {**_GT, "bbox": [5, 5, 5, 9]},
     "degenerate box (5.0, 5.0, 5.0, 9.0): zero or negative area"),
    (load_ids, _ID, {**_ID, "row": 1, "source": "both"},
     "source 'both' must be one of ('query', 'gallery')"),
    (formats.load_retrieval_gt, {"query_id": "q", "matches": []},
     {"query_id": "q", "matches": ["g"]}, "duplicate query_id 'q'"),
]


@pytest.mark.parametrize("value_first", [True, False])
@pytest.mark.parametrize("fault", ["json", "type"])
@pytest.mark.parametrize("loader, record, bad, message", VALUE_FAULTS,
                         ids=[rule[0].__name__ for rule in VALUE_FAULTS])
@at_every_chunk
def test_earliest_bad_line_wins(tmp_path, loader, record, bad, message, fault, value_first):
    # a value fault on line 2 and a reader fault on line 3, or the reverse
    other = "{" if fault == "json" else json.dumps({**record, next(iter(record)): None})
    lines = [json.dumps(record), json.dumps(bad), other]
    if not value_first:
        lines[1:] = lines[:0:-1]
    path = tmp_path / "f.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as e:
        loader(path)
    assert e.value.line == 2
    if value_first:
        assert str(e.value) == f"{path}:2: {message}"


@pytest.mark.parametrize("changes, message", [
    ({"bbox": [0, 0, 10 ** 400, 1]}, "int too large to convert to float"),
    ({"score": 10 ** 400}, "int too large to convert to float"),
    ({"category_id": -2 ** 63 - 1}, f"category_id {-2 ** 63 - 1} out of range"),
], ids=["coordinate", "score", "negative-category"])
@at_every_chunk
def test_number_too_large_for_its_array(tmp_path, changes, message):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(_DET) + "\n" + json.dumps({**_DET, **changes}) + "\n")
    with pytest.raises(ParseError) as e:
        formats.load_detections(path)
    assert str(e.value) == f"{path}:2: {message}"


@pytest.mark.parametrize("loader, record, key", [
    (formats.load_detections, _DET, "category_id"),
    (formats.load_detection_gt, _GT, "category_id"),
    (load_ids, _ID, "row"),
    (formats.load_retrieval_gt, {"query_id": "q", "matches": []}, "query_id"),
], ids=["detections", "detection-gt", "ids", "retrieval-gt"])
@at_every_chunk
def test_integer_too_long_to_convert_names_its_line(tmp_path, loader, record, key):
    # json refuses to convert an integer of more than 4300 digits, with a
    # plain ValueError rather than a JSONDecodeError
    path = tmp_path / "f.jsonl"
    line = json.dumps({**record, key: "@"}).replace('"@"', "1" * 5000)
    path.write_text(json.dumps(record) + "\n" + line + "\n")
    with pytest.raises(ParseError) as e:
        loader(path)
    assert e.value.line == 2
    assert str(e.value).startswith(f"{path}:2: invalid JSON: Exceeds the limit")


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc saw while call() ran, over what was held before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def fused_set(tmp_path_factory):
    """A detections file of about 10,000 records and the fused table of
    five such detectors."""
    spec = SyntheticSpec(seed=3, num_images=1500, num_categories=5, gt_boxes_per_image=6,
                         detector_count=5, jitter_sigma=8.0, miss_rate=0.2, fp_rate=0.3)
    layout = synth_layout(spec)
    parts = [synth_detections(spec, layout, d) for d in range(5)]
    path = tmp_path_factory.mktemp("fused") / "d.jsonl"
    formats.save_detections(parts[0], path)
    return path, fuse_detections(Detections.concat(parts), WbfParams())


def test_loader_memory_grows_with_the_chunk_not_the_file(fused_set, monkeypatch):
    # the whole file's Python values took about 460 bytes per record
    path, _ = fused_set
    monkeypatch.setattr(formats, "CHUNK_LINES", 256)
    loaded = formats.load_detections(path)
    assert len(loaded) > 30 * formats.CHUNK_LINES
    peak = traced_peak(lambda: formats.load_detections(path))
    out = sum(column.nbytes for column in (loaded.coords, loaded.scores, loaded.category_ids,
                                           loaded.image_codes, loaded.model_codes))
    # the compact columns, their line numbers and the join, plus one
    # chunk's Python values
    assert peak - out < 64 * len(loaded) + 1000 * formats.CHUNK_LINES


def test_writer_memory_grows_with_the_block_not_the_table(fused_set, monkeypatch, tmp_path):
    # converting every column at once took about 340 bytes per fused box
    _, fused = fused_set
    monkeypatch.setattr(formats, "BLOCK_BOXES", 512)
    assert len(fused) > 40 * formats.BLOCK_BOXES
    peak = traced_peak(lambda: formats.save_fused_boxes(fused, tmp_path / "f.jsonl"))
    assert peak < 16 * len(fused) + 1000 * formats.BLOCK_BOXES


def test_box_rules_applied_once_per_load(tmp_path, monkeypatch):
    dets = detections([(0, 0, 2, 2, 0.25, 1, "i0", "m"), (1, 1, 3, 4, 0.5, 2, "i1", "m")])
    path = tmp_path / "d.jsonl"
    formats.save_detections(dets, path)
    calls, rules = [], boxes.detection_rules

    def counted(*columns):
        calls.append(len(columns[0]))
        return rules(*columns)

    monkeypatch.setattr(formats, "detection_rules", counted)
    monkeypatch.setattr(boxes, "detection_rules", counted)
    assert boxes_to_dicts(formats.load_detections(path)) == boxes_to_dicts(dets)
    assert calls == [2]


def test_sidecar_roundtrip_keeps_every_id(tmp_path):
    # a trailing NUL survives in image and box ids; a boolean is no category
    ids = [IdRecord("é", "i\x00", "b\x00\x00", 2 ** 63 - 1, "query"),
           IdRecord("", "", "", 0, "gallery")]
    m = EmbeddingMatrix(np.eye(2), ids)
    formats.save_embeddings(m, tmp_path / "m.emb", tmp_path / "m.ids.jsonl")
    assert formats.load_embeddings(tmp_path / "m.emb", tmp_path / "m.ids.jsonl").ids == tuple(ids)
    with pytest.raises(DataError, match="category_id True must be"):
        EmbeddingMatrix(np.eye(2), [IdRecord("a", "i", "b", True, "query"), ids[1]])


@pytest.mark.parametrize("score, category, x2", [(True, 1, 1.0), (1.0, True, 1.0), (1.0, 1, True)])
def test_no_boolean_is_a_detection_number(score, category, x2):
    # load_detections rejects a boolean, and so does a table built in code
    column = "scores" if score is True else "category_ids" if category is True else "coords"
    with pytest.raises(DataError, match=f"^{column}: True is not a number$"):
        Detections.from_columns([(0.0, 0.0, x2, 1.0)], [score], [category], ["i"], ["m"])


def test_bare_cr_ends_no_line(tmp_path):
    # two records split by a "\r" are one line, which is not JSON
    path = tmp_path / "cr.jsonl"
    path.write_bytes(b'{"query_id": "q0", "matches": []}\r{"query_id": "q1", "matches": []}\n'
                     b'{"query_id": "q0", "matches": []}\n')
    with pytest.raises(ParseError, match="invalid JSON") as e:
        formats.load_retrieval_gt(path)
    assert e.value.line == 1


@pytest.mark.parametrize("loader, text", [
    (formats.load_detections, json.dumps(_DET) + "\n\n" + json.dumps({**_DET, "score": 1}) + "\n"),
    (formats.load_detection_gt, json.dumps(_GT) + "\n" + json.dumps({**_GT, "image_id": "j"})),
    (formats.load_retrieval_gt,
     '{"query_id": "q", "matches": ["g"]}\n{"query_id": "r", "matches": []}\n'),
    (formats.load_rankings, "q\t1\tg0\t0.9\nq\t2\tg1\t0.5\n"),
], ids=lambda v: getattr(v, "__name__", ""))
def test_crlf_loads_as_lf(tmp_path, loader, text):
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    loaded = [loader(crlf), loader(lf)]
    if isinstance(loaded[0], Detections):
        loaded = [boxes_to_dicts(table) for table in loaded]
    elif isinstance(loaded[0], Rankings):
        loaded = [ranking_rows(rankings) for rankings in loaded]
    assert loaded[0] == loaded[1]


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
        if not (type(bbox) is list and len(bbox) == 4
                and all(type(v) in (int, float) for v in bbox)
                and type(score) in (int, float) and type(category) is int
                and type(image_id) is str and type(model_id) is str):
            return lineno, None
        x1, y1, x2, y2 = (float(v) for v in bbox)
        if not (all(math.isfinite(v) for v in (x1, y1, x2, y2)) and x1 < x2 and y1 < y2
                and 0.0 <= score <= 1.0 and category >= 1):
            return lineno, None
        out.append({"box": (x1, y1, x2, y2), "score": float(score), "category_id": category,
                    "image_id": image_id, "model_id": model_id})
    return None, out


_WRONG_VALUES = [None, "1", [], {}, True, False, 0, -1, 2.5, float("nan"), float("inf"),
                 [1, 2, 3], [0, 0, 5, "9"], [5, 5, 1, 9], [0, 0, 0, 4], [0, float("nan"), 1, 1],
                 [0, 0, True, 4]]


GARBLES = [b"{", b"]", b",", b'"', b"x", b" ", b"\\", b"\xff", b"\xc3", b"\r"]
JUNK_LINES = [b"", b"  ", b"[1, 2]", b"5", b"null", b"{}"]


def corrupt(draw, records, wrong_values, encode=lambda r: json.dumps(r).encode()):
    """The encoded records, 0 to 3 of them truncated, garbled, given a
    wrong value, missing a field or replaced by a junk line."""
    lines = [encode(r) for r in records]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["truncate", "garble", "value", "drop", "replace"]))
        if kind == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
        elif kind == "garble":
            at = draw(st.integers(0, max(len(lines[i]) - 1, 0)))
            lines[i] = lines[i][:at] + draw(st.sampled_from(GARBLES)) + lines[i][at + 1:]
        elif kind in ("value", "drop"):
            record = dict(records[i])
            key = draw(st.sampled_from(sorted(record)))
            if kind == "drop":
                del record[key]
            else:
                record[key] = draw(st.sampled_from(wrong_values))
            lines[i] = encode(record)
        else:
            lines[i] = draw(st.sampled_from(JUNK_LINES))
    return lines


@st.composite
def fuzzed_detection_files(draw):
    records = [{"image_id": draw(st.sampled_from(["i0", "i1", "ï\x00"])),
                "model_id": draw(st.sampled_from(["m0", "m1"])),
                "category_id": draw(st.integers(1, 3)),
                "score": draw(st.sampled_from([0.0, 0.25, 1.0, 1])),
                "bbox": [0, 0.5, draw(st.integers(1, 9)), 7.25]}
               for _ in range(draw(st.integers(1, 8)))]
    return corrupt(draw, records, _WRONG_VALUES)


class TestDetectionFuzz:
    @settings(max_examples=400, deadline=None)
    @given(fuzzed_detection_files(), st.sampled_from(CHUNKS))
    def test_only_parse_errors_naming_the_first_bad_line(self, lines, chunk):
        bad_line, expected = reference_load(lines)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(formats, "CHUNK_LINES", chunk):
            path = Path(tmp) / "d.jsonl"
            path.write_bytes(b"\n".join(lines) + b"\n")
            if bad_line is None:
                assert boxes_to_dicts(formats.load_detections(path)) == expected
            else:
                with pytest.raises(ParseError) as e:
                    formats.load_detections(path)
                assert e.value.line == bad_line


def reference_lines(lines: list[bytes]):
    """(line number, text) of each non-blank line, or the number of the
    first line that is not UTF-8 in place of the text."""
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            yield lineno, None
            return
        if line.strip():
            yield lineno, line


def reference_records(lines: list[bytes], keys: tuple[str, ...]):
    """(line number, values of `keys`) of each record, or None in place of
    the values for a line that is not an object holding every key."""
    for lineno, line in reference_lines(lines):
        try:
            obj = json.loads(line)
            yield lineno, tuple(obj[key] for key in keys)
        except (ValueError, KeyError, TypeError):
            yield lineno, None
            return


def reference_box(bbox, category):
    """The box of a detection or ground-truth record, or None if the
    format rejects it."""
    if not (type(bbox) is list and len(bbox) == 4 and all(type(v) in (int, float) for v in bbox)
            and type(category) is int and 1 <= category < 2 ** 63):
        return None
    x1, y1, x2, y2 = (float(v) for v in bbox)
    if all(math.isfinite(v) for v in (x1, y1, x2, y2)) and x1 < x2 and y1 < y2:
        return (x1, y1, x2, y2)
    return None


def reference_detection_gt(lines):
    gt = {}
    for lineno, values in reference_records(lines, ("image_id", "category_id", "bbox")):
        if values is None or type(values[0]) is not str:
            return lineno, None
        image_id, category, bbox = values
        box = reference_box(bbox, category)
        if box is None:
            return lineno, None
        gt.setdefault(image_id, []).append((box, category))
    return None, gt


def reference_retrieval_gt(lines):
    gt = {}
    for lineno, values in reference_records(lines, ("query_id", "matches")):
        if (values is None or type(values[0]) is not str or type(values[1]) is not list
                or not all(type(m) is str for m in values[1]) or values[0] in gt):
            return lineno, None
        gt[values[0]] = set(values[1])
    return None, gt


def reference_ids(lines, n_rows):
    """(first line the sidecar format rejects, 0 for a clean file with the
    wrong number of records, or None; the id records of a clean file)."""
    ids = []
    keys = ("row", "item_id", "image_id", "box_id", "category_id", "source")
    for lineno, values in reference_records(lines, keys):
        if values is None:
            return lineno, None
        row, item_id, image_id, box_id, category, source = values
        if not (type(row) is int and type(category) is int
                and all(type(v) is str for v in (item_id, image_id, box_id, source))
                and row == len(ids) and 0 <= category < 2 ** 63
                and source in ("query", "gallery") and not item_id.endswith("\x00")
                and "\t" not in item_id and "\n" not in item_id
                and not any(0xD800 <= ord(c) < 0xE000 for c in item_id)
                and item_id not in {r.item_id for r in ids}):
            return lineno, None
        ids.append(IdRecord(item_id, image_id, box_id, category, source))
    return (0 if len(ids) != n_rows else None), ids


def reference_rankings(lines):
    per_query = {}
    for lineno, line in reference_lines(lines):
        parts = [] if line is None else line.split("\t")
        if len(parts) != 4:
            return lineno, None
        query_id, rank, item_id, score = parts
        try:
            rank, score = int(rank), float(score)
        except ValueError:
            return lineno, None
        items, scores = per_query.setdefault(query_id, ([], []))
        if (not math.isfinite(score) or rank != len(items) + 1
                or (scores and score > scores[-1]) or item_id in items):
            return lineno, None
        items.append(item_id)
        scores.append(score)
    return None, [(q, items, scores) for q, (items, scores) in per_query.items()]


_WRONG_IDS = [None, 1, True, False, -1, 2 ** 63, 2.0, "1", "g0", "g\t1", "g\ud800", "query",
              "gallery", "both", [], {}]
_WRONG_TSV = ["", "0", "3", "-1", "1.5", "x", "nan", "inf", "-inf", "1e999", "0.9", "g1", "q1"]


@st.composite
def fuzzed_gt_files(draw):
    records = [{"image_id": draw(st.sampled_from(["i0", "i1", "ï\x00"])),
                "category_id": draw(st.integers(1, 3)),
                "bbox": [0, 0.5, draw(st.integers(1, 9)), 7.25]}
               for _ in range(draw(st.integers(1, 8)))]
    return corrupt(draw, records, _WRONG_VALUES + [10 ** 23, 2 ** 63])


@st.composite
def fuzzed_retrieval_gt_files(draw):
    records = [{"query_id": f"q{i}", "matches": draw(st.lists(st.sampled_from(["g0", "g1", "é"])))}
               for i in range(draw(st.integers(1, 6)))]
    return corrupt(draw, records, _WRONG_IDS + ["q0", ["g0", 1], ["g0", None], [["g0"]]])


@st.composite
def fuzzed_id_files(draw):
    records = [{"row": i, "item_id": f"g{i}", "image_id": draw(st.sampled_from(["x", "ï\x00"])),
                "box_id": f"b{i}", "category_id": draw(st.integers(0, 3)),
                "source": draw(st.sampled_from(["query", "gallery"]))}
               for i in range(draw(st.integers(1, 6)))]
    return corrupt(draw, records, _WRONG_IDS + ["g\x00"]), len(records)


@st.composite
def fuzzed_ranking_files(draw):
    queues = []
    for q in range(draw(st.integers(1, 3))):
        scores = sorted(draw(st.lists(st.sampled_from([0.9, 0.5, 0.125, -0.25]),
                                      min_size=1, max_size=4)), reverse=True)
        queues.append([{"query": f"q{q}", "rank": str(rank), "item": f"g{rank}",
                        "score": repr(score)} for rank, score in enumerate(scores, start=1)])
    # the queries' lines interleave, each query's in rank order
    records = []
    while any(queues):
        records.append(draw(st.sampled_from([queue for queue in queues if queue])).pop(0))
    return corrupt(draw, records, _WRONG_TSV, encode=lambda r: "\t".join(r.values()).encode())


# a valid 3 x 2 container, the sidecar of which is `gallery_ids(3)`
_CONTAINER = (b"EMB1" + (3).to_bytes(4, "little") + (2).to_bytes(4, "little")
              + np.linspace(-1.0, 1.0, 6, dtype="<f4").tobytes())


@st.composite
def fuzzed_containers(draw):
    """`_CONTAINER` truncated, padded, and with header or payload bytes set
    to values that change a count or make a float non-finite."""
    blob = bytearray(_CONTAINER)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "pad", "flip header", "flip payload"]))
        if kind == "truncate":
            del blob[draw(st.integers(0, len(blob))):]
        elif kind == "pad":
            blob += draw(st.binary(min_size=1, max_size=12))
        elif blob:
            lo, hi = (0, 12) if kind == "flip header" else (12, len(blob))
            at = draw(st.integers(min(lo, len(blob) - 1), min(hi, len(blob)) - 1))
            blob[at] = draw(st.sampled_from([0x00, 0x01, 0x06, 0x7f, 0x80, 0xff]))
    return bytes(blob)


def load_fuzzed(lines: list[bytes], loader, chunk: int = formats.CHUNK_LINES):
    """loader(path) on the lines written to a temp file, read `chunk`
    records at a time, with the path."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(formats, "CHUNK_LINES", chunk):
        path = Path(tmp) / "f.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        try:
            return loader(path), path
        except DataError as e:
            return e, path


def assert_names_line(error, path, line):
    assert isinstance(error, (ParseError, EmbeddingFormatError)), error
    assert str(error).startswith(f"{path}:{line}: ") or f"] {path}:{line}: " in str(error)


class TestReaderFuzz:
    """Each text reader against a line-at-a-time reference: a clean file
    loads to the reference's value, and a corrupted one raises only
    ParseError or EmbeddingFormatError, naming the first line the
    reference rejects.  A corrupted EMB1 container raises a DataError
    naming the data file."""

    @settings(max_examples=300, deadline=None)
    @given(fuzzed_gt_files(), st.sampled_from(CHUNKS))
    def test_detection_gt(self, lines, chunk):
        bad_line, expected = reference_detection_gt(lines)
        result, path = load_fuzzed(lines, formats.load_detection_gt, chunk)
        if bad_line is None:
            assert by_image(result) == expected
        else:
            assert_names_line(result, path, bad_line)

    @settings(max_examples=300, deadline=None)
    @given(fuzzed_retrieval_gt_files(), st.sampled_from(CHUNKS))
    def test_retrieval_gt(self, lines, chunk):
        bad_line, expected = reference_retrieval_gt(lines)
        result, path = load_fuzzed(lines, formats.load_retrieval_gt, chunk)
        if bad_line is None:
            assert result == expected
        else:
            assert_names_line(result, path, bad_line)

    @settings(max_examples=300, deadline=None)
    @given(fuzzed_id_files(), st.sampled_from(CHUNKS))
    def test_id_sidecar(self, case, chunk):
        lines, n_rows = case
        bad_line, expected = reference_ids(lines, n_rows)
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "m.emb"
            data.write_bytes(b"EMB1" + n_rows.to_bytes(4, "little") + (2).to_bytes(4, "little")
                             + np.ones((n_rows, 2), dtype="<f4").tobytes())
            result, path = load_fuzzed(lines, lambda p: formats.load_embeddings(data, p), chunk)
        if bad_line is None:
            assert result.ids == tuple(expected)
        elif bad_line == 0:
            assert isinstance(result, EmbeddingFormatError) and result.code == "count_mismatch"
        else:
            assert_names_line(result, path, bad_line)

    @settings(max_examples=300, deadline=None)
    @given(fuzzed_containers())
    @example(_CONTAINER[:15] + b"\x7f" + _CONTAINER[16:])  # row 0 holds inf
    @example(_CONTAINER[:4] + b"\x06\0\0\0\x01" + _CONTAINER[9:])  # 6 x 1: 3 ids for 6 rows
    def test_embedding_container(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            data, ids = Path(tmp) / "m.emb", Path(tmp) / "m.ids.jsonl"
            formats.save_embeddings(EmbeddingMatrix(np.ones((3, 2)), gallery_ids(3)), data, ids)
            data.write_bytes(blob)
            try:
                loaded = formats.load_embeddings(data, ids)
            except DataError as e:
                # EmbeddingFormatError and ParseError are DataErrors too
                assert str(data) in str(e)
                return
        n, d = np.frombuffer(blob, "<u4", 2, offset=4)
        assert (blob[:4], n) == (b"EMB1", 3) and len(blob) == 12 + 4 * n * d
        assert np.array_equal(loaded.data, np.frombuffer(blob, "<f4", offset=12).reshape(n, d))

    @settings(max_examples=300, deadline=None)
    @given(fuzzed_ranking_files())
    def test_rankings(self, lines):
        bad_line, expected = reference_rankings(lines)
        result, path = load_fuzzed(lines, formats.load_rankings)
        if bad_line is None:
            assert [(q, list(items), scores)
                    for q, items, scores in ranking_rows(result)] == expected
        else:
            assert_names_line(result, path, bad_line)


def reference_fused_lines(fused) -> str:
    return "".join(json.dumps({
        "image_id": f["image_id"], "model_id": "wbf", "category_id": f["category_id"],
        "score": f["score"], "bbox": list(f["box"]), "cluster_size": f["cluster_size"],
        "model_ids": sorted(f["model_ids"])}) + "\n" for f in fused_to_dicts(fused))


class TestOddIds:
    IDS = ["img", "img\x00", "imgé", "图像", "img\x00\x00", "a b", 'q"\\']

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(IDS), st.sampled_from(IDS),
                              st.integers(0, 6), st.floats(0.0, 1.0)), max_size=30))
    def test_odd_ids_round_trip(self, rows):
        dets = detections((x, x, x + 5.5, x + 4, score, 1, image, model)
                          for image, model, x, score in rows)
        with tempfile.TemporaryDirectory() as tmp:
            det_path, fused_path = Path(tmp) / "d.jsonl", Path(tmp) / "f.jsonl"
            formats.save_detections(dets, det_path)
            loaded = formats.load_detections(det_path)
            assert boxes_to_dicts(loaded) == boxes_to_dicts(dets)
            assert loaded.image_names == dets.image_names == tuple(sorted({r[0] for r in rows}))
            fused = fuse_detections(loaded, WbfParams())
            assert fused_to_dicts(fused) == fused_to_dicts(fuse_detections(dets, WbfParams()))
            formats.save_fused_boxes(fused, fused_path)
            assert fused_path.read_text(encoding="utf-8") == reference_fused_lines(fused)


# strings json.dumps escapes: quotes, backslashes, control characters,
# non-ASCII, U+2028, astral characters and a lone surrogate
WRITTEN_TEXT = st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\t", "\n", "é",
                                        " ", "\U0001f600", "\ud800", "a"])
                       | st.characters(), max_size=5)
# the floats whose repr is shortest-round-trip at the edges, and any finite one
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 0.1, 1.7976931348623157e308,
                               -1.7976931348623157e308])
COORDINATE_PAIRS = st.lists(EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False),
                            min_size=2, max_size=2, unique=True).map(sorted)
INT64_MAX = 2 ** 63 - 1


@st.composite
def box_rows(draw):
    """(x1, y1, x2, y2, score, category, image, model) rows that a
    detections table holds."""
    return [(x1, y1, x2, y2, draw(st.sampled_from([-0.0, 5e-324, 0.1, 1.0])
                                  | st.floats(0.0, 1.0)),
             draw(st.sampled_from([1, INT64_MAX]) | st.integers(1, INT64_MAX)),
             draw(WRITTEN_TEXT), draw(WRITTEN_TEXT))
            for (x1, x2), (y1, y2) in draw(st.lists(st.tuples(COORDINATE_PAIRS,
                                                              COORDINATE_PAIRS), max_size=8))]


def written(path, records) -> None:
    """The file is json.dumps' line for each record, in order."""
    assert path.read_bytes() == "".join(json.dumps(r) + "\n" for r in records).encode()


def same_boxes(a: Detections, b: Detections) -> None:
    assert boxes_to_dicts(a) == boxes_to_dicts(b)
    # bitwise, so that -0.0 stays -0.0
    assert a.coords.tobytes() == b.coords.tobytes() and a.scores.tobytes() == b.scores.tobytes()


class TestWrittenLines:
    """Each JSONL writer writes json.dumps' bytes, and its loader reads the table back."""

    @settings(max_examples=150, deadline=None)
    @given(box_rows())
    def test_detections(self, rows):
        dets = detections(rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.jsonl"
            formats.save_detections(dets, path)
            written(path, [{"image_id": b["image_id"], "model_id": b["model_id"],
                            "category_id": b["category_id"], "score": b["score"],
                            "bbox": list(b["box"])} for b in boxes_to_dicts(dets)])
            same_boxes(formats.load_detections(path), dets)

    @settings(max_examples=150, deadline=None)
    @given(box_rows())
    def test_detection_gt(self, rows):
        # rows sorted by image, as the writer sorts them, so that loading gives the table back
        gt = detections(sorted(((*r[:4], 0.0, r[5], r[6], "") for r in rows), key=lambda r: r[6]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "gt.jsonl"
            formats.save_detection_gt(gt, path)
            written(path, [{"image_id": b["image_id"], "category_id": b["category_id"],
                            "bbox": list(b["box"])} for b in boxes_to_dicts(gt)])
            same_boxes(formats.load_detection_gt(path), gt)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(WRITTEN_TEXT.filter(lambda s: not s.endswith("\x00") and
                                        not re.search("[\t\n\ud800-\udfff]", s)),
                    min_size=1, max_size=8, unique=True), st.data())
    def test_id_sidecar(self, item_ids, data):
        ids = [IdRecord(item_id, data.draw(WRITTEN_TEXT), data.draw(WRITTEN_TEXT),
                        data.draw(st.sampled_from([0, INT64_MAX]) | st.integers(0, INT64_MAX)),
                        data.draw(st.sampled_from(["query", "gallery"])))
               for item_id in item_ids]
        m = EmbeddingMatrix(np.eye(len(ids)), ids)
        with tempfile.TemporaryDirectory() as tmp:
            emb, path = Path(tmp) / "m.emb", Path(tmp) / "m.ids.jsonl"
            formats.save_embeddings(m, emb, path)
            written(path, [{"row": row, "item_id": r.item_id, "image_id": r.image_id,
                            "box_id": r.box_id, "category_id": r.category_id,
                            "source": r.source} for row, r in enumerate(ids)])
            assert formats.load_embeddings(emb, path).ids == tuple(ids)

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(WRITTEN_TEXT, st.sets(WRITTEN_TEXT, max_size=4), max_size=6))
    def test_retrieval_gt(self, gt):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "gt.jsonl"
            formats.save_retrieval_gt(gt, path)
            written(path, [{"query_id": q, "matches": sorted(gt[q])} for q in sorted(gt)])
            assert formats.load_retrieval_gt(path) == gt
