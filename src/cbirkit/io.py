"""File formats: detections JSONL, the EMB1 embedding container, rankings
TSV, retrieval ground-truth JSONL, and the report JSON.

Detections (one JSON object per line):
  {"image_id": str, "model_id": str, "category_id": int, "score": float,
   "bbox": [x1, y1, x2, y2]}            # absolute pixels, x2 > x1, y2 > y1

Detection ground truth: the same minus "model_id" and "score".

Embeddings: bytes 0-3 ASCII "EMB1", bytes 4-7 row count N (u32 LE),
bytes 8-11 dim D (u32 LE), then N*D IEEE-754 float32 LE row-major.
Ids sidecar (JSONL, one record per row, in row order):
  {"row": int, "item_id": str, "image_id": str, "box_id": str,
   "category_id": int, "source": "query"|"gallery"}

Rankings TSV: query_id <TAB> rank (1-based) <TAB> gallery item_id
<TAB> score (9 significant digits).

Retrieval ground truth (JSONL): {"query_id": str, "matches": [str, ...]}.

Detections load as `boxes.Detections` columns, and fused boxes are
written from `boxes.FusedDetections` columns, each line formatted exactly
as `json.dumps` writes its record.  A JSONL line that is not valid UTF-8
raises ParseError naming that line.

The pipeline's outputs (fused boxes, rankings, report) are written to a
temp file beside the target and moved into place with `os.replace`, so a
failed save leaves any previous file whole.
"""

from __future__ import annotations

import json
import json.scanner
import operator
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .boxes import BoundingBox, Detections, FusedBox, FusedDetections, ScoredBox, invalid_detections
from .embeddings import EmbeddingMatrix, IdRecord
from .errors import ConfigError, DataError, EmbeddingFormatError, ParseError
from .evaluation import GroundTruthDet, GroundTruthRet
from .search import RankingList

EMB_MAGIC = b"EMB1"
_EMB_HEADER = struct.Struct("<4sII")


@contextmanager
def _atomic_open(path: str | Path, **kwargs):
    """A text file to write that replaces `path` only when the block ends
    without error; on error the temp file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_json_object(path: str | Path) -> dict:
    """Read a JSON config or spec file holding one object.  An unreadable
    file, invalid JSON or another top-level value raises ConfigError
    naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise ConfigError(f"{path}: cannot read: {e.strerror}") from None
    except ValueError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return obj


# the scanner json.loads runs, called without json.loads's per-call wrapper
_SCAN_JSON = json.scanner.make_scanner(json.JSONDecoder())


def _decode_line(line: str):
    """json.loads(line); a value that starts at column 0 and is followed
    only by whitespace is scanned directly."""
    try:
        obj, end = _SCAN_JSON(line, 0)
    except StopIteration:
        return json.loads(line)
    if line[end:].strip(" \t\r\n"):
        return json.loads(line)
    return obj


def _jsonl_records(path: str | Path):
    # undecodable bytes become lone surrogates, so that they fail on their
    # own line rather than on the block they were read in
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(str(path), lineno, "not valid UTF-8") from None
            if not line.strip():
                continue
            try:
                obj = _decode_line(line)
            except json.JSONDecodeError as e:
                raise ParseError(str(path), lineno, f"invalid JSON: {e.msg}") from None
            if not isinstance(obj, dict):
                raise ParseError(str(path), lineno, "record is not a JSON object")
            yield lineno, obj


def _field(path, lineno, obj, key, types):
    try:
        value = obj[key]
    except KeyError:
        raise ParseError(str(path), lineno, f"missing field '{key}'") from None
    if not isinstance(value, types):
        raise ParseError(str(path), lineno, f"field '{key}' has wrong type: {value!r}")
    return value


def _parse_bbox(path, lineno, obj) -> BoundingBox:
    raw = _field(path, lineno, obj, "bbox", list)
    if len(raw) != 4 or not all(isinstance(v, (int, float)) for v in raw):
        raise ParseError(str(path), lineno, f"bbox must be [x1, y1, x2, y2], got {raw!r}")
    try:
        return BoundingBox(*(float(v) for v in raw))
    except (DataError, OverflowError) as e:
        raise ParseError(str(path), lineno, str(e)) from None


_INT64_MAX = np.iinfo(np.int64).max
_DETECTION_KEYS = ("bbox", "score", "category_id", "image_id", "model_id")
_DETECTION_FIELDS = operator.itemgetter(*_DETECTION_KEYS)
_NUMBER = (float, int)


def _detection_record(path, lineno, obj) -> tuple:
    """The fields of one detection record, checked one at a time in a fixed
    order; the first problem raises ParseError."""
    box = _parse_bbox(path, lineno, obj)
    score = _field(path, lineno, obj, "score", (int, float))
    category = _field(path, lineno, obj, "category_id", int)
    image_id = _field(path, lineno, obj, "image_id", str)
    model_id = _field(path, lineno, obj, "model_id", str)
    try:
        ScoredBox(box=box, score=float(score), category_id=category,
                  image_id=image_id, model_id=model_id)
    except (DataError, OverflowError) as e:
        raise ParseError(str(path), lineno, str(e)) from None
    if category > _INT64_MAX:
        raise ParseError(str(path), lineno, f"category_id {category} out of range")
    return list(box.as_tuple()), float(score), category, image_id, model_id


def _detection_columns(path, lines, boxes, scores, categories, images, models):
    """(coords, scores, category ids) as arrays.  Unless the values form
    numeric columns that a ScoredBox would accept, every row is checked on
    its own, so the ParseError names the first bad line."""
    if not lines:
        return np.zeros((0, 4)), np.zeros(0), np.zeros(0, dtype=np.int64)
    coords, score_col, category_col = np.array(boxes), np.array(scores), np.array(categories)
    if (coords.dtype.kind in "biuf" and coords.shape == (len(lines), 4)
            and score_col.dtype.kind in "bif" and category_col.dtype.kind in "bi"):
        coords, score_col = coords.astype(np.float64), score_col.astype(np.float64)
        category_col = category_col.astype(np.int64)
        if not invalid_detections(coords, score_col, category_col).any():
            return coords, score_col, category_col
    records = [_detection_record(path, lineno, dict(zip(_DETECTION_KEYS, row)))
               for lineno, row in zip(lines, zip(boxes, scores, categories, images, models))]
    boxes, scores, categories = zip(*(r[:3] for r in records))
    return (np.array(boxes, dtype=np.float64), np.array(scores, dtype=np.float64),
            np.array(categories, dtype=np.int64))


def load_detections(path: str | Path) -> Detections:
    """Parse a detections JSONL file into columns; errors carry the number
    of the first offending line.  Each line is decoded once and its fields
    are type-tested; the value checks then run over whole columns."""
    lines, boxes, scores, categories, images, models = [], [], [], [], [], []
    try:
        for lineno, obj in _jsonl_records(path):
            try:
                box, score, category, image_id, model_id = _DETECTION_FIELDS(obj)
            except KeyError:
                box = None
            if not (type(box) is list and len(box) == 4 and type(score) in _NUMBER
                    and type(category) is int and type(image_id) is str
                    and type(model_id) is str):
                box, score, category, image_id, model_id = _detection_record(path, lineno, obj)
            lines.append(lineno)
            boxes.append(box)
            scores.append(score)
            categories.append(category)
            images.append(image_id)
            models.append(model_id)
    except ParseError:
        # an earlier line's bad value comes first
        _detection_columns(path, lines, boxes, scores, categories, images, models)
        raise
    coords, score_col, category_col = _detection_columns(
        path, lines, boxes, scores, categories, images, models)
    return Detections.from_columns(coords, score_col, category_col, images, models)


def save_detections(boxes: Iterable[ScoredBox], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for b in boxes:
            fh.write(json.dumps({
                "image_id": b.image_id,
                "model_id": b.model_id,
                "category_id": b.category_id,
                "score": b.score,
                "bbox": list(b.box.as_tuple()),
            }) + "\n")


def save_fused_boxes(fused: FusedDetections | Iterable[FusedBox], path: str | Path) -> None:
    """Fused boxes use the detections schema (model_id "wbf") plus
    cluster_size and the contributing model ids, so the file can be fed
    straight back into detection evaluation.  Lines are formatted from the
    columns, byte for byte as json.dumps writes the record."""
    fused = FusedDetections.of(fused)
    images = [json.dumps(name) for name in fused.image_names]
    models = [json.dumps(name) for name in fused.model_names]
    codes, bounds = fused.model_codes.tolist(), fused.model_indptr.tolist()
    member_lists: dict[tuple[int, ...], str] = {}
    with _atomic_open(path) as fh:
        for i, (image, category, score, (x1, y1, x2, y2), size) in enumerate(zip(
                fused.image_codes.tolist(), fused.category_ids.tolist(),
                fused.scores.tolist(), fused.coords.tolist(),
                fused.cluster_sizes.tolist())):
            key = tuple(codes[bounds[i]:bounds[i + 1]])
            members = member_lists.get(key)
            if members is None:
                members = member_lists[key] = "[" + ", ".join(models[c] for c in key) + "]"
            fh.write(f'{{"image_id": {images[image]}, "model_id": "wbf", '
                     f'"category_id": {category}, "score": {score!r}, '
                     f'"bbox": [{x1!r}, {y1!r}, {x2!r}, {y2!r}], '
                     f'"cluster_size": {size}, "model_ids": {members}}}\n')


def load_detection_gt(path: str | Path) -> GroundTruthDet:
    gt: dict[str, list[tuple[BoundingBox, int]]] = {}
    for lineno, obj in _jsonl_records(path):
        box = _parse_bbox(path, lineno, obj)
        category = _field(path, lineno, obj, "category_id", int)
        image_id = _field(path, lineno, obj, "image_id", str)
        gt.setdefault(image_id, []).append((box, category))
    return gt


def save_detection_gt(gt: GroundTruthDet, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for image_id in sorted(gt):
            for box, category in gt[image_id]:
                fh.write(json.dumps({
                    "image_id": image_id,
                    "category_id": category,
                    "bbox": list(box.as_tuple()),
                }) + "\n")


def save_embeddings(m: EmbeddingMatrix, data_path: str | Path, ids_path: str | Path) -> None:
    """Write the binary matrix (values cast to float32) and its id sidecar."""
    with open(data_path, "wb") as fh:
        fh.write(_EMB_HEADER.pack(EMB_MAGIC, m.n_rows, m.dim))
        fh.write(np.ascontiguousarray(m.data, dtype="<f4").tobytes())
    with open(ids_path, "w", encoding="utf-8") as fh:
        for row, rec in enumerate(m.ids):
            fh.write(json.dumps({
                "row": row,
                "item_id": rec.item_id,
                "image_id": rec.image_id,
                "box_id": rec.box_id,
                "category_id": rec.category_id,
                "source": rec.source,
            }) + "\n")


def load_embeddings(data_path: str | Path, ids_path: str | Path) -> EmbeddingMatrix:
    """Read the binary matrix plus sidecar; malformed containers raise
    EmbeddingFormatError with a distinct code."""
    with open(data_path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _EMB_HEADER.size:
        raise EmbeddingFormatError("truncated", f"{data_path}: file shorter than the header")
    magic, n, d = _EMB_HEADER.unpack_from(blob)
    if magic != EMB_MAGIC:
        raise EmbeddingFormatError("bad_magic", f"{data_path}: magic {magic!r} != {EMB_MAGIC!r}")
    if n == 0 or d == 0:
        raise EmbeddingFormatError("empty_matrix", f"{data_path}: empty matrix ({n} x {d})")
    expected = _EMB_HEADER.size + 4 * n * d
    if len(blob) != expected:
        raise EmbeddingFormatError(
            "truncated",
            f"{data_path}: payload is {len(blob) - _EMB_HEADER.size} bytes, "
            f"expected {4 * n * d} for {n} x {d}",
        )
    data = np.frombuffer(blob, dtype="<f4", offset=_EMB_HEADER.size).reshape(n, d)

    ids: list[IdRecord] = []
    for lineno, obj in _jsonl_records(ids_path):
        row = _field(ids_path, lineno, obj, "row", int)
        if row != len(ids):
            raise EmbeddingFormatError(
                "count_mismatch",
                f"{ids_path}:{lineno}: row index {row}, expected {len(ids)}",
            )
        source = _field(ids_path, lineno, obj, "source", str)
        try:
            ids.append(IdRecord(
                item_id=_field(ids_path, lineno, obj, "item_id", str),
                image_id=_field(ids_path, lineno, obj, "image_id", str),
                box_id=_field(ids_path, lineno, obj, "box_id", str),
                category_id=_field(ids_path, lineno, obj, "category_id", int),
                source=source,
            ))
        except DataError as e:
            raise ParseError(str(ids_path), lineno, str(e)) from None
    if len(ids) != n:
        raise EmbeddingFormatError(
            "count_mismatch", f"{ids_path}: {len(ids)} id records for {n} rows"
        )
    return EmbeddingMatrix(data, ids)


def save_rankings(rankings: Sequence[RankingList], path: str | Path) -> None:
    with _atomic_open(path, newline="\n") as fh:
        for r in rankings:
            for rank, (item_id, score) in enumerate(r.entries(), start=1):
                fh.write(f"{r.query_id}\t{rank}\t{item_id}\t{score:.9g}\n")


def load_rankings(path: str | Path) -> list[RankingList]:
    per_query: dict[str, list[tuple[int, str, float]]] = {}
    order: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise ParseError(str(path), lineno, f"expected 4 tab-separated fields, got {len(parts)}")
            query_id, rank_s, item_id, score_s = parts
            try:
                rank, score = int(rank_s), float(score_s)
            except ValueError:
                raise ParseError(str(path), lineno, "rank or score is not numeric") from None
            if query_id not in per_query:
                per_query[query_id] = []
                order.append(query_id)
            entries = per_query[query_id]
            if rank != len(entries) + 1:
                raise ParseError(str(path), lineno, f"rank {rank} out of sequence")
            entries.append((rank, item_id, score))
    out = []
    for q in order:
        entries = per_query[q]
        try:
            out.append(RankingList(q, tuple(e[1] for e in entries),
                                   np.array([e[2] for e in entries])))
        except DataError as e:
            raise DataError(f"{path}: {e}") from None
    return out


def load_retrieval_gt(path: str | Path) -> GroundTruthRet:
    gt: dict[str, set[str]] = {}
    for lineno, obj in _jsonl_records(path):
        query_id = _field(path, lineno, obj, "query_id", str)
        matches = _field(path, lineno, obj, "matches", list)
        if not all(isinstance(m, str) for m in matches):
            raise ParseError(str(path), lineno, "matches must be a list of strings")
        if query_id in gt:
            raise ParseError(str(path), lineno, f"duplicate query_id {query_id!r}")
        gt[query_id] = set(matches)
    return gt


def save_retrieval_gt(gt: GroundTruthRet, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for query_id in sorted(gt):
            fh.write(json.dumps({"query_id": query_id,
                                 "matches": sorted(gt[query_id])}) + "\n")


def save_report(report: Mapping, path: str | Path) -> None:
    with _atomic_open(path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
