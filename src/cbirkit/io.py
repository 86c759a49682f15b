"""File formats: detections JSONL, the EMB1 embedding container, rankings
TSV, retrieval ground-truth JSONL, and the report JSON.

A JSONL file holds one object per line; blank lines and unknown keys are
skipped.  Each format is a field table of (key, accepted types), in the
order the keys are written and checked: `int` is a JSON integer, `float`
any JSON number, no boolean is a number, and every integer field must fit
in int64.  The values are then checked a column at a time:
  _DETECTIONS    category_id >= 1; score in [0, 1]; bbox [x1, y1, x2, y2]
                 of finite absolute pixels, x2 > x1 and y2 > y1
  _DETECTION_GT  the same, without model_id and score
  _IDS           one record per embedding row, in row order: row is its
                 index; then the rules of `embeddings.EmbeddingMatrix`:
                 item_id unique, not ending in NUL and holding no tab,
                 newline or lone surrogate, so that rankings can hold it;
                 category_id >= 0; source "query" or "gallery"
  _RETRIEVAL_GT  query_id unique; matches a list of gallery item_ids
Any fault raises ParseError naming the first offending line: invalid UTF-8
or JSON, a missing field, a wrong type or a bad value.  In every text
format only "\n" ends a line, and a "\r" before it is ignored.  A row out of
sequence raises EmbeddingFormatError "count_mismatch" naming its line.

Embeddings: bytes 0-3 ASCII "EMB1", bytes 4-7 row count N (u32 LE),
bytes 8-11 dim D (u32 LE), then N*D IEEE-754 float32 LE row-major.  The
id sidecar is read into, and written from, the matrix's id columns, with
no object per row.  Its bytes are read once and decoded from memory; the
models of one embedding set hold the same records, so a sidecar whose
bytes equal one loaded before in the same run is not parsed again, and
the new matrix shares that matrix's id columns.

Rankings TSV: query_id <TAB> rank (1-based) <TAB> gallery item_id <TAB>
score (9 significant digits); per query, ranks run 1, 2, ..., scores are
finite and never increase, and no item_id repeats.  Rankings are read into
and written from `search.Rankings` columns.

Detections load as `boxes.Detections` columns and are written from them in
row order; detection ground truth is the same table, with score 0 and one
empty model name, and is written sorted stably by image id.  Fused boxes
are written from `boxes.FusedDetections` columns as `json.dumps` writes
each record.  Every writer takes its table type only.  Every file is
written to a temp file and moved into place with `os.replace`, so a failed
save leaves any previous file whole.
"""

from __future__ import annotations

import itertools
import json
import json.scanner
import math
import operator
import os
import struct
from contextlib import contextmanager
from io import BytesIO, TextIOWrapper
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .boxes import BoundingBox, Detections, FusedDetections, ScoredBox, invalid_detections
from .embeddings import EmbeddingMatrix, _id_fault
from .errors import ConfigError, DataError, EmbeddingFormatError, ParseError
from .evaluation import GroundTruthRet
from .search import Rankings

EMB_MAGIC = b"EMB1"
_EMB_HEADER = struct.Struct("<4sII")

_NUMBER = (float, int)
_DETECTIONS = (("image_id", (str,)), ("model_id", (str,)), ("category_id", (int,)),
               ("score", _NUMBER), ("bbox", (list,)))
_DETECTION_GT = (("image_id", (str,)), ("category_id", (int,)), ("bbox", (list,)))
_IDS = (("row", (int,)), ("item_id", (str,)), ("image_id", (str,)), ("box_id", (str,)),
        ("category_id", (int,)), ("source", (str,)))
_RETRIEVAL_GT = (("query_id", (str,)), ("matches", (list,)))

_INT64_MAX = np.iinfo(np.int64).max


@contextmanager
def _atomic_open(path: str | Path, mode: str = "w", **kwargs):
    """A file to write, UTF-8 text unless `mode` is binary, that replaces
    `path` only when the block ends without error; on error the temp file
    is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8", **kwargs) as fh:
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


def _line_records(path: str | Path, decode=_decode_line, raw: bytes | None = None):
    """(line number, decode(line)) of each non-blank line of a UTF-8 text
    file, or of `raw`, its bytes, when given; ParseError names a line that
    is not UTF-8 or not valid JSON."""
    # undecodable bytes become lone surrogates, so that they fail on their
    # own line rather than on the block they were read in
    # only "\n" ends a line, so that line numbers count the file's "\n"s
    with TextIOWrapper(open(path, "rb") if raw is None else BytesIO(raw), encoding="utf-8",
                       errors="surrogateescape", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(str(path), lineno, "not valid UTF-8") from None
            if not line.strip():
                continue
            try:
                obj = decode(line)
            except json.JSONDecodeError as e:
                raise ParseError(str(path), lineno, f"invalid JSON: {e.msg}") from None
            yield lineno, obj


def _type_fault(obj, fields) -> str:
    """Why a decoded line does not match its field table."""
    if not isinstance(obj, dict):
        return "record is not a JSON object"
    for key, types in fields:
        if key not in obj:
            return f"missing field '{key}'"
        if type(obj[key]) not in types:
            return f"field '{key}' has wrong type: {obj[key]!r}"


def _read_jsonl(path: str | Path, fields,
                raw: bytes | None = None) -> tuple[list[int], list[list], ParseError | None]:
    """(line numbers, one list of values per field, fault) of a JSONL file,
    or of `raw`, its bytes, when given.
    The records end before the first line that is not an object with the
    table's fields and types; that line's ParseError is the fault, which the
    caller raises once the values of the records before it pass."""
    keys = [key for key, _ in fields]
    values_of = operator.itemgetter(*keys)
    # the values of all records in one list: a tuple kept per record would
    # add an object per line for the garbage collector to traverse
    lines, values, fault = [], [], None
    try:
        for lineno, obj in _line_records(path, raw=raw):
            try:
                values += values_of(obj)
            except (KeyError, TypeError):
                raise ParseError(str(path), lineno, _type_fault(obj, fields)) from None
            lines.append(lineno)
    except ParseError as e:
        fault = e
    columns = [values[i::len(fields)] for i in range(len(fields))]
    # types are tested a column at a time, and rows only to name the first bad one
    if any(set(map(type, column)).difference(types)
           for column, (_, types) in zip(columns, fields)):
        end, row = next((i, row) for i, row in enumerate(zip(*columns))
                        if any(type(v) not in types for v, (_, types) in zip(row, fields)))
        fault = ParseError(str(path), lines[end], _type_fault(dict(zip(keys, row)), fields))
        lines, columns = lines[:end], [column[:end] for column in columns]
    return lines, columns, fault


def _write_jsonl(path: str | Path, fields, rows: Iterable[tuple]) -> None:
    """One line per row, the values under the table's keys, in its order."""
    keys = [key for key, _ in fields]
    with _atomic_open(path) as fh:
        for row in rows:
            fh.write(json.dumps(dict(zip(keys, row))) + "\n")


def _scan(path, lines, rows, fault) -> None:
    """Raise ParseError at the first row for which `fault` returns a message
    or raises DataError or OverflowError."""
    for lineno, row in zip(lines, rows):
        try:
            message = fault(*row)
        except (DataError, OverflowError) as e:
            message = str(e)
        if message:
            raise ParseError(str(path), lineno, message)


def _box_columns(boxes, scores, categories) -> tuple[np.ndarray, ...] | None:
    """(coords, scores, category ids) as arrays, or None unless every row passes `_box_fault`."""
    if (set(map(len, boxes)) - {4}
            or set(map(type, itertools.chain.from_iterable(boxes))) - {float, int}):
        return None
    try:
        columns = (np.fromiter(itertools.chain.from_iterable(boxes), np.float64).reshape(-1, 4),
                   np.array(scores, np.float64), np.array(categories, np.int64))
    except OverflowError:
        return None
    return None if invalid_detections(*columns).any() else columns


def _box_fault(bbox, score, category) -> str | None:
    """What is wrong with a detection; BoundingBox and ScoredBox raise for a bad value."""
    if len(bbox) != 4 or not all(type(v) in _NUMBER for v in bbox):
        return f"bbox must be [x1, y1, x2, y2], got {bbox!r}"
    ScoredBox(BoundingBox(*map(float, bbox)), float(score), category, "", "")
    return f"category_id {category} out of range" if category > _INT64_MAX else None


def _repeat_fault(key: str):
    """A fault function naming each value of `key` seen before."""
    seen = set()
    # set.add returns None, so a new value is added and passes
    return lambda value: f"duplicate {key} {value!r}" if value in seen or seen.add(value) else None


def _detections(path, lines, fault, images, models, categories, scores, boxes) -> Detections:
    """The rows of a detections-like file as columns, once every row before
    the reader's fault passes `_box_fault`."""
    columns = _box_columns(boxes, scores, categories)
    if columns is None:
        _scan(path, lines, zip(boxes, scores, categories), _box_fault)
    if fault:
        raise fault
    return Detections.from_columns(*columns, images, models)


def load_detections(path: str | Path) -> Detections:
    """A detections JSONL file as columns."""
    lines, columns, fault = _read_jsonl(path, _DETECTIONS)
    return _detections(path, lines, fault, *columns)


def save_detections(dets: Detections, path: str | Path) -> None:
    """The rows in table order, written from the columns."""
    images = map(dets.image_names.__getitem__, dets.image_codes.tolist())
    models = map(dets.model_names.__getitem__, dets.model_codes.tolist())
    _write_jsonl(path, _DETECTIONS, zip(images, models, dets.category_ids.tolist(),
                                        dets.scores.tolist(), dets.coords.tolist()))


def save_fused_boxes(fused: FusedDetections, path: str | Path) -> None:
    """Fused boxes use the detections schema (model_id "wbf") plus
    cluster_size and the contributing model ids, so the file can be fed
    straight back into detection evaluation.  Lines are formatted from the
    columns, byte for byte as json.dumps writes the record."""
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


def load_detection_gt(path: str | Path) -> Detections:
    """Ground-truth boxes in file order, as detections of score 0 and
    model id ""."""
    lines, (images, categories, boxes), fault = _read_jsonl(path, _DETECTION_GT)
    return _detections(path, lines, fault, images, [""] * len(lines), categories,
                       [0.0] * len(lines), boxes)


def save_detection_gt(gt: Detections, path: str | Path) -> None:
    """The boxes sorted stably by image id; scores and model ids are not written."""
    rows = np.argsort(gt.image_codes, kind="stable")
    images = map(gt.image_names.__getitem__, gt.image_codes[rows].tolist())
    _write_jsonl(path, _DETECTION_GT, zip(images, gt.category_ids[rows].tolist(),
                                          gt.coords[rows].tolist()))


def save_embeddings(m: EmbeddingMatrix, data_path: str | Path, ids_path: str | Path) -> None:
    """Write the binary matrix (values cast to float32) and its id sidecar."""
    with _atomic_open(data_path, "wb") as fh:
        fh.write(_EMB_HEADER.pack(EMB_MAGIC, m.n_rows, m.dim))
        fh.write(np.ascontiguousarray(m.data, dtype="<f4").tobytes())
    _write_jsonl(ids_path, _IDS, zip(range(m.n_rows), m.item_ids.tolist(), m.image_ids.tolist(),
                                     m.box_ids.tolist(), m.category_ids().tolist(),
                                     m.sources.tolist()))


def load_embeddings(data_path: str | Path, ids_path: str | Path,
                    sidecars: dict[bytes, EmbeddingMatrix] | None = None) -> EmbeddingMatrix:
    """Read the binary matrix plus sidecar; malformed containers raise
    EmbeddingFormatError with a distinct code.

    `sidecars` maps the bytes of id sidecars loaded before to a matrix read
    with each.  A sidecar found there is not parsed again: the matrix takes
    that matrix's checked, read-only id columns.  One that is not is parsed,
    checked and added.  The header, the row count against the id records
    and finiteness are checked either way."""
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

    with open(ids_path, "rb") as fh:
        raw = fh.read()
    shared = None if sidecars is None else sidecars.get(raw)
    if shared is None:
        columns = _id_columns(ids_path, raw)
        records = len(columns[0])
    else:
        records = shared.n_rows
    if records != n:
        raise EmbeddingFormatError(
            "count_mismatch", f"{ids_path}: {records} id records for {n} rows of {data_path}")
    try:
        m = (EmbeddingMatrix.from_columns(data, *columns, ids_checked=True) if shared is None
             else shared.with_data(data))
    except DataError as e:  # a non-finite value
        raise DataError(f"{data_path}: {e}") from None
    if sidecars is not None:
        sidecars.setdefault(raw, m)
    return m


def _id_columns(ids_path: str | Path, raw: bytes) -> list[list]:
    """The item, image, box, category and source columns of an id sidecar,
    from its bytes `raw`, once every record passes the sidecar's rules."""
    lines, (rows, *columns), fault = _read_jsonl(ids_path, _IDS, raw)
    # the first row out of sequence ends the records whose values count
    end = next((i for i, row in enumerate(rows) if row != i), len(rows))
    bad = _id_fault(*(column[:end] for column in columns))
    if bad is not None:
        raise ParseError(str(ids_path), lines[bad[0]], bad[1])
    if end < len(rows):
        raise EmbeddingFormatError(
            "count_mismatch", f"{ids_path}:{lines[end]}: row index {rows[end]}, expected {end}")
    if fault:
        raise fault
    return columns


def save_rankings(rankings: Rankings, path: str | Path) -> None:
    """One line per entry, formatted from the columns; one write per query."""
    valid = np.arange(rankings.codes.shape[1]) < rankings.lengths[:, None]
    items = rankings.item_table[rankings.codes[valid]].tolist()
    scores = rankings.scores[valid].tolist()
    with _atomic_open(path, newline="\n") as fh:
        start = 0
        for query_id, end in zip(rankings.query_ids.tolist(),
                                 np.cumsum(rankings.lengths).tolist()):
            fh.write("".join(f"{query_id}\t{rank}\t{item_id}\t{score:.9g}\n"
                             for rank, item_id, score in zip(itertools.count(1),
                                                             items[start:end],
                                                             scores[start:end])))
            start = end


def load_rankings(path: str | Path) -> Rankings:
    """One row per query, in the order the queries first appear, over the
    file's sorted distinct item ids; a bad line raises ParseError naming it."""
    per_query: dict[str, tuple[dict[str, None], list[float]]] = {}
    for lineno, parts in _line_records(
            path, lambda line: line.removesuffix("\n").removesuffix("\r").split("\t")):
        if len(parts) != 4:
            raise ParseError(str(path), lineno, f"expected 4 tab-separated fields, got {len(parts)}")
        query_id, rank_s, item_id, score_s = parts
        try:
            rank, score = int(rank_s), float(score_s)
        except ValueError:
            raise ParseError(str(path), lineno, "rank or score is not numeric") from None
        items, scores = per_query.setdefault(query_id, ({}, []))
        if not math.isfinite(score):
            raise ParseError(str(path), lineno, f"score {score_s} is not finite")
        if rank != len(items) + 1:
            raise ParseError(str(path), lineno, f"rank {rank} out of sequence")
        if scores and score > scores[-1]:
            raise ParseError(str(path), lineno, f"ranking for {query_id!r}: scores increase")
        if item_id in items:
            raise ParseError(str(path), lineno, f"ranking for {query_id!r}: duplicate gallery ids")
        items[item_id] = None
        scores.append(score)
    rows = per_query.values()
    return Rankings.from_flat(list(per_query), [len(scores) for _, scores in rows],
                              [item for items, _ in rows for item in items],
                              [score for _, scores in rows for score in scores])


def load_retrieval_gt(path: str | Path) -> GroundTruthRet:
    lines, (query_ids, matches), fault = _read_jsonl(path, _RETRIEVAL_GT)
    if (set(map(type, itertools.chain.from_iterable(matches))) - {str}
            or len(set(query_ids)) < len(query_ids)):
        repeat = _repeat_fault("query_id")
        _scan(path, lines, zip(query_ids, matches),
              lambda query_id, items: ("matches must be a list of strings"
                                       if any(type(m) is not str for m in items)
                                       else repeat(query_id)))
    if fault:
        raise fault
    return dict(zip(query_ids, map(set, matches)))


def save_retrieval_gt(gt: GroundTruthRet, path: str | Path) -> None:
    _write_jsonl(path, _RETRIEVAL_GT, ((query_id, sorted(gt[query_id])) for query_id in sorted(gt)))


def save_report(report: Mapping, path: str | Path) -> None:
    with _atomic_open(path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
