"""File formats: detections JSONL, the EMB1 embedding container, rankings
TSV, retrieval ground-truth JSONL, and the report JSON.

A JSONL file holds one object per line; blank lines and unknown keys are
skipped.  A line that is not UTF-8, JSON, or an object holding each field
of its format ends the records.  Each format's rules are then stated once,
as `_arrays.first_fault` takes them, and run on those records in order:
  every format   each field's type: `int` a JSON integer, `float` any
                 JSON number, and no boolean is a number
  _DETECTIONS    bbox is [x1, y1, x2, y2] of numbers; every number fits a
                 float64, category_id an int64; `boxes.detection_rules`:
                 finite coordinates, x1 < x2 and y1 < y2, score in [0, 1],
                 category_id >= 1
  _DETECTION_GT  the same, without model_id and score
  _IDS           row is the record's index (else EmbeddingFormatError
                 "count_mismatch"); `embeddings._id_fault`: source "query"
                 or "gallery"; category_id in [0, 2**63); item_id not
                 ending in NUL, holding no tab, newline or lone surrogate
                 (so that rankings can hold it), and unique
  _RETRIEVAL_GT  matches is a list of strings; query_id is unique
Rankings TSV: four tab-separated fields, a numeric and finite score and
ranks 1, 2, ... per query, line by line; then `Rankings.from_entries`'
rules, over the entries in line order, so that queries may interleave.
ParseError names the earliest bad line, and inside one the first
rule it breaks.  In every text format only "\n" ends a line, and a "\r"
before it is ignored.

Embeddings: bytes 0-3 ASCII "EMB1", bytes 4-7 row count N (u32 LE),
bytes 8-11 dim D (u32 LE), then N*D IEEE-754 float32 LE row-major.  The
id sidecar is read into, and written from, the matrix's id columns, with
no object per row.  Its bytes are read once and decoded from memory; the
models of one embedding set hold the same records, so a sidecar whose
bytes equal one loaded before in the same run is not parsed again, and
the new matrix shares that matrix's id columns.

Rankings are read into and written from `search.Rankings` columns, a line
per entry: query_id, rank (1-based), gallery item_id, score (9 significant
digits).  Detections load as `boxes.Detections` columns and are written
from them in row order; detection ground truth is the same table, with
score 0 and one empty model name, and is written sorted stably by image
id.  Fused boxes are written from `boxes.FusedDetections` columns.

Every JSONL writer formats its lines from the table's columns, byte for
byte as `json.dumps` writes each record, and streams them to the file a
line at a time: no dict, `json.dumps` call or string of the whole file.
A format's field table states its line, one form per field; a string goes
through `encode_basestring_ascii` (a coded table's names once each), a
float through `repr`, an int through `%d`.  Fused boxes have a loop of
their own, which caches each cluster's list of model ids.  Every writer
takes its table type only, and writes a temp file that `os.replace` moves
into place, so a failed save leaves any previous file whole.
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
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from ._arrays import encode, fault_rule, first_fault, holds, repeats, wrong_type
from .boxes import Detections, FusedDetections, detection_rules
from .embeddings import EmbeddingMatrix, _id_fault
from .errors import ConfigError, DataError, EmbeddingFormatError, ParseError
from .evaluation import GroundTruthRet
from .search import Rankings, _BadEntry

EMB_MAGIC = b"EMB1"
_EMB_HEADER = struct.Struct("<4sII")

# a JSONL format's fields: each one's key, the JSON types its value may
# have, and its value's form in a written line, whose values `_write_jsonl`
# takes: %s a string or list already in JSON, %d an int, %r a finite float
# (its repr is json.dumps' text for it)
_NUMBER = (float, int)
_DETECTIONS = (("image_id", (str,), "%s"), ("model_id", (str,), "%s"),
               ("category_id", (int,), "%d"), ("score", _NUMBER, "%r"),
               ("bbox", (list,), "[%r, %r, %r, %r]"))
_DETECTION_GT = (("image_id", (str,), "%s"), ("category_id", (int,), "%d"),
                 ("bbox", (list,), "[%r, %r, %r, %r]"))
_IDS = (("row", (int,), "%d"), ("item_id", (str,), "%s"), ("image_id", (str,), "%s"),
        ("box_id", (str,), "%s"), ("category_id", (int,), "%d"), ("source", (str,), "%s"))
_RETRIEVAL_GT = (("query_id", (str,), "%s"), ("matches", (list,), "%s"))


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
    is not UTF-8 or not valid JSON (an integer of more digits than Python
    converts included)."""
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
            except ValueError as e:
                # json also raises a plain ValueError, for an integer too long to convert
                why = e.msg if isinstance(e, json.JSONDecodeError) else str(e)
                raise ParseError(str(path), lineno, f"invalid JSON: {why}") from None
            yield lineno, obj


def _any_wrong_type(lists: list, n: int, types: tuple[type, ...]) -> np.ndarray:
    """Whether any value of each of the first n lists has a type none of `types`."""
    lengths = np.fromiter(map(len, lists[:n]), np.intp, n)
    wrong = wrong_type(itertools.chain.from_iterable(lists[:n]), int(lengths.sum()), types)
    return np.bincount(np.repeat(np.arange(n), lengths)[wrong], minlength=n) > 0


class _CountMismatch(str):
    """A rule's message raised as EmbeddingFormatError "count_mismatch"."""


def _read_jsonl(path: str | Path, fields, rules,
                raw: bytes | None = None) -> tuple[list[int], list[list]]:
    """(line numbers, one list of values per field) of a JSONL file, or of
    `raw`, its bytes, when given, once every record passes.
    The records end before the first line that is not an object with the
    table's fields.  The field types, then `rules(*columns)`, the format's
    rules as `first_fault` takes them, run on the records before it; the
    earliest bad line wins, and ParseError names it."""
    keys = [key for key, _, _ in fields]
    values_of = operator.itemgetter(*keys)
    # the values of all records in one list: a tuple kept per record would
    # add an object per line for the garbage collector to traverse
    lines, values, fault = [], [], None
    try:
        for lineno, obj in _line_records(path, raw=raw):
            try:
                values += values_of(obj)
            except (KeyError, TypeError):
                why = (f"missing field '{next(k for k in keys if k not in obj)}'"
                       if isinstance(obj, dict) else "record is not a JSON object")
                raise ParseError(str(path), lineno, why) from None
            lines.append(lineno)
    except ParseError as e:
        fault = e
    columns = [values[i::len(fields)] for i in range(len(fields))]
    types = [(lambda n, column=column, types=types: wrong_type(column, n, types),
              lambda row, key=key, column=column: f"field '{key}' has wrong type: {column[row]!r}")
             for column, (key, types, _) in zip(columns, fields)]
    bad = first_fault(len(lines), types + rules(*columns))
    if bad is not None:
        row, message = bad
        if isinstance(message, _CountMismatch):
            raise EmbeddingFormatError("count_mismatch", f"{path}:{lines[row]}: {message}")
        raise ParseError(str(path), lines[row], message)
    if fault is not None:
        raise fault
    return lines, columns


def _write_jsonl(path: str | Path, fields, columns: Iterable[Iterable]) -> None:
    """One line per row of `columns`, the fields' forms filled in order, a
    column per conversion: each line is json.dumps' bytes for the record of
    the row's values under the table's keys.  The lines are streamed, one at
    a time, with no dict per row and no string of the whole file."""
    line = "{" + ", ".join(f'"{key}": {form}' for key, _, form in fields) + "}\n"
    with _atomic_open(path) as fh:
        fh.writelines(map(line.__mod__, zip(*columns)))


# the ints that float64 and int64 hold; a JSON integer has no bound
_HELD = {np.float64: range(2 ** 970 - 2 ** 1024 + 1, 2 ** 1024 - 2 ** 970),
         np.int64: range(-2 ** 63, 2 ** 63)}


def _numbers(values: list, dtype) -> tuple[np.ndarray, np.ndarray]:
    """`values`, JSON numbers, as a `dtype` array, and whether each is an int
    too large for it, which the array holds as 0."""
    try:
        return np.array(values, dtype), np.zeros(len(values), dtype=bool)
    except OverflowError:
        big = np.array([type(v) is int and v not in _HELD[dtype] for v in values], dtype=bool)
        return np.where(big, 0, np.array(values, dtype=object)).astype(dtype), big


def _boxes(path: str | Path, fields, columns_of) -> Detections:
    """A detections-like file's rows as a table, once each passes its field
    types, then: a bbox is four numbers; each number fits its array
    (float64, and int64 for category_id); then `boxes.detection_rules`.
    columns_of(*columns) gives the image ids, model ids, category ids,
    scores and bboxes of the file's columns."""
    tables = {}  # the arrays of the first n rows, by n

    def rules(*columns):
        _, _, categories, scores, boxes = columns_of(*columns)

        def box_fault(n: int) -> tuple[int, str] | None:
            coords, coords_big = _numbers(list(itertools.chain.from_iterable(boxes[:n])),
                                          np.float64)
            (score, score_big), (category, category_big) = (
                _numbers(scores[:n], np.float64), _numbers(categories[:n], np.int64))
            tables[n] = coords.reshape(n, 4), score, category
            return first_fault(n, [
                (lambda m: coords_big.reshape(n, 4)[:m].any(axis=1) | score_big[:m],
                 lambda row: "int too large to convert to float"),
                (lambda m: category_big[:m],
                 lambda row: f"category_id {categories[row]} out of range"),
                *detection_rules(*tables[n])])

        return [(lambda n: holds(operator.ne, map(len, boxes), n, 4)
                 | _any_wrong_type(boxes, n, _NUMBER),
                 lambda row: f"bbox must be [x1, y1, x2, y2], got {boxes[row]!r}"),
                fault_rule(box_fault)]

    lines, columns = _read_jsonl(path, fields, rules)
    images, models, *_ = columns_of(*columns)
    return Detections(*tables[len(lines)], *encode(images, None), *encode(models, None),
                      _checked=True)


def _names(names: tuple[str, ...], codes: np.ndarray) -> Iterable[str]:
    """The names of `codes` as JSON strings, each distinct name encoded once."""
    return map(list(map(encode_basestring_ascii, names)).__getitem__, codes.tolist())


def load_detections(path: str | Path) -> Detections:
    """A detections JSONL file as columns."""
    return _boxes(path, _DETECTIONS, lambda *columns: columns)


def save_detections(dets: Detections, path: str | Path) -> None:
    """The rows in table order, written from the columns."""
    _write_jsonl(path, _DETECTIONS, [_names(dets.image_names, dets.image_codes),
                                     _names(dets.model_names, dets.model_codes),
                                     dets.category_ids.tolist(), dets.scores.tolist(),
                                     *dets.coords.T.tolist()])


def save_fused_boxes(fused: FusedDetections, path: str | Path) -> None:
    """Fused boxes use the detections schema (model_id "wbf") plus
    cluster_size and the contributing model ids, so the file can be fed
    straight back into detection evaluation."""
    images = list(map(encode_basestring_ascii, fused.image_names))
    models = list(map(encode_basestring_ascii, fused.model_names))
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
    return _boxes(path, _DETECTION_GT, lambda images, categories, boxes: (
        images, [""] * len(images), categories, [0.0] * len(images), boxes))


def save_detection_gt(gt: Detections, path: str | Path) -> None:
    """The boxes sorted stably by image id; scores and model ids are not written."""
    rows = np.argsort(gt.image_codes, kind="stable")
    _write_jsonl(path, _DETECTION_GT, [_names(gt.image_names, gt.image_codes[rows]),
                                       gt.category_ids[rows].tolist(),
                                       *gt.coords[rows].T.tolist()])


def save_embeddings(m: EmbeddingMatrix, data_path: str | Path, ids_path: str | Path) -> None:
    """Write the binary matrix (values cast to float32) and its id sidecar."""
    with _atomic_open(data_path, "wb") as fh:
        fh.write(_EMB_HEADER.pack(EMB_MAGIC, m.n_rows, m.dim))
        fh.write(np.ascontiguousarray(m.data, dtype="<f4").tobytes())
    item_ids, image_ids, box_ids, sources = (
        map(encode_basestring_ascii, column.tolist())
        for column in (m.item_ids, m.image_ids, m.box_ids, m.sources))
    _write_jsonl(ids_path, _IDS, [range(m.n_rows), item_ids, image_ids, box_ids,
                                  m.category_ids().tolist(), sources])


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
        # the sidecar's rules: row is the record's index, then `_id_fault`'s
        _, (_, *columns) = _read_jsonl(ids_path, _IDS, lambda rows, *columns: [
            (lambda n: np.fromiter(map(operator.ne, rows[:n], range(n)), bool, n),
             lambda row: _CountMismatch(f"row index {rows[row]}, expected {row}")),
            fault_rule(lambda n: _id_fault(*(column[:n] for column in columns)))], raw)
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
    file's sorted distinct item ids; queries may interleave.  The text's
    rules run line by line: four tab-separated fields, a numeric and finite
    score, and each query's ranks 1, 2, ...  The lines before the first
    that breaks one go to `Rankings.from_entries` as entries in line order;
    ParseError names the line of its earliest bad entry, or else that first
    line."""
    ranked: dict[str, int] = {}  # entries so far, by query_id
    values = []  # each entry's line, query_id, item_id and score, in one list
    error = None
    try:
        for lineno, parts in _line_records(
                path, lambda line: line.removesuffix("\n").removesuffix("\r").split("\t")):
            if len(parts) != 4:
                raise ParseError(str(path), lineno,
                                 f"expected 4 tab-separated fields, got {len(parts)}")
            query_id, rank_s, item_id, score_s = parts
            try:
                rank, score = int(rank_s), float(score_s)
            except ValueError:
                raise ParseError(str(path), lineno, "rank or score is not numeric") from None
            if not math.isfinite(score):
                raise ParseError(str(path), lineno, f"score {score_s} is not finite")
            if rank != ranked.get(query_id, 0) + 1:
                raise ParseError(str(path), lineno, f"rank {rank} out of sequence")
            ranked[query_id] = rank
            values += (lineno, query_id, item_id, score)
    except ParseError as e:
        error = e
    lines, queries, items, scores = (values[i::4] for i in range(4))
    query_ids = list(ranked)
    try:
        rankings = Rankings.from_entries(query_ids, encode(queries, query_ids)[0], items, scores)
    except _BadEntry as e:
        raise ParseError(str(path), lines[e.entry], str(e)) from None
    if error is not None:
        raise error
    return rankings


def load_retrieval_gt(path: str | Path) -> GroundTruthRet:
    """Each query's set of matching gallery item ids: matches is a list of
    strings, and no query_id repeats."""
    _, (query_ids, matches) = _read_jsonl(path, _RETRIEVAL_GT, lambda query_ids, matches: [
        (lambda n: _any_wrong_type(matches, n, (str,)),
         lambda row: "matches must be a list of strings"),
        (lambda n: repeats(query_ids[:n]), lambda row: f"duplicate query_id {query_ids[row]!r}")])
    return dict(zip(query_ids, map(set, matches)))


def save_retrieval_gt(gt: GroundTruthRet, path: str | Path) -> None:
    """The queries sorted by id, each one's matches sorted."""
    query_ids = sorted(gt)
    _write_jsonl(path, _RETRIEVAL_GT, [
        map(encode_basestring_ascii, query_ids),
        ("[" + ", ".join(map(encode_basestring_ascii, sorted(gt[query_id]))) + "]"
         for query_id in query_ids)])


def save_report(report: Mapping, path: str | Path) -> None:
    with _atomic_open(path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
