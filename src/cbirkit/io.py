"""File formats: detections JSONL, the EMB1 embedding container, rankings
TSV, retrieval ground-truth JSONL, and the report JSON.

A JSONL file holds one object per line; blank lines and unknown keys are
skipped.  A line that is not UTF-8, JSON, or an object holding each field
of its format ends the records.  The records are parsed CHUNK_LINES at a
time and each chunk, once it passes, is kept as compact columns (numbers
in arrays, detection ids as codes into sorted name tables), so that the
Python values held at once are bounded by the chunk, not the file.  Each
format's rules are stated once, as `_arrays.first_fault` takes them, and
run on those records in order: the rules that read one record on each
chunk as it is parsed, and the rules that need every record before the
first bad one (a unique id) last, on the joined columns:
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

`load_detections(*paths)` loads several detections files into one table,
each file's rows in the order given.  When there are two files or more,
of SPLIT_BYTES or more in all, the process may run on two CPUs or more
(`os.sched_getaffinity`) and `os.fork` exists, one forked helper parses
the last files while this process parses the first ones, a contiguous
split by size; it sends its tables back through a pipe, pickled with
protocol 5.  Below SPLIT_BYTES the fork, with the copy-on-write faults
this process then takes, costs more than the helper saves.  The table,
and the error of the earliest bad file, are those of reading the files
one by one: this process's share comes first, so its error wins, and
the helper, killed then, is always reaped.  Fork is safe here although
the caller may run threads (BLAS's, say): the helper runs only the JSON
parsing and array construction of `_boxes`, which take no lock that
another thread may hold at the fork, with no BLAS call and no logging,
and it ends with `os._exit`, so that it never returns into the caller
or flushes a buffer it inherited.  Python 3.12's DeprecationWarning for a
fork in a process with threads is silenced around that fork for this
reason.  Seen from outside, `wait4` counts the helper's peak RSS as a
maximum with this process's, not their sum, and RUSAGE_SELF (the cpu_s
of perfbench/child.py) leaves out the helper's CPU time, which
RUSAGE_CHILDREN counts once it is reaped.

Every JSONL writer formats its lines from the table's columns, byte for
byte as `json.dumps` writes each record, and streams them to the file a
line at a time: no dict, `json.dumps` call or string of the whole file.
The fused-box writer, on the pipeline's path, converts its columns to
Python values BLOCK_BOXES rows at a time; the others convert whole
columns.
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
import logging
import math
import operator
import os
import pickle
import signal
import struct
import warnings
from contextlib import closing, contextmanager
from io import BytesIO, TextIOWrapper
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Mapping, NoReturn, Sequence

import numpy as np

from ._arrays import encode, fault_rule, first_fault, holds, repeats, wrong_type
from .boxes import BLOCK_BOXES, Detections, FusedDetections, _merge, detection_rules
from .embeddings import EmbeddingMatrix, _id_arrays, _id_fault, unique_ids
from .errors import ConfigError, DataError, EmbeddingFormatError, ParseError
from .evaluation import GroundTruthRet
from .search import Rankings, _BadEntry

logger = logging.getLogger("cbirkit.io")

EMB_MAGIC = b"EMB1"
_EMB_HEADER = struct.Struct("<4sII")
# records of a JSONL file held as Python values at once while it is read
CHUNK_LINES = 1 << 13
# detection files of this many bytes in all, or more, are parsed on two CPUs
SPLIT_BYTES = 4 << 20

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


def _fault(path: str | Path, lineno: int, message: str) -> DataError:
    """The error that names line `lineno` of `path` for a rule's message."""
    if isinstance(message, _CountMismatch):
        return EmbeddingFormatError("count_mismatch", f"{path}:{lineno}: {message}")
    return ParseError(str(path), lineno, message)


def _joined(parts: list):
    """One compact column of every chunk, in file order: arrays are
    concatenated, and coded strings, (names, codes) pairs, are re-coded into
    the sorted union of their names, as (codes, names)."""
    coded = isinstance(parts[0], tuple)
    column, names = _merge(parts) if coded else (np.concatenate(parts), None)
    # a new array that nothing else holds: a table keeps it uncopied
    column.flags.writeable = False
    return (column, names) if coded else column


def _read_jsonl(path: str | Path, fields, chunk, joined_rules=lambda *columns: [],
                raw: bytes | None = None) -> list:
    """The compact columns of a JSONL file, or of `raw`, its bytes, when
    given, once every record passes.

    The records are parsed CHUNK_LINES at a time, and end before the first
    line that is not an object with the table's fields.  For each chunk,
    `chunk(start, *values)`, where start is the index of its first record
    and values holds one list per field, gives the format's rules over the
    values, as `first_fault` takes them, and `compact(n)`, the first n
    records as compact columns: arrays, or coded strings as (names, codes).
    The field types, then the rules, run on the chunk's records; the
    records that pass are compacted before the next chunk is parsed, and
    the first that fails ends the reading.  `joined_rules(*columns)`, the
    rules that need every record before it (say, that an id is unique),
    run last, on the joined columns.  The earliest bad line wins, and
    ParseError names it."""
    keys = [key for key, _, _ in fields]
    values_of = operator.itemgetter(*keys)
    lines, parts, fault, start = [], [], None, 0
    with closing(_line_records(path, raw=raw)) as records:
        while True:
            # the values of the chunk's records in one list: a tuple kept per
            # record would add an object per line for the garbage collector
            numbers, values = [], []
            try:
                for lineno, obj in itertools.islice(records, CHUNK_LINES):
                    try:
                        values += values_of(obj)
                    except (KeyError, TypeError):
                        why = (f"missing field '{next(k for k in keys if k not in obj)}'"
                               if isinstance(obj, dict) else "record is not a JSON object")
                        raise ParseError(str(path), lineno, why) from None
                    numbers.append(lineno)
            except ParseError as e:
                fault = e
            columns = [values[i::len(fields)] for i in range(len(fields))]
            del values
            rules, compact = chunk(start, *columns)
            types = [(lambda n, column=column, types=types: wrong_type(column, n, types),
                      lambda row, key=key, column=column:
                      f"field '{key}' has wrong type: {column[row]!r}")
                     for column, (key, types, _) in zip(columns, fields)]
            n = len(numbers)
            bad = first_fault(n, types + rules)
            if bad is not None:
                n, message = bad
                fault = _fault(path, numbers[n], message)
            parts.append(compact(n))
            lines.append(np.array(numbers[:n], dtype=np.int64))
            start += n
            if fault is not None or len(numbers) < CHUNK_LINES:
                break
    columns = [list(column) for column in zip(*parts)]
    del parts
    for i in range(len(columns)):
        columns[i] = _joined(columns[i])  # its chunks are dropped as it is joined
    bad = first_fault(start, joined_rules(*columns))
    if bad is not None:
        row, message = bad
        raise _fault(path, int(np.concatenate(lines)[row]), message)
    if fault is not None:
        raise fault
    return columns


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
    columns_of(*values) gives the image ids, model ids, category ids,
    scores and bboxes of a chunk's values.  Every rule reads one row, so
    a chunk is checked and compacted on its own."""
    def chunk(start, *values):
        images, models, categories, scores, boxes = columns_of(*values)
        arrays = []  # the coordinates, scores and category ids box_fault last converted

        def box_fault(n: int) -> tuple[int, str] | None:
            coords, coords_big = _numbers(list(itertools.chain.from_iterable(boxes[:n])),
                                          np.float64)
            (score, score_big), (category, category_big) = (
                _numbers(scores[:n], np.float64), _numbers(categories[:n], np.int64))
            arrays[:] = coords.reshape(n, 4), score, category
            return first_fault(n, [
                (lambda m: coords_big.reshape(n, 4)[:m].any(axis=1) | score_big[:m],
                 lambda row: "int too large to convert to float"),
                (lambda m: category_big[:m],
                 lambda row: f"category_id {categories[row]} out of range"),
                *detection_rules(*arrays)])

        def compact(n: int) -> list:
            # box_fault ran on at least the n rows that pass, so its arrays hold them
            return [*(array[:n] for array in arrays),
                    *(encode(ids[:n], None)[::-1] for ids in (images, models))]

        return [(lambda n: holds(operator.ne, map(len, boxes), n, 4)
                 | _any_wrong_type(boxes, n, _NUMBER),
                 lambda row: f"bbox must be [x1, y1, x2, y2], got {boxes[row]!r}"),
                fault_rule(box_fault)], compact

    coords, scores, categories, images, models = _read_jsonl(path, fields, chunk)
    return Detections(coords, scores, categories, *images, *models, _checked=True)


def _names(names: tuple[str, ...], codes: np.ndarray) -> Iterable[str]:
    """The names of `codes` as JSON strings, each distinct name encoded once."""
    return map(list(map(encode_basestring_ascii, names)).__getitem__, codes.tolist())


def _load_detections(path: str | Path) -> Detections:
    """One detections JSONL file as columns."""
    return _boxes(path, _DETECTIONS, lambda *columns: columns)


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _helper_start(sizes: list[int]) -> int | None:
    """The index of the first file a forked helper parses, or None when the
    files are parsed in this process alone: fewer than two, fewer than
    SPLIT_BYTES in all, no os.fork or fewer than two usable CPUs.  This
    process takes the shortest prefix that holds at least half the bytes
    (but leaves the helper the last file): it has only to unpickle the
    helper's tables once its own are parsed, while the helper has to
    pickle and send them."""
    total = sum(sizes)
    if (len(sizes) < 2 or total < SPLIT_BYTES or not hasattr(os, "fork")
            or _usable_cpus() < 2):
        return None
    ends = itertools.accumulate(sizes)
    return min(next(i for i, end in enumerate(ends, 1) if 2 * end >= total), len(sizes) - 1)


def _file_bytes(path: str | Path) -> int:
    """The size of a file, 0 for one that cannot be read; its load raises
    the error in its turn."""
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _help(paths: Sequence[str | Path], read_end: int, write_end: int) -> NoReturn:
    """The forked helper's whole life: the tables of `paths`, or the error
    of the first that fails, pickled to `write_end`; then it exits, without
    returning into its caller or flushing any buffer it inherited."""
    try:
        os.close(read_end)
        with open(write_end, "wb") as reply:
            try:
                result = [_load_detections(path) for path in paths]
            except Exception as e:
                result = e
            pickle.dump(result, reply, protocol=5)
    finally:
        os._exit(0)


def _split_load(paths: Sequence[str | Path], start: int) -> list[Detections]:
    """The tables of `paths`: this process parses those before `start` while
    a forked helper parses the rest.  An error of this process's share wins
    (its files come first), and the helper is killed; else the helper's
    error is raised.  A helper that cannot be forked, or ends without a
    whole reply, has its files parsed here.  The helper is always reaped."""
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns of a fork in a process with threads: the
            # helper takes no lock that another thread may hold (see the
            # module docstring)
            warnings.filterwarnings("ignore", r".*\bfork\(\)", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return [_load_detections(path) for path in paths]
    if pid == 0:
        _help(paths[start:], read_end, write_end)
    os.close(write_end)
    try:
        with open(read_end, "rb") as reply:
            parts = [_load_detections(path) for path in paths[:start]]
            try:
                helped = pickle.load(reply)
            except Exception:  # no whole reply: the files are parsed again below
                helped = None
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    if helped is None:
        helped = [_load_detections(path) for path in paths[start:]]
    elif isinstance(helped, Exception):
        raise helped
    return parts + helped


def load_detections(*paths: str | Path) -> Detections:
    """Detections JSONL files as one table: the rows of each file, in the
    order of `paths`.  Past SPLIT_BYTES, a forked helper parses a share of
    the files (see the module docstring); the table, and the error of the
    earliest bad file, are those of reading the files one by one."""
    sizes = [_file_bytes(path) for path in paths]
    start = _helper_start(sizes)
    if start is None:
        parts = [_load_detections(path) for path in paths]
    else:
        parts = _split_load(paths, start)
    table = parts[0] if len(parts) == 1 else Detections.concat(parts)
    logger.info("load-detections: files=%d bytes=%d records=%d path=%s", len(paths),
                sum(sizes), len(table), "serial" if start is None
                else f"split here_files={start} helper_files={len(paths) - start}")
    return table


def save_detections(dets: Detections, path: str | Path) -> None:
    """The rows in table order, written from the columns."""
    _write_jsonl(path, _DETECTIONS, [_names(dets.image_names, dets.image_codes),
                                     _names(dets.model_names, dets.model_codes),
                                     dets.category_ids.tolist(), dets.scores.tolist(),
                                     *dets.coords.T.tolist()])


def save_fused_boxes(fused: FusedDetections, path: str | Path) -> None:
    """Fused boxes use the detections schema (model_id "wbf") plus
    cluster_size and the contributing model ids, so the file can be fed
    straight back into detection evaluation.  The rows are converted and
    written BLOCK_BOXES at a time, so that their Python values are bounded
    by the block, not the table."""
    images = list(map(encode_basestring_ascii, fused.image_names))
    models = list(map(encode_basestring_ascii, fused.model_names))
    member_lists: dict[tuple[int, ...], str] = {}
    with _atomic_open(path) as fh:
        for lo in range(0, len(fused), BLOCK_BOXES):
            hi = lo + BLOCK_BOXES
            indptr = fused.model_indptr[lo:hi + 1]
            codes = fused.model_codes[indptr[0]:indptr[-1]].tolist()
            bounds = (indptr - indptr[0]).tolist()
            for i, (image, category, score, (x1, y1, x2, y2), size) in enumerate(zip(
                    fused.image_codes[lo:hi].tolist(), fused.category_ids[lo:hi].tolist(),
                    fused.scores[lo:hi].tolist(), fused.coords[lo:hi].tolist(),
                    fused.cluster_sizes[lo:hi].tolist())):
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
        # the sidecar's rules: row is the record's index, then `_id_fault`'s,
        # whose unique ids are checked again over the joined item ids
        columns = _read_jsonl(ids_path, _IDS, lambda start, rows, *columns: (
            [(lambda n: np.fromiter(map(operator.ne, rows[:n], range(start, start + n)), bool, n),
              lambda row: _CountMismatch(f"row index {rows[row]}, expected {start + row}")),
             fault_rule(lambda n: _id_fault(*(column[:n] for column in columns)))],
            lambda n: _id_arrays(*(column[:n] for column in columns))),
            lambda item_ids, *_: [unique_ids(item_ids)], raw)
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
    query_ids, matches = _read_jsonl(path, _RETRIEVAL_GT, lambda start, query_ids, matches: (
        [(lambda n: _any_wrong_type(matches, n, (str,)),
          lambda row: "matches must be a list of strings")],
        lambda n: [np.fromiter(column[:n], object, n) for column in (query_ids, matches)]),
        lambda query_ids, matches: [(lambda n: repeats(query_ids[:n]),
                                     lambda row: f"duplicate query_id {query_ids[row]!r}")])
    return dict(zip(query_ids.tolist(), map(set, matches.tolist())))


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
