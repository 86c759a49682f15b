"""Axis-aligned box geometry, greedy NMS, and weighted fusion of detector ensembles.

Fusion merges overlapping boxes emitted by several detectors into a single
confidence-weighted box per cluster instead of suppressing all but one, so
the ensemble keeps localization evidence from every model.

Every function here takes detections as columns.  `Detections` holds an
(n, 4) float64 coordinate array, the scores, the category ids, and the
image and model ids as integer codes into sorted tables of distinct names,
so that code order is name order.  `FusedDetections` has the same columns
plus the cluster sizes and each cluster's contributing models (CSR:
ascending codes per cluster).  Both are read-only columns and nothing
else: a table has a length but no rows to index or iterate.  Detection
ground truth is a `Detections` table too: score 0 and one empty model name.
`box_rules` and `detection_rules` are the one statement of what a valid
box and detection are; the tables, the loaders and `iou` all apply them.
The tables add `code_rule`: every image and model code indexes its table
of names, and each table of names is distinct and ascending.

`fuse_detections` fuses the (image, category) groups of a detection set
in a wavefront.  After one sort by (image, category, -weighted score,
model id, input index), step s takes the s-th box of every group that has
one, computes its IoU with each of that group's current clusters, and
joins the first with IoU > iou_threshold or opens a new one.  A cluster
keeps its running weighted sums, updated in member order, so every fused
number comes from the same operations as fusing the group box by box.
The wavefront runs over one block of whole images at a time, at most
BLOCK_BOXES boxes (an image with more is a block of its own), so its
working arrays, about 300 bytes a box, are block-sized rather than
table-sized.  The blocks' outputs, concatenated in image order, are the
whole table's bit for bit: no group spans two blocks.
`nms` walks the same wavefront over the same blocks, but a box either
survives as-is or is dropped: it is dropped when a box already kept in its
group overlaps it with IoU >= the threshold.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from collections.abc import Mapping, Sequence

import numpy as np

from ._arrays import (Rule, check_integer, encode, first_fault, numbers, ranges, run_starts,
                      unique_sorted, unit_blocks, wavefront)
from .errors import ConfigError, DataError

SCORE_MODES = ("rescale", "mean")
# boxes in one block of whole images that fusion, NMS, detection AP and the
# fused-box writer hold temporaries for: few enough that a block's fusion
# arrays and the fused table fit where the parts of `Detections.concat` were
BLOCK_BOXES = 1 << 12


def _check_iou_threshold(value: float) -> None:
    """Raise ConfigError unless value lies in [0, 1] (NaN does not)."""
    if not (0.0 <= value <= 1.0):
        raise ConfigError(f"iou_threshold {value!r} outside [0, 1]")


@dataclass(frozen=True)
class WbfParams:
    """Fusion parameters.

    model_weights maps model_id to a positive trust weight; None means every
    model weighs 1.  num_models (N) defaults to the number of distinct model
    ids observed in the input; when given explicitly it must cover at least
    the observed count.  With score_mode "rescale" a cluster fused from T of
    N models has its score multiplied by min(T, N)/N, so boxes confirmed by
    few models are demoted; "mean" keeps the plain average.
    """

    iou_threshold: float = 0.55
    model_weights: Mapping[str, float] | None = None
    num_models: int | None = None
    score_mode: str = "rescale"

    def __post_init__(self):
        _check_iou_threshold(self.iou_threshold)
        if self.num_models is not None:
            check_integer(self.num_models, "num_models", ConfigError)
            if self.num_models < 1:
                raise ConfigError("num_models must be a positive integer")
        if self.score_mode not in SCORE_MODES:
            raise ConfigError(f"score_mode must be one of {SCORE_MODES}")
        if self.model_weights is not None:
            for mid, w in self.model_weights.items():
                if not (w > 0 and math.isfinite(w)):
                    raise ConfigError(f"weight for model '{mid}' must be positive, got {w!r}")


def _frozen(values, dtype, column: str) -> np.ndarray:
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        return values
    array = numbers(values, dtype, column)
    array.flags.writeable = False
    return array


_COORDINATES = ("x1", "y1", "x2", "y2")


def box_rules(coords: np.ndarray) -> list[Rule]:
    """The rules of a box, over the rows of (n, 4) coordinates, as
    `first_fault` takes them: each coordinate finite, then x1 < x2 and
    y1 < y2 (a positive area)."""
    def not_finite(row: int) -> str:
        name, v = next((name, v) for name, v in zip(_COORDINATES, coords[row].tolist())
                       if not math.isfinite(v))
        return f"box coordinate {name}={v!r} is not a finite number"

    return [(lambda n: ~np.isfinite(coords[:n]).all(axis=1), not_finite),
            (lambda n: ~((coords[:n, 0] < coords[:n, 2]) & (coords[:n, 1] < coords[:n, 3])),
             lambda row: "degenerate box ({}, {}, {}, {}): zero or negative area".format(
                 *coords[row].tolist()))]


def detection_rules(coords: np.ndarray, scores: np.ndarray,
                    category_ids: np.ndarray) -> list[Rule]:
    """`box_rules`, then the rules of a detection: score in [0, 1], then
    category_id >= 1."""
    return box_rules(coords) + [
        (lambda n: ~((scores[:n] >= 0.0) & (scores[:n] <= 1.0)),
         lambda row: f"score {scores[row].item()!r} outside [0, 1]"),
        (lambda n: category_ids[:n] < 1,
         lambda row: f"category_id {category_ids[row].item()!r} must be an integer >= 1")]


def code_rule(kind: str, codes: np.ndarray, names: tuple[str, ...],
              indptr: np.ndarray | None = None) -> Rule:
    """The rule that a row's `kind` codes index its table of names, as
    `first_fault` takes it: row i holds codes[indptr[i]:indptr[i + 1]], or
    codes[i] alone when indptr is None.  The message names the row."""
    def outside(values: np.ndarray) -> np.ndarray:
        return (values < 0) | (values >= len(names))

    def mask(n: int) -> np.ndarray:
        if indptr is None:
            return outside(codes[:n])
        rows = np.searchsorted(indptr, np.flatnonzero(outside(codes)), side="right") - 1
        bad = np.zeros(n, dtype=bool)
        bad[rows[rows < n]] = True
        return bad

    def message(row: int) -> str:
        own = codes[row:row + 1] if indptr is None else codes[indptr[row]:indptr[row + 1]]
        code = own[outside(own)][0].item()
        return f"row {row}: {kind} code {code} outside the table of {len(names)} {kind} names"

    return mask, message


def _check_names(column: str, names: tuple[str, ...]) -> None:
    """Raise DataError naming `column` unless its names ascend strictly, so
    that code order is name order, which the blocked steps rely on."""
    for earlier, later in zip(names, names[1:]):
        if not earlier < later:
            raise DataError(f"{column} must be distinct and ascending: {later!r} "
                            f"follows {earlier!r}")


@dataclass(frozen=True, eq=False, repr=False)
class _BoxColumns:
    """Columns shared by detections and fused boxes; row i is the box
    coords[i] of image image_names[image_codes[i]]."""

    coords: np.ndarray        # (n, 4) float64: x1, y1, x2, y2
    scores: np.ndarray        # (n,) float64
    category_ids: np.ndarray  # (n,) int64
    image_codes: np.ndarray   # (n,) intp into image_names
    image_names: tuple[str, ...]
    # the rows have passed the table's rules: a loader that applied them
    # while naming the bad line does not apply them again
    _checked: InitVar[bool] = field(default=False, kw_only=True)

    def __post_init__(self, _checked: bool):
        coords = _frozen(self.coords, np.float64, "coords")
        if coords.size == 0:
            coords = _frozen(coords.reshape(0, 4), np.float64, "coords")
        object.__setattr__(self, "coords", coords)
        for name, dtype in self._columns():
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype, name))
        n = len(self)
        if coords.shape != (n, 4) or any(getattr(self, name).shape != (n,)
                                         for name, _ in self._columns()):
            raise DataError("box columns must be (n, 4) coordinates and n-long vectors")
        if not _checked:
            for column in ("image_names", "model_names"):
                _check_names(column, getattr(self, column))
        fault = None if _checked else first_fault(n, self._rules())
        if fault is not None:
            raise DataError(fault[1])

    def _columns(self) -> list[tuple[str, type]]:
        return [("scores", np.float64), ("category_ids", np.int64),
                ("image_codes", np.intp)]

    def _rules(self) -> list[Rule]:
        return detection_rules(self.coords, self.scores, self.category_ids) + [
            code_rule("image", self.image_codes, self.image_names)]

    def __len__(self) -> int:
        return self.scores.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} boxes, {len(self.image_names)} images)"


@dataclass(frozen=True, eq=False, repr=False)
class Detections(_BoxColumns):
    """Detector outputs as columns."""

    model_codes: np.ndarray   # (n,) intp into model_names
    model_names: tuple[str, ...]

    def _columns(self):
        return super()._columns() + [("model_codes", np.intp)]

    def _rules(self) -> list[Rule]:
        return super()._rules() + [code_rule("model", self.model_codes, self.model_names)]

    @classmethod
    def from_columns(cls, coords, scores, category_ids, image_ids: Sequence[str],
                     model_ids: Sequence[str]) -> "Detections":
        """Build from per-row values, encoding the id strings."""
        image_codes, image_names = encode(image_ids, None)
        model_codes, model_names = encode(model_ids, None)
        return cls(coords, scores, category_ids, image_codes, image_names,
                   model_codes, model_names)

    @classmethod
    def concat(cls, parts: Sequence["Detections"]) -> "Detections":
        """The rows of every part, in order, over merged name tables."""
        if not parts:
            return cls.from_columns(np.zeros((0, 4)), [], [], [], [])
        image_codes, image_names = _merge([(p.image_names, p.image_codes) for p in parts])
        model_codes, model_names = _merge([(p.model_names, p.model_codes) for p in parts])
        columns = [np.concatenate([getattr(p, name) for p in parts])
                   for name in ("coords", "scores", "category_ids")]
        for column in (*columns, image_codes, model_codes):
            # new arrays that nothing else holds: the table keeps them uncopied
            column.flags.writeable = False
        # every part passed the rules, and the merged tables are sorted and distinct
        return cls(*columns, image_codes, image_names, model_codes, model_names, _checked=True)


def _merge(tables: list[tuple[tuple[str, ...], np.ndarray]]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Concatenated codes re-coded into the sorted union of their tables."""
    names = tuple(sorted(set().union(*(t for t, _ in tables))))
    return np.concatenate([encode(t, names)[0][codes] for t, codes in tables]), names


@dataclass(frozen=True, eq=False, repr=False)
class FusedDetections(_BoxColumns):
    """Fused boxes as columns.  Cluster i's models are
    model_codes[model_indptr[i]:model_indptr[i + 1]]."""

    cluster_sizes: np.ndarray  # (n,) int64
    model_indptr: np.ndarray   # (n + 1,) intp
    model_codes: np.ndarray    # ascending within each cluster
    model_names: tuple[str, ...]

    def _columns(self):
        return super()._columns() + [("cluster_sizes", np.int64)]

    def __post_init__(self, _checked: bool):
        for name in ("model_indptr", "model_codes"):
            object.__setattr__(self, name, _frozen(getattr(self, name), np.intp, name))
        indptr = self.model_indptr
        if (indptr.shape != (len(self.scores) + 1,) or indptr[0] != 0
                or self.model_codes.shape != (indptr[-1],) or (np.diff(indptr) < 0).any()):
            raise DataError("model_indptr must hold one offset per cluster plus one, "
                            "rising from 0 to the number of model codes")
        super().__post_init__(_checked)

    def _rules(self) -> list[Rule]:
        return super()._rules() + [code_rule("model", self.model_codes, self.model_names,
                                             self.model_indptr)]


def areas(coords: np.ndarray) -> np.ndarray:
    """(x2 - x1) * (y2 - y1) per row."""
    return (coords[:, 2] - coords[:, 0]) * (coords[:, 3] - coords[:, 1])


def overlaps(a: np.ndarray, a_area: np.ndarray, b: np.ndarray, b_area: np.ndarray) -> np.ndarray:
    """Intersection over union of a[i] and b[i] for each row pair, 0 where
    they do not overlap."""
    iw = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    ih = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    inter = iw * ih
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((iw > 0) & (ih > 0), inter / (a_area + b_area - inter), 0.0)


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection over union of two (x1, y1, x2, y2) boxes, in [0, 1].
    A coordinate that is a string or a boolean, or a box that breaks
    `box_rules`, raises DataError."""
    if len(a) != 4 or len(b) != 4:
        raise DataError(f"a box is (x1, y1, x2, y2), got {a!r} and {b!r}")
    pair = numbers([a, b], np.float64, "coords")
    fault = first_fault(2, box_rules(pair))
    if fault is not None:
        raise DataError(fault[1])
    area = areas(pair)
    return float(overlaps(pair[:1], area[:1], pair[1:], area[1:])[0])


def nms(boxes: Detections, iou_threshold: float) -> Detections:
    """Greedy non-maximum suppression within each (image, category) group.

    A group's boxes are visited in descending score order (ties by model
    id, then input order); a box is kept unless a box already kept in its
    group overlaps it with IoU >= iou_threshold.  The kept boxes are
    ordered by (image id, -score, model id, input order).  A threshold
    outside [0, 1] raises ConfigError.
    """
    _check_iou_threshold(iou_threshold)
    order = np.lexsort((boxes.model_codes, -boxes.scores, boxes.category_ids, boxes.image_codes))
    coords = boxes.coords[order]
    area = areas(coords)
    bounds = run_starts(boxes.image_codes[order], boxes.category_ids[order])
    start = bounds[:-1]
    # the k-th kept box of the group starting at position p is kept[p + k]
    n_kept = np.zeros(start.size, dtype=np.intp)
    kept = np.empty(len(boxes), dtype=np.intp)
    lengths = np.diff(bounds)
    for first, last in unit_blocks(boxes.image_codes[order[start]], lengths, BLOCK_BOXES):
        for s, group in enumerate(wavefront(lengths[first:last])):
            group = group + first
            box = start[group] + s
            k = n_kept[group]
            owner = np.repeat(np.arange(group.size), k)
            prior = kept[ranges(start[group], k)]
            b = box[owner]
            hit = overlaps(coords[prior], area[prior], coords[b], area[b]) >= iou_threshold
            alive = np.bincount(owner[hit], minlength=group.size) == 0
            kept[start[group[alive]] + k[alive]] = box[alive]
            n_kept[group[alive]] += 1
    rows = order[kept[ranges(start, n_kept)]]
    rows = rows[np.lexsort((rows, boxes.model_codes[rows], -boxes.scores[rows],
                            boxes.image_codes[rows]))]
    return Detections(boxes.coords[rows], boxes.scores[rows], boxes.category_ids[rows],
                      boxes.image_codes[rows], boxes.image_names, boxes.model_codes[rows],
                      boxes.model_names)


def _clip01(x: np.ndarray) -> np.ndarray:
    """min(1.0, max(0.0, x)) elementwise, signed zeros included."""
    x = np.where(x > 0.0, x, 0.0)
    return np.where(x < 1.0, x, 1.0)


def _model_counts(dets: Detections, params: WbfParams) -> np.ndarray:
    """Distinct models per image code.  Raises the ConfigError of the first
    image (in id order) that has a model without a weight or more models
    than params.num_models."""
    n_models = len(dets.model_names)
    pairs = unique_sorted(dets.image_codes.astype(np.int64) * n_models + dets.model_codes)
    pair_image, pair_model = pairs // n_models, pairs % n_models
    observed = np.bincount(pair_image, minlength=len(dets.image_names))
    unweighted = np.zeros(pairs.size, dtype=bool)
    if params.model_weights is not None:
        unweighted = ~np.array([m in params.model_weights for m in dets.model_names],
                               dtype=bool)[pair_model]
    over = (np.flatnonzero(observed > params.num_models) if params.num_models is not None
            else np.zeros(0, dtype=np.intp))
    bad = np.concatenate((pair_image[unweighted], over))
    if bad.size:
        image = bad.min()
        missing = pair_model[unweighted & (pair_image == image)]
        if missing.size:
            raise ConfigError(f"no weight configured for model '{dets.model_names[missing[0]]}'")
        raise ConfigError(f"num_models={params.num_models} is less than the "
                          f"{observed[image]} distinct models observed")
    return observed


def _fuse_block(boxes: Detections, rows: np.ndarray, weighted: np.ndarray,
                observed: np.ndarray, params: WbfParams) -> tuple[np.ndarray, ...]:
    """Fuse boxes[rows], whole images given in (image, category, -weighted
    score, model id, input index) order.  Returns the clusters' fused
    coordinates, scores, category ids, image codes and sizes in output
    order, then their model counts and the concatenated model codes."""
    # positions in this order are both box and cluster slots: the k-th
    # cluster of the group starting at position p lives in slot p + k
    coords, w = boxes.coords[rows], weighted[rows]
    area = areas(coords)
    image_codes, category_ids = boxes.image_codes[rows], boxes.category_ids[rows]
    bounds = run_starts(image_codes, category_ids)
    start = bounds[:-1]

    n = rows.size
    n_clusters = np.zeros(start.size, dtype=np.intp)
    wsum, size = np.zeros(n), np.zeros(n, dtype=np.int64)
    wcoords, csum = np.zeros((n, 4)), np.zeros((n, 4))
    fused, fused_area = np.zeros((n, 4)), np.zeros(n)
    slot = np.empty(n, dtype=np.intp)
    for s, group in enumerate(wavefront(np.diff(bounds))):
        first_slot = start[group]
        box = first_slot + s
        k = n_clusters[group]
        opened = first_slot + k
        target = opened.copy()
        candidates = ranges(first_slot, k)
        if candidates.size:
            owner = np.repeat(np.arange(group.size), k)
            b = box[owner]
            hit = np.flatnonzero(overlaps(fused[candidates], fused_area[candidates],
                                           coords[b], area[b]) > params.iou_threshold)
            if hit.size:
                first = hit[np.concatenate(([True], owner[hit[1:]] != owner[hit[:-1]]))]
                target[owner[first]] = candidates[first]
        n_clusters[group[target == opened]] += 1
        slot[box] = target
        # each target takes one box per step: its sums, read, added to and written back
        member = coords[box]
        wsum[target] = total = wsum[target] + w[box]
        wcoords[target] = weighted_sum = wcoords[target] + w[box, None] * member
        csum[target] = plain_sum = csum[target] + member
        size[target] = count = size[target] + 1
        with np.errstate(divide="ignore", invalid="ignore"):
            fused[target] = box_of = np.where(total[:, None] > 0.0,
                                              weighted_sum / total[:, None],
                                              plain_sum / count[:, None])
        fused_area[target] = areas(box_of)

    used = np.flatnonzero(size)
    t = size[used]
    image = image_codes[used]
    score = wsum[used] / t
    if params.score_mode == "rescale":
        n_models = params.num_models if params.num_models is not None else observed[image]
        score = score * (np.minimum(t, n_models) / n_models)
    score = _clip01(score)
    rank = np.lexsort((-score, image))
    out = used[rank]

    n_models = len(boxes.model_names)
    members = unique_sorted(slot.astype(np.int64) * n_models + boxes.model_codes[rows])
    per_slot = np.bincount(members // n_models, minlength=n)
    first_member = np.concatenate(([0], np.cumsum(per_slot)[:-1]))
    counts = per_slot[out]
    return (fused[out], score[rank], category_ids[out], image[rank], t[rank], counts,
            (members % n_models)[ranges(first_member[out], counts)])


def fuse_detections(boxes: Detections, params: WbfParams) -> FusedDetections:
    """Fuse a mixed-image detection set image by image (sorted by image id).

    Per image and category: boxes are visited in descending weighted-score
    order (score times model weight, clamped to [0, 1]; ties by model id,
    then input order); each box joins the first cluster whose current
    fused box overlaps it with IoU > iou_threshold, or starts a new
    cluster.  A cluster's fused box is the weighted-score average of its
    members' coordinates (the plain average when every weight is zero) and
    its score is the mean member weighted score; "rescale" then multiplies
    the score by min(T, N)/N, where T is the cluster size and N is
    params.num_models or else the number of models seen in the image.
    Each image's clusters are ordered by descending fused score, ties in
    (category, creation) order.

    The wavefront runs over blocks of whole images, in image order, of at
    most BLOCK_BOXES boxes each (an image with more is a block of its
    own), so its temporaries are block-sized.  Blocking moves no bit: a
    group's steps, IoU tests and running sums read only its own boxes, in
    the same member order; the models seen per image come from the whole
    table; and the output order, by (image, -score, slot), is the blocks'
    output orders concatenated.
    """
    if len(boxes) == 0:
        return FusedDetections(boxes.coords, boxes.scores, boxes.category_ids, boxes.image_codes,
                               boxes.image_names, [], [0], [], boxes.model_names)
    observed = _model_counts(boxes, params)
    weights = params.model_weights or {}
    weight = np.array([weights.get(m, 1.0) for m in boxes.model_names], dtype=np.float64)
    weighted = _clip01(boxes.scores * weight[boxes.model_codes])
    order = np.lexsort((boxes.model_codes, -weighted, boxes.category_ids, boxes.image_codes))
    parts = [_fuse_block(boxes, order[lo:hi], weighted, observed, params)
             for lo, hi in unit_blocks(boxes.image_codes[order], None, BLOCK_BOXES)]
    del order, weighted
    columns = [list(column) for column in zip(*parts)]
    del parts
    for i in range(len(columns)):
        # a column's blocks are dropped as it is joined, into a new array
        # that nothing else holds: the table keeps it uncopied
        columns[i] = np.concatenate(columns[i])
        columns[i].flags.writeable = False
    coords, scores, category_ids, image_codes, sizes, counts, models = columns
    indptr = np.concatenate(([0], np.cumsum(counts)))
    indptr.flags.writeable = False
    return FusedDetections(coords, scores, category_ids, image_codes, boxes.image_names, sizes,
                           indptr, models, boxes.model_names)
