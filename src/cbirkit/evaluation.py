"""Detection average precision and retrieval top-K accuracy.

detection_ap follows the 101-point interpolated convention: predictions
are greedily matched per image and category to the unmatched ground-truth
box of highest IoU at or above the threshold, the precision envelope is
sampled at recall levels 0.00, 0.01, ..., 1.00, and AP is the mean over
IoU thresholds 0.50:0.05:0.95 (AP50/AP75 read at single thresholds).

Predictions and ground truth are both box tables: `boxes.Detections` (the
ground truth as loaded: score 0, one empty model name) or
`boxes.FusedDetections`.  Matching is a wavefront over
position-in-group: predictions are grouped by (category, image) in the
canonical order, and step s takes the s-th prediction of every group,
computes its IoU with each ground-truth box of its group once, and matches
it at every threshold at once to the first unused box of maximal IoU at or
above that threshold.  The wavefront runs over one block of whole images at
a time, of at most `boxes.BLOCK_BOXES` predictions and ground-truth boxes,
so that its temporaries are block-sized; a group's boxes never span two
blocks, so the TP flags are those of one wavefront over the whole table.
What stays whole is O(n): the sort order, the group keys and the TP flags
(one bool per prediction and threshold).  The cumulative counts and the
interpolation then run per (category, threshold), in the same order.

acc_at_k counts a query as a hit at K when any of its ground-truth gallery
items appears within the first K ranked entries.  It takes `search.Rankings`
columns: each match is coded once through the rankings' id table, and a
query's first hit is its first entry whose code is a match.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Collection, Mapping, Sequence

import numpy as np

from ._arrays import (check_integer, encode, pairs_in, ranges, repeats, run_starts,
                      unique_sorted, unit_blocks, wavefront)
from .boxes import BLOCK_BOXES, Detections, FusedDetections, _merge, areas, overlaps
from .errors import DataError
from .search import Rankings

# query item_id -> set of matching gallery item_ids
GroundTruthRet = Mapping[str, Collection[str]]

COCO_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))

_RECALL_LEVELS = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class DetectionReport:
    """AP breakdown plus match counts (counts taken at the loosest threshold)."""

    ap: float
    ap50: float | None
    ap75: float | None
    per_category: dict[int, float]
    tp: int
    fp: int
    fn: int
    thresholds: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "ap": self.ap,
            "ap50": self.ap50,
            "ap75": self.ap75,
            "per_category": {str(c): v for c, v in sorted(self.per_category.items())},
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "thresholds": list(self.thresholds),
        }


@dataclass(frozen=True)
class RetrievalReport:
    """Acc@K per requested K plus per-query first-hit ranks."""

    acc: dict[int, float]
    num_queries: int
    num_excluded: int
    impossible_query_ids: tuple[str, ...] = ()
    first_hit_rank: dict[str, int | None] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "acc": {str(k): v for k, v in sorted(self.acc.items())},
            "num_queries": self.num_queries,
            "num_excluded": self.num_excluded,
        }


def _interpolated_ap(recall: np.ndarray, precision: np.ndarray) -> float:
    """101-point interpolation: sample the right-to-left precision envelope
    at fixed recall levels; levels beyond the achieved recall score 0."""
    if recall.size == 0:
        return 0.0
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, _RECALL_LEVELS, side="left")
    sampled = np.where(idx < recall.size, envelope[np.minimum(idx, recall.size - 1)], 0.0)
    return float(sampled.mean())


def check_thresholds(iou_thresholds: Sequence[float] | None) -> tuple[float, ...]:
    """The IoU thresholds to score at (COCO's ten by default); each must
    lie in (0, 1]."""
    thresholds = tuple(iou_thresholds) if iou_thresholds is not None else COCO_THRESHOLDS
    if not thresholds or any(not (0.0 < t <= 1.0) for t in thresholds):
        raise DataError(f"IoU thresholds must lie in (0, 1], got {thresholds!r}")
    return thresholds


def _match(preds: Detections | FusedDetections, order: np.ndarray, group_key: np.ndarray,
           width: int, gt_coords: np.ndarray, gt_key: np.ndarray,
           thresholds: tuple[float, ...]) -> np.ndarray:
    """Greedy TP flags, (thresholds, predictions): each prediction, in
    `order` within its group, takes the first unused ground-truth box of
    its group with maximal IoU >= the threshold.  Groups are equal keys, and
    key // width is a group's image; ground truth is sorted by key, in input
    order within a key.  The wavefront runs over one block of whole images
    at a time, of at most BLOCK_BOXES predictions and ground-truth boxes
    (an image with more is a block of its own), so its temporaries are
    block-sized: a group's steps read and mark only its own boxes, so the
    flags are those of one wavefront over every group."""
    tp = np.zeros((len(thresholds), len(preds)), dtype=bool)
    grouped = order[np.argsort(group_key[order], kind="stable")]
    bounds = run_starts(group_key[grouped])
    start = bounds[:-1]
    key = group_key[grouped[start]]
    lo = np.searchsorted(gt_key, key, side="left")
    count = np.searchsorted(gt_key, key, side="right") - lo
    # a group without ground truth has nothing to match
    length = np.where(count > 0, np.diff(bounds), 0)
    pred_area, gt_area = areas(preds.coords), areas(gt_coords)
    level = np.array(thresholds)[:, None]
    used = np.zeros((len(thresholds), gt_key.size), dtype=bool)
    for first, last in unit_blocks(key // width, length + count, BLOCK_BOXES):
        for s, group in enumerate(wavefront(length[first:last])):
            group = group + first
            pred = grouped[start[group] + s]
            gt = ranges(lo[group], count[group])
            owner = np.repeat(np.arange(group.size), count[group])
            segment = np.concatenate(([0], np.cumsum(count[group])[:-1]))
            p = pred[owner]
            value = overlaps(preds.coords[p], pred_area[p], gt_coords[gt], gt_area[gt])
            open_ = (value >= level) & ~used[:, gt]
            masked = np.where(open_, value, -1.0)
            best = open_ & (masked == np.maximum.reduceat(masked, segment, axis=1)[:, owner])
            before = np.cumsum(best, axis=1) - best
            first_best = best & (before == before[:, segment][:, owner])
            level_of, j = np.nonzero(first_best)
            used[level_of, gt[j]] = True
            tp[level_of, p[j]] = True
    return tp


def detection_ap(
    preds: Detections | FusedDetections,
    gt: Detections | FusedDetections,
    iou_thresholds: Sequence[float] | None = None,
) -> DetectionReport:
    """Score detections against ground truth at the given IoU thresholds.

    Categories appearing only in predictions score 0 and still enter the
    category mean; categories appearing only in ground truth count their
    boxes as misses.  Ground-truth scores and model names are not read.
    """
    thresholds = check_thresholds(iou_thresholds)
    categories = unique_sorted(np.concatenate((gt.category_ids, preds.category_ids)))
    gt_rank = np.searchsorted(categories, gt.category_ids)
    total_gt = np.bincount(gt_rank, minlength=categories.size)

    # a total order independent of input order, so reported numbers are
    # invariant under permutation of the predictions; rows that tie on
    # every key are identical boxes, whose order changes no number
    x = preds.coords
    order = np.lexsort((x[:, 3], x[:, 2], x[:, 1], x[:, 0],
                        preds.image_codes, -preds.scores, preds.category_ids))
    # (image, category) keys over one image numbering of both tables
    image, _ = _merge([(preds.image_names, preds.image_codes), (gt.image_names, gt.image_codes)])
    pred_key = (image[:len(preds)] * categories.size
                + np.searchsorted(categories, preds.category_ids))
    gt_key = image[len(preds):] * categories.size + gt_rank
    gt_order = np.argsort(gt_key, kind="stable")
    tp = _match(preds, order, pred_key, categories.size, gt.coords[gt_order], gt_key[gt_order],
                thresholds)

    by_category = preds.category_ids[order]
    lo = np.searchsorted(by_category, categories, side="left")
    hi = np.searchsorted(by_category, categories, side="right")
    loosest = min(range(len(thresholds)), key=lambda i: thresholds[i])
    per_category: dict[int, float] = {}
    by_threshold: dict[float, list[float]] = {t: [] for t in thresholds}
    tp_total = fp_total = fn_total = 0

    for ci, c in enumerate(categories.tolist()):
        rows = order[lo[ci]:hi[ci]]
        n_gt = int(total_gt[ci])
        aps = []
        for ti, t in enumerate(thresholds):
            hit = tp[ti, rows]
            if n_gt == 0:
                ap_t = 0.0
            else:
                cum_tp = np.cumsum(hit)
                cum_fp = np.cumsum(~hit)
                recall = cum_tp / n_gt
                precision = cum_tp / np.maximum(cum_tp + cum_fp, 1)
                ap_t = _interpolated_ap(recall, precision)
            aps.append(ap_t)
            by_threshold[t].append(ap_t)
            if ti == loosest:
                n_tp = int(hit.sum())
                tp_total += n_tp
                fp_total += rows.size - n_tp
                fn_total += n_gt - n_tp
        per_category[c] = float(np.mean(aps))

    mean_ap = float(np.mean(list(per_category.values()))) if per_category else 0.0

    def at(threshold: float) -> float | None:
        if threshold not in by_threshold:
            return None
        vals = by_threshold[threshold]
        return float(np.mean(vals)) if vals else 0.0

    return DetectionReport(
        ap=mean_ap,
        ap50=at(0.5),
        ap75=at(0.75),
        per_category=per_category,
        tp=tp_total,
        fp=fp_total,
        fn=fn_total,
        thresholds=thresholds,
    )


def acc_at_k(
    rankings: Rankings,
    gt: GroundTruthRet,
    ks: Sequence[int],
    gallery_ids: Collection[str] | None = None,
) -> RetrievalReport:
    """Top-K accuracy over the evaluated queries.

    Queries whose ground-truth match set is empty are excluded from the
    denominator and counted separately.  When gallery_ids is given, queries
    whose match set is disjoint from the gallery are flagged as impossible
    (they still count as misses).
    """
    for k in ks:
        check_integer(k, "each of ks", DataError)
    if not ks or any(k < 1 for k in ks):
        raise DataError(f"ks must be positive integers, got {ks!r}")
    query_ids = rankings.query_ids.tolist()
    repeat = np.flatnonzero(repeats(query_ids))
    if repeat.size:
        raise DataError(f"duplicate query_id {query_ids[repeat[0]]!r} in rankings")
    missing = set(query_ids).difference(gt)
    if missing:
        raise DataError(f"query {min(missing)!r} has no ground-truth entry")

    matches = [gt[q] for q in query_ids]
    sizes = np.fromiter(map(len, matches), np.int64, len(matches))
    evaluated = np.flatnonzero(sizes)
    # each match's query and its code into the id table, -1 if it lacks it
    flat = list(itertools.chain.from_iterable(matches))
    owner = np.repeat(np.arange(len(matches)), sizes)
    codes, _ = encode(flat, rankings.item_table.tolist())
    known = codes >= 0
    m, width = rankings.item_table.shape[0], rankings.codes.shape[1]
    hit = (pairs_in(np.arange(len(query_ids)), rankings.codes, owner[known], codes[known], m)
           & (np.arange(width) < rankings.lengths[:, None]))
    # 1-based rank of each row's first hit; width + 1 where it has none
    first = np.where(hit, np.arange(1, width + 1), width + 1).min(axis=1, initial=width + 1)
    rank = np.where(first > width, 0, first)[evaluated]
    impossible = np.zeros(0, dtype=np.intp)
    if gallery_ids is not None:
        in_gallery = encode(flat, list(gallery_ids))[0] >= 0
        possible = np.bincount(owner[in_gallery], minlength=len(matches)) > 0
        impossible = evaluated[~possible[evaluated]]
    num = evaluated.size
    acc = {k: (int(np.count_nonzero((rank >= 1) & (rank <= k))) / num if num else 0.0)
           for k in ks}
    return RetrievalReport(
        acc=acc,
        num_queries=num,
        num_excluded=len(query_ids) - num,
        impossible_query_ids=tuple(rankings.query_ids[impossible].tolist()),
        first_hit_rank={query_ids[i]: r or None
                        for i, r in zip(evaluated.tolist(), rank.tolist())},
    )


def format_detection_report(report: DetectionReport) -> str:
    lines = [
        f"AP      {report.ap:.4f}",
        f"AP50    {report.ap50:.4f}" if report.ap50 is not None else "AP50    n/a",
        f"AP75    {report.ap75:.4f}" if report.ap75 is not None else "AP75    n/a",
        f"TP/FP/FN  {report.tp}/{report.fp}/{report.fn}",
    ]
    for c, v in sorted(report.per_category.items()):
        lines.append(f"  category {c:<4d} AP {v:.4f}")
    return "\n".join(lines)


def format_retrieval_report(report: RetrievalReport) -> str:
    lines = [f"Acc@{k:<4d} {v:.4f}" for k, v in sorted(report.acc.items())]
    lines.append(f"queries evaluated {report.num_queries}, excluded {report.num_excluded}")
    if report.impossible_query_ids:
        lines.append(f"impossible queries: {', '.join(report.impossible_query_ids)}")
    return "\n".join(lines)
