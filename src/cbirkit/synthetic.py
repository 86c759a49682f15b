"""Deterministic synthetic benchmark generator.

Stands in for a full-scale detection + retrieval dataset at desk scale:
ground-truth boxes on a fixed canvas, per-detector noisy copies of them
(coordinate jitter, score noise, misses, false positives), and per-model
embeddings where every ground-truth object is an item with one gallery
vector and one query vector sampled around a shared item center.  Items
of the same category cluster around a category anchor, so retrieval
difficulty is controlled by cluster_spread (item separation within a
category) versus noise_sigma (sample noise per embedding model).  The
layout is the ground-truth `Detections` table itself, row i being item i,
and the other generators take that table.

All randomness derives from one seed through counter-based Philox streams
keyed by (seed, purpose, index), so any part can be regenerated
independently and in parallel with identical results.

The generators draw in bulk and compute in numpy, yet take exactly the
draws, in the order and of the kind, that one scalar call per value
would.  Three rules make the two the same:

* `uniform(a, b)` is `a + (b - a) * random()`;
* `normal(0, s)` is `0.0 + s * standard_normal()`;
* k scalar draws of one kind in a row are one size-k draw of that kind.

So a layout box is `random(4)`, a detector's hit is `random()` then
`standard_normal(5)` (one normal when jitter_sigma is 0), and a false
positive is `random(5)`; `integers` and `binomial` stay scalar calls.
Every output is therefore tied to numpy's `Generator` streams (Philox,
`random`, `standard_normal`, `integers`, `binomial`), which numpy does not
promise to keep across versions.  The files the benchmark pins were made
with numpy 2.4.6.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import get_type_hints

import numpy as np

from ._arrays import check_integer, run_starts
from .boxes import Detections
from .embeddings import EmbeddingMatrix
from .errors import ConfigError
from .pipeline import check_json_type
from . import io as formats

CANVAS = 640.0
MIN_BOX_SIDE, MAX_BOX_SIDE = 80.0, 240.0
FP_SCORE_RANGE = (0.2, 0.7)

_STREAM_LAYOUT = 0
_STREAM_DETECTOR = 1
_STREAM_EMBEDDING = 2


# the integer fields besides the seed, each at least 1
_COUNTS = ("num_images", "num_categories", "gt_boxes_per_image", "detector_count",
           "embedding_dim", "embedding_models")


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs of the generator; seed is mandatory for reproducibility."""

    seed: int
    num_images: int = 50
    num_categories: int = 5
    gt_boxes_per_image: int = 3
    detector_count: int = 3
    jitter_sigma: float = 4.0
    score_sigma: float = 0.1
    miss_rate: float = 0.1
    fp_rate: float = 0.1
    embedding_dim: int = 32
    embedding_models: int = 3
    cluster_spread: float = 0.6
    noise_sigma: float = 0.4

    def __post_init__(self):
        for name in ("seed", *_COUNTS):
            check_integer(getattr(self, name), name, ConfigError)
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed!r}")
        for name in ("miss_rate", "fp_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {v!r}")
        for name in ("jitter_sigma", "score_sigma", "cluster_spread", "noise_sigma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v!r}")
        for name in _COUNTS:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    @classmethod
    def from_dict(cls, obj: dict) -> "SyntheticSpec":
        if "seed" not in obj:
            raise ConfigError("synthetic spec requires an explicit seed")
        types = get_type_hints(cls)
        unknown = sorted(set(obj) - set(types))
        if unknown:
            raise ConfigError(f"unknown synthetic spec field '{unknown[0]}'")
        for name, value in obj.items():
            check_json_type(value, types[name], name)
        return cls(**obj)

    def to_dict(self) -> dict:
        return asdict(self)


def _rng(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, purpose, index))))


def synth_layout(spec: SyntheticSpec) -> Detections:
    """The planted objects as the ground-truth table, deterministic in the
    seed: row i is item i, gt_boxes_per_image rows per image img%05d in
    turn, of score 0 and model id "".  Per object, in order: width, height,
    x1 and y1 (uniform; one `random(4)`), then the category."""
    rng = _rng(spec.seed, _STREAM_LAYOUT)
    random, integers = rng.random, rng.integers
    n = spec.num_images * spec.gt_boxes_per_image
    draws = np.empty((n, 4))
    categories = np.empty(n, dtype=np.int64)
    for i, row in enumerate(draws):
        random(out=row)
        categories[i] = integers(1, spec.num_categories + 1)
    return Detections.from_columns(_uniform_boxes(draws), np.zeros(n), categories,
                                   [f"img{i // spec.gt_boxes_per_image:05d}" for i in range(n)],
                                   [""] * n)


def _uniform_boxes(draws: np.ndarray) -> np.ndarray:
    """(n, 4) random boxes on the canvas from the first four columns of
    (n, k) draws in [0, 1): width, height, x1 and y1, each as `uniform`
    makes it from its draw, low + (high - low) * draw."""
    w = MIN_BOX_SIDE + (MAX_BOX_SIDE - MIN_BOX_SIDE) * draws[:, 0]
    h = MIN_BOX_SIDE + (MAX_BOX_SIDE - MIN_BOX_SIDE) * draws[:, 1]
    x1, y1 = 0.0 + (CANVAS - w) * draws[:, 2], 0.0 + (CANVAS - h) * draws[:, 3]
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1)


def detection_gt(layout: Detections) -> Detections:
    """The layout, already the ground-truth table; kept because
    perfbench/workloads.py imports it (line 31) and calls it (line 109)."""
    return layout


def _jittered_boxes(boxes: np.ndarray, normals: np.ndarray, sigma: float) -> np.ndarray:
    """Each box plus N(0, sigma) noise per coordinate (sigma * normals, as
    `normal` makes it), the coordinates of each axis put in order, and a
    side below 1 widened to 1 from its low end."""
    x1, y1, x2, y2 = (boxes + (0.0 + sigma * normals)).T if sigma > 0 else boxes.T
    # sorted((a, b)) swaps only when b < a, which keeps the sign of equal zeros
    x1, x2 = np.where(x2 < x1, x2, x1), np.where(x2 < x1, x1, x2)
    y1, y2 = np.where(y2 < y1, y2, y1), np.where(y2 < y1, y1, y2)
    return np.stack([x1, y1, np.where(x2 - x1 < 1.0, x1 + 1.0, x2),
                     np.where(y2 - y1 < 1.0, y1 + 1.0, y2)], axis=1)


def synth_detections(spec: SyntheticSpec, layout: Detections, detector: int) -> Detections:
    """One detector's noisy view of the ground truth, as a table over the
    layout's image names.

    Each object is missed with probability miss_rate, otherwise emitted with
    jittered coordinates and score 1 - |N(0, score_sigma)|.  Per image, the
    detector additionally hallucinates Binomial(gt_boxes_per_image, fp_rate)
    random boxes with scores drawn from FP_SCORE_RANGE.  The rows come image
    by image in code order, which is id order: the image's hits in layout
    row order, then its false positives.
    """
    if not (0 <= detector < spec.detector_count):
        raise ConfigError(f"detector index {detector} outside [0, {spec.detector_count})")
    rng = _rng(spec.seed, _STREAM_DETECTOR, detector)
    random, standard_normal, binomial, integers = (rng.random, rng.standard_normal,
                                                   rng.binomial, rng.integers)
    # the rows image by image in code order, each image's in row order
    by_image = np.argsort(layout.image_codes, kind="stable")
    starts = run_starts(layout.image_codes[by_image])
    # the written files are pinned, so the draws keep their order: the miss
    # draw, then the score's normal and the box's four, for a hit; per image
    # the false-positive count, then per false positive the box's four
    # uniforms, the score's, and the category
    normals = np.empty((len(layout), 5 if spec.jitter_sigma > 0 else 1))
    fp_draws = np.empty(((starts.size - 1) * spec.gt_boxes_per_image, 5))
    hits, fp_counts, fp_categories = [], [], []
    for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
        for row in by_image[lo:hi].tolist():
            if random() >= spec.miss_rate:
                standard_normal(out=normals[len(hits)])
                hits.append(row)
        fp_counts.append(int(binomial(spec.gt_boxes_per_image, spec.fp_rate)))
        for _ in range(fp_counts[-1]):
            random(out=fp_draws[len(fp_categories)])
            fp_categories.append(int(integers(1, spec.num_categories + 1)))
    normals, fp_draws = normals[:len(hits)], fp_draws[:len(fp_categories)]
    hit_scores = 1.0 - np.abs(0.0 + spec.score_sigma * normals[:, 0])
    hit_scores = np.minimum(1.0, np.maximum(0.0, hit_scores))
    hit_coords = _jittered_boxes(layout.coords[hits], normals[:, 1:], spec.jitter_sigma)
    low, high = FP_SCORE_RANGE
    # a stable sort by image code puts the hits of an image, in layout row
    # order, before its false positives
    image_codes = np.concatenate([layout.image_codes[hits],
                                  np.repeat(layout.image_codes[by_image[starts[:-1]]], fp_counts)])
    order = np.argsort(image_codes, kind="stable")
    coords = np.concatenate([hit_coords, _uniform_boxes(fp_draws)])[order]
    scores = np.concatenate([hit_scores, low + (high - low) * fp_draws[:, 4]])[order]
    categories = np.concatenate([layout.category_ids[hits],
                                 np.array(fp_categories, dtype=np.int64)])[order]
    return Detections(coords, scores, categories, image_codes[order], layout.image_names,
                      np.zeros(order.size, dtype=np.intp), (f"det{detector}",))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def synth_item_centers(spec: SyntheticSpec, layout: Detections) -> np.ndarray:
    """Unit item centers clustered around per-category anchors."""
    rng = _rng(spec.seed, _STREAM_EMBEDDING, 0)
    anchors = _unit(rng.normal(size=(spec.num_categories, spec.embedding_dim)))
    deviations = rng.normal(size=(len(layout), spec.embedding_dim))
    return _unit(anchors[layout.category_ids - 1] + spec.cluster_spread * deviations)


def _embedding_rows(spec: SyntheticSpec, centers: np.ndarray, model: int) -> np.ndarray:
    """One model's query rows then gallery rows: each item center plus
    independent N(0, noise_sigma) noise, unit-normalised.  The noise is
    drawn as one array and the sums are made in place in it, so no
    temporary of its size is held beside it."""
    rng = _rng(spec.seed, _STREAM_EMBEDDING, 1 + model)
    n = centers.shape[0]
    rows = rng.normal(size=(2 * n, spec.embedding_dim))
    rows *= spec.noise_sigma
    rows[:n] += centers
    rows[n:] += centers
    rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
    return rows


def synth_embeddings(spec: SyntheticSpec, layout: Detections,
                     centers: np.ndarray, model: int) -> EmbeddingMatrix:
    """One embedding model's matrix: a query row and a gallery row per item,
    each the item center plus independent N(0, noise_sigma) noise.  Item i
    is layout row i; its box id is its image id, ":b" and its rank in the image."""
    if not (0 <= model < spec.embedding_models):
        raise ConfigError(f"model index {model} outside [0, {spec.embedding_models})")
    n = len(layout)
    by_image = np.argsort(layout.image_codes, kind="stable")
    starts = run_starts(layout.image_codes[by_image])
    rank = np.empty(n, dtype=np.intp)
    rank[by_image] = np.arange(n) - np.repeat(starts[:-1], np.diff(starts))
    image_ids = [layout.image_names[code] for code in layout.image_codes.tolist()]
    gallery_ids = [f"g{i:06d}" for i in range(n)]
    return EmbeddingMatrix.from_columns(
        _embedding_rows(spec, centers, model),
        item_ids=[f"q{i:06d}" for i in range(n)] + gallery_ids,
        image_ids=image_ids + ["gallery"] * n,
        box_ids=[f"{image_id}:b{r}" for image_id, r in zip(image_ids, rank.tolist())]
        + gallery_ids,
        category_ids=layout.category_ids.tolist() * 2,
        sources=["query"] * n + ["gallery"] * n)


def retrieval_pairs(layout: Detections) -> dict[str, set[str]]:
    return {f"q{i:06d}": {f"g{i:06d}"} for i in range(len(layout))}


def generate_synthetic(spec: SyntheticSpec, out_dir: str | Path) -> dict[str, object]:
    """Write the full benchmark to out_dir and return the file manifest.

    Produces detection ground truth, one detections file per detector, one
    embedding container per model, the retrieval pairs, a manifest echoing
    the spec, and a ready-to-run pipeline config.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.touch()
        probe.unlink()
    except OSError as e:
        raise ConfigError(f"output directory {out} is not writable: {e}") from None

    layout = synth_layout(spec)
    formats.save_detection_gt(layout, out / "detection_gt.jsonl")

    det_files = []
    for d in range(spec.detector_count):
        path = out / f"detections_det{d}.jsonl"
        formats.save_detections(synth_detections(spec, layout, d), path)
        det_files.append(str(path))

    centers = synth_item_centers(spec, layout)
    # the models share one id table, built and checked once
    first = synth_embeddings(spec, layout, centers, 0)
    emb_files = []
    for m in range(spec.embedding_models):
        data_path = out / f"embeddings_m{m}.emb"
        ids_path = out / f"embeddings_m{m}.ids.jsonl"
        formats.save_embeddings(first if m == 0 else
                                first.with_data(_embedding_rows(spec, centers, m)),
                                data_path, ids_path)
        emb_files.append({"data": str(data_path), "ids": str(ids_path)})

    formats.save_retrieval_gt(retrieval_pairs(layout), out / "retrieval_gt.jsonl")

    config = {
        "detections": det_files,
        "wbf": {"iou_threshold": 0.55, "model_weights": None,
                "num_models": None, "score_mode": "rescale"},
        "embeddings": emb_files,
        "post": [{"step": "concat"}] if spec.embedding_models > 1 else [],
        "search": {"k": 10, "restrict_to_query_category": False},
        "eval": {"retrieval_gt": str(out / "retrieval_gt.jsonl"),
                 "detection_gt": str(out / "detection_gt.jsonl"),
                 "ks": [1, 10]},
        "output_dir": str(out / "run"),
    }
    with formats._atomic_open(out / "config.json") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")

    manifest = {
        "spec": spec.to_dict(),
        "detection_gt": str(out / "detection_gt.jsonl"),
        "detections": det_files,
        "embeddings": emb_files,
        "retrieval_gt": str(out / "retrieval_gt.jsonl"),
        "config": str(out / "config.json"),
        "num_items": len(layout),
    }
    with formats._atomic_open(out / "manifest.json") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest
