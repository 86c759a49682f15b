"""Deterministic synthetic benchmark generator.

Stands in for a full-scale detection + retrieval dataset at desk scale:
ground-truth boxes on a fixed canvas, per-detector noisy copies of them
(coordinate jitter, score noise, misses, false positives), and per-model
embeddings where every ground-truth object is an item with one gallery
vector and one query vector sampled around a shared item center.  Items
of the same category cluster around a category anchor, so retrieval
difficulty is controlled by cluster_spread (item separation within a
category) versus noise_sigma (sample noise per embedding model).

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
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import get_type_hints

import numpy as np

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
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed!r}")
        for name in ("miss_rate", "fp_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {v!r}")
        for name in ("jitter_sigma", "score_sigma", "cluster_spread", "noise_sigma"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("num_images", "num_categories", "gt_boxes_per_image",
                     "detector_count", "embedding_dim", "embedding_models"):
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


@dataclass(frozen=True)
class GtObject:
    """One planted object: a ground-truth box that is also a retrieval item."""

    item_index: int
    image_id: str
    box_id: str
    box: tuple[float, float, float, float]  # x1, y1, x2, y2
    category_id: int


def synth_layout(spec: SyntheticSpec) -> list[GtObject]:
    """Ground-truth objects for every image, deterministic in the seed.
    Per object, in order: width, height, x1 and y1 (uniform; one `random(4)`),
    then the category."""
    rng = _rng(spec.seed, _STREAM_LAYOUT)
    random, integers = rng.random, rng.integers
    n = spec.num_images * spec.gt_boxes_per_image
    draws = np.empty((n, 4))
    categories = [0] * n
    for i, row in enumerate(draws):
        random(out=row)
        categories[i] = int(integers(1, spec.num_categories + 1))
    image_ids = [f"img{i:05d}" for i in range(spec.num_images)]
    return list(map(GtObject, range(n),
                    [image_id for image_id in image_ids for _ in range(spec.gt_boxes_per_image)],
                    [f"{image_id}:b{b}" for image_id in image_ids
                     for b in range(spec.gt_boxes_per_image)],
                    zip(*_uniform_boxes(draws).T.tolist()), categories))


def _uniform_boxes(draws: np.ndarray) -> np.ndarray:
    """(n, 4) random boxes on the canvas from the first four columns of
    (n, k) draws in [0, 1): width, height, x1 and y1, each as `uniform`
    makes it from its draw, low + (high - low) * draw."""
    w = MIN_BOX_SIDE + (MAX_BOX_SIDE - MIN_BOX_SIDE) * draws[:, 0]
    h = MIN_BOX_SIDE + (MAX_BOX_SIDE - MIN_BOX_SIDE) * draws[:, 1]
    x1, y1 = 0.0 + (CANVAS - w) * draws[:, 2], 0.0 + (CANVAS - h) * draws[:, 3]
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1)


def detection_gt(objects: list[GtObject]) -> Detections:
    """The objects' boxes as ground truth: detections of score 0 and model id ""."""
    # number columns as arrays, which the table takes without a per-value type check
    return Detections.from_columns(np.array([o.box for o in objects]), np.zeros(len(objects)),
                                   np.array([o.category_id for o in objects]),
                                   [o.image_id for o in objects], [""] * len(objects))


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


def synth_detections(spec: SyntheticSpec, objects: list[GtObject], detector: int) -> Detections:
    """One detector's noisy view of the ground truth, as a table.

    Each object is missed with probability miss_rate, otherwise emitted with
    jittered coordinates and score 1 - |N(0, score_sigma)|.  Per image, the
    detector additionally hallucinates Binomial(gt_boxes_per_image, fp_rate)
    random boxes with scores drawn from FP_SCORE_RANGE.  The rows come image
    by image in id order: the image's hits in object order, then its false
    positives.
    """
    if not (0 <= detector < spec.detector_count):
        raise ConfigError(f"detector index {detector} outside [0, {spec.detector_count})")
    rng = _rng(spec.seed, _STREAM_DETECTOR, detector)
    random, standard_normal, binomial, integers = (rng.random, rng.standard_normal,
                                                   rng.binomial, rng.integers)
    by_image: dict[str, list[int]] = {}
    for row, obj in enumerate(objects):
        by_image.setdefault(obj.image_id, []).append(row)
    images = sorted(by_image)
    # the written files are pinned, so the draws keep their order: the miss
    # draw, then the score's normal and the box's four, for a hit; per image
    # the false-positive count, then per false positive the box's four
    # uniforms, the score's, and the category
    normals = np.empty((len(objects), 5 if spec.jitter_sigma > 0 else 1))
    fp_draws = np.empty((len(images) * spec.gt_boxes_per_image, 5))
    hits, fp_counts, fp_categories = [], [], []
    for image_id in images:
        for row in by_image[image_id]:
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
    hit_coords = _jittered_boxes(np.array([objects[row].box for row in hits]).reshape(-1, 4),
                                 normals[:, 1:], spec.jitter_sigma)
    low, high = FP_SCORE_RANGE
    # each row's image, as its rank in `images`; a stable sort by it puts the
    # hits of an image, in object order, before its false positives
    image_rank = np.empty(len(objects), dtype=np.intp)
    for rank, image_id in enumerate(images):
        image_rank[by_image[image_id]] = rank
    row_images = np.concatenate([image_rank[hits],
                                 np.repeat(np.arange(len(images)), fp_counts)])
    order = np.argsort(row_images, kind="stable")
    coords = np.concatenate([hit_coords, _uniform_boxes(fp_draws)])[order]
    scores = np.concatenate([hit_scores, low + (high - low) * fp_draws[:, 4]])[order]
    categories = np.array([objects[row].category_id for row in hits] + fp_categories,
                          dtype=np.int64)[order]
    image_rows = np.array(images, dtype=object)[row_images[order]]
    return Detections.from_columns(coords, scores, categories, image_rows.tolist(),
                                   [f"det{detector}"] * len(order))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def synth_item_centers(spec: SyntheticSpec, objects: list[GtObject]) -> np.ndarray:
    """Unit item centers clustered around per-category anchors."""
    rng = _rng(spec.seed, _STREAM_EMBEDDING, 0)
    anchors = _unit(rng.normal(size=(spec.num_categories, spec.embedding_dim)))
    deviations = rng.normal(size=(len(objects), spec.embedding_dim))
    categories = np.array([obj.category_id for obj in objects], dtype=np.intp)
    return _unit(anchors[categories - 1] + spec.cluster_spread * deviations)


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


def synth_embeddings(spec: SyntheticSpec, objects: list[GtObject],
                     centers: np.ndarray, model: int) -> EmbeddingMatrix:
    """One embedding model's matrix: a query row and a gallery row per item,
    each the item center plus independent N(0, noise_sigma) noise."""
    if not (0 <= model < spec.embedding_models):
        raise ConfigError(f"model index {model} outside [0, {spec.embedding_models})")
    n = len(objects)
    gallery_ids = [f"g{obj.item_index:06d}" for obj in objects]
    return EmbeddingMatrix.from_columns(
        _embedding_rows(spec, centers, model),
        item_ids=[f"q{obj.item_index:06d}" for obj in objects] + gallery_ids,
        image_ids=[obj.image_id for obj in objects] + ["gallery"] * n,
        box_ids=[obj.box_id for obj in objects] + gallery_ids,
        category_ids=[obj.category_id for obj in objects] * 2,
        sources=["query"] * n + ["gallery"] * n)


def retrieval_pairs(objects: list[GtObject]) -> dict[str, set[str]]:
    return {f"q{o.item_index:06d}": {f"g{o.item_index:06d}"} for o in objects}


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

    objects = synth_layout(spec)
    formats.save_detection_gt(detection_gt(objects), out / "detection_gt.jsonl")

    det_files = []
    for d in range(spec.detector_count):
        path = out / f"detections_det{d}.jsonl"
        formats.save_detections(synth_detections(spec, objects, d), path)
        det_files.append(str(path))

    centers = synth_item_centers(spec, objects)
    # the models share one id table, built and checked once
    first = synth_embeddings(spec, objects, centers, 0)
    emb_files = []
    for m in range(spec.embedding_models):
        data_path = out / f"embeddings_m{m}.emb"
        ids_path = out / f"embeddings_m{m}.ids.jsonl"
        formats.save_embeddings(first if m == 0 else
                                first.with_data(_embedding_rows(spec, centers, m)),
                                data_path, ids_path)
        emb_files.append({"data": str(data_path), "ids": str(ids_path)})

    formats.save_retrieval_gt(retrieval_pairs(objects), out / "retrieval_gt.jsonl")

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
        "num_items": len(objects),
    }
    with formats._atomic_open(out / "manifest.json") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest
