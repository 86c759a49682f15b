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
    """Ground-truth objects for every image, deterministic in the seed."""
    rng = _rng(spec.seed, _STREAM_LAYOUT)
    objects = []
    index = 0
    for i in range(spec.num_images):
        image_id = f"img{i:05d}"
        for b in range(spec.gt_boxes_per_image):
            w = rng.uniform(MIN_BOX_SIDE, MAX_BOX_SIDE)
            h = rng.uniform(MIN_BOX_SIDE, MAX_BOX_SIDE)
            x1 = rng.uniform(0.0, CANVAS - w)
            y1 = rng.uniform(0.0, CANVAS - h)
            category = int(rng.integers(1, spec.num_categories + 1))
            objects.append(GtObject(
                item_index=index,
                image_id=image_id,
                box_id=f"{image_id}:b{b}",
                box=(x1, y1, x1 + w, y1 + h),
                category_id=category,
            ))
            index += 1
    return objects


def detection_gt(objects: list[GtObject]) -> Detections:
    """The objects' boxes as ground truth: detections of score 0 and model id ""."""
    return Detections.from_columns([o.box for o in objects], [0.0] * len(objects),
                                   [o.category_id for o in objects],
                                   [o.image_id for o in objects], [""] * len(objects))


def _jittered_box(box: tuple[float, float, float, float], rng: np.random.Generator,
                  sigma: float) -> tuple[float, float, float, float]:
    x1, y1, x2, y2 = (c + rng.normal(0.0, sigma) if sigma > 0 else c
                      for c in box)
    x1, x2 = sorted((x1, x2))
    y1, y2 = sorted((y1, y2))
    if x2 - x1 < 1.0:
        x2 = x1 + 1.0
    if y2 - y1 < 1.0:
        y2 = y1 + 1.0
    return x1, y1, x2, y2


def synth_detections(spec: SyntheticSpec, objects: list[GtObject], detector: int) -> Detections:
    """One detector's noisy view of the ground truth, as a table.

    Each object is missed with probability miss_rate, otherwise emitted with
    jittered coordinates and score 1 - |N(0, score_sigma)|.  Per image, the
    detector additionally hallucinates Binomial(gt_boxes_per_image, fp_rate)
    random boxes with scores drawn from FP_SCORE_RANGE.
    """
    if not (0 <= detector < spec.detector_count):
        raise ConfigError(f"detector index {detector} outside [0, {spec.detector_count})")
    rng = _rng(spec.seed, _STREAM_DETECTOR, detector)
    coords, scores, categories, images = [], [], [], []
    by_image: dict[str, list[GtObject]] = {}
    for obj in objects:
        by_image.setdefault(obj.image_id, []).append(obj)
    # the written files are pinned, so the draws keep their order: score,
    # then box, for a hit; box, score, then category for a false positive
    for image_id in sorted(by_image):
        for obj in by_image[image_id]:
            if rng.random() < spec.miss_rate:
                continue
            scores.append(min(1.0, max(0.0, 1.0 - abs(rng.normal(0.0, spec.score_sigma)))))
            coords.append(_jittered_box(obj.box, rng, spec.jitter_sigma))
            categories.append(obj.category_id)
            images.append(image_id)
        n_fp = int(rng.binomial(spec.gt_boxes_per_image, spec.fp_rate))
        for _ in range(n_fp):
            w = rng.uniform(MIN_BOX_SIDE, MAX_BOX_SIDE)
            h = rng.uniform(MIN_BOX_SIDE, MAX_BOX_SIDE)
            x1 = rng.uniform(0.0, CANVAS - w)
            y1 = rng.uniform(0.0, CANVAS - h)
            coords.append((x1, y1, x1 + w, y1 + h))
            scores.append(rng.uniform(*FP_SCORE_RANGE))
            categories.append(int(rng.integers(1, spec.num_categories + 1)))
            images.append(image_id)
    return Detections.from_columns(coords, scores, categories, images,
                                   [f"det{detector}"] * len(scores))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def synth_item_centers(spec: SyntheticSpec, objects: list[GtObject]) -> np.ndarray:
    """Unit item centers clustered around per-category anchors."""
    rng = _rng(spec.seed, _STREAM_EMBEDDING, 0)
    anchors = _unit(rng.normal(size=(spec.num_categories, spec.embedding_dim)))
    deviations = rng.normal(size=(len(objects), spec.embedding_dim))
    centers = np.empty((len(objects), spec.embedding_dim))
    for i, obj in enumerate(objects):
        centers[i] = anchors[obj.category_id - 1] + spec.cluster_spread * deviations[i]
    return _unit(centers)


def synth_embeddings(spec: SyntheticSpec, objects: list[GtObject],
                     centers: np.ndarray, model: int) -> EmbeddingMatrix:
    """One embedding model's matrix: a query row and a gallery row per item,
    each the item center plus independent N(0, noise_sigma) noise."""
    if not (0 <= model < spec.embedding_models):
        raise ConfigError(f"model index {model} outside [0, {spec.embedding_models})")
    rng = _rng(spec.seed, _STREAM_EMBEDDING, 1 + model)
    n = len(objects)
    noise_q = rng.normal(size=(n, spec.embedding_dim))
    noise_g = rng.normal(size=(n, spec.embedding_dim))
    queries = _unit(centers + spec.noise_sigma * noise_q)
    gallery = _unit(centers + spec.noise_sigma * noise_g)
    gallery_ids = [f"g{obj.item_index:06d}" for obj in objects]
    return EmbeddingMatrix.from_columns(
        np.vstack([queries, gallery]),
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
    emb_files = []
    for m in range(spec.embedding_models):
        data_path = out / f"embeddings_m{m}.emb"
        ids_path = out / f"embeddings_m{m}.ids.jsonl"
        formats.save_embeddings(synth_embeddings(spec, objects, centers, m),
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
