"""The three benchmark workloads: how each one's inputs are generated.

Every input is a deterministic function of the workload seed.  `setup`
writes the files and a pipeline config into a directory and returns the
config path plus the input sizes; the pipeline under test receives only
those files.

Each workload stresses a different layer, so that an optimisation of one
layer shows a gain on one workload and no change on another:

* retrieval_chain: the per-query top-K loops of search, QE and DBA.
* rerank_multishot: dense k-reciprocal re-ranking, and search widened
  to the full gallery.
* detection_fusion: the JSONL loaders, WBF and detection AP, plus the
  category-restricted candidate path of search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cbirkit import io as formats
from cbirkit.embeddings import EmbeddingMatrix, IdRecord
from cbirkit.synthetic import (
    SyntheticSpec,
    detection_gt,
    generate_synthetic,
    retrieval_pairs,
    synth_detections,
    synth_embeddings,
    synth_item_centers,
    synth_layout,
)

# run_pipeline's thread count; the reference machine has two cores
THREADS = 2

# 1000 images keep one run near 3 s, so a timed run holds about ten of them
RETRIEVAL_CHAIN_SPEC = dict(num_images=1000, num_categories=5, gt_boxes_per_image=3,
                            detector_count=3, embedding_dim=32, embedding_models=3,
                            cluster_spread=0.6, noise_sigma=0.2)
# whitening every concatenated dimension amplifies noise directions and
# drives Acc@1 toward chance; keeping embedding_dim of them leaves it mid-range
RETRIEVAL_CHAIN_POST = [
    {"step": "concat"},
    {"step": "pca", "out_dim": 32, "whiten": True},
    {"step": "qe", "k": 5},
    {"step": "dba", "k": 5},
]

MULTISHOT = dict(n_items=80, dim=32, noise=0.12, distractors=14, distractor_noise=0.24)
RERANK_POST = [{"step": "rerank", "k1": 20, "k2": 6, "lambda": 0.3}]
# a small detection half, so that every workload reports AP
SMALL_DETECTION_SPEC = dict(num_images=200, gt_boxes_per_image=3, detector_count=3)

FUSION_DETECTION_SPEC = dict(num_images=2000, num_categories=5, gt_boxes_per_image=6,
                             detector_count=5, jitter_sigma=8.0, miss_rate=0.2,
                             fp_rate=0.3)
# low noise keeps Acc@1 high, so it barely moves from seed to seed
FUSION_EMBEDDING_SPEC = dict(num_images=400, num_categories=5, gt_boxes_per_image=3,
                             embedding_dim=32, embedding_models=1, noise_sigma=0.15)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # what throughput_per_s counts: "queries" or "images"
    throughput_unit: str
    spec: dict
    setup: Callable[[int, Path], tuple[Path, dict]]
    # accepted range of a quality metric, checked on seeds that have no pins
    quality_range: dict[str, tuple[float, float]]
    # calibrate.py kernel that loads the cores as this workload's runs do
    calibration: str


def _write_config(out: Path, config: dict) -> Path:
    path = out / "config.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")
    return path


def _config(out: Path, detections, detection_gt_path, embeddings, post,
            retrieval_gt_path, restrict: bool) -> dict:
    return {
        "detections": [str(p) for p in detections],
        "wbf": {"iou_threshold": 0.55, "model_weights": None,
                "num_models": None, "score_mode": "rescale"},
        "embeddings": embeddings,
        "post": post,
        "search": {"k": 10, "restrict_to_query_category": restrict},
        "eval": {"retrieval_gt": str(retrieval_gt_path),
                 "detection_gt": str(detection_gt_path), "ks": [1, 10]},
        "output_dir": str(out / "run"),
    }


def _write_detections(spec: SyntheticSpec, out: Path) -> tuple[list[Path], Path, dict]:
    objects = synth_layout(spec)
    gt_path = out / "detection_gt.jsonl"
    formats.save_detection_gt(detection_gt(objects), gt_path)
    paths, records = [], 0
    for d in range(spec.detector_count):
        boxes = synth_detections(spec, objects, d)
        path = out / f"detections_det{d}.jsonl"
        formats.save_detections(boxes, path)
        paths.append(path)
        records += len(boxes)
    sizes = {"images": spec.num_images, "gt_boxes": len(objects),
             "detectors": spec.detector_count, "detections": records}
    return paths, gt_path, sizes


def _setup_retrieval_chain(seed: int, out: Path) -> tuple[Path, dict]:
    spec = SyntheticSpec(seed=seed, **RETRIEVAL_CHAIN_SPEC)
    manifest = generate_synthetic(spec, out)
    with open(manifest["config"], "r", encoding="utf-8") as fh:
        config = json.load(fh)
    config["post"] = RETRIEVAL_CHAIN_POST
    config["output_dir"] = str(out / "run")
    n = manifest["num_items"]
    sizes = {"images": spec.num_images, "detectors": spec.detector_count,
             "queries": n, "gallery": n, "models": spec.embedding_models,
             "dim": spec.embedding_dim}
    return _write_config(out, config), sizes


def multishot_set(seed: int, n_items: int, dim: int, noise: float,
                  distractors: int, distractor_noise: float
                  ) -> tuple[EmbeddingMatrix, dict[str, set[str]]]:
    """Items with 5-8 gallery shots and 2-3 co-queries each, every item
    ringed by look-alike singleton distractors.  The shot and query counts
    cycle with the item index, so the input sizes do not depend on the seed.

    This is the regime k-reciprocal re-ranking is built for: true matches
    support each other as mutual neighbours, distractors have no support.
    Distractors sit at a wider radius than the shots; at the same radius
    they are indistinguishable from true matches, Acc@1 sits at chance and
    swings by a third from seed to seed.  Returns one matrix holding
    queries then gallery, and the ground truth.
    """
    rng = np.random.default_rng([seed, 0x5EED])

    def unit(v):
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    centers = unit(rng.normal(size=(n_items, dim)))
    q_rows, q_ids, g_rows, g_ids = [], [], [], []
    gt: dict[str, set[str]] = {}
    for i in range(n_items):
        category = 1 + i % 7
        shots = [f"g{i:04d}.{s}" for s in range(5 + i % 4)]
        looks = [f"x{i:04d}.{h}" for h in range(distractors)]
        for gid, radius in [(g, noise) for g in shots] + [(x, distractor_noise) for x in looks]:
            g_rows.append(unit(centers[i] + radius * rng.normal(size=dim)))
            g_ids.append(IdRecord(gid, "gallery", gid, category, "gallery"))
        matches = set(shots)
        for t in range(3 if i % 5 < 3 else 2):
            qid = f"q{i:04d}.{t}"
            q_rows.append(unit(centers[i] + noise * rng.normal(size=dim)))
            q_ids.append(IdRecord(qid, f"img{i:04d}", f"img{i:04d}:b{t}", category, "query"))
            gt[qid] = matches
    return EmbeddingMatrix(np.array(q_rows + g_rows), q_ids + g_ids), gt


def _setup_rerank_multishot(seed: int, out: Path) -> tuple[Path, dict]:
    matrix, gt = multishot_set(seed, **MULTISHOT)
    formats.save_embeddings(matrix, out / "multishot.emb", out / "multishot.ids.jsonl")
    formats.save_retrieval_gt(gt, out / "retrieval_gt.jsonl")
    detections, gt_path, sizes = _write_detections(
        SyntheticSpec(seed=seed, **SMALL_DETECTION_SPEC), out)
    n_q = len(gt)
    sizes.update({"queries": n_q, "gallery": matrix.n_rows - n_q, "models": 1,
                  "dim": matrix.dim})
    config = _config(out, detections, gt_path,
                     [{"data": str(out / "multishot.emb"),
                       "ids": str(out / "multishot.ids.jsonl")}],
                     RERANK_POST, out / "retrieval_gt.jsonl", restrict=False)
    return _write_config(out, config), sizes


def _setup_detection_fusion(seed: int, out: Path) -> tuple[Path, dict]:
    detections, gt_path, sizes = _write_detections(
        SyntheticSpec(seed=seed, **FUSION_DETECTION_SPEC), out)
    spec = SyntheticSpec(seed=seed, **FUSION_EMBEDDING_SPEC)
    objects = synth_layout(spec)
    matrix = synth_embeddings(spec, objects, synth_item_centers(spec, objects), 0)
    formats.save_embeddings(matrix, out / "embeddings.emb", out / "embeddings.ids.jsonl")
    formats.save_retrieval_gt(retrieval_pairs(objects), out / "retrieval_gt.jsonl")
    sizes.update({"queries": len(objects), "gallery": len(objects), "models": 1,
                  "dim": spec.embedding_dim})
    config = _config(out, detections, gt_path,
                     [{"data": str(out / "embeddings.emb"),
                       "ids": str(out / "embeddings.ids.jsonl")}],
                     [], out / "retrieval_gt.jsonl", restrict=True)
    return _write_config(out, config), sizes


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="retrieval_chain",
            why="The per-query top-K loops of search, QE and DBA do about 80% of the "
                "work on 3000 queries, at an Acc@1 near 0.5 that can still move.",
            throughput_unit="queries",
            spec={"gen_synth": RETRIEVAL_CHAIN_SPEC, "post": RETRIEVAL_CHAIN_POST,
                  "search_k": 10, "restrict_to_query_category": False},
            setup=_setup_retrieval_chain,
            quality_range={"acc_at_1": (0.3, 0.8)},
            calibration="parallel",
        ),
        Workload(
            name="rerank_multishot",
            why="Dense k-reciprocal re-ranking does about 90% of the work and sets "
                "peak RSS; search runs with k widened to the full gallery.",
            throughput_unit="queries",
            spec={"multishot": MULTISHOT, "detections": SMALL_DETECTION_SPEC,
                  "post": RERANK_POST, "search_k": 10,
                  "restrict_to_query_category": False},
            setup=_setup_rerank_multishot,
            quality_range={"acc_at_1": (0.6, 1.0)},
            calibration="bandwidth",
        ),
        Workload(
            name="detection_fusion",
            why="The JSONL loaders, WBF and detection AP do about 75% of the work; "
                "search is about 4% and takes the category-restricted path.",
            throughput_unit="images",
            spec={"detections": FUSION_DETECTION_SPEC,
                  "embeddings": FUSION_EMBEDDING_SPEC, "post": [], "search_k": 10,
                  "restrict_to_query_category": True},
            setup=_setup_detection_fusion,
            quality_range={"ap": (0.6, 0.9)},
            calibration="interpreter",
        ),
    )
}
