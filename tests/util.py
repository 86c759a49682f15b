"""Shared helpers for building random test inputs."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

import cbirkit
from cbirkit.boxes import Detections, FusedDetections
from cbirkit.embeddings import EmbeddingMatrix, IdRecord
from cbirkit.search import Rankings


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_box(rng, lo=0.0, hi=100.0, min_side=2.0, max_side=40.0) -> tuple:
    """A random (x1, y1, x2, y2) box inside [lo, hi]^2."""
    w = rng.uniform(min_side, max_side)
    h = rng.uniform(min_side, max_side)
    x1 = rng.uniform(lo, hi - w)
    y1 = rng.uniform(lo, hi - h)
    return (x1, y1, x1 + w, y1 + h)


def random_scored_boxes(rng, n, n_models=3, n_categories=2, image_id="img0") -> Detections:
    coords, scores, categories, models = [], [], [], []
    for _ in range(n):
        coords.append(random_box(rng))
        scores.append(float(rng.uniform(0.05, 1.0)))
        categories.append(int(rng.integers(1, n_categories + 1)))
        models.append(f"m{int(rng.integers(0, n_models))}")
    return Detections.from_columns(coords, scores, categories, [image_id] * n, models)


def detections(rows) -> Detections:
    """A table of (x1, y1, x2, y2, score, category, image, model) rows."""
    rows = list(rows)
    return Detections.from_columns([r[:4] for r in rows], [r[4] for r in rows],
                                   [r[5] for r in rows], [r[6] for r in rows],
                                   [r[7] for r in rows])


def take(dets: Detections, rows) -> Detections:
    """The rows of `dets` at `rows`, in that order, over its name tables."""
    return Detections(dets.coords[rows], dets.scores[rows], dets.category_ids[rows],
                      dets.image_codes[rows], dets.image_names, dets.model_codes[rows],
                      dets.model_names)


def pick(rankings: Rankings, rows) -> Rankings:
    """The rows of `rankings` at `rows`, in that order."""
    return Rankings(rankings.query_ids[rows], rankings.item_table, rankings.codes[rows],
                    rankings.scores[rows], rankings.lengths[rows])


RankingRow = namedtuple("RankingRow", "query_id item_ids scores")


def ranking_rows(rankings: Rankings, k: int | None = None) -> list[RankingRow]:
    """Each query's (query id, item ids, scores) as a tuple of str and a
    list of float, read from the columns, and cut to the first k entries
    when k is given."""
    lengths = rankings.lengths if k is None else np.minimum(rankings.lengths, k)
    return [RankingRow(query_id, tuple(rankings.item_table[codes[:n]].tolist()),
                       scores[:n].tolist())
            for query_id, codes, scores, n in zip(rankings.query_ids.tolist(), rankings.codes,
                                                  rankings.scores, lengths.tolist())]


def gt_table(by_image) -> Detections:
    """Ground truth given as image -> [((x1, y1, x2, y2), category), ...] as
    the table the loader returns: detections of score 0 and model id ""."""
    return detections((*box, 0.0, category, image, "")
                      for image, boxes in by_image.items() for box, category in boxes)


def unit_rows(rng, n, dim) -> np.ndarray:
    data = rng.normal(size=(n, dim))
    return data / np.linalg.norm(data, axis=1, keepdims=True)


def gallery_ids(n, categories=None, prefix="g") -> list[IdRecord]:
    return [
        IdRecord(item_id=f"{prefix}{i:05d}", image_id="gallery", box_id=f"{prefix}{i:05d}",
                 category_id=1 if categories is None else int(categories[i]),
                 source="gallery")
        for i in range(n)
    ]


def query_ids(n, categories=None) -> list[IdRecord]:
    return [
        IdRecord(item_id=f"q{i:05d}", image_id=f"img{i:05d}", box_id=f"img{i:05d}:b0",
                 category_id=1 if categories is None else int(categories[i]),
                 source="query")
        for i in range(n)
    ]


def unit_matrix(rng, n, dim, categories=None, prefix="g") -> EmbeddingMatrix:
    ids = gallery_ids(n, categories, prefix) if prefix == "g" else query_ids(n, categories)
    return EmbeddingMatrix(unit_rows(rng, n, dim), ids)


def query_matrix(rng, n, dim, categories=None) -> EmbeddingMatrix:
    return EmbeddingMatrix(unit_rows(rng, n, dim), query_ids(n, categories))


def boxes_to_dicts(dets: Detections) -> list[dict]:
    """Each row of a detection table as the oracles take it: box, score,
    category_id, image_id and model_id."""
    return [{"box": tuple(box), "score": score, "category_id": category,
             "image_id": dets.image_names[image], "model_id": dets.model_names[model]}
            for box, score, category, image, model in zip(
                dets.coords.tolist(), dets.scores.tolist(), dets.category_ids.tolist(),
                dets.image_codes.tolist(), dets.model_codes.tolist())]


def fused_to_dicts(fused: FusedDetections) -> list[dict]:
    """Each fused box as the fusion oracle gives it, plus its image_id: box,
    score, category_id, cluster_size and the set of model_ids."""
    bounds = fused.model_indptr.tolist()
    return [{"box": tuple(box), "score": score, "category_id": category,
             "image_id": fused.image_names[image], "cluster_size": size,
             "model_ids": frozenset(fused.model_names[c] for c in fused.model_codes[lo:hi])}
            for box, score, category, image, size, lo, hi in zip(
                fused.coords.tolist(), fused.scores.tolist(), fused.category_ids.tolist(),
                fused.image_codes.tolist(), fused.cluster_sizes.tolist(),
                bounds[:-1], bounds[1:])]


def output_under_blas_threads(script: str, n: int) -> bytes:
    """Stdout of `python -c script` in a fresh process whose BLAS runs n
    threads; the script can import cbirkit and these helpers."""
    paths = [str(Path(cbirkit.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n), OMP_NUM_THREADS=str(n),
               MKL_NUM_THREADS=str(n), PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          timeout=120, check=True).stdout


def force_split(monkeypatch) -> None:
    """Make `io.load_detections` hand a share of any two or more files to a
    forked helper, whatever their size and the CPUs this process may use."""
    from cbirkit import io as formats
    monkeypatch.setattr(formats, "SPLIT_BYTES", 0)
    monkeypatch.setattr(formats, "_usable_cpus", lambda: 2)


def no_child_left() -> bool:
    """Whether this process has no child left to reap."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
