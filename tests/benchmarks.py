"""Seeded benchmark constructions shared by the directional tests.

Three scenarios, each a deterministic function of its seed:

* detector ensembles over the synthetic detection benchmark (more models
  should not hurt AP50),
* multi-model embeddings (concatenation should beat the best single model),
* clustered retrieval with multi-sample items, co-queries and singleton
  hard negatives (k-reciprocal re-ranking should not hurt Acc@10).

The last construction mirrors the regime re-ranking is designed for:
every item has several near-duplicate gallery shots plus a few query
boxes, and each cluster is surrounded by look-alike distractors that
carry no reciprocal-neighbor support of their own.
"""

from __future__ import annotations

import numpy as np

from cbirkit.boxes import Detections, WbfParams
from cbirkit.embeddings import EmbeddingMatrix, IdRecord, concat_features
from cbirkit.evaluation import acc_at_k, detection_ap
from cbirkit.pipeline import fuse_detections
from cbirkit.rerank import RerankParams, k_reciprocal_rerank
from cbirkit.search import build_index, knn_search
from cbirkit.synthetic import (
    SyntheticSpec,
    detection_gt,
    retrieval_pairs,
    synth_detections,
    synth_embeddings,
    synth_item_centers,
    synth_layout,
)


def wbf_gain_trial(seed: int) -> tuple[list[float], float]:
    """AP50 of cumulative 1..5-detector fusions plus the best single model."""
    spec = SyntheticSpec(seed=seed, num_images=100, num_categories=5,
                         gt_boxes_per_image=3, detector_count=5,
                         jitter_sigma=4.0, score_sigma=0.1,
                         miss_rate=0.1, fp_rate=0.1)
    objects = synth_layout(spec)
    gt = detection_gt(objects)
    detections = [synth_detections(spec, objects, d) for d in range(5)]
    fused_ap50 = []
    for k in range(1, 6):
        fused = fuse_detections(Detections.concat(detections[:k]), WbfParams())
        fused_ap50.append(detection_ap(fused, gt, [0.5]).ap50)
    best_single = max(detection_ap(det, gt, [0.5]).ap50 for det in detections)
    return fused_ap50, best_single


def concat_gain_trial(seed: int) -> tuple[float, float]:
    """Acc@10 of the 3-model concatenation vs the best single model."""
    spec = SyntheticSpec(seed=seed, num_images=150, num_categories=10,
                         gt_boxes_per_image=2, embedding_dim=16,
                         embedding_models=3, cluster_spread=0.6,
                         noise_sigma=0.22)
    objects = synth_layout(spec)
    centers = synth_item_centers(spec, objects)
    models = [synth_embeddings(spec, objects, centers, m) for m in range(3)]
    pairs = retrieval_pairs(objects)
    single = []
    parts = [m.split_by_source() for m in models]
    for queries, gallery in parts:
        rankings = knn_search(build_index(gallery), queries, 10)
        single.append(acc_at_k(rankings, pairs, [10]).acc[10])
    queries = concat_features([q for q, _ in parts])
    gallery = concat_features([g for _, g in parts])
    rankings = knn_search(build_index(gallery), queries, 10)
    combined = acc_at_k(rankings, pairs, [10]).acc[10]
    return combined, max(single)


def clustered_retrieval(seed: int, n_items: int = 40, dim: int = 32,
                        noise: float = 0.12, gallery_range: tuple[int, int] = (5, 8),
                        query_range: tuple[int, int] = (2, 3),
                        hard_negatives: int = 14):
    """Item clusters with several gallery shots and co-queries each, plus
    per-item singleton distractors at the same radius.  Returns (queries,
    gallery, ground truth)."""
    rng = np.random.default_rng(seed)

    def unit(v):
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    centers = unit(rng.normal(size=(n_items, dim)))
    gallery_rows, gallery_recs, query_rows, query_recs = [], [], [], []
    gt: dict[str, set[str]] = {}
    for i in range(n_items):
        category = 1 + i % 7
        matches = set()
        for s in range(int(rng.integers(gallery_range[0], gallery_range[1] + 1))):
            gid = f"g{i:04d}.{s}"
            gallery_rows.append(unit(centers[i] + noise * rng.normal(size=dim)))
            gallery_recs.append(IdRecord(gid, "gallery", gid, category, "gallery"))
            matches.add(gid)
        for t in range(int(rng.integers(query_range[0], query_range[1] + 1))):
            qid = f"q{i:04d}.{t}"
            query_rows.append(unit(centers[i] + noise * rng.normal(size=dim)))
            query_recs.append(IdRecord(qid, f"img{i:04d}", f"img{i:04d}:b{t}",
                                       category, "query"))
            gt[qid] = matches
        for h in range(hard_negatives):
            gid = f"x{i:04d}.{h}"
            gallery_rows.append(unit(centers[i] + noise * rng.normal(size=dim)))
            gallery_recs.append(IdRecord(gid, "gallery", gid, category, "gallery"))
    gallery = EmbeddingMatrix(np.array(gallery_rows), gallery_recs)
    queries = EmbeddingMatrix(np.array(query_rows), query_recs)
    return queries, gallery, gt


def rerank_gain_trial(seed: int, params: RerankParams | None = None) -> tuple[float, float]:
    """Acc@10 before and after k-reciprocal re-ranking on clustered data."""
    queries, gallery, gt = clustered_retrieval(seed)
    params = params or RerankParams(k1=20, k2=6, lam=0.3)
    before = acc_at_k(knn_search(build_index(gallery), queries, 10), gt, [10]).acc[10]
    reranked = k_reciprocal_rerank(queries, gallery, None, params, k=10)
    after = acc_at_k(reranked, gt, [10]).acc[10]
    return before, after
