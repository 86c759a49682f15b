"""Post-search refinement: query expansion, database-side augmentation, and
k-reciprocal re-ranking.

Query expansion (QE) replaces each query vector with the renormalized sum
of itself and its top-k gallery neighbors, each neighbor weighted by its
clamped-positive cosine raised to alpha (alpha=0 gives the plain average).
Database-side augmentation (DBA) applies the same update to every gallery
row offline, drawing neighbors from the gallery itself.

k-reciprocal re-ranking blends the original cosine distance with a Jaccard
distance over mutual-neighbor encodings:

  1. R(p, k1): the k1 nearest points of p (the point itself always counts
     as its own nearest neighbor) that also list p among their k1 nearest.
  2. R*(p): R(p, k1) expanded by R(c, round(k1/2)) for each c in R(p, k1)
     whose half-size reciprocal set overlaps R(p, k1) in at least 2/3 of
     its members.
  3. Each point is encoded as a sparse vector V with weights exp(-d) over
     R*(p), normalized to sum 1, and zeros elsewhere, where d = 1 - cosine.
     (Without the normalization the overlap measure would scale with
     neighborhood size and large cliques would dominate every comparison.)
  4. Local expansion: V is replaced by the mean of V over the point's k2
     nearest neighbors (again counting itself).
  5. Jaccard distance d_J(q, g) = 1 - sum(min(Vq, Vg)) / sum(max(Vq, Vg)).
  6. Final distance d* = (1 - lambda) * d_J + lambda * (1 - cosine).

Neighborhoods are computed over the joint query+gallery point set; the
output re-orders exactly the candidates present in each query's initial
ranking, ascending by d* with ties broken by ascending item_id.  Reported
ranking scores are 1 - d*, so at lambda = 1 they reduce to the original
cosine scores.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import ConfigError, DataError
from .search import RankingList, RetrievalIndex, _resolve_threads, exact_topk


@dataclass(frozen=True)
class QeParams:
    """Neighbor count, weight exponent and self-inclusion for QE/DBA.

    include_self only affects DBA: it controls whether a gallery row may
    appear among its own neighbors.  The expanded point itself always
    enters the sum with weight 1.
    """

    k: int = 10
    alpha: float = 0.0
    include_self: bool = True

    def __post_init__(self):
        if self.k < 0:
            raise ConfigError(f"k must be >= 0, got {self.k}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")


@dataclass(frozen=True)
class RerankParams:
    k1: int = 20
    k2: int = 6
    lam: float = 0.3

    def __post_init__(self):
        if self.k1 < 1:
            raise ConfigError(f"k1 must be >= 1, got {self.k1}")
        if not (1 <= self.k2 <= self.k1):
            raise ConfigError(f"k2 must satisfy 1 <= k2 <= k1, got k2={self.k2}")
        if not (0.0 <= self.lam <= 1.0):
            raise ConfigError(f"lambda must be in [0, 1], got {self.lam}")


def _expand_rows(
    vectors: np.ndarray,
    ids,
    neighbor_rows: np.ndarray,
    neighbor_scores: np.ndarray,
    source: np.ndarray,
    alpha: float,
) -> np.ndarray:
    weights = np.power(np.maximum(neighbor_scores, 0.0), alpha)
    acc = vectors.copy()
    for j in range(neighbor_rows.shape[1]):
        acc += weights[:, j, None] * source[neighbor_rows[:, j]]
    norms = np.linalg.norm(acc, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataError(f"expansion of item {ids[zero[0]].item_id!r} produced a zero vector")
    return acc / norms[:, None]


def query_expansion(
    queries: EmbeddingMatrix, index: RetrievalIndex, params: QeParams
) -> EmbeddingMatrix:
    """Replace each query with the weighted sum of itself and its top-k
    gallery neighbors, renormalized.  k=0 returns the input unchanged."""
    if params.k == 0:
        return queries
    if not queries.is_unit_normalized():
        raise DataError("queries must be unit-normalized")
    if queries.dim != index.gallery.dim:
        raise DataError(f"query dim {queries.dim} != gallery dim {index.gallery.dim}")
    rows, scores = exact_topk(index, queries.data, params.k)
    data = _expand_rows(queries.data, queries.ids, rows, scores,
                        index.gallery.data, params.alpha)
    return queries.with_data(data)


def database_augmentation(gallery: EmbeddingMatrix, params: QeParams) -> EmbeddingMatrix:
    """Apply the expansion update to every gallery row, with neighbors drawn
    from the gallery itself.  The row is removed from its own candidate set
    unless params.include_self."""
    if params.k == 0:
        return gallery
    if not gallery.is_unit_normalized():
        raise DataError("gallery must be unit-normalized")
    index = RetrievalIndex(gallery)
    if params.include_self:
        rows, scores = exact_topk(index, gallery.data, params.k)
    else:
        # search one deeper, then drop each row's own entry, or the last
        # entry where the row itself did not make the list
        rows, scores = exact_topk(index, gallery.data, params.k + 1)
        is_self = rows == np.arange(gallery.n_rows)[:, None]
        keep = np.argsort(is_self, axis=1, kind="stable")[:, : rows.shape[1] - 1]
        rows = np.take_along_axis(rows, keep, axis=1)
        scores = np.take_along_axis(scores, keep, axis=1)
    data = _expand_rows(gallery.data, gallery.ids, rows, scores,
                        gallery.data, params.alpha)
    return gallery.with_data(data)


def _neighbor_order(dist: np.ndarray) -> np.ndarray:
    """Row-wise neighbor ordering with each point forced first in its own
    row; remaining ties break by ascending joint index."""
    keyed = dist.copy()
    np.fill_diagonal(keyed, -1.0)
    return np.argsort(keyed, axis=1, kind="stable")


def _reciprocal_sets(order: np.ndarray, k: int) -> np.ndarray:
    """Boolean n x n matrix; row i marks R(i, k) (always contains i)."""
    n = order.shape[0]
    forward = np.zeros((n, n), dtype=bool)
    forward[np.arange(n)[:, None], order[:, : k + 1]] = True
    return forward & forward.T


def k_reciprocal_rerank(
    queries: EmbeddingMatrix,
    gallery: EmbeddingMatrix,
    initial: Sequence[RankingList],
    params: RerankParams,
    threads: int = 1,
) -> list[RankingList]:
    """Re-rank each query's initial candidates by the blended distance d*.

    The initial rankings must cover at least k1 entries per query; the
    output re-orders exactly those candidate sets.
    """
    if params.k1 > gallery.n_rows:
        raise ConfigError(f"k1={params.k1} exceeds the gallery size {gallery.n_rows}")
    if not queries.is_unit_normalized() or not gallery.is_unit_normalized():
        raise DataError("queries and gallery must be unit-normalized")
    if len(initial) != queries.n_rows:
        raise DataError(f"{len(initial)} rankings for {queries.n_rows} queries")
    for r in initial:
        if len(r) < params.k1:
            raise DataError(
                f"initial ranking for {r.query_id!r} has {len(r)} entries; "
                f"k1={params.k1} required"
            )

    n_q = queries.n_rows
    points = np.vstack([queries.data, gallery.data])
    n = points.shape[0]
    sim = np.clip(points @ points.T, -1.0, 1.0)
    dist = 1.0 - sim
    np.fill_diagonal(dist, 0.0)

    order = _neighbor_order(dist)
    k_half = int(round(params.k1 / 2))
    recip_full = _reciprocal_sets(order, params.k1)
    recip_half = _reciprocal_sets(order, k_half)

    encoded = np.zeros((n, n))
    for i in range(n):
        expanded = recip_full[i].copy()
        for c in np.nonzero(recip_full[i])[0]:
            half = recip_half[c]
            if np.count_nonzero(half & recip_full[i]) * 3 >= np.count_nonzero(half) * 2:
                expanded |= half
        weights = np.exp(-dist[i, expanded])
        encoded[i, expanded] = weights / weights.sum()
    # local expansion over each point's k2 nearest (itself included)
    smoothed = np.empty_like(encoded)
    for i in range(n):
        smoothed[i] = encoded[order[i, : params.k2]].mean(axis=0)
    encoded = smoothed

    def rerank_one(qi: int) -> RankingList:
        ranking = initial[qi]
        rows = np.array([gallery.row_of(g) for g in ranking.item_ids], dtype=np.int64)
        joint = n_q + rows
        vq = encoded[qi]
        minsum = np.minimum(vq[None, :], encoded[joint]).sum(axis=1)
        maxsum = np.maximum(vq[None, :], encoded[joint]).sum(axis=1)
        safe = np.where(maxsum > 0.0, maxsum, 1.0)
        jaccard = np.where(maxsum > 0.0, 1.0 - minsum / safe, 1.0)
        final = (1.0 - params.lam) * jaccard + params.lam * dist[qi, joint]
        ids = gallery.item_ids[rows]
        resort = np.lexsort((ids, final))
        return RankingList(
            ranking.query_id,
            tuple(ids[resort].tolist()),
            1.0 - final[resort],
        )

    n_threads = _resolve_threads(threads)
    if n_threads <= 1 or n_q == 1:
        return [rerank_one(i) for i in range(n_q)]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return list(pool.map(rerank_one, range(n_q)))
