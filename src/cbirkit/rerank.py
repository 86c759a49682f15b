"""Post-search refinement: query expansion, database-side augmentation, and
k-reciprocal re-ranking.

Query expansion (QE) replaces each query vector with the renormalized sum
of itself and its top-k gallery neighbors, each neighbor weighted by its
clamped-positive cosine raised to alpha (alpha=0 gives the plain average).
Database-side augmentation (DBA) applies the same update to every gallery
row offline, drawing neighbors from the gallery itself.

k-reciprocal re-ranking (Zhong et al., "Re-ranking Person
Re-identification with k-reciprocal Encoding", CVPR 2017) blends the
original cosine distance d = 1 - cosine with a Jaccard distance over
mutual-neighbor encodings.  Neighborhoods are taken over the joint point
set, query rows first and then gallery rows:

  1. N(p): p itself, then its k1 nearest other points, ties broken by
     ascending joint index.  The lists come from the shared top-K kernel
     `search.exact_topk`, searched k1+1 deep.
  2. R(p, k): the points among the first k+1 entries of N(p) whose own
     first k+1 entries include p (always including p itself).
  3. R*(p): R(p, k1) expanded by R(c, round(k1/2)) for each c in R(p, k1)
     whose half-size reciprocal set overlaps R(p, k1) in at least 2/3 of
     its members.
  4. V(p): weights exp(-d) over R*(p), normalized to sum 1, and zero
     elsewhere.  (Without the normalization the overlap measure would
     scale with neighborhood size and large cliques would dominate every
     comparison.)
  5. Local expansion: V(p) becomes the mean of V over the first k2
     entries of N(p): their sum in neighbor order, divided by k2.
  6. Jaccard distance d_J(q, g) = 1 - sum(min(Vq, Vg)) / sum(max(Vq, Vg)).
  7. Final distance d* = (1 - lambda) * d_J + lambda * d.

Every set is sparse.  R and R* are index sets built by vectorised
membership tests over (point, neighbor) pairs, and V is stored
row-compressed (CSR): each row holds its support columns and weights.
Each row of V sums to 1 before local expansion, so each mean of k2 rows
sums to 1 after it, and for two such rows

    sum(max(a, b)) = sum(a) + sum(b) - sum(min(a, b)) = 2 - sum(min(a, b)).

Only the min-sum is computed.  It is nonzero only on columns both rows
support, so each query gathers it from an inverted index over the
gallery rows' columns; a candidate that shares no column gets d_J = 1
with no arithmetic.  Cosines (d and the exp(-d) weights) are products
summed along the feature axis, as in `search.pair_scores`, so results
depend neither on the kernel's block size nor on the BLAS thread count.

No array is n x n (n = queries + gallery), so memory grows linearly in n
where the dense method needs O(n^2).  The largest arrays hold one entry
per (point, neighbor) pair, per (point, neighbor, half-set slot) in the R*
test, or per nonzero of V after local expansion (at most k2 |R*| for a
point); the kernel's temporaries are O(QUERY_BLOCK x n).

Each ranking is matched to its query row by query_id, and the output
re-orders exactly the candidates present in it, ascending by d* with ties
broken by ascending item_id.  Reported ranking scores are 1 - d*, so at
lambda = 1 they reduce to the original cosine scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._arrays import ranges, unique_sorted
from .embeddings import EmbeddingMatrix
from .errors import ConfigError, DataError
from .search import RankingList, RetrievalIndex, exact_topk, pair_scores


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


def _expand_rows(m: EmbeddingMatrix, neighbor_rows: np.ndarray, neighbor_scores: np.ndarray,
                 source: np.ndarray, alpha: float) -> EmbeddingMatrix:
    """m with each row plus its neighbors in `source`, weighted and renormalized."""
    weights = np.power(np.maximum(neighbor_scores, 0.0), alpha)
    acc = m.data.copy()
    for j in range(neighbor_rows.shape[1]):
        acc += weights[:, j, None] * source[neighbor_rows[:, j]]
    norms = np.linalg.norm(acc, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataError(f"expansion of item {m.item_ids[zero[0]].item()!r} produced a zero vector")
    return m.with_data(acc / norms[:, None])


def _without_self(rows: np.ndarray) -> np.ndarray:
    """Column indices that drop row i's own entry i from the neighbor lists
    `rows`, or the last entry where i did not make its list."""
    is_self = rows == np.arange(rows.shape[0])[:, None]
    return np.argsort(is_self, axis=1, kind="stable")[:, : rows.shape[1] - 1]


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
    rows, scores = exact_topk(index.gallery.data, index.gallery.id_rank, queries.data, params.k)
    return _expand_rows(queries, rows, scores, index.gallery.data, params.alpha)


def database_augmentation(gallery: EmbeddingMatrix, params: QeParams) -> EmbeddingMatrix:
    """Apply the expansion update to every gallery row, with neighbors drawn
    from the gallery itself.  The row is removed from its own candidate set
    unless params.include_self."""
    if params.k == 0:
        return gallery
    if not gallery.is_unit_normalized():
        raise DataError("gallery must be unit-normalized")
    if params.include_self:
        rows, scores = exact_topk(gallery.data, gallery.id_rank, gallery.data, params.k)
    else:
        # search one deeper, then drop each row's own entry
        rows, scores = exact_topk(gallery.data, gallery.id_rank, gallery.data, params.k + 1)
        keep = _without_self(rows)
        rows = np.take_along_axis(rows, keep, axis=1)
        scores = np.take_along_axis(scores, keep, axis=1)
    return _expand_rows(gallery, rows, scores, gallery.data, params.alpha)


def _reciprocal(neighbors: np.ndarray, k: int) -> np.ndarray:
    """Mask over neighbors[:, :k + 1]: True where that neighbor also lists
    the row's point among its own first k + 1 entries."""
    n = neighbors.shape[0]
    head = neighbors[:, : k + 1]
    own = np.arange(n)[:, None]
    return np.isin(head * n + own, own * n + head)


def _expanded_sets(neighbors: np.ndarray, k1: int) -> tuple[np.ndarray, np.ndarray]:
    """R*(p) for every point p, as (p, member) pairs sorted by p, then member."""
    n = neighbors.shape[0]
    own = np.arange(n)[:, None]
    full = _reciprocal(neighbors, k1)
    k_half = int(round(k1 / 2))
    half = _reciprocal(neighbors, k_half)
    r_keys = (own * n + neighbors)[full]
    # every (p, c) with c in R(p, k1), against each slot of c's half-size list
    p = np.nonzero(full)[0]
    c = neighbors[full]
    members = neighbors[c, : k_half + 1]
    in_half = half[c]
    shared = np.count_nonzero(in_half & np.isin(p[:, None] * n + members, r_keys), axis=1)
    accept = shared * 3 >= np.count_nonzero(half, axis=1)[c] * 2
    extra = (p[accept, None] * n + members[accept])[in_half[accept]]
    keys = unique_sorted(np.concatenate([r_keys, extra]))
    return keys // n, keys % n


def _encodings(points: np.ndarray, neighbors: np.ndarray,
               params: RerankParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V after local expansion, in CSR form: (indptr, columns, values)."""
    n = points.shape[0]
    rows, cols = _expanded_sets(neighbors, params.k1)
    dist = 1.0 - pair_scores(points, rows, cols)
    dist[rows == cols] = 0.0
    weights = np.exp(-dist)
    values = weights / np.bincount(rows, weights=weights, minlength=n)[rows]
    counts = np.bincount(rows, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    # gather the V rows of each point's first k2 neighbors, in neighbor order
    near = neighbors[:, : params.k2].ravel()
    lengths = counts[near]
    src = ranges(indptr[near], lengths)
    owner = np.repeat(np.repeat(np.arange(n), params.k2), lengths)
    keys, slot = np.unique(owner * n + cols[src], return_inverse=True)
    # bincount adds in array order, so each sum runs in neighbor order
    smoothed = np.bincount(slot, weights=values[src]) / params.k2
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])
    return indptr, keys % n, smoothed


def k_reciprocal_rerank(
    queries: EmbeddingMatrix,
    gallery: EmbeddingMatrix,
    initial: Sequence[RankingList],
    params: RerankParams,
) -> list[RankingList]:
    """Re-rank each query's initial candidates by the blended distance d*.

    Each ranking is matched to its query row by query_id; rankings may
    cover any subset of the queries, in any order, and the output follows
    their order.  Every query row still shapes the neighborhoods.  Each
    ranking must hold at least k1 entries; the output re-orders exactly its
    candidate set.  The top-K kernel runs on the BLAS threads that the
    environment sets; results do not depend on their count.
    """
    if params.k1 > gallery.n_rows:
        raise ConfigError(f"k1={params.k1} exceeds the gallery size {gallery.n_rows}")
    if queries.dim != gallery.dim:
        raise DataError(f"query dim {queries.dim} != gallery dim {gallery.dim}")
    if not queries.is_unit_normalized() or not gallery.is_unit_normalized():
        raise DataError("queries and gallery must be unit-normalized")
    query_rows: dict[str, int] = {}
    for r in initial:
        if r.query_id in query_rows:
            raise DataError(f"more than one ranking for query_id {r.query_id!r}")
        try:
            query_rows[r.query_id] = queries.row_of(r.query_id)
        except DataError:
            raise DataError(f"ranking for unknown query_id {r.query_id!r}") from None
        if len(r) < params.k1:
            raise DataError(
                f"initial ranking for {r.query_id!r} has {len(r)} entries; "
                f"k1={params.k1} required"
            )
    if not initial:
        return []

    n_q, n_g = queries.n_rows, gallery.n_rows
    points = np.vstack([queries.data, gallery.data])
    n = points.shape[0]
    # self first, then the k1 nearest others, ties by joint index
    found, _ = exact_topk(points, np.arange(n), points, params.k1 + 1)
    neighbors = np.hstack([np.arange(n)[:, None],
                           np.take_along_axis(found, _without_self(found), axis=1)])
    indptr, cols, values = _encodings(points, neighbors, params)

    # inverted index over the gallery rows of V: per column, (row, value)
    first = indptr[n_q]
    g_rows = np.repeat(np.arange(n_g), np.diff(indptr[n_q:]))
    by_col = np.argsort(cols[first:], kind="stable")
    inv_rows, inv_values = g_rows[by_col], values[first:][by_col]
    col_ptr = np.concatenate([[0], np.cumsum(np.bincount(cols[first:], minlength=n))])

    id_rank = gallery.id_rank
    gallery_ids = gallery.item_ids.astype(object)
    # n_q x n_g lookups: a hash table is several times faster than `rows_of`
    row_by_id = dict(zip(gallery_ids.tolist(), range(n_g)))
    lam = params.lam
    out = []
    for ranking in initial:
        q = query_rows[ranking.query_id]
        q_cols, q_values = cols[indptr[q]:indptr[q + 1]], values[indptr[q]:indptr[q + 1]]
        lengths = col_ptr[q_cols + 1] - col_ptr[q_cols]
        src = ranges(col_ptr[q_cols], lengths)
        mins = np.minimum(np.repeat(q_values, lengths), inv_values[src])
        minsum = np.bincount(inv_rows[src], weights=mins, minlength=n_g)

        try:
            cand = np.fromiter(map(row_by_id.__getitem__, ranking.item_ids), np.int64, len(ranking))
        except KeyError as e:
            raise DataError(f"unknown item_id {e.args[0]!r}") from None
        overlap = minsum[cand]
        jaccard = np.ones(cand.shape[0])
        shared = overlap > 0.0
        jaccard[shared] = 1.0 - overlap[shared] / (2.0 - overlap[shared])
        dist = 1.0 - pair_scores(points, np.full(cand.shape[0], q), n_q + cand)
        final = (1.0 - lam) * jaccard + lam * dist
        order = np.lexsort((id_rank[cand], final))
        out.append(RankingList(ranking.query_id, gallery_ids[cand[order]].tolist(),
                               1.0 - final[order]))
    return out
