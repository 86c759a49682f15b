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

Every set is sparse.  R and R* are index sets of (point, neighbor) pairs.
Each membership test among them marks one pair set, sorted by point, in a
bool table over a block of points at a time and looks the other pairs up
in it (`_arrays.pairs_in`), with no binary search.  V is stored
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

No array is n x n (n = queries + gallery), and none is n_q x n_g.  R* and
the local expansion of V run over blocks of consecutive points
(`_arrays.blocks`) holding at most BLOCK_ENTRIES entries each: one per
(point, R member, half-set slot) in the R* test, or one per gathered V
entry in the expansion; a point with more entries is a block of its own.
Blocking moves no bit.  A block's keys p n + c lie in [start n, stop n),
so its sorted distinct keys, in block order, are the sorted distinct keys
of all points, and the pair test over a block's rows sees exactly that
block's R pairs.  All of a point's gathered V entries fall in its block,
in neighbor order, and bincount adds in array order, so each (point,
column) sum adds the same terms in the same order.  What stays whole is
O(n k1) or output-sized: the neighbor lists and R masks, n x (k1 + 1);
the R* pairs with their cosines, weights and values, one entry per member;
and V after local expansion, at most k2 |R*| entries for a point.  The
membership tests' table holds `_arrays.PAIR_TABLE_BYTES` (1 MiB) whatever
n is, the kernel's temporaries are O(QUERY_BLOCK x n) and the
re-ranking's O(RERANK_BLOCK x n_g).  Re-ranked to the top K, the output
is O(n_q x K).

The candidate sets are `search.Rankings`, each matched to its query row
by query_id, or None for every gallery row of every query, in query row
order.  The output re-orders each set ascending by d*, ties broken by
ascending item_id, as Rankings over the gallery's item_ids, cut to the
first K when K is given and padded with code 0 and score 0.  Reported
ranking scores are 1 - d*, so at lambda = 1 they reduce to the original
cosine scores.  Because the order depends on (d*, item_id) alone, the
candidates may arrive in any order, and re-ranking the whole gallery to
K gives the whole-gallery top K, bit for bit the first K of the whole
re-ranking.

Every kind of candidate set takes one path, RERANK_BLOCK queries at a
time.  One bincount gathers the block's min-sums into a RERANK_BLOCK x n_g
array (each query's terms in its own order, so every sum has the bits of
a single query's), and one float32 GEMM against the gallery gives an
estimate of every d*.  Explicit rankings mark their entries in a
RERANK_BLOCK x n_g mask, outside which the estimate is infinite.  Only the
candidates whose estimate can reach the first K survive (see
`k_reciprocal_rerank`), taken flat; one `pair_scores` call gives their
exact cosines, and one flat lexsort by (block row, d*, item_id rank)
orders them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._arrays import blocks, encode, pairs_in, ranges, repeats, unique_sorted
from .embeddings import EmbeddingMatrix
from .errors import ConfigError, DataError
from .search import Rankings, exact_topk, gemm_error, pair_scores

# rankings re-ordered per pass; bounds the n_q x n_g min-sums to RERANK_BLOCK x n_g
RERANK_BLOCK = 32
# entries per block of points in R* and in the local expansion of V; a
# block's int64 temporaries then take about _arrays.PAIR_TABLE_BYTES
BLOCK_ENTRIES = 1 << 15


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
        if not (self.alpha >= 0 and math.isfinite(self.alpha)):
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")


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
    queries: EmbeddingMatrix, gallery: EmbeddingMatrix, params: QeParams
) -> EmbeddingMatrix:
    """Replace each query with the weighted sum of itself and its top-k
    gallery neighbors, renormalized.  k=0 returns the input unchanged."""
    if params.k == 0:
        return queries
    queries.check_unit_rows()
    gallery.check_unit_rows()
    if queries.dim != gallery.dim:
        raise DataError(f"query dim {queries.dim} != gallery dim {gallery.dim}")
    rows, scores = exact_topk(gallery.data, gallery.id_rank, queries.data, params.k)
    return _expand_rows(queries, rows, scores, gallery.data, params.alpha)


def database_augmentation(gallery: EmbeddingMatrix, params: QeParams) -> EmbeddingMatrix:
    """Apply the expansion update to every gallery row, with neighbors drawn
    from the gallery itself.  The row is removed from its own candidate set
    unless params.include_self."""
    if params.k == 0:
        return gallery
    gallery.check_unit_rows()
    if params.include_self:
        rows, scores = exact_topk(gallery.data, gallery.id_rank, gallery.data, params.k)
    else:
        # search one deeper, then drop each row's own entry
        rows, scores = exact_topk(gallery.data, gallery.id_rank, gallery.data, params.k + 1)
        keep = _without_self(rows)
        rows = np.take_along_axis(rows, keep, axis=1)
        scores = np.take_along_axis(scores, keep, axis=1)
    return _expand_rows(gallery, rows, scores, gallery.data, params.alpha)


def _neighbor_lists(points: np.ndarray, k1: int) -> np.ndarray:
    """N(p) for every point p: p itself first, then its k1 nearest other
    points, ties by ascending index."""
    n = points.shape[0]
    found, _ = exact_topk(points, np.arange(n), points, k1 + 1)
    return np.hstack([np.arange(n)[:, None],
                      np.take_along_axis(found, _without_self(found), axis=1)])


def _reciprocal(neighbors: np.ndarray, k: int) -> np.ndarray:
    """Mask over neighbors[:, :k + 1]: True where that neighbor also lists
    the row's point among its own first k + 1 entries."""
    n = neighbors.shape[0]
    head = neighbors[:, : k + 1]
    own = np.arange(n)
    # (c, p) for every p listing c, sorted by c: (p, c) is one of them
    # exactly when c lists p as well
    keys = np.sort(head * n + own[:, None], axis=None)
    return pairs_in(own, head, keys // n, keys % n, n)


def _expanded_sets(neighbors: np.ndarray, k1: int) -> tuple[np.ndarray, np.ndarray]:
    """R*(p) for every point p, as (p, member) pairs sorted by p, then member."""
    n = neighbors.shape[0]
    full = _reciprocal(neighbors, k1)
    k_half = int(round(k1 / 2))
    half = _reciprocal(neighbors, k_half)
    half_sizes = np.count_nonzero(half, axis=1)
    keys = []
    # a block's keys p * n + c lie in [start * n, stop * n), so the blocks'
    # sorted keys, in block order, are the sorted keys of all points
    for start, stop in blocks(np.count_nonzero(full, axis=1) * (k_half + 1), BLOCK_ENTRIES):
        # R(p, k1) as (p, c) pairs, sorted by p
        own = full[start:stop]
        p = np.nonzero(own)[0] + start
        c = neighbors[start:stop][own]
        # every (p, c) with c in R(p, k1), against each slot of c's half-size list
        members = neighbors[c, : k_half + 1]
        in_half = half[c]
        shared = np.count_nonzero(in_half & pairs_in(p, members, p, c, n), axis=1)
        accept = shared * 3 >= half_sizes[c] * 2
        extra = (p[accept, None] * n + members[accept])[in_half[accept]]
        keys.append(unique_sorted(np.concatenate([p * n + c, extra])))
    keys = np.concatenate(keys)
    return keys // n, keys % n


def _weights(points: np.ndarray, neighbors: np.ndarray,
             k1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V before local expansion, as per-point counts, columns and values:
    exp(-d) over R*(p), normalized to sum 1."""
    n = points.shape[0]
    rows, cols = _expanded_sets(neighbors, k1)
    dist = 1.0 - pair_scores(points, rows, points, cols)
    dist[rows == cols] = 0.0
    weights = np.exp(-dist)
    values = weights / np.bincount(rows, weights=weights, minlength=n)[rows]
    return np.bincount(rows, minlength=n), cols, values


def _encodings(points: np.ndarray, neighbors: np.ndarray,
               params: RerankParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V after local expansion, in CSR form: (indptr, columns, values)."""
    n = points.shape[0]
    counts, cols, values = _weights(points, neighbors, params.k1)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    near = neighbors[:, : params.k2]
    per_point, columns, smoothed = [], [], []
    # gather the V rows of each point's first k2 neighbors, in neighbor
    # order; all of a point's entries fall in its block
    for start, stop in blocks(counts[near].sum(axis=1), BLOCK_ENTRIES):
        block_near = near[start:stop].ravel()
        lengths = counts[block_near]
        src = ranges(indptr[block_near], lengths)
        block_keys = np.repeat(np.repeat(np.arange(start, stop), params.k2), lengths)
        block_keys *= n
        block_keys += cols[src]
        # np.unique(block_keys, return_inverse=True), with fewer temporaries
        order = np.argsort(block_keys)
        block_keys = block_keys[order]
        first = np.empty(block_keys.shape, dtype=bool)
        first[:1] = True
        np.not_equal(block_keys[1:], block_keys[:-1], out=first[1:])
        slot = np.empty_like(order)
        slot[order] = np.cumsum(first) - 1
        # bincount adds in array order, so each sum runs in neighbor order
        smoothed.append(np.bincount(slot, weights=values[src]) / params.k2)
        block_keys = block_keys[first]
        per_point.append(np.bincount(block_keys // n - start, minlength=stop - start))
        columns.append(block_keys % n)
    # rebinding frees each list once joined: at most one beside its array
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(per_point))])
    columns = np.concatenate(columns)
    return indptr, columns, np.concatenate(smoothed)


def _query_rows(queries: EmbeddingMatrix, initial: Rankings, k1: int) -> np.ndarray:
    """The query row of each ranking; each ranking names a distinct known
    query and holds at least k1 entries."""
    query_ids = initial.query_ids
    rows, _ = encode(query_ids, queries.item_ids.tolist())
    unknown = np.flatnonzero(rows < 0)
    if unknown.size:
        raise DataError(f"ranking for unknown query_id {query_ids[unknown[0]]!r}")
    repeat = np.flatnonzero(repeats(rows.tolist()))
    if repeat.size:
        raise DataError(f"more than one ranking for query_id {query_ids[repeat[0]]!r}")
    short = np.flatnonzero(initial.lengths < k1)
    if short.size:
        i = short[0]
        raise DataError(f"initial ranking for {query_ids[i]!r} has {initial.lengths[i]} entries; "
                        f"k1={k1} required")
    return rows


def _gallery_rows(gallery: EmbeddingMatrix, initial: Rankings) -> np.ndarray:
    """The gallery row of each entry of the rankings' id table, -1 for an
    id that the gallery lacks.  The first such id in ranking order is named;
    one that no entry refers to is never read."""
    rows, _ = encode(initial.item_table.tolist(), gallery.item_ids.tolist())
    if (rows < 0).any():
        entries = initial.codes[np.arange(initial.codes.shape[1]) < initial.lengths[:, None]]
        unknown = entries[rows[entries] < 0]
        if unknown.size:
            raise DataError(f"unknown item_id {str(initial.item_table[unknown[0]])!r}")
    return rows


def k_reciprocal_rerank(
    queries: EmbeddingMatrix,
    gallery: EmbeddingMatrix,
    initial: Rankings | None,
    params: RerankParams,
    k: int | None = None,
) -> Rankings:
    """Re-rank each query's candidates by the blended distance d*.

    initial=None takes every gallery row as each query's candidates, in
    query row order.  Otherwise each ranking is matched to its query row
    by query_id; rankings may cover any subset of the queries, in any
    order, and the output follows their order.  Every query row still
    shapes the neighborhoods.  Each ranking must hold at least k1 entries.
    The output re-orders each candidate set, as Rankings over the gallery's
    item_ids, cut to each row's first k entries (k=None keeps every
    candidate).  The top-K kernel and the candidate filter run on the BLAS
    threads that the environment sets; results do not depend on their count.

    A block's candidates are filtered first.  The estimate
    d~ = (1 - lam) J + lam (1 - c~) takes the exact Jaccard term J and the
    clipped float32 GEMM cosine c~ in place of the exact cosine c.  A
    float32 GEMM cosine and its float64 recomputed twin differ by at most
    d = (dim + 4) 2^-24 (`search.gemm_error`, derived in the slack paragraph
    of `search._block_topk`), and clipping both only brings them closer;
    allow 4d.  The blend runs in float64: its subtraction, product and sum
    each round a value of at most 2, so by at most eps, in d~ and d* alike.
    Hence |d~ - d*| <= eps_d = 4 lam d + 8 eps.  With T the k-th smallest
    d*, the k-th smallest d~ is at least T - eps_d, and every candidate with
    d* <= T has d~ <= T + eps_d: keeping each d~ within 2 eps_d of the k-th
    smallest keeps every candidate of the first k and every tie at T.  A
    row with fewer than k candidates has an infinite k-th smallest d~, so
    all of its candidates survive; k=None is k = the rankings' width.  Only
    the survivors get exact cosines and the sort.
    """
    if k is not None and k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if params.k1 > gallery.n_rows:
        raise ConfigError(f"k1={params.k1} exceeds the gallery size {gallery.n_rows}")
    if queries.dim != gallery.dim:
        raise DataError(f"query dim {queries.dim} != gallery dim {gallery.dim}")
    queries.check_unit_rows()
    gallery.check_unit_rows()
    n_q, n_g = queries.n_rows, gallery.n_rows
    if initial is None:
        query_ids = np.asarray(queries.item_ids, dtype=object)
        query_rows, sizes, width = np.arange(n_q), np.full(n_q, n_g), n_g
    else:
        query_ids, sizes, width = initial.query_ids, initial.lengths, initial.codes.shape[1]
        query_rows = _query_rows(queries, initial, params.k1)
        cand_rows = _gallery_rows(gallery, initial)

    points = np.vstack([queries.data, gallery.data])
    n = points.shape[0]
    neighbors = _neighbor_lists(points, params.k1)
    indptr, cols, values = _encodings(points, neighbors, params)

    # inverted index over the gallery rows of V: per column, (row, value)
    first = indptr[n_q]
    g_rows = np.repeat(np.arange(n_g), np.diff(indptr[n_q:]))
    by_col = np.argsort(cols[first:], kind="stable")
    inv_rows, inv_values = g_rows[by_col], values[first:][by_col]
    col_ptr = np.concatenate([[0], np.cumsum(np.bincount(cols[first:], minlength=n))])

    keep = width if k is None else min(k, width)
    # the column of a row's keep-th smallest estimate; padding columns may
    # make a ranking wider than the gallery
    kth = min(keep, n_g) - 1
    slack = params.lam * 4 * gemm_error(gallery.dim) + 8 * np.finfo(np.float64).eps
    # the candidate filter's GEMM operand, cast once
    gallery32 = gallery.data.astype(np.float32)
    out_rows = np.zeros((len(query_rows), keep), dtype=np.int64)
    out_scores = np.zeros((len(query_rows), keep))
    for start in range(0, len(query_rows), RERANK_BLOCK):
        block = slice(start, start + RERANK_BLOCK)
        q = query_rows[block]
        # the block's V entries, query by query, and the gallery entries of
        # each one's column; bincount adds in array order, so each
        # (query, row) min-sum runs in the order of a single query's
        q_entries = ranges(indptr[q], indptr[q + 1] - indptr[q])
        q_cols = cols[q_entries]
        lengths = col_ptr[q_cols + 1] - col_ptr[q_cols]
        src = ranges(col_ptr[q_cols], lengths)
        owner = np.repeat(np.repeat(np.arange(q.shape[0]), indptr[q + 1] - indptr[q]), lengths)
        mins = np.minimum(np.repeat(values[q_entries], lengths), inv_values[src])
        minsum = np.bincount(owner * n_g + inv_rows[src], weights=mins,
                             minlength=q.shape[0] * n_g).reshape(q.shape[0], n_g)
        jaccard = 1.0 - minsum / (2.0 - minsum)

        sims = np.clip(points[q].astype(np.float32) @ gallery32.T, -1.0, 1.0)
        approx = (1.0 - params.lam) * jaccard + params.lam * (1.0 - sims.astype(np.float64))
        if initial is not None:
            # each ranking's entries before its length
            valid = np.arange(width) < sizes[block, None]
            mask = np.zeros(approx.shape, dtype=bool)
            mask[np.nonzero(valid)[0], cand_rows[initial.codes[block][valid]]] = True
            approx[~mask] = np.inf
        bound = np.partition(approx, kth, axis=1)[:, kth]
        near = approx <= (bound + 2 * slack)[:, None]
        if initial is not None:
            near &= mask
        rows, cand = np.nonzero(near)

        dist = 1.0 - pair_scores(points, q[rows], points, n_q + cand)
        final = (1.0 - params.lam) * jaccard[rows, cand] + params.lam * dist
        order = np.lexsort((gallery.id_rank[cand], final, rows))
        rows, cand, final = rows[order], cand[order], final[order]
        counts = np.bincount(rows, minlength=q.shape[0])
        slots = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        top = slots < keep
        out_rows[start + rows[top], slots[top]] = cand[top]
        out_scores[start + rows[top], slots[top]] = 1.0 - final[top]
    return Rankings(query_ids, gallery.item_ids, out_rows, out_scores, np.minimum(sizes, keep))
