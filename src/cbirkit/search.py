"""Exact top-K nearest-neighbor retrieval over unit-normalized embeddings.

Similarity is the cosine, computed as the dot product of unit vectors;
search is exact brute force so every downstream number can be checked
against an independent oracle.  Ties on score break by ascending gallery
item_id, which makes every ranking a total order and therefore
reproducible across runs and thread counts.

Search, query expansion and database augmentation share one blocked
kernel, `exact_topk`.  For each block of QUERY_BLOCK query rows it

  1. scores the block against every candidate with one GEMM and clips the
     scores to [-1, 1];
  2. finds each row's k-th score with `argpartition` and keeps every
     candidate scoring at least that much, less a slack that covers the
     rounding of two dot products (so boundary ties always survive);
  3. recomputes the survivors' scores as elementwise products summed along
     the feature axis, a value that depends on the two vectors alone and
     not on the block shape or the BLAS thread count, as GEMM bits do;
  4. orders the survivors by (-score, rank of item_id) in one 2-D
     `lexsort` over the block.  The rank is `EmbeddingMatrix.id_rank`,
     computed once when a matrix's ids are checked, and candidates are laid
     out in item_id order, so a column is its rank.

A row whose survivors outnumber k (ties, or scores within the slack of the
k-th) is ordered on its own; the rest of the block needs no per-row work.
Temporary memory is O(QUERY_BLOCK x candidates), whatever the query count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import ConfigError, DataError

# query rows scored per GEMM; bounds the kernel's temporary memory
QUERY_BLOCK = 256

_EPS = np.finfo(np.float64).eps
# elements per product array when scores are recomputed; small enough to stay in cache
_PRODUCT_CHUNK = 1 << 16


@dataclass(frozen=True)
class RankingList:
    """Ordered retrieval result for one query: ids with non-increasing scores."""

    query_id: str
    item_ids: tuple[str, ...]
    scores: np.ndarray = field(compare=False)

    def __post_init__(self):
        scores = np.array(self.scores, dtype=np.float64)
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "item_ids", tuple(self.item_ids))
        if len(self.item_ids) != scores.shape[0]:
            raise DataError(f"ranking for {self.query_id!r}: ids/scores length mismatch")
        if (scores[1:] > scores[:-1]).any():
            raise DataError(f"ranking for {self.query_id!r}: scores increase")
        if len(set(self.item_ids)) != len(self.item_ids):
            raise DataError(f"ranking for {self.query_id!r}: duplicate gallery ids")

    def __len__(self) -> int:
        return len(self.item_ids)

    def entries(self):
        return zip(self.item_ids, self.scores.tolist())

    def head(self, k: int) -> "RankingList":
        if k >= len(self):
            return self
        return RankingList(self.query_id, self.item_ids[:k], self.scores[:k])


class RetrievalIndex:
    """Immutable snapshot of a unit-normalized gallery with a category
    partition, built on first use."""

    def __init__(self, gallery: EmbeddingMatrix):
        if not gallery.is_unit_normalized():
            raise DataError("gallery rows must be unit-normalized (|norm - 1| <= 1e-5)")
        self.gallery = gallery
        self._partition: dict[int, np.ndarray] | None = None

    def category_rows(self, category_id: int) -> np.ndarray:
        if self._partition is None:
            cats = self.gallery.category_ids()
            self._partition = {int(c): np.nonzero(cats == c)[0] for c in np.unique(cats)}
        return self._partition.get(category_id, np.empty(0, dtype=np.int64))

    def __len__(self) -> int:
        return self.gallery.n_rows


def build_index(gallery: EmbeddingMatrix) -> RetrievalIndex:
    return RetrievalIndex(gallery)


def _exact_scores(block: np.ndarray, cand: np.ndarray, cols: np.ndarray | None) -> np.ndarray:
    """Clipped cosine of block row i with cand row cols[i, j] (every cand
    row when cols is None), for all i, j.

    Each product is summed along the feature axis of a fresh contiguous
    array, so a value depends only on its two vectors.  Rows go in chunks
    whose product array holds about _PRODUCT_CHUNK elements.
    """
    width = cand.shape[0] if cols is None else cols.shape[1]
    out = np.empty((block.shape[0], width))
    step = max(1, _PRODUCT_CHUNK // (width * cand.shape[1]))
    for s in range(0, block.shape[0], step):
        pairs = cand[None] if cols is None else cand[cols[s:s + step]]
        out[s:s + step] = np.multiply(block[s:s + step, None, :], pairs).sum(axis=2)
    return np.clip(out, -1.0, 1.0, out=out)


def pair_scores(data: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Clipped cosine of data[left[i]] with data[right[i]], for each i.

    The formula of `_exact_scores`, over a flat list of pairs: a value
    depends only on its two vectors.  Pairs go in chunks whose product
    array holds about _PRODUCT_CHUNK elements.
    """
    out = np.empty(left.shape[0])
    step = max(1, _PRODUCT_CHUNK // max(1, data.shape[1]))
    for s in range(0, out.shape[0], step):
        out[s:s + step] = np.multiply(data[left[s:s + step]], data[right[s:s + step]]).sum(axis=1)
    return np.clip(out, -1.0, 1.0, out=out)


def _order(block: np.ndarray, cand: np.ndarray,
           cols: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Each row's candidate columns (all when cols is None) and their scores,
    sorted by (-exact score, column).  Columns follow item_id order."""
    scores = _exact_scores(block, cand, cols)
    if cols is None:
        cols = np.broadcast_to(np.arange(cand.shape[0]), scores.shape)
    order = np.lexsort((cols, -scores), axis=1)
    return np.take_along_axis(cols, order, axis=1), np.take_along_axis(scores, order, axis=1)


def _block_topk(block: np.ndarray, cand: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k candidate columns and scores of one query block (k <= len(cand))."""
    m = cand.shape[0]
    if k == m:  # every candidate survives: no GEMM or selection needed
        return _order(block, cand, None)
    sims = block @ cand.T
    np.clip(sims, -1.0, 1.0, out=sims)
    top = np.argpartition(sims, m - k, axis=1)[:, m - k:]
    # a dot product of two near-unit vectors, summed in any order, lies within
    # about dim * eps / 2 of the exact value, so a GEMM score and its
    # recomputed twin differ by about dim * eps at most.  A candidate whose
    # recomputed score reaches the k-th then has a GEMM score within twice
    # that of the k-th GEMM score; the floor leaves another factor of two.
    floor = np.take_along_axis(sims, top, axis=1).min(axis=1) - 4 * cand.shape[1] * _EPS
    wide = np.count_nonzero(sims >= floor[:, None], axis=1) > k
    cols = np.empty((block.shape[0], k), dtype=np.int64)
    scores = np.empty((block.shape[0], k))
    narrow = np.flatnonzero(~wide)
    cols[narrow], scores[narrow] = _order(block[narrow], cand, top[narrow])
    for i in np.flatnonzero(wide):
        survivors = np.flatnonzero(sims[i] >= floor[i])[None, :]
        row_cols, row_scores = _order(block[i:i + 1], cand, survivors)
        cols[i], scores[i] = row_cols[0, :k], row_scores[0, :k]
    return cols, scores


def exact_topk(data: np.ndarray, tie_rank: np.ndarray, queries: np.ndarray, k: int,
               candidate_rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Top-k rows of `data` and their clipped cosine scores for each query vector.

    Candidates default to every row of `data`.  Returns two n_q x min(k, m)
    arrays (m candidates): row indices and scores, each row ordered by
    descending score, ties by ascending `tie_rank` (one distinct integer
    per row of `data`; search passes `EmbeddingMatrix.id_rank`).
    """
    rows = np.arange(data.shape[0]) if candidate_rows is None else candidate_rows
    # candidates in tie-break order, so a column index is its tie-break key
    rows = rows[np.argsort(tie_rank[rows])]
    cand = data[rows]
    n_q, kk = queries.shape[0], min(k, rows.shape[0])
    cols = np.empty((n_q, kk), dtype=np.int64)
    scores = np.empty((n_q, kk))
    if kk == 0:
        return cols, scores
    for start in range(0, n_q, QUERY_BLOCK):
        stop = min(start + QUERY_BLOCK, n_q)
        cols[start:stop], scores[start:stop] = _block_topk(queries[start:stop], cand, kk)
    return rows[cols], scores


def knn_search(
    index: RetrievalIndex,
    queries: EmbeddingMatrix,
    k: int,
    restrict_to_query_category: bool = False,
) -> list[RankingList]:
    """Exact top-k cosine search for every query row.

    With restrict_to_query_category only gallery rows sharing the query's
    category are candidates, and the kernel runs once per query category;
    a category absent from the gallery yields an empty RankingList.  Fewer
    than k candidates yield a shorter list.

    The GEMM runs on the BLAS threads that the environment sets
    (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS); results do not depend on
    their count.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if queries.dim != index.gallery.dim:
        raise DataError(f"query dim {queries.dim} != gallery dim {index.gallery.dim}")
    if not queries.is_unit_normalized():
        raise DataError("query rows must be unit-normalized (|norm - 1| <= 1e-5)")

    if restrict_to_query_category:
        cats = queries.category_ids()
        groups = [(np.flatnonzero(cats == c), index.category_rows(int(c)))
                  for c in np.unique(cats)]
    else:
        groups = [(np.arange(queries.n_rows), None)]
    # one str object per gallery id, shared by every ranking
    gallery_ids = index.gallery.item_ids.astype(object)
    query_ids = queries.item_ids.tolist()
    rankings: list[RankingList] = [None] * queries.n_rows  # type: ignore[list-item]
    for qrows, cand in groups:
        rows, scores = exact_topk(index.gallery.data, index.gallery.id_rank, queries.data[qrows],
                                  k, cand)
        ids = gallery_ids[rows].tolist()
        for qi, item_ids, row_scores in zip(qrows.tolist(), ids, scores):
            rankings[qi] = RankingList(query_ids[qi], item_ids, row_scores)
    return rankings
