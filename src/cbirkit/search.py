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

`knn_search` returns the kernel's arrays as they come, as `Rankings`: the
query ids, the gallery's item_ids as the id table, an n_q x k array of
gallery rows (codes into that table), their scores, and each query's
length, which is shorter than k on the category-restricted path when a
category holds fewer than k gallery rows, and 0 when it holds none.
`RankingList` is the object view of one row (`rankings[i]`), for callers
that hold or build rankings one query at a time.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
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
    """Ordered retrieval result for one query: ids with non-increasing
    scores.  `Rankings` hands one out per row."""

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


@dataclass(frozen=True, eq=False, repr=False)
class Rankings(Sequence):
    """The rankings of many queries as columns; a read-only Sequence of
    RankingList.

    Row i ranks query query_ids[i]: the ids item_table[codes[i, :n]] with
    scores scores[i, :n], n = lengths[i].  Entries past a row's length are
    padding, so rows of different lengths (the category-restricted search)
    share one array.  Search and re-ranking output use the gallery's
    item_ids column as the table, so a code is a gallery row; a rankings
    file has its own table of the distinct ids it names, sorted.  Rows are
    taken as ranked: the producers (the top-K kernel, the re-ranker, the
    file loader and RankingList) order them and keep their ids distinct.
    """

    query_ids: np.ndarray   # (n,) object array of str
    item_table: np.ndarray  # (m,) str or object array of str
    codes: np.ndarray       # (n, width) integer codes into item_table
    scores: np.ndarray      # (n, width) float64
    lengths: np.ndarray     # (n,) int64, each in [0, width]

    def __post_init__(self):
        object.__setattr__(self, "query_ids", np.asarray(self.query_ids, dtype=object))
        object.__setattr__(self, "lengths", np.asarray(self.lengths, dtype=np.int64))
        n, m = self.query_ids.shape[0], self.item_table.shape[0]
        if (self.query_ids.ndim != 1 or self.codes.ndim != 2 or self.codes.shape[0] != n
                or self.scores.shape != self.codes.shape or self.lengths.shape != (n,)):
            raise DataError("rankings must hold n query ids, n x width codes and scores, "
                            "and n lengths")
        if n and (self.lengths.min() < 0 or self.lengths.max() > self.codes.shape[1]):
            raise DataError("ranking lengths must lie in [0, width]")
        if self.codes.size and (self.codes.min() < 0 or self.codes.max() >= m):
            raise DataError(f"ranking codes must lie in [0, {m})")
        for name in ("query_ids", "item_table", "codes", "scores", "lengths"):
            # a read-only view: the caller's array keeps its own flags
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    @classmethod
    def from_flat(cls, query_ids: Sequence[str], lengths: Sequence[int],
                  item_ids: Sequence[str], scores: Sequence[float]) -> "Rankings":
        """Query i ranks the next lengths[i] of the flat item_ids and
        scores.  The table is the sorted distinct ids."""
        table = sorted(set(item_ids))
        code_of = dict(zip(table, range(len(table))))
        lengths = np.array(lengths, dtype=np.int64)
        valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
        codes = np.zeros(valid.shape, dtype=np.int64)
        codes[valid] = np.fromiter(map(code_of.__getitem__, item_ids), np.int64, len(item_ids))
        padded = np.zeros(valid.shape)
        padded[valid] = scores
        return cls(query_ids, np.array(table, dtype=object), codes, padded, lengths)

    @classmethod
    def of(cls, rankings: Iterable[RankingList]) -> "Rankings":
        """`rankings` itself if it is a Rankings, else its columns."""
        if isinstance(rankings, Rankings):
            return rankings
        rankings = list(rankings)
        return cls.from_flat([r.query_id for r in rankings], [len(r) for r in rankings],
                             [item for r in rankings for item in r.item_ids],
                             [s for r in rankings for s in r.scores.tolist()])

    def __len__(self) -> int:
        return self.query_ids.shape[0]

    def __getitem__(self, index) -> RankingList | "Rankings":
        if isinstance(index, slice):
            return Rankings(self.query_ids[index], self.item_table, self.codes[index],
                            self.scores[index], self.lengths[index])
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"ranking index {index} out of range for {len(self)} rankings")
        n = self.lengths[i]
        return RankingList(self.query_ids[i], self.item_table[self.codes[i, :n]].tolist(),
                           self.scores[i, :n])

    def head(self, k: int) -> "Rankings":
        """Each row cut to its first k entries."""
        return Rankings(self.query_ids, self.item_table, self.codes[:, :k], self.scores[:, :k],
                        np.minimum(self.lengths, k))

    def __eq__(self, other):
        if not isinstance(other, (Rankings, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Rankings({len(self)} queries, {self.lengths.sum()} entries)"


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
) -> Rankings:
    """Exact top-k cosine search for every query row, as Rankings over the
    gallery's item_ids (a code is a gallery row), one row per query in
    query row order.

    With restrict_to_query_category only gallery rows sharing the query's
    category are candidates, and the kernel runs once per query category;
    a category absent from the gallery yields an empty row.  Fewer than k
    candidates yield a shorter row.

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

    gallery = index.gallery
    if not restrict_to_query_category:
        rows, scores = exact_topk(gallery.data, gallery.id_rank, queries.data, k)
        return Rankings(queries.item_ids, gallery.item_ids, rows, scores,
                        np.full(queries.n_rows, rows.shape[1]))
    cats = queries.category_ids()
    rows = np.zeros((queries.n_rows, min(k, gallery.n_rows)), dtype=np.int64)
    scores = np.zeros(rows.shape)
    lengths = np.zeros(queries.n_rows, dtype=np.int64)
    for c in np.unique(cats):
        qrows = np.flatnonzero(cats == c)
        found, found_scores = exact_topk(gallery.data, gallery.id_rank, queries.data[qrows], k,
                                         index.category_rows(int(c)))
        n = found.shape[1]
        rows[qrows, :n], scores[qrows, :n], lengths[qrows] = found, found_scores, n
    width = lengths.max(initial=0)
    return Rankings(queries.item_ids, gallery.item_ids, rows[:, :width], scores[:, :width],
                    lengths)
