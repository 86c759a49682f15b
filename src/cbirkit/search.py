"""Exact top-K nearest-neighbor retrieval over unit-normalized embeddings.

Similarity is the cosine, computed as the dot product of unit vectors;
search is exact brute force so every downstream number can be checked
against an independent oracle.  Ties on score break by ascending gallery
item_id, which makes every ranking a total order and therefore
reproducible across runs and thread counts.

Search, query expansion and database augmentation share one blocked
kernel, `exact_topk`.  It casts the candidates to float32 once per call
and, for each block of query rows,

  1. scores the block against every candidate with one float32 GEMM;
  2. bounds each row's k-th score from below by the k-th largest of its
     tile maxima (tiles of max(1, m // 4k) of the m candidates) and keeps
     every candidate whose GEMM score reaches that bound, capped at 1, less
     a slack that covers float32 rounding of the inputs and the sum (so
     boundary ties always survive; see `_block_topk` for the proof);
  3. recomputes the survivors' scores in float64 with `pair_scores`:
     elementwise products summed along the feature axis, a value that
     depends on the two vectors alone and not on the block shape or the
     BLAS thread count, as GEMM bits do;
  4. orders all of the block's survivors by (row, -score, rank of item_id)
     in one flat stable sort and keeps each row's first k.  The rank is
     `EmbeddingMatrix.id_rank`, computed once when a matrix's ids are
     checked, and candidates are laid out in item_id order, so a column is
     its rank.

Steps 1 and 2 only choose which candidates step 3 scores, so the float32
scores never reach the output: rankings and scores are those of a float64
search, bit for bit.  A block holds as many rows as fit _BLOCK_BYTES of
float32 scores over the call's candidates, at most QUERY_BLOCK: 256 rows
up to 4096 candidates, fewer above, so that the score array stays about
cache-sized and each pass over it runs at cache speed.

Every row keeps at least k survivors: about k on spread-out scores, more
with ties or scores within the slack of the bound, and all of them when k
is the candidate count.  All cases take the same path, with no per-row
work.  Temporary memory is O(min(QUERY_BLOCK x candidates, _BLOCK_BYTES)
+ candidates), whatever the query count and however many candidates
survive: survivors are scored in chunks, and when ties keep more than an
eighth of a block's GEMM entries, steps 3 and 4 run on an eighth of its
rows at a time.

`knn_search` returns the kernel's arrays as they come, as `Rankings`: the
query ids, the gallery's item_ids as the id table, an n_q x k array of
gallery rows (codes into that table), their scores, and each query's
length, which is shorter than k on the category-restricted path when a
category holds fewer than k gallery rows, and 0 when it holds none.
Rankings are columns only, with no slicing, iteration or comparison (`==`
is identity, as for the box tables); `rankings[i]`, for an int i, reads one
row as a `RankingList` for the spot check of perfbench/child.py (lines
52-55).  `Rankings.from_entries` builds them from (row, item id, score)
entries, the rows interleaved in any order, and checks the entries in one
pass, in entry order, so the fault it names is the earliest.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ._arrays import check_integer, encode, first_fault, numbers, repeats, unique_sorted
from .embeddings import EmbeddingMatrix
from .errors import ConfigError, DataError

# query rows scored per GEMM, at most; bounds the kernel's temporary memory
QUERY_BLOCK = 256
# bytes of float32 GEMM scores per query block: fewer rows per block over
# more candidates keep the scores near cache-sized
_BLOCK_BYTES = 1 << 22

# elements per product array when scores are recomputed; small enough to stay in cache
_PRODUCT_CHUNK = 1 << 16
# a block whose survivors exceed 1/_SURVIVOR_SHARE of its GEMM entries is
# verified in slices of 1/_SURVIVOR_SHARE of its rows
_SURVIVOR_SHARE = 8


@dataclass(frozen=True)
class RankingList:
    """One row of `Rankings`, read as one query's ids and scores.

    `==` compares query_id and item_ids only: `scores` is left out of the
    comparison, so rows that differ in scores alone are equal.  Compare
    the scores on their own."""

    query_id: str
    item_ids: tuple[str, ...]
    scores: np.ndarray = field(compare=False)

    def __post_init__(self):
        scores = np.array(self.scores, dtype=np.float64)
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "item_ids", tuple(self.item_ids))


@dataclass(frozen=True, eq=False, repr=False)
class Rankings:
    """The rankings of many queries as read-only columns.

    Row i ranks query query_ids[i]: the ids item_table[codes[i, :n]] with
    scores scores[i, :n], n = lengths[i].  Entries past a row's length are
    padding, so rows of different lengths (the category-restricted search)
    share one array.  Search and re-ranking output use the gallery's
    item_ids column as the table, so a code is a gallery row; a rankings
    file has its own table of the distinct ids it names, sorted.  Rows are
    taken as ranked: the producers (the top-K kernel, the re-ranker and
    `from_entries`, which the file loader calls) order them and keep their
    ids distinct.  The constructor checks what a reader or `save_rankings`
    needs: integer codes within the table, and finite scores within each
    row's length; padding is never read and goes unchecked.
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
        if self.codes.dtype.kind not in "iu":
            raise DataError(f"ranking codes must be integers, not {self.codes.dtype}")
        if self.codes.size and (self.codes.min() < 0 or self.codes.max() >= m):
            raise DataError(f"ranking codes must lie in [0, {m})")
        bad = ~np.isfinite(self.scores) & (np.arange(self.codes.shape[1]) < self.lengths[:, None])
        if bad.any():
            query_id = self.query_ids[np.flatnonzero(bad.any(axis=1))[0]]
            raise DataError(f"ranking for {query_id!r}: a score is not finite")
        for name in ("query_ids", "item_table", "codes", "scores", "lengths"):
            # a read-only view: the caller's array keeps its own flags
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    @classmethod
    def from_entries(cls, query_ids: Sequence[str], rows: Sequence[int],
                     item_ids: Sequence[str], scores: Sequence[float]) -> "Rankings":
        """Entry e ranks item_ids[e], with score scores[e], next in row
        rows[e], the ranking of query_ids[rows[e]]; the rows may interleave.
        The table is the sorted distinct ids.

        DataError names the query of the earliest bad entry: one whose score
        is above the score of the entry before it in its row, or is not
        finite, or whose id its row holds before; inside one entry, in that
        order.  Each entry needs a row in [0, len(query_ids)) that is an
        integer, and a score that is a number."""
        if not (isinstance(rows, np.ndarray) and rows.dtype.kind in "iu"):
            # the cast would truncate a float and take a boolean or a string for a row
            for row in np.asarray(rows, dtype=object).ravel().tolist():
                if not isinstance(row, (int, np.integer)) or isinstance(row, bool):
                    raise DataError(f"rows: {row!r} is not an integer")
        rows = np.array(rows, dtype=np.int64)
        scores = numbers(scores, np.float64, "scores")
        n, n_rows = len(item_ids), len(query_ids)
        if rows.shape != (n,) or scores.shape != (n,):
            raise DataError("rankings need one row, item id and score per entry")
        if n and (rows.min() < 0 or rows.max() >= n_rows):
            raise DataError(f"ranking rows must lie in [0, {n_rows})")
        codes, table = encode(item_ids, None)
        # the entries by row, each row's in entry order
        by_row = np.argsort(rows, kind="stable")
        lengths = np.bincount(rows, minlength=n_rows)
        rises = np.zeros(n, dtype=bool)
        rises[by_row[1:]] = ((rows[by_row[1:]] == rows[by_row[:-1]])
                             & (scores[by_row[1:]] > scores[by_row[:-1]]))
        # (row, code) keys: a repeated key is an id repeated within a row
        keys = (rows * len(table) + codes).tolist()
        fault = first_fault(n, [
            (lambda m: rises[:m], lambda entry: "scores increase"),
            (lambda m: ~np.isfinite(scores[:m]), lambda entry: "a score is not finite"),
            (lambda m: repeats(keys[:m]), lambda entry: "duplicate gallery ids")])
        if fault is not None:
            entry, message = fault
            raise _BadEntry(entry, f"ranking for {query_ids[rows[entry]]!r}: {message}")
        valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
        ranked, padded = np.zeros(valid.shape, dtype=np.int64), np.zeros(valid.shape)
        ranked[valid], padded[valid] = codes[by_row], scores[by_row]
        return cls(query_ids, np.array(table, dtype=object), ranked, padded, lengths)

    def __len__(self) -> int:
        return self.query_ids.shape[0]

    def __getitem__(self, i: int) -> RankingList:
        """Row i, an int, as a RankingList."""
        i = operator.index(i)
        n = self.lengths[i]
        return RankingList(self.query_ids[i], self.item_table[self.codes[i, :n]].tolist(),
                           self.scores[i, :n])

    # rows are read by index only: __getitem__ would otherwise make them iterable
    __iter__ = None

    def __repr__(self) -> str:
        return f"Rankings({len(self)} queries, {self.lengths.sum()} entries)"


class _BadEntry(DataError):
    """`Rankings.from_entries`' fault in the entry `entry`."""
    def __init__(self, entry: int, message: str):
        super().__init__(message)
        self.entry = entry


class RetrievalIndex:
    """Immutable snapshot of a unit-normalized gallery with a category
    partition, built on first use."""

    def __init__(self, gallery: EmbeddingMatrix):
        gallery.check_unit_rows()
        self.gallery = gallery
        self._partition: dict[int, np.ndarray] | None = None

    def category_rows(self, category_id: int) -> np.ndarray:
        if self._partition is None:
            cats = self.gallery.category_ids()
            self._partition = {int(c): np.nonzero(cats == c)[0] for c in unique_sorted(cats)}
        return self._partition.get(category_id, np.empty(0, dtype=np.int64))

    def __len__(self) -> int:
        return self.gallery.n_rows


def build_index(gallery: EmbeddingMatrix) -> RetrievalIndex:
    return RetrievalIndex(gallery)


def pair_scores(a: np.ndarray, left: np.ndarray, b: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Clipped cosine of a[left[i]] with b[right[i]], for each i.

    Each product is summed along the feature axis of a fresh contiguous
    array, so a value depends only on its two vectors: not on the other
    pairs, the block shape or the BLAS thread count, as GEMM bits do.
    Pairs go in chunks whose product array holds about _PRODUCT_CHUNK
    elements, so temporaries stay small however many pairs there are.
    """
    out = np.empty(left.shape[0])
    step = max(1, _PRODUCT_CHUNK // max(1, a.shape[1]))
    for s in range(0, out.shape[0], step):
        out[s:s + step] = np.multiply(a[left[s:s + step]], b[right[s:s + step]]).sum(axis=1)
    return np.clip(out, -1.0, 1.0, out=out)


def gemm_error(dim: int) -> float:
    """d = (dim + 4) 2^-24: how far a float32 GEMM score of two rows with
    norms within 1e-5 of 1 may lie from their float64 `pair_scores` value
    (derived in `_block_topk`)."""
    return (dim + 4) * 2.0 ** -24


def _block_topk(block: np.ndarray, cand32: np.ndarray, data: np.ndarray, rows: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k candidate columns and scores of one query block (k <= m).

    The m candidates are the rows `rows` of `data`, in tie-break order, and
    cand32 holds them cast to float32.

    Bound: cut each row's float32 GEMM scores g into tiles of
    max(1, m // 4k) columns, the last one shorter, and let T be the k-th
    largest tile maximum.  There are at least min(m, 4k) >= k tiles, and k
    of them hold a g >= T, so at least k candidates have g >= T.

    Slack: let x and y be rows with norms within 1e-5 of 1, and u = 2^-24.
    The cast to float32 moves each coordinate by at most u of its size, so
    the exact dot product of the cast rows lies within (2u + u^2)|x||y| of
    x.y.  Their float32 dot product, summed in any order with or without
    fused multiply-adds, lies within dim u / (1 - dim u) sum|x'_i y'_i| of
    that, and sum|x'_i y'_i| <= (1 + u)^2 |x||y|.  The float64 recomputed
    score e lies within dim 2^-53 |x||y| of x.y.  With |x||y| <= 1 + 2.1e-5
    and dim <= 4096 these add up to less than d = (dim + 4) u
    (`gemm_error`), so |g - e| <= d.  The exact score is s = clip(e, -1, 1).
    The k candidates with g >= T have s >= min(T - d, 1), so the k-th
    largest s, S, is at least min(T, 1) - d.  A candidate with s >= S has
    g >= S - d >= min(T, 1) - 2d when -1 < s < 1 (then e = s), and
    g >= 1 - d when s = 1 (then e >= 1).  The floor min(T, 1) - 4d keeps all
    of them, ties at S included; its factor of two to spare also covers the
    growth of dim u / (1 - dim u) beyond dim u for any dim below 2^22.  The
    floor is computed in float64 and moved to a float32 at or below it, so
    that the float32 compare keeps every g at or above it.  The min
    matters: rows normalised to within 1e-5 score up to about 1 + 2e-5, and
    a T above 1 would drop a candidate whose e is 1 but whose g is below T,
    though it ties at 1 once clipped.  s = -1 needs S = -1, so
    min(T, 1) - d <= -1 and the floor lies below -1; such a floor keeps
    every candidate, as an unclipped e may lie anywhere below -1.

    Verify: the survivors' exact scores come from `pair_scores` over the
    float64 rows, one flat stable sort orders them by (row, -score,
    column), and each row's first k are its top k.  The order depends on
    the exact scores and columns alone, so the GEMM's rounding never
    reaches the output.  A row's top k depend on its own survivors only,
    so when more than 1/_SURVIVOR_SHARE of the GEMM entries survive (ties),
    slices of 1/_SURVIVOR_SHARE of the rows are verified in turn, and the
    survivors' temporaries stay near the size of the GEMM scores.
    """
    n, m = block.shape[0], cand32.shape[0]
    sims = block.astype(np.float32) @ cand32.T
    tiles = np.arange(0, m, max(1, m // (4 * k)))
    bound = np.partition(np.maximum.reduceat(sims, tiles, axis=1), tiles.size - k,
                         axis=1)[:, tiles.size - k]
    floor = np.minimum(bound, 1.0).astype(np.float64) - 4 * gemm_error(block.shape[1])
    # the nearest float32, one step down, lies at or below the float64 floor
    floor32 = np.nextafter(floor.astype(np.float32), np.float32(-np.inf))
    floor32[floor < -1.0] = -np.inf
    keep = sims >= floor32[:, None]
    del sims  # verification needs the mask only
    step = n
    if np.count_nonzero(keep) > keep.size // _SURVIVOR_SHARE:
        step = max(1, n // _SURVIVOR_SHARE)
    cols = np.empty((n, k), dtype=np.int64)
    scores = np.empty((n, k))
    for start in range(0, n, step):
        stop = start + step
        cols[start:stop], scores[start:stop] = _verify(block[start:stop], data, rows,
                                                       keep[start:stop], k)
    return cols, scores


def _verify(block: np.ndarray, data: np.ndarray, rows: np.ndarray, keep: np.ndarray,
            k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k columns and exact scores of each row of `block` among the
    candidates data[rows] that `keep` marks, at least k in every row."""
    block_rows, cols = divmod(np.flatnonzero(keep), rows.shape[0])
    scores = pair_scores(block, block_rows, data, rows[cols])
    # complex numbers sort by real part, then imaginary part; the sort is
    # stable and each row's columns come ascending, so ties keep column order
    order = np.argsort(block_rows - 1j * scores, kind="stable")
    # rows come out of flatnonzero ascending, so row i's survivors start here
    first = np.searchsorted(block_rows, np.arange(block.shape[0]))
    top = order[first[:, None] + np.arange(k)]
    return cols[top], scores[top]


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
    cand32 = data[rows].astype(np.float32)
    n_q, kk = queries.shape[0], min(k, rows.shape[0])
    cols = np.empty((n_q, kk), dtype=np.int64)
    scores = np.empty((n_q, kk))
    if kk == 0:
        return cols, scores
    step = max(1, min(QUERY_BLOCK, _BLOCK_BYTES // (cand32.itemsize * rows.shape[0])))
    for start in range(0, n_q, step):
        stop = min(start + step, n_q)
        cols[start:stop], scores[start:stop] = _block_topk(queries[start:stop], cand32, data,
                                                           rows, kk)
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
    check_integer(k, "k", ConfigError)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if queries.dim != index.gallery.dim:
        raise DataError(f"query dim {queries.dim} != gallery dim {index.gallery.dim}")
    queries.check_unit_rows()

    gallery = index.gallery
    if not restrict_to_query_category:
        rows, scores = exact_topk(gallery.data, gallery.id_rank, queries.data, k)
        return Rankings(queries.item_ids, gallery.item_ids, rows, scores,
                        np.full(queries.n_rows, rows.shape[1]))
    cats = queries.category_ids()
    rows = np.zeros((queries.n_rows, min(k, gallery.n_rows)), dtype=np.int64)
    scores = np.zeros(rows.shape)
    lengths = np.zeros(queries.n_rows, dtype=np.int64)
    for c in unique_sorted(cats):
        qrows = np.flatnonzero(cats == c)
        found, found_scores = exact_topk(gallery.data, gallery.id_rank, queries.data[qrows], k,
                                         index.category_rows(int(c)))
        n = found.shape[1]
        rows[qrows, :n], scores[qrows, :n], lengths[qrows] = found, found_scores, n
    width = lengths.max(initial=0)
    return Rankings(queries.item_ids, gallery.item_ids, rows[:, :width], scores[:, :width],
                    lengths)
