"""Exact top-K nearest-neighbor retrieval over unit-normalized embeddings.

Similarity is the cosine, computed as the dot product of unit vectors;
search is exact brute force so every downstream number can be checked
against an independent oracle.  Ties on score break by ascending gallery
item_id, which makes every ranking a total order and therefore
reproducible across runs and thread counts.

Search, query expansion and database augmentation share one blocked
kernel, `exact_topk`.  For each block of QUERY_BLOCK query rows it

  1. scores the block against every candidate with one GEMM;
  2. bounds each row's k-th score from below by the k-th largest of its
     tile maxima (tiles of max(1, m // 4k) of the m candidates) and keeps
     every candidate whose GEMM score reaches that bound, capped at 1, less
     a slack that covers the rounding of two dot products (so boundary ties
     always survive);
  3. recomputes the survivors' scores with `pair_scores`: elementwise
     products summed along the feature axis, a value that depends on the
     two vectors alone and not on the block shape or the BLAS thread
     count, as GEMM bits do;
  4. orders all of the block's survivors by (row, -score, rank of item_id)
     in one flat stable sort and keeps each row's first k.  The rank is
     `EmbeddingMatrix.id_rank`, computed once when a matrix's ids are
     checked, and candidates are laid out in item_id order, so a column is
     its rank.

Every row keeps at least k survivors: about k on spread-out scores, more
with ties or scores within the slack of the bound, and all of them when k
is the candidate count.  All cases take the same path, with no per-row
work.  Temporary memory is O(QUERY_BLOCK x candidates), whatever the query
count and however many candidates survive: survivors are scored in chunks,
and when ties keep more than an eighth of a block's GEMM entries, steps 3
and 4 run on an eighth of its rows at a time.

`knn_search` returns the kernel's arrays as they come, as `Rankings`: the
query ids, the gallery's item_ids as the id table, an n_q x k array of
gallery rows (codes into that table), their scores, and each query's
length, which is shorter than k on the category-restricted path when a
category holds fewer than k gallery rows, and 0 when it holds none.
Rankings are only ever taken as columns; `rankings[i]` reads one row as a
`RankingList` view.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ._arrays import first_fault, repeats
from .embeddings import EmbeddingMatrix
from .errors import ConfigError, DataError

# query rows scored per GEMM; bounds the kernel's temporary memory
QUERY_BLOCK = 256

_EPS = np.finfo(np.float64).eps
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

    def __len__(self) -> int:
        return len(self.item_ids)

    def entries(self):
        return zip(self.item_ids, self.scores.tolist())


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
    taken as ranked: the producers (the top-K kernel, the re-ranker and
    `from_flat`, which the file loader calls) order them and keep their
    ids distinct.

    `==` compares the rows as RankingList does, on query ids and item ids
    alone, not on scores.
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
        scores.  The table is the sorted distinct ids.

        DataError names the query of the earliest bad entry: one whose
        score is above the score before it in its row, or is not finite, or
        whose id its row holds before; inside one entry, in that order.  The
        first query whose length is negative or runs past the ids or scores
        (the last query, when they run past every length) ends the entries
        checked, and is named when the entries before it pass."""
        lengths = np.array(lengths, dtype=np.int64)
        scores = np.array(scores, dtype=np.float64)
        n = len(item_ids)
        if lengths.shape != (len(query_ids),) or (lengths.size == 0 and (n or scores.size)):
            raise DataError("rankings need one length per query id")
        ends = np.cumsum(lengths)
        short = (lengths < 0) | (ends > min(n, scores.size))
        short[-1:] |= not ends[-1:].sum() == n == scores.size
        # the queries before the first short one hold well-formed rows
        rows = int(np.argmax(short)) if short.any() else lengths.size
        row = np.repeat(np.arange(rows), lengths[:rows])
        table = sorted(set(item_ids))
        code_of = dict(zip(table, range(len(table))))
        flat = np.fromiter(map(code_of.__getitem__, item_ids), np.int64, n)
        # (row, code) keys: a repeated key is an id repeated within a row
        keys = (row * len(table) + flat[:row.size]).tolist()
        rises = np.concatenate(([False], (row[1:] == row[:-1])
                                & (scores[1:row.size] > scores[:row.size - 1])))
        fault = first_fault(row.size, [
            (lambda m: rises[:m], lambda entry: "scores increase"),
            (lambda m: ~np.isfinite(scores[:m]), lambda entry: "a score is not finite"),
            (lambda m: repeats(keys[:m]), lambda entry: "duplicate gallery ids")])
        if fault is not None:
            entry, message = fault
            raise _BadEntry(entry, f"ranking for {query_ids[row[entry]]!r}: {message}")
        if rows < lengths.size:
            raise DataError(f"ranking for {query_ids[rows]!r}: ids/scores length mismatch")
        valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
        codes = np.zeros(valid.shape, dtype=np.int64)
        codes[valid] = flat
        padded = np.zeros(valid.shape)
        padded[valid] = scores
        return cls(query_ids, np.array(table, dtype=object), codes, padded, lengths)

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


class _BadEntry(DataError):
    """`Rankings.from_flat`'s fault in the flat entry `entry`."""
    def __init__(self, entry: int, message: str):
        super().__init__(message)
        self.entry = entry


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


def _block_topk(block: np.ndarray, cand: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k candidate columns and scores of one query block (k <= m = len(cand)).

    Bound: cut each row's GEMM scores g into tiles of max(1, m // 4k)
    columns, the last one shorter, and let T be the k-th largest tile
    maximum.  There are at least min(m, 4k) >= k tiles, and k of them hold
    a g >= T, so at least k candidates have g >= T.

    Slack: a dot product of two near-unit vectors, summed in any order,
    lies within about dim eps / 2 of the exact value, so the GEMM score g
    and the recomputed score e of one pair differ by at most d = dim eps.
    The exact score is s = clip(e, -1, 1).  The k candidates with g >= T
    have s >= min(T - d, 1), so the k-th largest s, S, is at least
    min(T, 1) - d.  A candidate with s >= S has g >= S - d >= min(T, 1) - 2d
    when -1 < s < 1 (then e = s), and g >= 1 - d when s = 1 (then e >= 1).
    The floor min(T, 1) - 4d, with a factor of two to spare, keeps all of
    them, ties at S included.  The min matters: rows normalised to within
    1e-5 score up to about 1 + 2e-5, and a T above 1 would drop a candidate
    whose e is 1 but whose g is below T, though it ties at 1 once clipped.
    s = -1 needs S = -1, so min(T, 1) - d <= -1 and the floor lies below
    -1; such a floor keeps every candidate, as an unclipped e may lie
    anywhere below -1.

    Verify: the survivors' exact scores come from `pair_scores`, one flat
    stable sort orders them by (row, -score, column), and each row's first
    k are its top k.  The order depends on the exact scores and columns
    alone, so the GEMM's rounding never reaches the output.  A row's top k
    depend on its own survivors only, so when more than 1/_SURVIVOR_SHARE
    of the GEMM entries survive (ties), slices of 1/_SURVIVOR_SHARE of the
    rows are verified in turn, and the survivors' temporaries stay near
    the size of the GEMM scores.
    """
    n, m = block.shape[0], cand.shape[0]
    sims = block @ cand.T
    tiles = np.arange(0, m, max(1, m // (4 * k)))
    bound = np.partition(np.maximum.reduceat(sims, tiles, axis=1), tiles.size - k,
                         axis=1)[:, tiles.size - k]
    floor = np.minimum(bound, 1.0) - 4 * cand.shape[1] * _EPS
    floor[floor < -1.0] = -np.inf
    keep = sims >= floor[:, None]
    del sims  # verification needs the mask only
    step = n
    if np.count_nonzero(keep) > keep.size // _SURVIVOR_SHARE:
        step = max(1, n // _SURVIVOR_SHARE)
    cols = np.empty((n, k), dtype=np.int64)
    scores = np.empty((n, k))
    for start in range(0, n, step):
        stop = start + step
        cols[start:stop], scores[start:stop] = _verify(block[start:stop], cand,
                                                       keep[start:stop], k)
    return cols, scores


def _verify(block: np.ndarray, cand: np.ndarray, keep: np.ndarray,
            k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k columns and exact scores of each row of `block` among the
    candidates that `keep` marks, at least k in every row."""
    rows, cols = divmod(np.flatnonzero(keep), cand.shape[0])
    scores = pair_scores(block, rows, cand, cols)
    # complex numbers sort by real part, then imaginary part; the sort is
    # stable and each row's columns come ascending, so ties keep column order
    order = np.argsort(rows - 1j * scores, kind="stable")
    # rows come out of flatnonzero ascending, so row i's survivors start here
    first = np.searchsorted(rows, np.arange(block.shape[0]))
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
