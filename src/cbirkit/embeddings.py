"""Embedding storage, row normalization, cross-model concatenation, PCA whitening.

An EmbeddingMatrix binds an N x D float matrix to read-only id columns
(item, image, box, category, query/gallery side), checked once when the
matrix is built from records or columns.  Matrices are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import copy
import operator
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._arrays import Rule, check_integer, fault_rule, first_fault, holds, repeats, wrong_type
from .errors import DataError

SOURCES = ("query", "gallery")

UNIT_NORM_ATOL = 1e-5


@dataclass(frozen=True)
class IdRecord:
    """Identity of one embedding row, as `EmbeddingMatrix.ids` views it."""

    item_id: str
    image_id: str
    box_id: str
    category_id: int
    source: str  # "query" or "gallery"


# what a rankings TSV field cannot hold: a tab, a newline, or a lone
# surrogate, which UTF-8 cannot encode
_NOT_IN_RANKINGS = re.compile("[\t\n\ud800-\udfff]")


def _id_types(item_ids, image_ids, box_ids, category_ids, sources) -> list[Rule]:
    """The types of id columns, as `first_fault` takes them: category_id is
    an int (no bool), and the ids and source are str."""
    return [(lambda n, column=column, kind=kind: wrong_type(column, n, (kind,)),
             lambda row, name=name, column=column, message=message:
             f"{name} {column[row]!r} must be {message}")
            for name, column, kind, message in (
                ("source", sources, str, f"one of {SOURCES}"),
                ("category_id", category_ids, int, "a non-negative integer"),
                ("item_id", item_ids, str, "a string"), ("image_id", image_ids, str, "a string"),
                ("box_id", box_ids, str, "a string"))]


def _id_fault(item_ids, image_ids, box_ids, category_ids, sources) -> tuple[int, str] | None:
    """(first bad row, why) of id columns of `_id_types`'s types, or None.
    Source is "query" or "gallery"; category_id is in [0, 2**63); item_ids
    do not end in NUL, which a numpy str array drops, hold no tab, newline
    or lone surrogate, so that rankings can hold them, and are unique."""
    return first_fault(len(item_ids), [
        (lambda n: ~holds(set(SOURCES).__contains__, sources, n),
         lambda row: f"source {sources[row]!r} must be one of {SOURCES}"),
        (lambda n: holds(operator.lt, category_ids, n, 0),
         lambda row: f"category_id {category_ids[row]!r} must be a non-negative integer"),
        (lambda n: holds(operator.ge, category_ids, n, 2 ** 63),
         lambda row: f"category_id {category_ids[row]} out of range"),
        (lambda n: holds(str.endswith, item_ids, n, "\0"),
         lambda row: f"item_id {item_ids[row]!r} ends in NUL"),
        # a text holds a character when the texts' join does
        (lambda n: (holds(bool, map(_NOT_IN_RANKINGS.search, item_ids), n)
                    if _NOT_IN_RANKINGS.search("".join(item_ids[:n])) else np.zeros(n, bool)),
         lambda row: f"item_id {item_ids[row]!r} holds a tab, newline or lone surrogate"),
        unique_ids(item_ids)])


def unique_ids(item_ids) -> Rule:
    """The rule that no item_id repeats one before it, as `first_fault`
    takes it, over item ids as strs or as a numpy str array."""
    return (lambda n: repeats(item_ids[:n]),
            lambda row: f"duplicate item_id {str(item_ids[row])!r}")


def _id_arrays(item_ids, image_ids, box_ids, category_ids, sources) -> list[np.ndarray]:
    """Checked id values, as sequences or as these arrays, in the arrays
    the matrix holds: item_ids a numpy str array, image_ids and box_ids
    object arrays (so that every str round-trips), int64 category_ids and a
    numpy str array of sources."""
    return [np.asarray(item_ids, dtype=str), np.asarray(image_ids, dtype=object),
            np.asarray(box_ids, dtype=object), np.asarray(category_ids, dtype=np.int64),
            np.asarray(sources, dtype=str)]


def _float_rows(data) -> np.ndarray:
    """data as a read-only float64 array, checked to be 2-D, non-empty and finite."""
    # a signalling NaN would warn in the cast; the finiteness check below reports it
    with np.errstate(invalid="ignore"):
        arr = np.array(data, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DataError(f"embedding data must be a non-empty 2-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        row = int(np.nonzero(~np.isfinite(arr).all(axis=1))[0][0])
        raise DataError(f"non-finite value in embedding row {row}")
    arr.setflags(write=False)
    return arr


class EmbeddingMatrix:
    """Immutable N x D float64 matrix with read-only id columns: item_ids (a
    numpy str array), image_ids and box_ids (object arrays, so that every
    str round-trips), sources, `category_ids()` (int64) and id_rank, each
    row's position in ascending item_id (code point) order.  `ids` views the
    columns as one IdRecord per row, built on first use.

    Matrices may share the very same id column arrays, as `with_data` makes
    them and as the models of one embedding set do when their id sidecars
    are byte-identical, which lets `concat_features` take them as aligned
    without comparing them; the columns are read-only, so no matrix can
    change another's ids."""

    def __init__(self, data, ids: Sequence[IdRecord]):
        ids = tuple(ids)
        self._check_ids(data, [r.item_id for r in ids], [r.image_id for r in ids],
                        [r.box_id for r in ids], [r.category_id for r in ids],
                        [r.source for r in ids])

    @classmethod
    def from_columns(cls, data, item_ids, image_ids, box_ids, category_ids,
                     sources, ids_checked: bool = False) -> EmbeddingMatrix:
        """A matrix from one sequence of Python values per IdRecord field,
        checked as the records constructor checks them.  ids_checked skips
        the id rules for columns that a loader has already checked: the id
        sidecar's field types, then `_id_fault`; such columns may come as
        `_id_arrays` gives them, and are then kept uncopied."""
        m = cls.__new__(cls)
        m._check_ids(data, item_ids, image_ids, box_ids, category_ids, sources,
                     ids_checked=ids_checked)
        return m

    def _check_ids(self, data, *columns: Sequence, ids_checked: bool = False) -> None:
        self.data = _float_rows(data)
        if not ids_checked:
            columns = [list(column) for column in columns]
        if any(len(column) != self.n_rows for column in columns):
            raise DataError(f"{len(columns[0])} id records for {self.n_rows} rows")
        fault = None if ids_checked else first_fault(self.n_rows, _id_types(*columns) + [
            fault_rule(lambda n: _id_fault(*(column[:n] for column in columns)))])
        if fault is not None:
            raise DataError(fault[1])
        columns = _id_arrays(*columns)
        self._set_ids(columns, np.argsort(columns[0], kind="stable"))

    def _set_ids(self, columns: list[np.ndarray], order: np.ndarray) -> None:
        """Store checked id columns, read-only; `order` sorts the item_ids."""
        rank = np.empty_like(order)
        rank[order] = np.arange(order.shape[0])
        for column in (*columns, rank):
            column.setflags(write=False)
        self.item_ids, self.image_ids, self.box_ids, self._category_ids, self.sources = columns
        self.id_rank = rank

    @property
    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.item_ids, self.image_ids, self.box_ids, self._category_ids, self.sources

    @cached_property
    def ids(self) -> tuple[IdRecord, ...]:
        return tuple(map(IdRecord, *(column.tolist() for column in self._columns)))

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def category_ids(self) -> np.ndarray:
        return self._category_ids

    def with_data(self, new_data) -> EmbeddingMatrix:
        """Same ids, different values (row count must match); ids are not checked again."""
        m = copy.copy(self)
        m.data = _float_rows(new_data)
        if m.n_rows != self.n_rows:
            raise DataError(f"{self.n_rows} id records for {m.n_rows} rows")
        return m

    def split_by_source(self) -> tuple[EmbeddingMatrix, EmbeddingMatrix]:
        """(queries, gallery) in original row order, their rows and ids
        sliced from this matrix's checked data and columns, one read-only
        copy each; errors if a side is empty."""
        is_query = self.sources == "query"
        if is_query.all() or not is_query.any():
            raise DataError("matrix does not contain both query and gallery rows")
        sides = []
        for side in (is_query, ~is_query):
            m = EmbeddingMatrix.__new__(EmbeddingMatrix)
            m.data = self.data[side]
            m.data.setflags(write=False)
            m._set_ids([column[side] for column in self._columns],
                       np.argsort(self.id_rank[side], kind="stable"))
            sides.append(m)
        return tuple(sides)

    def row_norms(self) -> np.ndarray:
        return np.linalg.norm(self.data, axis=1)

    def check_unit_rows(self) -> None:
        """Raise DataError naming the first item whose row norm is more than
        UNIT_NORM_ATOL from 1."""
        norms = self.row_norms()
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_ATOL))
        if bad.size:
            raise DataError(f"rows must be unit-normalized: item {self.item_ids[bad[0]].item()!r} "
                            f"has norm {norms[bad[0]]:.6g}, not 1 within {UNIT_NORM_ATOL}")


def l2_normalize(m: EmbeddingMatrix) -> EmbeddingMatrix:
    """Scale every row to unit L2 norm; a zero row is an error."""
    norms = m.row_norms()
    zero = norms == 0.0
    if zero.any():
        item = m.item_ids[int(np.nonzero(zero)[0][0])].item()
        raise DataError(f"cannot normalize zero-norm row for item {item!r}")
    return m.with_data(m.data / norms[:, None])


def _check_aligned(parts: Sequence[EmbeddingMatrix]) -> None:
    ref = parts[0]
    for part in parts[1:]:
        if all(a is b for a, b in zip(ref._columns, part._columns)):
            continue
        n = min(ref.n_rows, part.n_rows)
        differs = np.flatnonzero(np.any([a[:n] != b[:n] for a, b in
                                         zip(ref._columns, part._columns)], axis=0))
        if differs.size:
            i = differs[0]
            raise DataError(f"id maps diverge at row {i}: {ref.item_ids[i].item()!r} vs "
                            f"{part.item_ids[i].item()!r}")
        if part.n_rows != ref.n_rows:
            raise DataError(f"id maps have different lengths: {ref.n_rows} vs {part.n_rows}")


def concat_features(
    parts: Sequence[EmbeddingMatrix], renormalize: bool = True
) -> EmbeddingMatrix:
    """Concatenate per-model embeddings along the feature axis.

    All parts must carry identical id maps in identical row order and be
    unit-normalized.  With renormalize (the default) each output row is
    rescaled to unit norm, which for m unit parts equals dividing by
    sqrt(m) and makes cosine scores comparable across ensemble sizes:
    the cosine of two concatenated rows is then exactly the mean of the
    per-part cosines.
    """
    if len(parts) < 1:
        raise DataError("concat_features needs at least one part")
    for k, part in enumerate(parts):
        try:
            part.check_unit_rows()
        except DataError as e:
            raise DataError(f"part {k} is not L2-normalized: {e}") from None
    _check_aligned(parts)
    if len(parts) == 1:
        return parts[0]
    data = np.hstack([p.data for p in parts])
    if renormalize:
        data = data / np.linalg.norm(data, axis=1)[:, None]
    return parts[0].with_data(data)


@dataclass(frozen=True)
class PcaModel:
    """Centered orthonormal projection with optional whitening.

    components is D' x D with orthonormal rows sorted by descending
    eigenvalue; whitening divides each projected dimension by
    sqrt(eigenvalue + epsilon).
    """

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray
    whiten: bool
    epsilon: float = 1e-8

    def __post_init__(self):
        gram = self.components @ self.components.T
        if not np.allclose(gram, np.eye(self.components.shape[0]), atol=1e-5):
            raise DataError("PCA components are not orthonormal")
        if np.any(np.diff(self.eigenvalues) > 0) or np.any(self.eigenvalues <= 0):
            raise DataError("eigenvalues must be positive and sorted descending")

    @property
    def in_dim(self) -> int:
        return self.components.shape[1]

    @property
    def out_dim(self) -> int:
        return self.components.shape[0]


def pca_fit(m: EmbeddingMatrix, out_dim: int | None = None, whiten: bool = False,
            epsilon: float = 1e-8) -> PcaModel:
    """Fit a PCA basis on the rows of m.

    Eigendecomposition of the mean-centered sample covariance (ddof=1);
    keeps the top out_dim components (default: all).  Eigenvector signs
    are fixed by making each component's largest-magnitude entry positive
    so repeated fits are bit-identical.  Eigenvalues below epsilon are
    floored there with a warning instead of failing on rank-deficient
    input.
    """
    n, d = m.n_rows, m.dim
    if out_dim is None:
        out_dim = d
    check_integer(out_dim, "out_dim", DataError)
    if not (1 <= out_dim <= d):
        raise DataError(f"out_dim {out_dim} outside [1, {d}]")
    if n < 2:
        raise DataError("PCA needs at least 2 rows")
    if n < out_dim:
        raise DataError(f"PCA needs at least out_dim={out_dim} rows, got {n}")
    mean = m.data.mean(axis=0)
    centered = m.data - mean
    cov = centered.T @ centered / (n - 1)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(evals)[::-1][:out_dim]
    evals = evals[order]
    components = evecs[:, order].T.copy()
    for row in components:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    if np.any(evals < epsilon):
        warnings.warn(
            f"{int(np.sum(evals < epsilon))} kept eigenvalue(s) below {epsilon:g}; "
            "flooring (rank-deficient input)",
            RuntimeWarning,
            stacklevel=2,
        )
        evals = np.maximum(evals, epsilon)
    return PcaModel(mean=mean, components=components, eigenvalues=evals,
                    whiten=whiten, epsilon=epsilon)


def pca_transform(model: PcaModel, m: EmbeddingMatrix) -> EmbeddingMatrix:
    """Project rows of m through the fitted basis; ids are preserved."""
    if m.dim != model.in_dim:
        raise DataError(f"matrix dim {m.dim} does not match PCA input dim {model.in_dim}")
    projected = (m.data - model.mean) @ model.components.T
    if model.whiten:
        projected = projected / np.sqrt(model.eigenvalues + model.epsilon)
    return m.with_data(projected)
