"""Embedding storage, row normalization, cross-model concatenation, PCA whitening.

An EmbeddingMatrix binds an N x D float matrix to per-row identity records
(item, image, box, category, query/gallery side).  Matrices are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

SOURCES = ("query", "gallery")

UNIT_NORM_ATOL = 1e-5


@dataclass(frozen=True)
class IdRecord:
    """Identity of one embedding row."""

    item_id: str
    image_id: str
    box_id: str
    category_id: int
    source: str  # "query" or "gallery"

    def __post_init__(self):
        if self.source not in SOURCES:
            raise DataError(f"source {self.source!r} must be one of {SOURCES}")
        if not isinstance(self.category_id, int) or self.category_id < 0:
            raise DataError(f"category_id {self.category_id!r} must be a non-negative integer")


class EmbeddingMatrix:
    """Immutable N x D float64 matrix with one IdRecord per row."""

    def __init__(self, data, ids: Sequence[IdRecord]):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DataError(f"embedding data must be a non-empty 2-D array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            row = int(np.nonzero(~np.isfinite(arr).all(axis=1))[0][0])
            raise DataError(f"non-finite value in embedding row {row}")
        ids = tuple(ids)
        if len(ids) != arr.shape[0]:
            raise DataError(f"{len(ids)} id records for {arr.shape[0]} rows")
        seen: set[str] = set()
        for rec in ids:
            if rec.item_id in seen:
                raise DataError(f"duplicate item_id {rec.item_id!r}")
            seen.add(rec.item_id)
        arr.setflags(write=False)
        self.data = arr
        self.ids = ids
        self.item_ids = np.array([r.item_id for r in ids])
        self._row_of = {r.item_id: i for i, r in enumerate(ids)}

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def row_of(self, item_id: str) -> int:
        try:
            return self._row_of[item_id]
        except KeyError:
            raise DataError(f"unknown item_id {item_id!r}") from None

    def rows_of(self, item_ids: Sequence[str]) -> np.ndarray:
        """Row index of each item_id, as an int64 array."""
        try:
            return np.fromiter(map(self._row_of.__getitem__, item_ids), dtype=np.int64,
                               count=len(item_ids))
        except KeyError as e:
            raise DataError(f"unknown item_id {e.args[0]!r}") from None

    def category_ids(self) -> np.ndarray:
        return np.array([r.category_id for r in self.ids], dtype=np.int64)

    def with_data(self, new_data) -> "EmbeddingMatrix":
        """Same ids, different values (row count must match)."""
        return EmbeddingMatrix(new_data, self.ids)

    def select(self, rows: Iterable[int]) -> "EmbeddingMatrix":
        rows = list(rows)
        return EmbeddingMatrix(self.data[rows], [self.ids[i] for i in rows])

    def split_by_source(self) -> tuple["EmbeddingMatrix", "EmbeddingMatrix"]:
        """(queries, gallery) in original row order; errors if a side is empty."""
        q = [i for i, r in enumerate(self.ids) if r.source == "query"]
        g = [i for i, r in enumerate(self.ids) if r.source == "gallery"]
        if not q or not g:
            raise DataError("matrix does not contain both query and gallery rows")
        return self.select(q), self.select(g)

    def row_norms(self) -> np.ndarray:
        return np.linalg.norm(self.data, axis=1)

    def is_unit_normalized(self, atol: float = UNIT_NORM_ATOL) -> bool:
        return bool(np.all(np.abs(self.row_norms() - 1.0) <= atol))


def l2_normalize(m: EmbeddingMatrix) -> EmbeddingMatrix:
    """Scale every row to unit L2 norm; a zero row is an error."""
    norms = m.row_norms()
    zero = norms == 0.0
    if zero.any():
        item = m.ids[int(np.nonzero(zero)[0][0])].item_id
        raise DataError(f"cannot normalize zero-norm row for item {item!r}")
    return m.with_data(m.data / norms[:, None])


def _check_aligned(parts: Sequence[EmbeddingMatrix]) -> None:
    ref = parts[0].ids
    for part in parts[1:]:
        if part.ids == ref:
            continue
        n = min(len(ref), len(part.ids))
        for i in range(n):
            if part.ids[i] != ref[i]:
                raise DataError(
                    f"id maps diverge at row {i}: {ref[i].item_id!r} vs "
                    f"{part.ids[i].item_id!r}"
                )
        raise DataError(f"id maps have different lengths: {len(ref)} vs {len(part.ids)}")


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
        if not part.is_unit_normalized():
            raise DataError(f"part {k} is not L2-normalized")
    _check_aligned(parts)
    if len(parts) == 1:
        return parts[0]
    data = np.hstack([p.data for p in parts])
    if renormalize:
        data = data / np.linalg.norm(data, axis=1)[:, None]
    return EmbeddingMatrix(data, parts[0].ids)


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
