"""Index helpers shared by the vectorised kernels."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + l) over the pairs (s, l)."""
    ends = np.cumsum(lengths)
    if ends.size == 0:
        return np.zeros(0, dtype=np.intp)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)


def unique_sorted(keys: np.ndarray) -> np.ndarray:
    """np.unique(keys) for integer keys, by a sort and a neighbour compare:
    numpy's hash path for integer keys is several times slower."""
    keys = np.sort(keys, axis=None)
    if keys.size == 0:
        return keys
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Start positions of the runs of equal rows in the sorted key columns,
    plus one past the end."""
    n = keys[0].size
    change = np.zeros(n, dtype=bool)
    if n:
        change[0] = True
    for k in keys:
        change[1:] |= k[1:] != k[:-1]
    return np.concatenate((np.nonzero(change)[0], [n]))


def wavefront(lengths: np.ndarray) -> Iterator[np.ndarray]:
    """For each step s, the indices of the groups longer than s, longest
    first (ties in index order).  A kernel that takes the s-th member of
    every group at step s visits each group's members in order."""
    by_length = np.argsort(-lengths, kind="stable")
    longest_first = -lengths[by_length]
    for s in range(-longest_first[0] if lengths.size else 0):
        yield by_length[:np.searchsorted(longest_first, -s)]
