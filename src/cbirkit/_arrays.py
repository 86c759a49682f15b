"""Index helpers shared by the vectorised kernels, and the first-fault pass
that every input table states its rules for."""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence

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


def isin_sorted(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """np.isin(values, keys) for integer arrays, by a sort and a binary
    search: np.isin dedupes keys on numpy's slow hash path."""
    keys = np.sort(keys, axis=None)
    if keys.size == 0:
        return np.zeros(np.shape(values), dtype=bool)
    return keys[np.minimum(np.searchsorted(keys, values), keys.size - 1)] == values


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


def holds(test, values, n: int, *args) -> np.ndarray:
    """Whether test(value, *args) holds for each of the first n values."""
    return np.fromiter(map(test, itertools.islice(values, n), *map(itertools.repeat, args)),
                       bool, n)


def wrong_type(values, n: int, types: tuple[type, ...]) -> np.ndarray:
    """Whether the type of each of the first n values is none of `types`."""
    kinds = list(map(type, itertools.islice(values, n)))
    wrong = set(kinds).difference(types)
    return holds(wrong.__contains__, kinds, n) if wrong else np.zeros(n, dtype=bool)


def repeats(values: Sequence) -> np.ndarray:
    """Whether each of the hashable values equals one before it."""
    n = len(values)
    firsts = set(dict(zip(reversed(values), range(n - 1, -1, -1))).values())
    return ~holds(firsts.__contains__, range(n), n) if len(firsts) < n else np.zeros(n, bool)


# A rule: mask(n) says which of the first n rows break it; message(row) how row does.
Rule = tuple[Callable[[int], np.ndarray], Callable[[int], str]]


def first_fault(n: int, rules: Sequence[Rule]) -> tuple[int, str] | None:
    """(earliest bad row, its message) of n rows under `rules`, or None.
    The rules run in order, each on the rows before the earliest fault found
    so far: a rule sees only rows that passed every earlier rule, and may
    assume what they checked.  Inside one row, the earlier rule wins."""
    found = None
    for mask, message in rules:
        bad = np.flatnonzero(mask(n))
        if bad.size:
            n, found = int(bad[0]), message
    return None if found is None else (n, found(n))


def fault_rule(fault: Callable[[int], tuple[int, str] | None]) -> Rule:
    """fault(n), the first fault of the first n rows under rules of their
    own (say, over arrays of the rows that passed the rules before), as one rule."""
    def mask(n: int) -> np.ndarray:
        found = fault(n)
        return np.arange(n) == (n if found is None else found[0])
    # the rows before `row` pass, so row is the fault of the first row + 1
    return mask, lambda row: fault(row + 1)[1]
