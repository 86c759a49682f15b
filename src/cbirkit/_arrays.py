"""Index helpers shared by the vectorised kernels, the one id coder, and
the first-fault pass that every input table states its rules for."""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from .errors import DataError

# bytes of the bool table that `pairs_in` marks one block of rows in
PAIR_TABLE_BYTES = 1 << 20


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + l) over the pairs (s, l)."""
    ends = np.cumsum(lengths)
    if ends.size == 0:
        return np.zeros(0, dtype=np.intp)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)


def blocks(weights: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Ranges (start, stop) that partition [0, len(weights)) in order, each
    as long as its non-negative weights sum to at most `budget`, and at
    least one point long."""
    ends = np.concatenate(([0], np.cumsum(weights)))
    start, n = 0, len(weights)
    while start < n:
        stop = int(np.searchsorted(ends, ends[start] + budget, side="right")) - 1
        stop = max(stop, start + 1)
        yield start, stop
        start = stop


def unit_blocks(units: np.ndarray, weights: np.ndarray | None,
                budget: int) -> Iterator[tuple[int, int]]:
    """Ranges (start, stop) that partition the points, which come sorted by
    `units`, in order, each of whole units whose weights sum to at most
    `budget`, and at least one unit long.  A weight of None is 1 a point.
    Only the unit boundaries are held while the ranges are taken."""
    edges = run_starts(units)
    sums = (np.diff(edges) if weights is None or units.size == 0
            else np.add.reduceat(weights, edges[:-1]))
    return ((int(edges[lo]), int(edges[hi])) for lo, hi in blocks(sums, budget))


def encode(values: Sequence, table: Sequence | None) -> tuple[np.ndarray, Sequence]:
    """Integer codes of the hashable `values` into `table`, a sequence of
    distinct values, with -1 for a value that the table lacks, and the table.
    A table of None is the sorted distinct values, as a tuple."""
    table = tuple(sorted(set(values))) if table is None else table
    index = dict(zip(table, range(len(table))))
    return (np.fromiter(map(index.get, values, itertools.repeat(-1)), np.intp, len(values)),
            table)


def numbers(values, dtype, column: str) -> np.ndarray:
    """`values` as a new `dtype` array.  A string or a boolean among them,
    which the cast would take for a number, raises DataError naming `column`."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        for value in np.asarray(values, dtype=object).ravel().tolist():
            if isinstance(value, (str, bytes, bool, np.bool_)):
                raise DataError(f"{column}: {value!r} is not a number")
    return np.array(values, dtype=dtype)


def check_integer(value, name: str, error: type[Exception]) -> None:
    """Raise `error` naming `name` unless value is an int or a numpy
    integer, which a count must be; a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")


def unique_sorted(keys: np.ndarray) -> np.ndarray:
    """np.unique(keys) for integer keys, by a sort and a neighbour compare:
    numpy's hash path for integer keys is several times slower, and its
    first call imports numpy.ma, about 1 MB of module objects."""
    keys = np.sort(keys, axis=None)
    if keys.size == 0:
        return keys
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def pairs_in(rows: np.ndarray, cols: np.ndarray, set_rows: np.ndarray,
             set_cols: np.ndarray, n_cols: int) -> np.ndarray:
    """Whether each pair (rows[i], cols[i, j]) is one of the pairs
    (set_rows[s], set_cols[s]).  Rows are non-negative and come ascending,
    in `rows` and in `set_rows`; columns lie in [0, n_cols).

    The set's pairs are marked in a bool table over one block of rows at a
    time, PAIR_TABLE_BYTES of them (one row when a row is larger), looked
    up, and unmarked: no sort and no search per pair, and
    O(PAIR_TABLE_BYTES + pairs) memory however many rows there are."""
    out = np.zeros(cols.shape, dtype=bool)
    if rows.size == 0 or set_rows.size == 0:
        return out
    step = max(1, PAIR_TABLE_BYTES // max(1, n_cols))
    table = np.zeros(step * n_cols, dtype=bool)
    block = rows // step
    edges = run_starts(block)
    # each block of rows [start, start + step) and its slice of the set
    starts = block[edges[:-1]] * step
    set_edges = np.searchsorted(set_rows, np.stack([starts, starts + step]))
    for lo, hi, start, set_lo, set_hi in zip(edges[:-1].tolist(), edges[1:].tolist(),
                                              starts.tolist(), *set_edges.tolist()):
        marks = (set_rows[set_lo:set_hi] - start) * n_cols + set_cols[set_lo:set_hi]
        table[marks] = True
        out[lo:hi] = table[((rows[lo:hi] - start) * n_cols)[:, None] + cols[lo:hi]]
        table[marks] = False
    return out


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
