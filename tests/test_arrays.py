import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbirkit import _arrays
from cbirkit._arrays import blocks, fault_rule, first_fault, pairs_in, repeats

VALUES = [3, "x", -1, 0, 5]


def not_an_int(n):
    return np.array([type(v) is not int for v in VALUES[:n]], dtype=bool)


def test_later_rule_sees_only_rows_that_passed_earlier_rules():
    seen = []

    def negative(n):
        # would raise on "x", which the earlier rule rejects
        seen.append(VALUES[:n])
        return np.array([v < 0 for v in VALUES[:n]], dtype=bool)

    rules = [(not_an_int, lambda row: f"{VALUES[row]!r} is not an int"),
             (negative, lambda row: f"{VALUES[row]} is negative")]
    assert first_fault(len(VALUES), rules) == (1, "'x' is not an int")
    assert seen == [[3]]


def test_earliest_row_wins_and_earlier_rule_breaks_a_tie():
    rules = [(lambda n: np.array([v == 0 for v in VALUES[:n]]), lambda row: "zero"),
             (lambda n: np.array([v in (-1, 0) for v in VALUES[:n]]), lambda row: "small"),
             (lambda n: np.array([v == -1 for v in VALUES[:n]]), lambda row: "minus one")]
    # row 3 breaks the first rule, row 2 the second and third: the second names it
    assert first_fault(len(VALUES), rules) == (2, "small")


def test_clean_input_gives_none():
    calls = []
    rules = [(lambda n: calls.append(n) or np.zeros(n, dtype=bool), lambda row: "never")] * 2
    assert first_fault(4, rules) is None
    assert calls == [4, 4]
    assert first_fault(0, rules) is None


@pytest.mark.parametrize("values, fault", [([3, -1, "x"], (1, "-1 < 0")),
                                           ([3, "x", -1], (1, "not an int")),
                                           ([3, 4], None)])
def test_fault_rule_nests_rules_over_the_rows_that_passed(values, fault):
    def ints_fault(n):
        # an array of the rows that passed the type rule, with a rule of its own
        ints = np.array(values[:n], dtype=np.int64)
        return first_fault(n, [(lambda m: ints[:m] < 0, lambda row: f"{ints[row]} < 0")])

    rules = [(lambda n: np.array([type(v) is not int for v in values[:n]], dtype=bool),
              lambda row: "not an int"),
             fault_rule(ints_fault)]
    assert first_fault(len(values), rules) == fault


def test_repeats_marks_all_but_the_first_of_equal_values():
    assert repeats(["a", "b", "a", "c", "b", "a"]).tolist() == [False, False, True, False,
                                                                True, True]
    assert repeats([]).tolist() == []


@st.composite
def pair_sets(draw):
    """Rows with a few columns each, and a pair set, over an n_rows x n_cols
    grid; the rows come ascending and may repeat, and some of the set's
    pairs are planted among the queries, so both answers occur."""
    n_rows, n_cols, width = (draw(st.integers(1, 12)) for _ in range(3))
    members = draw(st.lists(st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
                            max_size=30))
    members.sort(key=lambda pair: pair[0])  # a set may repeat a pair
    rows = sorted(draw(st.lists(st.integers(0, n_rows - 1), max_size=10)))
    cols = np.array(draw(st.lists(st.lists(st.integers(0, n_cols - 1), min_size=width,
                                           max_size=width),
                                  min_size=len(rows), max_size=len(rows))),
                    dtype=np.int64).reshape(len(rows), width)
    for i, (row, col) in enumerate(members[:len(rows)]):
        rows[i], cols[i, 0] = row, col
    order = np.argsort(rows, kind="stable")
    members = np.array(members, dtype=np.int64).reshape(-1, 2)
    return np.array(rows, dtype=np.int64)[order], cols[order], members, n_cols


@pytest.mark.parametrize("table_bytes", [1, 1 << 30], ids=["one-row-per-block", "one-block"])
@settings(max_examples=200, deadline=None)
@given(pair_sets())
def test_pairs_in_matches_isin_on_flat_keys(table_bytes, case):
    rows, cols, members, n_cols = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_arrays, "PAIR_TABLE_BYTES", table_bytes)
        got = pairs_in(rows, cols, members[:, 0], members[:, 1], n_cols)
    expected = np.isin(rows[:, None] * n_cols + cols, members @ [n_cols, 1])
    assert got.shape == cols.shape and np.array_equal(got, expected)


def test_pairs_in_pairs_each_row_with_its_columns():
    cols = np.array([[0, 2, 1], [1, 1, 0]])
    got = pairs_in(np.arange(2), cols, np.array([0, 1, 1]), np.array([2, 0, 1]), 3)
    assert got.tolist() == [[False, True, False], [True, True, True]]


def test_pairs_in_memory_stays_near_its_table():
    # an n x n bool table would take 20 times the table's budget
    n, k = int((20 * _arrays.PAIR_TABLE_BYTES) ** 0.5) + 1, 10
    rng = np.random.default_rng(5)
    cols = rng.integers(0, n, size=(n, k))
    set_rows = np.repeat(np.arange(n), k)
    set_cols = rng.integers(0, n, size=n * k)
    rows = np.arange(n)
    tracemalloc.start()
    try:
        got = pairs_in(rows, cols, set_rows, set_cols, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, np.isin(rows[:, None] * n + cols, set_rows * n + set_cols))
    # the table plus a few int64 temporaries of the query pairs
    assert peak < _arrays.PAIR_TABLE_BYTES + 4 * 8 * cols.size < n * n / 5


def test_blocks_skip_nothing_and_keep_zero_weights_in_blocks():
    # the 5 exceeds the budget on its own
    assert list(blocks(np.array([0, 0, 5, 0, 3, 0]), 4)) == [(0, 2), (2, 3), (3, 6)]
    assert list(blocks(np.zeros(3, dtype=np.int64), 1)) == [(0, 3)]
    assert list(blocks(np.zeros(0, dtype=np.int64), 4)) == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 20), max_size=40), st.integers(1, 30))
def test_blocks_partition_points_under_the_budget(weights, budget):
    weights = np.array(weights, dtype=np.int64)
    got = list(blocks(weights, budget))
    edges = [0] + [stop for _, stop in got]
    assert got == list(zip(edges[:-1], edges[1:])) and edges[-1] == weights.size
    for start, stop in got:
        assert stop > start
        # at most the budget unless alone, and as long as the budget allows
        assert weights[start:stop].sum() <= budget or stop - start == 1
        assert stop == weights.size or weights[start:stop + 1].sum() > budget
