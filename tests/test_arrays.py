import numpy as np
import pytest

from cbirkit._arrays import fault_rule, first_fault, repeats

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
