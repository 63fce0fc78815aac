"""The gain rule of tools/ab.py, on fixed numbers."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))
from ab import quartiles, verdict  # noqa: E402

PARENT = [2.00, 2.10, 1.90, 2.05, 1.95, 2.02, 1.98, 2.08, 1.92, 2.00]


def test_quartiles_inclusive():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_clear_gain_wins_every_pair():
    change = [x - 0.7 for x in PARENT]
    assert verdict(PARENT, change) == (10, True)


def test_nine_of_ten_is_enough_but_eight_is_not():
    nine = [x - 0.7 for x in PARENT[:9]] + [PARENT[9] + 0.1]
    assert verdict(PARENT, nine) == (9, True)
    eight = [x - 0.7 for x in PARENT[:8]] + [x + 0.1 for x in PARENT[8:]]
    assert verdict(PARENT, eight) == (8, False)


def test_ties_count_for_neither_side():
    change = [x - 0.7 for x in PARENT[:9]] + [PARENT[9]]
    assert verdict(PARENT, change) == (9, True)


def test_a_gap_inside_the_parent_spread_is_no_gain():
    # the parent's quartiles are 1.9575 and 2.0425 (IQR 0.085); every pair
    # is won, by less than that
    change = [x - 0.05 for x in PARENT]
    assert verdict(PARENT, change) == (10, False)
    change = [x - 0.1 for x in PARENT]
    assert verdict(PARENT, change) == (10, True)


def test_higher_is_better_flips_the_sign():
    change = [x + 0.7 for x in PARENT]
    assert verdict(PARENT, change, better="higher") == (10, True)
    assert verdict(PARENT, change) == (0, False)


def test_fewer_than_ten_pairs_claim_nothing():
    assert verdict(PARENT[:9], [x - 0.7 for x in PARENT[:9]]) == (9, False)


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:9])
    with pytest.raises(ValueError):
        verdict([], [])
