"""The gain and bound rules of tools/ab.py, on fixed numbers."""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
from ab import bound_label, quartiles, rules, verdict  # noqa: E402

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


def test_bound_label_worse_past_the_bound():
    # parent median 2.0, IQR 0.085: 25% of it is 0.5
    assert bound_label(PARENT, [x + 0.6 for x in PARENT], 0.25) == "worse"
    assert bound_label(PARENT, [x + 0.4 for x in PARENT], 0.25) == "ok"
    assert bound_label(PARENT, [x - 0.6 for x in PARENT], 0.25) == "ok"


def test_bound_label_higher_is_better_flips_the_sign():
    lower = [x - 0.6 for x in PARENT]
    assert bound_label(PARENT, lower, 0.25, better="higher") == "worse"
    assert bound_label(PARENT, [x + 0.6 for x in PARENT], 0.25,
                       better="higher") == "ok"


def test_bound_label_unresolved_when_the_parent_spreads_past_it():
    # IQR 0.085 on a median of 2.0 is 4.25%: a 4% bound cannot resolve it
    assert bound_label(PARENT, PARENT, 0.04) == "unresolved"
    assert bound_label(PARENT, PARENT, 0.05) == "ok"
    # a change past the bound is reported worse all the same
    assert bound_label(PARENT, [x + 0.1 for x in PARENT], 0.04) == "worse"


def test_rules_read_directions_and_bounds_from_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better, bounds = rules(json.load(f))
    assert better["metric.rebuilds"] == "higher"
    assert better["prox.scaled_us"] == "lower"
    assert better["setup_s"] == "lower"
    assert bounds["setup_s"] == 0.25
    assert bounds["sqn.evals_1e-6"] == 0.05
    assert "metric.rebuilds" not in bounds
