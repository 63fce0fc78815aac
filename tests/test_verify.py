import dataclasses

import pytest

from floyd_oracle import floyd_sample
from proxsqn import build_metric, make_rng
from proxsqn.verify import _subset_counts, check_floyd_frequencies, run_checks

FAST_NAMES = [
    "secant_identity",
    "metric_eigen_bounds",
    "scaled_prox_oracle",
    "prox_nonexpansive",
    "estimator_unbiased",
    "variance_bound",
    "prox_identities",
    "update_fixed_point",
]


def test_fast_level_all_pass():
    results = run_checks("fast")
    assert [r.name for r in results] == FAST_NAMES
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
        assert r.margin >= 0.0
        assert r.detail


def test_full_level_adds_frequency_check():
    results = run_checks("full")
    assert [r.name for r in results] == FAST_NAMES + ["floyd_frequencies"]
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


def test_frequency_check_counts_the_floyd_sample_loop():
    # the check draws by the epoch route; its counts are the loop's own
    rng = make_rng(808)
    loop: dict[tuple, int] = {}
    for _ in range(150000):
        key = tuple(floyd_sample(rng, 6, 2).tolist())
        loop[key] = loop.get(key, 0) + 1
    assert _subset_counts(make_rng(808), 6, 2, 150000) == loop


def test_frequency_check_fails_when_subsets_are_missing():
    result = check_floyd_frequencies(draws=10)
    assert not result.passed
    assert "of 15 subsets" in result.detail


def test_bad_level_rejected():
    with pytest.raises(ValueError, match="fast.*full"):
        run_checks("paranoid")


def test_fault_injection_trips_secant_check():
    # a builder whose inverse is wrong by 1e-3 in the rank-one direction
    # must fail the secant identity and nothing else
    def broken(pair, alpha, eps=1e-8):
        m = build_metric(pair, alpha, eps)
        if m.skipped:
            return m
        return dataclasses.replace(m, u=m.u + 1e-3)

    results = run_checks("fast", metric_builder=broken)
    by_name = {r.name: r for r in results}
    assert not by_name["secant_identity"].passed
    assert by_name["secant_identity"].margin < 0.0
    for name, r in by_name.items():
        if name != "secant_identity":
            assert r.passed, f"{name} should survive the fault: {r.detail}"
