"""Runtime verification suite: re-checks the library's core identities on
randomized instances and reports a pass/fail margin per property.

Each check returns the worst case it saw, with margin > 0 meaning the worst
case still cleared the bound by that much. The metric construction checks
accept a metric_builder hook so a deliberately broken builder (fault
injection) can demonstrate that the right property trips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataio import SyntheticSpec, generate_synthetic
from .metric import CurvaturePair, apply_inverse, build_metric, \
    metric_as_splitting
from .model import LossKind, SmoothObjective, full_gradient
from .oracles import dense_inverse, kkt_residual, subproblem_oracle
from .prox import RegKind, Regularizer, ScaledProxProblem, prox, \
    scaled_prox, scaled_prox_info
from .sampler import SamplingScheme, SchemeKind, _floyd_block, \
    enumerate_estimator_stats, make_rng, make_snapshot
from .solver import composite_value, reference_solution

MetricBuilder = Callable[[CurvaturePair, float, float], object]


@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str


def _random_spd(rng, d, lo, hi):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = lo + (hi - lo) * rng.random(d)
    return (q * eigs) @ q.T


def _random_metric(rng, d, builder, alpha=None):
    b = _random_spd(rng, d, 0.4, 4.0)
    s = rng.standard_normal(d)
    a = float(alpha if alpha is not None else 0.1 + 0.8 * rng.random())
    return builder(CurvaturePair(s, b @ s), a, 1e-8), b, s


def check_secant(builder: MetricBuilder = build_metric,
                 pairs: int = 300) -> CheckResult:
    rng = make_rng(101)
    worst = 0.0
    skipped = 0
    per_dim = max(1, pairs // 3)
    for d in (2, 8, 32):
        for _ in range(per_dim):
            m, b, s = _random_metric(rng, d, builder)
            if m.skipped:
                skipped += 1
                continue
            err = float(np.linalg.norm(apply_inverse(m, b @ s) - s))
            worst = max(worst, err / (1.0 + float(np.linalg.norm(s))))
    tol = 1e-10
    return CheckResult("secant_identity", worst <= tol, tol - worst,
                       f"worst relative error {worst:.3e} over "
                       f"{3 * per_dim - skipped} metrics ({skipped} skipped)")


def check_metric_bounds(builder: MetricBuilder = build_metric,
                        cases: int = 60) -> CheckResult:
    """sigma_max(H) <= d Lambda / alpha and 1/Lambda <= tau <= 1/lambda."""
    rng = make_rng(202)
    margin = math.inf
    worst = ""
    for k in range(cases):
        d = int(rng.integers(2, 33))
        b = _random_spd(rng, d, 0.3, 5.0)
        eigs = np.linalg.eigvalsh(b)
        lam, big = float(eigs[0]), float(eigs[-1])
        s = rng.standard_normal(d)
        alpha = 0.1 + 0.8 * float(rng.random())
        m = builder(CurvaturePair(s, b @ s), alpha, 1e-8)
        h = np.linalg.inv(dense_inverse(m))
        sig = float(np.linalg.eigvalsh(h)[-1])
        for gap, label in ((d * big / alpha + 1e-9 - sig, "sigma_max"),
                           (m.tau - 1.0 / big, "tau lower"),
                           (1.0 / lam - m.tau, "tau upper")):
            if gap < margin:
                margin, worst = gap, f"{label} at case {k} (d={d})"
    return CheckResult("metric_eigen_bounds", margin >= 0.0, margin,
                       f"tightest slack {margin:.3e} ({worst})")


def check_scaled_prox(cases: int = 40) -> CheckResult:
    rng = make_rng(303)
    worst_gap = 0.0
    worst_res = 0.0
    worst_kkt = 0.0
    for k in range(cases):
        d = 3 if k % 2 == 0 else 16
        diag = 0.3 + 2.7 * rng.random(d)
        u = rng.standard_normal(d)
        sign = -1.0 if k % 3 else 1.0
        if sign < 0:
            # keep D + sign uu' safely positive definite
            ratio = float(np.sum(u * u / diag))
            u *= math.sqrt((0.1 + 0.8 * rng.random()) / ratio)
        lam = float(rng.choice([0.0, 0.01, 0.3]))
        reg = Regularizer(RegKind.L1 if lam > 0 else RegKind.ZERO, lam)
        eta = 0.05 + 1.5 * float(rng.random())
        x = 3.0 * rng.standard_normal(d)
        problem = ScaledProxProblem(diag, u, sign, eta, x)
        y, info = scaled_prox_info(reg, problem)
        oracle = subproblem_oracle(reg, problem)
        worst_gap = max(worst_gap, float(np.linalg.norm(y - oracle)))
        if info.method != "closed":
            worst_res = max(worst_res, abs(info.residual))
        worst_kkt = max(worst_kkt, kkt_residual(reg, problem, y))
    ok = worst_gap <= 1e-8 and worst_res < 1e-10 and worst_kkt <= 1e-8
    return CheckResult(
        "scaled_prox_oracle", ok, 1e-8 - worst_gap,
        f"worst oracle gap {worst_gap:.3e}, root residual {worst_res:.3e}, "
        f"kkt residual {worst_kkt:.3e} over {cases} instances")


def check_nonexpansive(cases: int = 50, pairs_per: int = 10) -> CheckResult:
    rng = make_rng(404)
    margin = math.inf
    for _ in range(cases):
        d = int(rng.integers(2, 33))
        m, _, _ = _random_metric(rng, d, build_metric)
        diag, rank1, sign = metric_as_splitting(m)
        h = np.diag(diag) + sign * np.outer(rank1, rank1)
        eigs = np.linalg.eigvalsh(h)
        ratio = float(eigs[-1] / eigs[0])
        lam = float(rng.choice([0.0, 0.05, 0.5]))
        reg = Regularizer(RegKind.L1 if lam > 0 else RegKind.ZERO, lam)
        eta = 0.05 + float(rng.random())
        for _ in range(pairs_per):
            x = 2.0 * rng.standard_normal(d)
            y = x + rng.standard_normal(d) * float(rng.choice([1e-3, 1.0]))
            px = scaled_prox(reg, ScaledProxProblem(diag, rank1, sign, eta, x))
            py = scaled_prox(reg, ScaledProxProblem(diag, rank1, sign, eta, y))
            gap = ratio * float(np.linalg.norm(x - y)) \
                - float(np.linalg.norm(px - py))
            margin = min(margin, gap)
    return CheckResult("prox_nonexpansive", margin >= 0.0, margin,
                       f"tightest slack {margin:.3e} over "
                       f"{cases * pairs_per} pairs")


def _small_instance(rng, n, d, ridge, loss=LossKind.SQUARED_ERROR):
    spec = SyntheticSpec(n=n, d=d, density=min(1.0, max(2.0 / d, 0.6)),
                         condition=4.0, noise=0.3,
                         seed=int(rng.integers(0, 2 ** 31)), loss=loss)
    ds, _ = generate_synthetic(spec)
    return SmoothObjective.build(ds, loss, ridge)


def check_unbiased(pairs: int = 5, extended: bool = False) -> CheckResult:
    rng = make_rng(505)
    cases = [(6, SamplingScheme(SchemeKind.UNIFORM_BATCH, 2)),
             (8, SamplingScheme(SchemeKind.WEIGHTED_SINGLE, 1))]
    if extended:
        cases += [(6, SamplingScheme(SchemeKind.WEIGHTED_BATCH, 2)),
                  (5, SamplingScheme(SchemeKind.WEIGHTED_REPLACEMENT, 2))]
    worst = 0.0
    for n, scheme in cases:
        obj = _small_instance(rng, n, 4, 0.05)
        for _ in range(pairs):
            x = rng.standard_normal(obj.d)
            xt = rng.standard_normal(obj.d)
            stats = enumerate_estimator_stats(obj, make_snapshot(obj, xt),
                                              scheme, x)
            worst = max(worst, float(np.max(np.abs(
                stats.mean - full_gradient(obj, x)))))
    tol = 1e-12
    return CheckResult("estimator_unbiased", worst <= tol, tol - worst,
                       f"worst |mean(v) - grad F| {worst:.3e} over "
                       f"{len(cases)} schemes x {pairs} points")


def check_variance_bound(pairs: int = 10) -> CheckResult:
    """Second-moment bound for the Lipschitz-weighted estimator."""
    rng = make_rng(606)
    reg = Regularizer(RegKind.L1, 0.02)
    margin = math.inf
    cases = [(8, SamplingScheme(SchemeKind.WEIGHTED_SINGLE, 1)),
             (6, SamplingScheme(SchemeKind.WEIGHTED_BATCH, 2))]
    for n, scheme in cases:
        obj = _small_instance(rng, n, 4, 0.15)
        x_star, p_star = reference_solution(obj, reg, tol=1e-12)
        for _ in range(pairs):
            x = x_star + 0.5 * rng.standard_normal(obj.d)
            xt = x_star + 0.5 * rng.standard_normal(obj.d)
            stats = enumerate_estimator_stats(obj, make_snapshot(obj, xt),
                                              scheme, x)
            bound = 4.0 * obj.lipschitz_mean * (
                composite_value(obj, reg, x) - p_star
                + composite_value(obj, reg, xt) - p_star)
            margin = min(margin, bound - stats.mean_sq_deviation)
    return CheckResult("variance_bound", margin >= 0.0, margin,
                       f"tightest slack {margin:.3e} over "
                       f"{len(cases) * pairs} pairs")


def check_prox_identities() -> CheckResult:
    reg = Regularizer(RegKind.L1, 1.0)
    cases_ok = True
    detail = []
    out = prox(reg, np.array([3.0, -0.5, 0.0]), 1.0)
    if not np.array_equal(out, np.array([2.0, 0.0, 0.0])):
        cases_ok = False
        detail.append("soft-threshold closed form")
    z = np.array([1.5, -2.0, 0.25])
    zero = Regularizer(RegKind.ZERO, 0.0)
    if not np.array_equal(prox(zero, z, 0.7), z):
        cases_ok = False
        detail.append("zero regularizer identity")
    c = 2.5
    d = 4
    x = np.array([1.0, -0.3, 0.02, 5.0])
    scaled = scaled_prox(reg, ScaledProxProblem(
        np.full(d, c), np.zeros(d), 1.0, 0.9, x))
    if not np.array_equal(scaled, prox(reg, x, 0.9 / c)):
        cases_ok = False
        detail.append("scaled-identity reduction")
    return CheckResult("prox_identities", cases_ok, 0.0,
                       "all closed forms exact" if cases_ok
                       else "failed: " + ", ".join(detail))


def check_fixed_point(cases: int = 20) -> CheckResult:
    rng = make_rng(707)
    obj = _small_instance(rng, 30, 6, 0.2)
    reg = Regularizer(RegKind.L1, 0.05)
    x_star, _ = reference_solution(obj, reg, tol=1e-13)
    g_star = full_gradient(obj, x_star)
    worst = 0.0
    for _ in range(cases):
        m, _, _ = _random_metric(rng, obj.d, build_metric)
        diag, rank1, sign = metric_as_splitting(m)
        eta = 0.05 + float(rng.random())
        step = x_star - eta * apply_inverse(m, g_star)
        y = scaled_prox(reg, ScaledProxProblem(diag, rank1, sign, eta, step))
        worst = max(worst, float(np.linalg.norm(y - x_star)))
    tol = 1e-9
    return CheckResult("update_fixed_point", worst <= tol, tol - worst,
                       f"worst displacement at optimum {worst:.3e} over "
                       f"{cases} metrics")


def _subset_counts(rng, n: int, b: int, draws: int) -> dict[tuple, int]:
    """How often each size-b subset comes out of `draws` uniform batches,
    drawn by the route the sampler takes for a whole epoch."""
    rows = _floyd_block(rng, n, b, draws)
    keys, counts = np.unique(rows, axis=0, return_counts=True)
    return dict(zip(map(tuple, keys.tolist()), counts.tolist()))


def check_floyd_frequencies(draws: int = 150000) -> CheckResult:
    """Uniform n=6, b=2 subsets: each of the 15 subsets near 1/15."""
    counts = _subset_counts(make_rng(808), 6, 2, draws)
    p = 1.0 / 15.0
    sigma = math.sqrt(draws * p * (1.0 - p))
    if len(counts) != 15:
        return CheckResult("floyd_frequencies", False, -math.inf,
                           f"only {len(counts)} of 15 subsets seen")
    dev = max(abs(c - draws * p) for c in counts.values())
    return CheckResult("floyd_frequencies", dev <= 3.0 * sigma,
                       3.0 * sigma - dev,
                       f"max deviation {dev:.0f} vs 3 sigma = {3 * sigma:.0f}")


def run_checks(level: str = "fast",
               metric_builder: MetricBuilder = build_metric
               ) -> list[CheckResult]:
    """Run the registered property checks; `full` scales counts up and adds
    the exhaustive-enumeration and sampling-frequency checks."""
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    full = level == "full"
    results = [
        check_secant(metric_builder, pairs=1000 if full else 300),
        check_metric_bounds(metric_builder, cases=200 if full else 60),
        check_scaled_prox(cases=200 if full else 40),
        check_nonexpansive(cases=50 if full else 15),
        check_unbiased(pairs=20 if full else 5, extended=full),
        check_variance_bound(pairs=25 if full else 8),
        check_prox_identities(),
        check_fixed_point(cases=30 if full else 10),
    ]
    if full:
        results.append(check_floyd_frequencies())
    return results
