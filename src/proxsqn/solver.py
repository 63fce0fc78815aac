"""Composite-objective solvers: the stochastic quasi-Newton method and baselines.

ProxSQN epoch structure (epochs s = 1..S, inner iterations j = 0..m-1, global
1-based counter g = (s-1)m + j + 1):

  * each epoch snapshots xt = previous epoch average and its full gradient;
  * after the snapshot the epoch's m gradient batches are drawn at once,
    the same words of the same stream as one draw per step, and their rows
    are gathered in blocks, with the estimator's snapshot terms, as the
    steps consume them;
  * each inner step takes its batch, forms the variance-reduced estimate v,
    and updates by a plain prox step during warmup (g <= 2Z) or by the
    scaled prox step x+ = prox_{eta R}^{H}(x - eta H^{-1} v) afterwards;
  * every Z global iterations the trailing window of Z inner points is
    averaged; the first trigger only seeds the anchor, each later trigger
    forms s_r = xhat_r - xhat_{r-1}, takes the next uniform Hessian batch
    T_r of size b_H (drawn ahead in blocks), sets y_r = (sum-batch Hessian
    at xhat_r) s_r, and rebuilds the metric, so the first metric exists
    exactly when warmup ends at g = 2Z;
  * the epoch ends with x reset to the inner-iterate average xt_s, which is
    also the traced point.

ProxSVRG is the same loop without the metric, and keeps no window. Hessian
batches come from a stream of their own, so ProxSQN and ProxSVRG draw the
same gradient batches.
ProxGD (ISTA), FISTA and reference_solution share one full-gradient
proximal-gradient iteration, with FISTA momentum and function-value restart
as internal switches; a dense-Hessian proximal Newton is the last baseline.
"""

from __future__ import annotations

import enum
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DivergenceError, NegativeCurvatureError
from .metric import MetricBounds, CurvaturePair, Metric, apply_inverse, \
    build_metric, metric_as_splitting
from .model import LOSSES, SmoothObjective, dense_batch_hessian, \
    full_gradient, hessian_vec, smooth_value
from . import prox as prox_module
from .prox import Regularizer, ScaledProxProblem, prox, reg_value
from .sampler import Sampler, SamplingScheme, SchemeKind, _floyd_block, \
    check_seed, make_rng, make_snapshot, vr_gradient

_DIVERGENCE_FACTOR = 1e3


class SolverKind(enum.Enum):
    PROX_SQN = "prox_sqn"
    PROX_SVRG = "prox_svrg"
    PROX_GD = "prox_gd"
    FISTA = "fista"
    PROX_NEWTON_FULL = "prox_newton_full"


@dataclass
class SolverConfig:
    kind: SolverKind = SolverKind.PROX_SQN
    epochs: int = 20
    eta: float = 0.05
    m: int = 1000                 # inner iterations per epoch (SQN/SVRG)
    b: int = 10                   # gradient batch size
    b_hessian: int = 50           # Hessian batch size b_H
    metric_period: int = 10       # Z
    alpha: float = 0.5
    skip_eps: float = 1e-8
    scheme: SchemeKind = SchemeKind.UNIFORM_BATCH
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.m < 1 or self.metric_period < 1:
            raise ValueError("epochs, m, Z must all be >= 1")
        # written so that nan fails too
        if not 0.0 < self.eta < math.inf:
            raise ValueError("eta must be > 0 and finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 <= self.skip_eps < math.inf:
            raise ValueError("skip_eps must be >= 0 and finite")
        if self.b < 1 or self.b_hessian < 1:
            raise ValueError("batch sizes must be >= 1")
        check_seed(self.seed)


@dataclass
class TraceRecord:
    epoch: int
    iteration: int
    objective: float
    subopt: float | None
    grad_evals: int
    metric_rebuilds: int
    elapsed_ns: int


@dataclass(eq=False)
class RunResult:
    x: np.ndarray
    records: list[TraceRecord]
    grad_evals: int
    metric_rebuilds: int
    anomalies: int
    scaled_prox_calls: int
    first_scaled_iteration: int | None


def composite_value(obj: SmoothObjective, reg: Regularizer,
                    x: np.ndarray) -> float:
    """P(x) = F(x) + R(x)."""
    return smooth_value(obj, x) + reg_value(reg, x)


def run(obj: SmoothObjective, reg: Regularizer, config: SolverConfig,
        p_star: float | None = None) -> RunResult:
    """Run one solver to completion, emitting one trace record per epoch."""
    kind = config.kind
    if kind in (SolverKind.PROX_SQN, SolverKind.PROX_SVRG):
        return _run_inner_loop(obj, reg, config, p_star)
    if kind in (SolverKind.PROX_GD, SolverKind.FISTA):
        return _run_full_gradient(obj, reg, config, p_star,
                                  momentum=kind is SolverKind.FISTA)
    if kind is SolverKind.PROX_NEWTON_FULL:
        return _run_prox_newton(obj, reg, config, p_star)
    raise ValueError(f"unknown solver kind {kind}")


def _recorder(obj, reg, p_star):
    """(records, record): record(...) evaluates P(x), raises DivergenceError
    past the guard, and appends a TraceRecord."""
    t0 = time.perf_counter_ns()
    p_init = composite_value(obj, reg, np.zeros(obj.d))
    limit = _DIVERGENCE_FACTOR * max(abs(p_init), 1.0)
    records = []

    def record(epoch, iteration, x, grad_evals, rebuilds):
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            p_val = composite_value(obj, reg, x)
        if not math.isfinite(p_val) or p_val > limit:
            raise DivergenceError(
                f"objective {p_val:.6g} exceeded "
                f"{_DIVERGENCE_FACTOR:g} x initial {p_init:.6g}")
        records.append(TraceRecord(
            epoch, iteration, p_val,
            None if p_star is None else p_val - p_star,
            grad_evals, rebuilds, time.perf_counter_ns() - t0))

    return records, record


def _run_inner_loop(obj, reg, config, p_star):
    use_metric = config.kind is SolverKind.PROX_SQN
    d = obj.d
    x = np.zeros(d)
    records, record = _recorder(obj, reg, p_star)
    scheme = SamplingScheme(config.scheme, config.b, config.seed)
    # independent streams for gradient batches and Hessian batches, so the
    # gradient stream is identical whether or not metric rebuilding runs
    sampler = Sampler(obj, scheme)
    Z = config.metric_period
    hess_batches = _hessian_batches(
        make_rng(config.seed ^ 0x9E3779B97F4A7C15), obj.n,
        min(config.b_hessian, obj.n), min(config.m // Z + 1, 256))
    eta = config.eta
    window = np.zeros((Z, d))
    xhat_prev: np.ndarray | None = None
    metric: Metric | None = None
    # one problem object per metric: the (diag, rank1, sign) part is
    # validated at rebuild time; per step the query point is written into
    # its row `point` and the Newton start is the previous root
    prox_prob: ScaledProxProblem | None = None
    point = np.zeros(d)
    grad_evals = 0
    rebuilds = 0
    anomalies = 0
    scaled_calls = 0
    first_scaled: int | None = None
    for s in range(1, config.epochs + 1):
        # one errstate per epoch, not per step: x may overflow or turn nan
        # inside an epoch, and the anchor and epoch-end guards raise on it
        with np.errstate(over="ignore", invalid="ignore"):
            snapshot = make_snapshot(obj, x)
            grad_evals += obj.n
            xsum = np.zeros(d)
            # the epoch's m gradient batches: the words of m draw() calls
            batches = sampler.draw_epoch(config.m, snapshot)
            for j, batch in enumerate(batches):
                g = (s - 1) * config.m + j + 1
                if use_metric:
                    window[(g - 1) % Z] = x
                v = vr_gradient(obj, snapshot, batch, x)
                grad_evals += (obj.n if batch.full
                               else 2 * batch.indices.size)
                # x - eta * (...) in place, bit for bit: v is this step's
                # own array, and the scaled step's point is overwritten
                # every step
                if metric is None:
                    np.subtract(x, np.multiply(v, eta, out=v), out=v)
                    x = prox(reg, v, eta)
                else:
                    np.subtract(x, np.multiply(apply_inverse(metric, v),
                                               eta, out=point), out=point)
                    # through the module, so that wrappers of
                    # scaled_prox_info (the benchmark's tracer) see every call
                    x, info = prox_module.scaled_prox_info(reg, prox_prob)
                    prox_prob.beta0 = info.beta
                    scaled_calls += 1
                    if first_scaled is None:
                        first_scaled = g
                xsum += x
                if not (use_metric and g % Z == 0):
                    continue
                xhat = window.mean(axis=0)
                if xhat_prev is None:
                    xhat_prev = xhat
                    continue
                sr, xhat_prev = xhat - xhat_prev, xhat
                # the norms and the splitting are checked for finiteness
                # right after they are made: a diverging run raises here
                sr_norm = float(np.linalg.norm(sr))
                xhat_norm = float(np.linalg.norm(xhat))
                # a non-finite xhat at the first anchor shows up in s_r
                if not math.isfinite(sr_norm + xhat_norm):
                    raise DivergenceError(
                        f"anchor point or step not finite at iteration {g}")
                if sr_norm <= 1e-14 * (1.0 + xhat_norm):
                    anomalies += 1
                    continue
                yr = hessian_vec(obj, next(hess_batches), xhat, sr)
                try:
                    metric = build_metric(CurvaturePair(sr, yr),
                                          config.alpha, config.skip_eps)
                except NegativeCurvatureError:
                    anomalies += 1
                    continue
                if metric.anomalous:
                    anomalies += 1
                diag, rank1, sign = metric_as_splitting(metric)
                # a non-finite y_r, or products of s_r and y_r that overflow,
                # leave 1/(alpha tau) or u inf/nan
                if not (np.isfinite(diag).all() and diag.all()
                        and np.isfinite(rank1).all()):
                    raise DivergenceError(
                        f"curvature pair not finite at iteration {g}")
                prox_prob = ScaledProxProblem(diag, rank1, sign, eta,
                                              point)
                rebuilds += 1
            x = xsum / config.m
        record(s, s * config.m, x, grad_evals, rebuilds)
    return RunResult(x, records, grad_evals, rebuilds, anomalies,
                     scaled_calls, first_scaled)


def _hessian_batches(rng, n, b, rows):
    """Uniform size-b subsets of range(n), one per next(), drawn `rows` at
    a time by _floyd_block: the words of one _floyd_sample call each. The
    stream is one run's own, and an anchor that skips its rebuild takes no
    subset, so drawing ahead moves no subset of any rebuild."""
    while True:
        yield from _floyd_block(rng, n, b, rows)


def _prox_gradient(obj, reg, eta, momentum=False, restart=False):
    """Yield x+ = prox_{eta R}(y - eta grad F(y)) from x = 0, where y is the
    last iterate or, with momentum, the FISTA extrapolation; restart drops
    the momentum whenever P increases (evaluated only for that test)."""
    x = y = np.zeros(obj.d)
    t = 1.0
    p_prev = math.inf
    while True:
        x_next = prox(reg, y - eta * full_gradient(obj, y), eta)
        yield x_next
        p_val = composite_value(obj, reg, x_next) if restart else -math.inf
        if not momentum or p_val > p_prev:
            t = 1.0
            y = x_next
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_next + ((t - 1.0) / t_next) * (x_next - x)
            t = t_next
        p_prev = p_val
        x = x_next


def _run_full_gradient(obj, reg, config, p_star, momentum):
    """ProxGD (ISTA), or FISTA with momentum: one full gradient per epoch."""
    records, record = _recorder(obj, reg, p_star)
    steps = _prox_gradient(obj, reg, config.eta, momentum)
    for k, x in zip(range(1, config.epochs + 1), steps):
        record(k, k, x, k * obj.n, 0)
    return RunResult(x, records, config.epochs * obj.n, 0, 0, 0, None)


def _run_prox_newton(obj, reg, config, p_star):
    """Dense-Hessian proximal Newton: x+ = prox_{eta R}^{H}(x - eta H^{-1} g).

    The L1 subproblem is solved by an inner accelerated proximal-gradient
    loop on the quadratic model; with no regularizer the step is the exact
    damped Newton solve. d above the dense Hessian's limit raises ValueError.
    """
    x = np.zeros(obj.d)
    records, record = _recorder(obj, reg, p_star)
    all_rows = np.arange(obj.n, dtype=np.int64)
    for k in range(1, config.epochs + 1):
        g = full_gradient(obj, x)
        H = dense_batch_hessian(obj, all_rows, x) / obj.n
        if reg.lambda1 == 0.0:
            x = x - config.eta * np.linalg.solve(H, g)
        else:
            x = _newton_subproblem(H, g, x, reg, config.eta)
        record(k, k, x, k * obj.n, k)
    return RunResult(x, records, config.epochs * obj.n, config.epochs, 0, 0,
                     None)


def _newton_subproblem(H, g, x, reg, eta, tol=1e-12, max_iter=20000):
    """argmin_y g'(y-x) + (1/(2 eta)) ||y-x||_H^2 + R(y) by FISTA."""
    sigma = float(np.linalg.eigvalsh(H)[-1]) / eta
    c = x - eta * np.linalg.solve(H, g)  # unconstrained minimizer
    y = x.copy()
    z = y.copy()
    t = 1.0
    thresh = reg.lambda1 / sigma
    for _ in range(max_iter):
        grad = (H @ (z - c)) / eta
        y_next = prox_module._soft_threshold(z - grad / sigma, -thresh, thresh)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = y_next + ((t - 1.0) / t_next) * (y_next - y)
        if float(np.linalg.norm(y_next - y)) <= tol * (1.0 + float(np.linalg.norm(y))):
            return y_next
        y, t = y_next, t_next
    return y


@dataclass
class RateReport:
    """Linear-rate certificate for the inner/outer loop geometry."""

    eta_max: float
    rho: float
    feasible: bool
    m_min: int | None


def rate_plan(bounds: MetricBounds, l_q: float, mu: float, m: int,
              eta: float) -> RateReport:
    """Evaluate the linear-rate certificate for given metric bounds.

        eta_max = gamma^2 / (8 Gamma L_Q)
        rho = [Gamma gamma^2 + 4 eta^2 mu Gamma L_Q (m+1)]
              / [(eta gamma^2 - 4 eta^2 Gamma L_Q) mu m]

    feasible means 0 < rho < 1 at the given (eta, m). m_min is the smallest
    m with rho < 1 at this eta (None when eta >= eta_max, where no m works).
    """
    if bounds.degenerate:
        raise ValueError("degenerate metric bounds cannot be planned")
    if l_q <= 0.0 or mu <= 0.0 or m < 1 or eta <= 0.0:
        raise ValueError("need l_q > 0, mu > 0, m >= 1, eta > 0")
    gam, big = bounds.gamma, bounds.big_gamma
    eta_max = gam * gam / (8.0 * big * l_q)

    def rho_of(mm):
        denom = (eta * gam * gam - 4.0 * eta * eta * big * l_q) * mu * mm
        if denom <= 0.0:
            return math.inf
        num = big * gam * gam + 4.0 * eta * eta * mu * big * l_q * (mm + 1)
        return num / denom

    rho = rho_of(m)
    feasible = 0.0 < rho < 1.0
    m_min = None
    if eta < eta_max:
        lo, hi = 1, 1
        while rho_of(hi) >= 1.0:
            hi *= 2
            if hi > 10 ** 15:
                hi = None
                break
        if hi is not None:
            while lo < hi:
                mid = (lo + hi) // 2
                if rho_of(mid) < 1.0:
                    hi = mid
                else:
                    lo = mid + 1
            m_min = lo
    return RateReport(eta_max, rho, feasible, m_min)


def estimate_smoothness(obj: SmoothObjective, iters: int = 200,
                        seed: int = 0) -> float:
    """Upper bound on L_F = sigma_max(hess F) by power iteration.

    Squared error uses the exact Gram operator; logistic uses the global
    curvature bound (1/4) A'A / n + ridge.
    """
    A = obj.dataset.to_csr()
    scale = LOSSES[obj.loss].curvature_bound
    rng = make_rng(seed)
    v = rng.standard_normal(obj.d)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = scale * (A.T @ (A @ v)) / obj.n + obj.ridge * v
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return obj.ridge
        v = w / lam
    return 1.01 * lam + 1e-12


def reference_solution(obj: SmoothObjective, reg: Regularizer,
                       tol: float = 1e-12,
                       max_iter: int = 1000000) -> tuple[np.ndarray, float]:
    """High-accuracy minimizer by restarted accelerated proximal gradient.

    Stops when the fixed-point residual ||x - prox_{eta R}(x - eta grad F)||
    / eta falls below tol. Raises ValueError on a negative or non-finite
    tol, and ConvergenceError at the iteration cap or on a non-finite
    smoothness estimate or residual.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be >= 0 and finite")
    smoothness = estimate_smoothness(obj)
    if not math.isfinite(smoothness):
        raise ConvergenceError(f"non-finite smoothness estimate {smoothness}")
    eta = 1.0 / smoothness
    steps = _prox_gradient(obj, reg, eta, momentum=True, restart=True)
    for x in itertools.islice(steps, max_iter):
        fp = prox(reg, x - eta * full_gradient(obj, x), eta)
        residual = float(np.linalg.norm(x - fp)) / eta
        if residual <= tol:
            return x, composite_value(obj, reg, x)
        if not math.isfinite(residual):
            raise ConvergenceError(
                f"reference solution hit a non-finite residual {residual}")
    raise ConvergenceError(
        f"reference solution did not reach tol={tol} in {max_iter} iterations"
    )
