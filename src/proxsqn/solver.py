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
  * _Curvature owns the anchors and the metric: every Z global iterations
    it averages the points that the last Z steps started from; the first
    trigger only seeds the anchor, each later trigger forms s_r = xhat_r -
    xhat_{r-1}, takes the next uniform Hessian batch T_r of size b_H (drawn
    ahead in blocks), sets y_r = (sum-batch Hessian at xhat_r) s_r, and
    rebuilds the metric, so the first metric exists exactly when warmup
    ends at g = 2Z;
  * the epoch ends with x reset to the inner-iterate average xt_s, which is
    also the traced point.

ProxSVRG is the same loop without the metric: its _Curvature never updates.
Hessian batches come from a stream of their own, so ProxSQN and ProxSVRG
draw the same gradient batches.
All four full-gradient iterations share one proximal-gradient loop, with
FISTA momentum and function-value restart as switches: ProxGD (ISTA), FISTA
and reference_solution pass it the forward-backward map, and the
dense-Hessian proximal Newton baseline its L1 subproblem's map.
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
    """Run one solver to completion, emitting one trace record per epoch
    (per iteration for the full-gradient solvers)."""
    kind, eta = config.kind, config.eta
    if kind in (SolverKind.PROX_SQN, SolverKind.PROX_SVRG):
        return _run_inner_loop(obj, reg, config, p_star)
    if kind in (SolverKind.PROX_GD, SolverKind.FISTA):
        steps = _prox_gradient(_forward_backward(obj, reg, eta),
                               np.zeros(obj.d), kind is SolverKind.FISTA)
        rebuilds = 0
    elif kind is SolverKind.PROX_NEWTON_FULL:
        steps, rebuilds = _prox_newton(obj, reg, eta), 1
    else:
        raise ValueError(f"unknown solver kind {kind}")
    records, record = _recorder(obj, reg, p_star)
    for k, x in zip(range(1, config.epochs + 1), steps):
        record(k, k, x, k * obj.n, k * rebuilds)
    return RunResult(x, records, config.epochs * obj.n,
                     config.epochs * rebuilds, 0, 0, None)


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
    # ProxSVRG never updates the curvature block, so it keeps no metric
    sqn, curv = config.kind is SolverKind.PROX_SQN, _Curvature(obj, config)
    x = np.zeros(obj.d)
    records, record = _recorder(obj, reg, p_star)
    sampler = Sampler(obj, SamplingScheme(config.scheme, config.b,
                                          config.seed))
    eta = config.eta
    grad_evals = 0
    scaled_calls = 0
    first_scaled: int | None = None
    for s in range(1, config.epochs + 1):
        # one errstate per epoch, not per step: x may overflow or turn nan
        # inside an epoch, and the anchor and epoch-end guards raise on it
        with np.errstate(over="ignore", invalid="ignore"):
            snapshot = make_snapshot(obj, x)
            grad_evals += obj.n
            xsum = np.zeros(obj.d)
            # the epoch's m gradient batches: the words of m draw() calls
            batches = sampler.draw_epoch(config.m, snapshot)
            for j, batch in enumerate(batches):
                g = (s - 1) * config.m + j + 1
                v = vr_gradient(obj, batch, x)
                grad_evals += (obj.n if batch.full
                               else 2 * batch.indices.size)
                # x - eta * (...) in place, bit for bit: v is this step's
                # own array, and the scaled step's point is overwritten
                # every step
                if curv.metric is None:
                    np.subtract(x, np.multiply(v, eta, out=v), out=v)
                    y = prox(reg, v, eta)
                else:
                    prob = curv.problem
                    np.subtract(x, np.multiply(apply_inverse(curv.metric, v),
                                               eta, out=prob.x), out=prob.x)
                    # via the module, so the benchmark's tracer sees every call
                    y, info = prox_module.scaled_prox_info(reg, prob)
                    prob.beta0 = info.beta
                    scaled_calls += 1
                    if first_scaled is None:
                        first_scaled = g
                xsum += y
                if sqn:
                    curv.update(g, x)
                x = y
            x = xsum / config.m
        record(s, s * config.m, x, grad_evals, curv.rebuilds)
    return RunResult(x, records, grad_evals, curv.rebuilds, curv.anomalies,
                     scaled_calls, first_scaled)


class _Curvature:
    """The anchors and the metric of one ProxSQN run, on the schedule of the
    module docstring; update(g, x) takes step g's start point. A rebuild
    makes a metric, counts an anomaly (tiny s_r, no positive curvature, or a
    splitting that rounds to indefinite) or raises DivergenceError."""

    def __init__(self, obj, config):
        self.obj, self.config = obj, config
        Z = config.metric_period
        self.window = np.zeros((Z, obj.d))
        self.xhat_prev: np.ndarray | None = None
        # the Hessian batches: uniform size-b_H subsets from a stream of
        # their own, so the gradient batches are ProxSVRG's. They are drawn
        # ahead, rows at a time; an anchor that skips its rebuild takes no
        # subset, so drawing ahead moves no subset of any rebuild.
        rng = make_rng(config.seed ^ 0x9E3779B97F4A7C15)
        b, rows = min(config.b_hessian, obj.n), min(config.m // Z + 1, 256)
        self.batches = (T for _ in itertools.count()
                        for T in _floyd_block(rng, obj.n, b, rows))
        self.metric: Metric | None = None
        # one problem per metric, all on the row x; beta0 is the last root
        self.problem: ScaledProxProblem | None = None
        self.point = np.zeros(obj.d)
        self.rebuilds = self.anomalies = 0

    def update(self, g, x):
        Z = len(self.window)
        self.window[(g - 1) % Z] = x
        if g % Z:
            return
        xhat = self.window.mean(axis=0)
        if self.xhat_prev is None:
            self.xhat_prev = xhat
            return
        sr, self.xhat_prev = xhat - self.xhat_prev, xhat
        # the norms and the splitting are checked for finiteness right
        # after they are made: a diverging run raises here
        sr_norm = float(np.linalg.norm(sr))
        xhat_norm = float(np.linalg.norm(xhat))
        # a non-finite xhat at the first anchor shows up in s_r
        if not math.isfinite(sr_norm + xhat_norm):
            raise DivergenceError(
                f"anchor point or step not finite at iteration {g}")
        if sr_norm <= 1e-14 * (1.0 + xhat_norm):
            self.anomalies += 1
            return
        yr = hessian_vec(self.obj, next(self.batches), xhat, sr)
        try:
            metric = build_metric(CurvaturePair(sr, yr), self.config.alpha,
                                  self.config.skip_eps)
            diag, rank1, sign = metric_as_splitting(metric)
            # a non-finite y_r, or products of s_r and y_r that overflow,
            # leave 1/(alpha tau) or u inf/nan
            if not (np.isfinite(diag).all() and diag.all()
                    and np.isfinite(rank1).all()):
                raise DivergenceError(
                    f"curvature pair not finite at iteration {g}")
            problem = ScaledProxProblem(diag, rank1, sign, self.config.eta,
                                        self.point)
        except NegativeCurvatureError:
            self.anomalies += 1
            return
        self.metric, self.problem = metric, problem
        self.rebuilds += 1


def _forward_backward(obj, reg, eta):
    """The map y -> prox_{eta R}(y - eta grad F(y)); prox and full_gradient
    are looked up at call time, so that wrappers of them see every call."""
    return lambda y: prox(reg, y - eta * full_gradient(obj, y), eta)


def _prox_gradient(step, x, momentum=False, value=None):
    """Yield x+ = step(y) from x, where y is the last iterate or, with
    momentum, the FISTA extrapolation; with value, the momentum restarts
    whenever value(x+) increases (evaluated only for that test)."""
    y, t, p_prev = x, 1.0, math.inf
    while True:
        x_next = step(y)
        yield x_next
        p_val = -math.inf if value is None else value(x_next)
        if not momentum or p_val > p_prev:
            t = 1.0
            y = x_next
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_next + ((t - 1.0) / t_next) * (x_next - x)
            t = t_next
        p_prev = p_val
        x = x_next


def _prox_newton(obj, reg, eta, tol=1e-12, max_iter=20000):
    """Yield dense-Hessian proximal Newton iterates x+ = prox_{eta R}^{H}(x
    - eta H^{-1} g) from x = 0. The L1 subproblem, argmin_y g'(y-x) +
    ||y-x||_H^2 / (2 eta) + R(y), is FISTA on the quadratic model from x,
    stopped when successive iterates agree to tol or after max_iter steps;
    with no regularizer the step is the exact damped Newton solve. d above
    the dense Hessian's limit raises ValueError."""
    x = np.zeros(obj.d)
    all_rows = np.arange(obj.n, dtype=np.int64)
    while True:
        g = full_gradient(obj, x)
        H = dense_batch_hessian(obj, all_rows, x) / obj.n
        c = x - eta * np.linalg.solve(H, g)  # unconstrained minimizer
        if reg.lambda1 == 0.0:
            x = c
        else:
            sigma = float(np.linalg.eigvalsh(H)[-1]) / eta
            thresh = reg.lambda1 / sigma
            steps = _prox_gradient(lambda z: prox_module._soft_threshold(
                z - ((H @ (z - c)) / eta) / sigma, -thresh, thresh), x,
                momentum=True)
            for y in itertools.islice(steps, max_iter):
                x_prev, x = x, y
                if float(np.linalg.norm(y - x_prev)) <= tol * (
                        1.0 + float(np.linalg.norm(x_prev))):
                    break
        yield x


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
    m with rho < 1 at this eta, or None when eta >= eta_max (no m works) or
    when it exceeds 2^49, where the doubling search stops.
    """
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


def estimate_smoothness(obj: SmoothObjective) -> float:
    """Upper bound on L_F = sigma_max(hess F) by the Lanczos recurrence.

    Squared error uses the exact Gram operator; logistic uses the global
    curvature bound (1/4) A'A / n + ridge. The three-term recurrence runs
    from a seeded unit vector, in O(d) memory, until the top Ritz value
    theta <= L_F settles to 1e-12, the Krylov space closes or min(d, 200)
    products; it returns 1.01 theta + 1e-12.
    """
    A = obj.dataset.to_csr()
    scale = LOSSES[obj.loss].curvature_bound
    v = make_rng(0).standard_normal(obj.d)
    v /= np.linalg.norm(v)
    alphas, betas = [], []
    v_prev, beta, theta = 0.0, 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(min(obj.d, 200)):
            w = scale * (A.T @ (A @ v)) / obj.n + obj.ridge * v
            norm = float(np.linalg.norm(w))
            # an overflowed product (inf or nan) is returned as it is; a
            # first one that underflows to 0 leaves the ridge
            if not norm < math.inf or k == 0 and norm == 0.0:
                return obj.ridge if norm == 0.0 else norm
            alphas.append(float(v @ w))
            w -= alphas[-1] * v
            w -= beta * v_prev
            prev, theta = theta, float(np.linalg.eigvalsh(
                np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))[-1])
            beta = float(np.linalg.norm(w))
            if abs(theta - prev) <= 1e-12 * theta or beta <= 1e-14 * theta:
                break
            betas.append(beta)
            v_prev, v = v, w / beta
    return 1.01 * theta + 1e-12


def reference_solution(obj: SmoothObjective, reg: Regularizer,
                       tol: float = 1e-12,
                       max_iter: int = 1000000) -> tuple[np.ndarray, float]:
    """High-accuracy minimizer by restarted accelerated proximal gradient.

    Stops when the fixed-point residual ||x - prox_{eta R}(x - eta grad F)||
    / eta falls below tol. Raises ValueError on a negative or non-finite
    tol, and ConvergenceError at the iteration cap, on a smoothness
    estimate outside (0, inf) or on a non-finite residual.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be >= 0 and finite")
    smoothness = estimate_smoothness(obj)
    if not 0.0 < smoothness < math.inf:  # 0 when A'A v underflows
        raise ConvergenceError(
            f"smoothness estimate {smoothness} is not in (0, inf)")
    eta = 1.0 / smoothness
    step = _forward_backward(obj, reg, eta)
    steps = _prox_gradient(step, np.zeros(obj.d), momentum=True,
                           value=lambda x: composite_value(obj, reg, x))
    for x in itertools.islice(steps, max_iter):
        residual = float(np.linalg.norm(x - step(x))) / eta
        if residual <= tol:
            return x, composite_value(obj, reg, x)
        if not math.isfinite(residual):
            raise ConvergenceError(
                f"reference solution hit a non-finite residual {residual}")
    raise ConvergenceError(
        f"reference solution did not reach tol={tol} in {max_iter} iterations"
    )
