"""Proximal mappings, plain and under a diagonal-plus-rank-one metric.

The scaled mapping solves

    prox_{eta R}^H(x) = argmin_y  eta R(y) + 0.5 (y - x)' H (y - x),
    H = diag(D) + sign * u u'   (sign in {+1, -1}, H positive definite),

by reducing the rank-one term to a scalar root equation: with
y(beta) = prox_{eta R}^D(x - sign * beta * D^{-1} u), the solution is
y(beta0) where beta0 is the unique root of

    g(beta) = u'(x - y(beta)) + beta.

g is continuous, piecewise linear for the L1 regularizer, and strictly
increasing (slope >= 1 for sign=+1, >= 1 - u'D^{-1}u > 0 for sign=-1). Its
root is found by bracketed semismooth Newton in continuous beta from
beta = 0, which stops once a Newton step keeps the sign pattern of y, so
both iterates lie on one affine piece of g. When that root misses the
residual guard |g| <= 1e-9 (1 + |beta|), or after _NEWTON_ITERS steps, the
exact route takes over once: a median search over the unsorted breakpoints
for the linear piece holding the root, then the exact secant step on it.
Its root stands. A non-finite x, as in a diverging run, makes g inf or nan:
neither route finds a root, and the non-finite y of the exact route is
returned for the caller's divergence guard, not an exception. A sorted
breakpoint search and a bisection solver serve as oracles in
tests/test_prox.py; both routes are independent of the iterative
subproblem oracle below.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

_U_ZERO_TOL = 1e-14
_NEWTON_ITERS = 10


class RegKind(enum.Enum):
    ZERO = "zero"
    L1 = "l1"


@dataclass(frozen=True)
class Regularizer:
    """R(x) = lambda1 ||x||_1 (kind L1) or R = 0 (kind Zero)."""

    kind: RegKind
    lambda1: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.lambda1 < math.inf:
            raise ValueError("lambda1 must be >= 0 and finite")
        if self.kind is RegKind.ZERO and self.lambda1 != 0.0:
            raise ValueError("Zero regularizer cannot carry lambda1")


def reg_value(reg: Regularizer, x: np.ndarray) -> float:
    if reg.kind is RegKind.ZERO or reg.lambda1 == 0.0:
        return 0.0
    return float(reg.lambda1 * np.sum(np.abs(x)))


def _soft_threshold(z, t):
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def prox(reg: Regularizer, x: np.ndarray, eta: float) -> np.ndarray:
    """prox_{eta R}(x) under the identity metric."""
    if not eta > 0.0:  # rejects nan as well
        raise ValueError("eta must be > 0")
    if reg.kind is RegKind.ZERO or reg.lambda1 == 0.0:
        return x.copy()
    return _soft_threshold(x, eta * reg.lambda1)


@dataclass(eq=False)
class ScaledProxProblem:
    """One scaled-prox instance: metric diag(D) + sign * u u', step eta, point x.

    Only x may change after construction: what depends on the metric and eta
    alone is computed once, ||u|| here and D^{-1} u, its nonzero set, the
    Newton slope weights and the L1 thresholds (per lambda1) on first use.
    Root solves write into the problem's scratch rows, so one problem serves
    one solve at a time.
    """

    diag: np.ndarray
    rank1: np.ndarray
    sign: int
    eta: float
    x: np.ndarray

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=np.float64)
        self.rank1 = np.asarray(self.rank1, dtype=np.float64)
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.diag.ndim != 1 or self.diag.shape != self.rank1.shape \
                or self.diag.shape != self.x.shape:
            raise ValueError("diag, rank1, x must be 1-d with matching shapes")
        if not np.all((self.diag > 0.0) & (self.diag < math.inf)):
            raise ValueError("diag must be strictly positive and finite")
        if not np.all(np.isfinite(self.rank1)):
            raise ValueError("rank1 must be finite")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not 0.0 < self.eta < math.inf:
            raise ValueError("eta must be > 0 and finite")
        if self.sign == -1:
            s = float(np.sum(self.rank1 ** 2 / self.diag))
            if s >= 1.0:
                raise ValueError(
                    f"metric not positive definite: u'D^-1 u = {s:.6g} >= 1"
                )
        u = self.rank1
        self._unorm = math.sqrt(float(u.dot(u)))  # ||u||, as np.linalg.norm
        self._lambda1 = None  # _parts builds the rest on the first L1 solve
        self._work = None

    def _scratch(self):
        """Three length-d work rows, allocated once per problem."""
        if self._work is None:
            self._work = np.empty((3, self.x.size))
        return self._work

    def _parts(self, lambda1):
        """(w, t, t on the live set): w = D^{-1} u and the L1 threshold of
        the diag(D) metric t = (eta / D) * lambda1, in the order that makes
        D = c*I bitwise-identical to prox(reg, x, eta / c)."""
        if self._lambda1 is None:
            self._w = w = self.rank1 / self.diag
            sw = float(self.sign) * w
            self._slope = sw * self.rank1
            self._live = np.flatnonzero(w)
            self._sw = sw.take(self._live)
        if self._lambda1 != lambda1:
            self._lambda1 = lambda1
            self._t = (self.eta / self.diag) * lambda1
            self._t_live = self._t.take(self._live)
        return self._w, self._t, self._t_live


@dataclass
class RootInfo:
    """Diagnostics from a scaled-prox root solve."""

    beta: float
    residual: float
    evaluations: int
    method: str


def _make_rootfn(prob, w, t):
    """Returns (g, y_of_beta, count) for the scalar root equation.

    y_of writes every evaluation into one fresh array, which it returns: a
    y kept from an earlier beta is overwritten by the next one. The inner
    point x - sign * beta * w lives in the problem's scratch row 0.
    """
    u, x = prob.rank1, prob.x
    ux = float(u.dot(x))  # dot, not @: same ddot with less call overhead
    sgn = float(prob.sign)
    z, y = prob._scratch()[0], np.empty_like(x)
    count = [0]
    last = [None]  # the root is evaluated by g, then returned by y_of

    def y_of(beta):
        if beta is not last[0]:
            last[0] = beta
            # _soft_threshold(x - (sgn * beta) * w, t) bit for bit, in place:
            # at d = 2e4 its temporaries cost more than its arithmetic
            # (np.sign in place is several times slower than out of place)
            np.subtract(x, np.multiply(w, sgn * beta, out=z), out=z)
            np.sign(z, out=y)
            np.maximum(np.subtract(np.abs(z, out=z), t, out=z), 0.0, out=z)
            np.multiply(y, z, out=y)
        return y

    def g(beta):
        count[0] += 1
        return ux - float(u.dot(y_of(beta))) + beta

    return g, y_of, count


def _solve_exact(reg, prob):
    """Exact root of the piecewise-linear g for the L1 regularizer.

    Breakpoints are the beta where a coordinate of the inner soft threshold
    activates or deactivates; g is affine between neighbours, so a secant
    step on the bracketing segment is exact. Each probe evaluates g at the
    median of the breakpoints still inside the bracket, closes the bracket
    and drops the breakpoints outside it, so at most log2(2d) + 1 probes
    are made. The Newton route's fallback.
    """
    w, t, t_live = prob._parts(reg.lambda1)
    g, y_of, count = _make_rootfn(prob, w, t)
    sw = prob._sw
    if not sw.size:
        return 0.0, g(0.0), y_of, count
    x = prob.x.take(prob._live)
    # x_j - sgn*beta*w_j = +-t_j; non-finite ones never enter the bracket
    cand = np.concatenate([(x - t_live) / sw, (x + t_live) / sw])
    lo, hi, g_lo, g_hi = -math.inf, math.inf, None, None
    while True:
        # take on the index: boolean indexing is slow on a scattered mask
        cand = cand.take(np.flatnonzero((cand > lo) & (cand < hi)))
        if not cand.size:
            break
        b = np.partition(cand, cand.size // 2)[cand.size // 2]
        gb = g(b)
        if gb < 0.0:
            lo, g_lo = b, gb
        else:
            hi, g_hi = b, gb
    if g_lo is None and g_hi is None:  # no finite breakpoint: g is affine
        hi, g_hi = 0.0, g(0.0)
    if g_lo is None:  # root left of every breakpoint
        g_lo = g(lo := hi - (1.0 + abs(hi)))
    elif g_hi is None:  # root right of every breakpoint
        g_hi = g(hi := lo + (1.0 + abs(lo)))
    beta = lo if g_hi == g_lo else lo - g_lo * (hi - lo) / (g_hi - g_lo)
    return beta, g(beta), y_of, count


def _solve_newton(reg, prob):
    """Bracketed semismooth Newton on g in continuous beta, from beta = 0.

    Returns (beta, g(beta), y_of, count), with g(beta) None when the
    iteration stops without a root. Each step goes to the Newton point of
    the current iterate (slope 1 + sum over y_j != 0 of sign u_j w_j) or,
    when that leaves the bracket (lo, hi) given by the signs of g, to the
    bracket's secant point, or to its midpoint. A Newton step that leaves
    every coordinate's state (sign of y_j, with 0 a state of its own)
    unchanged stayed on one affine piece of g, so it landed on the root.
    """
    w, t, _ = prob._parts(reg.lambda1)
    g, y_of, count = _make_rootfn(prob, w, t)
    slope = prob._slope
    active, state, prev = prob._scratch()  # active reuses y_of's row
    lo, hi, g_lo, g_hi = -math.inf, math.inf, None, None
    beta, newton = 0.0, False
    for _ in range(_NEWTON_ITERS):
        gb = g(beta)
        prev, state = state, prev
        np.sign(y_of(beta), out=state)
        if gb == 0.0 or newton and np.array_equal(state, prev):
            return beta, gb, y_of, count
        if gb < 0.0:
            lo, g_lo = beta, gb
        else:
            hi, g_hi = beta, gb
        step = beta - gb / (1.0 + slope.dot(np.abs(state, out=active)))
        if step == beta:  # no representable move: let the guard judge
            return beta, gb, y_of, count
        newton = lo < step < hi
        if not newton:
            # with a finite g and slope, only a closed bracket is left; a
            # non-finite g (x inf or nan) leaves one end open: no root here
            if g_lo is None or g_hi is None:
                break
            step = lo - g_lo * (hi - lo) / (g_hi - g_lo)
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
                if not lo < step < hi:
                    break
        beta = step
    return beta, None, y_of, count


def scaled_prox_info(reg: Regularizer,
                     prob: ScaledProxProblem) -> tuple[np.ndarray, RootInfo]:
    """Scaled prox plus root diagnostics.

    With an L1 term and u != 0 it runs the Newton route; when that misses
    the residual guard or its iteration cap, it hands over once to the
    exact route, whose root stands. RootInfo.method is "newton" or
    "newton+exact", and evaluations counts every g evaluation of both.
    """
    if reg.kind is RegKind.ZERO or reg.lambda1 == 0.0:
        # prox of 0 in any metric is the identity
        return prob.x.copy(), RootInfo(0.0, 0.0, 0, "closed")
    if prob._unorm < _U_ZERO_TOL:  # H is diagonal: prox in the D metric
        y = _soft_threshold(prob.x, prob._parts(reg.lambda1)[1])
        return y, RootInfo(0.0, 0.0, 0, "diag")
    beta, res, y_of, count = _solve_newton(reg, prob)
    evals, method = count[0], "newton"
    if res is None or not abs(res) <= 1e-9 * (1.0 + abs(beta)):
        beta, res, y_of, count = _solve_exact(reg, prob)
        evals, method = evals + count[0], "newton+exact"
    return y_of(beta), RootInfo(float(beta), float(res), evals, method)


def scaled_prox(reg: Regularizer, prob: ScaledProxProblem) -> np.ndarray:
    """prox_{eta R}^H(x) for H = diag(D) + sign * u u'."""
    y, _ = scaled_prox_info(reg, prob)
    return y


def dense_metric(prob: ScaledProxProblem) -> np.ndarray:
    """Assemble H = diag(D) + sign * u u' densely (test/oracle use)."""
    H = np.diag(prob.diag).astype(np.float64)
    H += float(prob.sign) * np.outer(prob.rank1, prob.rank1)
    return H


def subproblem_oracle(reg: Regularizer, prob: ScaledProxProblem,
                      tol: float = 1e-10, max_iter: int = 200000) -> np.ndarray:
    """Independent check: solve the same subproblem by plain proximal gradient.

    Minimizes eta R(y) + 0.5 ||y - x||_H^2 with step 1/sigma_max(H), stopping
    on successive-iterate change <= tol. Shares no code with the root-finding
    path above.
    """
    H = dense_metric(prob)
    sigma = float(np.linalg.eigvalsh(H)[-1])
    y = prob.x.copy()
    lam = reg.lambda1 if reg.kind is RegKind.L1 else 0.0
    thresh = (prob.eta / sigma) * lam
    for _ in range(max_iter):
        grad = H @ (y - prob.x)
        z = y - grad / sigma
        y_next = _soft_threshold(z, thresh) if lam > 0.0 else z
        if float(np.linalg.norm(y_next - y)) <= tol:
            return y_next
        y = y_next
    raise ConvergenceError(
        f"subproblem oracle did not reach tol={tol} in {max_iter} iterations "
        "(ill-conditioned test instance?)"
    )


def kkt_residual(reg: Regularizer, prob: ScaledProxProblem,
                 y: np.ndarray) -> float:
    """Max violation of the optimality condition H(x - y)/eta in d R(y).

    Zero regularizer: ||H(x-y)||_inf. L1: per-coordinate distance of
    r_j = [H(x-y)/eta]_j to lambda1*sign(y_j) (y_j != 0) or to the interval
    [-lambda1, lambda1] (y_j = 0).
    """
    r = dense_metric(prob) @ (prob.x - y) / prob.eta
    if reg.kind is RegKind.ZERO or reg.lambda1 == 0.0:
        return float(np.max(np.abs(r))) if r.size else 0.0
    lam = reg.lambda1
    viol = np.where(y != 0.0,
                    np.abs(r - lam * np.sign(y)),
                    np.maximum(np.abs(r) - lam, 0.0))
    return float(np.max(viol))
