"""Proximal mappings, plain and under a diagonal-plus-rank-one metric.

The scaled mapping solves

    prox_{eta R}^H(x) = argmin_y  eta R(y) + 0.5 (y - x)' H (y - x),
    H = diag(D) + sign * u u'   (sign in {+1, -1}, H positive definite),

by reducing the rank-one term to a scalar root equation: with
y(beta) = prox_{eta R}^D(x - sign * beta * D^{-1} u), the solution is
y(beta*) where beta* is the unique root of

    g(beta) = u'(x - y(beta)) + beta.

g is continuous, piecewise linear for the L1 regularizer, and strictly
increasing (slope >= 1 for sign=+1, >= 1 - u'D^{-1}u > 0 for sign=-1). Its
root is found by bracketed semismooth Newton in continuous beta from the
problem's start beta0 (0 by default; the solver passes the previous step's
root), which stops once |g| is down to its rounding floor. When that root
misses the residual guard |g| <= 1e-9 (1 + |beta|), or after _NEWTON_ITERS
steps, the exact route takes over once: a median search over the unsorted
breakpoints for the linear piece holding the root, then the exact secant
step on it. Its root stands. A non-finite x, as in a diverging run, makes
g inf or nan: neither route finds a root, and the non-finite y of the
exact route is returned for the caller's divergence guard, not an
exception. A sorted breakpoint search and a bisection solver serve as
oracles in tests/test_prox.py; both routes are independent of the
iterative subproblem solver and the KKT residual in proxsqn.oracles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

_U_ZERO_TOL = 1e-14
_NEWTON_ITERS = 10
# g at a root on its affine piece, evaluated in floating point, is about
# eps (|u|'|x| + |beta|): a median of 0.5x, under 3x in 4600 scaled-prox
# calls captured from the benchmark's runs. |g| under _ROUNDING times that
# counts as a root; a miss costs one more Newton step, not a wrong root.
_ROUNDING = 16 * np.finfo(np.float64).eps


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
    if reg.lambda1 == 0.0:
        return 0.0
    return float(reg.lambda1 * np.sum(np.abs(x)))


def _soft_threshold(z, lo, hi, out=None):
    """z - clip(z, lo, hi) in three ufuncs, into out if given (not z).

    With lo = -t and hi = t it is sign(z) * max(|z| - t, 0) bit for bit,
    except that every zero is +0.
    """
    y = np.maximum(z, lo, out=out)
    np.minimum(y, hi, out=y)
    return np.subtract(z, y, out=y)


def prox(reg: Regularizer, x: np.ndarray, eta: float) -> np.ndarray:
    """prox_{eta R}(x) under the identity metric, as a new array."""
    if not eta > 0.0:  # rejects nan as well
        raise ValueError("eta must be > 0")
    if reg.lambda1 == 0.0:
        return x.copy()
    t = eta * reg.lambda1
    return _soft_threshold(x, -t, t)


@dataclass(eq=False)
class ScaledProxProblem:
    """One scaled-prox instance: metric diag(D) + sign * u u', step eta, point x.

    x and beta0, the Newton start, are the per-call inputs; the library
    reads beta0 and never writes it, and a non-finite beta0 starts from 0.
    The rest is fixed after construction: what depends on the metric and eta
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
    beta0: float = 0.0

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
        """Two length-d work rows, allocated once per problem."""
        if self._work is None:
            self._work = np.empty((2, self.x.size))
        return self._work

    def _parts(self, lambda1):
        """(w, t, t on the live set): w = D^{-1} u and the L1 threshold of
        the diag(D) metric t = (eta / D) * lambda1, in the order that makes
        D = c*I bitwise-identical to prox(reg, x, eta / c)."""
        if self._lambda1 is None:
            self._w = w = self.rank1 / self.diag
            sw = float(self.sign) * w
            self._slope = sw * self.rank1
            self._abs_u = np.abs(self.rank1)
            self._live = np.flatnonzero(w)
            self._sw = sw.take(self._live)
        if self._lambda1 != lambda1:
            self._lambda1 = lambda1
            self._t = (self.eta / self.diag) * lambda1
            self._neg_t = -self._t
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
    neg_t = prob._neg_t if t is prob._t else -t
    z, y = prob._scratch()[0], np.empty_like(x)
    count = [0]
    last = [None]  # the root is evaluated by g, then returned by y_of

    def y_of(beta):
        if beta is not last[0]:
            last[0] = beta
            np.subtract(x, np.multiply(w, sgn * beta, out=z), out=z)
            _soft_threshold(z, neg_t, t, out=y)
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
    """Bracketed semismooth Newton on g in continuous beta, from prob.beta0.

    Returns (beta, g(beta), y_of, count), with g(beta) None when the
    iteration stops without a root. Each step goes to the Newton point of
    the current iterate (slope 1 + sum over y_j != 0 of sign u_j w_j) or,
    when that leaves the bracket (lo, hi) given by the signs of g, to the
    bracket's secant point, or to its midpoint. It stops once |g| is at its
    rounding floor: a Newton step that stays on one affine piece of g lands
    there, up to the rounding of the step itself. That rounding grows with
    the start, so a step from far away (a start of 1e6, say) takes one more
    step on the same piece. A start at the previous root under the same
    metric usually lies on the root's piece already, so one Newton step
    ends the solve.
    """
    w, t, _ = prob._parts(reg.lambda1)
    g, y_of, count = _make_rootfn(prob, w, t)
    slope = prob._slope
    active = prob._scratch()[1]
    # |u|'|x| bounds the terms of u'x and, near the root, those of u'y
    floor = _ROUNDING * float(prob._abs_u.dot(np.abs(prob.x, out=active)))
    lo, hi, g_lo, g_hi = -math.inf, math.inf, None, None
    beta = float(prob.beta0)
    if not math.isfinite(beta):
        beta = 0.0
    for _ in range(_NEWTON_ITERS):
        gb = g(beta)
        if abs(gb) <= floor + _ROUNDING * abs(beta):
            return beta, gb, y_of, count
        if gb < 0.0:
            lo, g_lo = beta, gb
        else:
            hi, g_hi = beta, gb
        np.not_equal(y_of(beta), 0.0, out=active)
        step = beta - gb / (1.0 + slope.dot(active))
        if step == beta:  # no representable move: let the guard judge
            return beta, gb, y_of, count
        if not lo < step < hi:
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
    if reg.lambda1 == 0.0:
        # prox of 0 in any metric is the identity
        return prob.x.copy(), RootInfo(0.0, 0.0, 0, "closed")
    if prob._unorm < _U_ZERO_TOL:  # H is diagonal: prox in the D metric
        t = prob._parts(reg.lambda1)[1]
        y = _soft_threshold(prob.x, prob._neg_t, t)
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
