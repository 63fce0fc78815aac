"""Proximal mappings, plain and under a diagonal-plus-rank-one metric.

The scaled mapping solves

    prox_{eta R}^H(x) = argmin_y  eta R(y) + 0.5 (y - x)' H (y - x),
    H = diag(D) + sign * u u'   (sign in {+1, -1}, H positive definite),

by reducing the rank-one term to a scalar root equation: with
y(beta) = prox_{eta R}^D(x - sign * beta * D^{-1} u), the solution is
y(beta*) where beta* is the unique root of

    g(beta) = u'(x - y(beta)) + beta.

g is continuous, piecewise linear for the L1 regularizer, with a breakpoint
wherever a coordinate of the inner soft threshold switches, and strictly
increasing (slope >= 1 for sign=+1, >= 1 - u'D^{-1}u > 0 for sign=-1). One
route finds its root: bracketed semismooth Newton in continuous beta from
the problem's start beta0 (0 by default; the solver passes the previous
step's root). Its safeguard step is the median of the breakpoints left in
the bracket; once none is left, a secant and Newton steps on the affine
piece that holds the root end it (_solve_root states its steps and its
evaluation bound). A non-finite x, as in a diverging run, makes g inf or
nan, and so can a metric whose u_j^2 / D_j overflows: the route still ends
within its bound and returns a non-finite y for the caller's divergence
guard, not an exception. A sorted breakpoint search and a bisection
solver, built from the definition of g, serve as its oracles in
tests/test_prox.py.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeCurvatureError

_U_ZERO_TOL = 1e-14
_NEWTON_ITERS = 10
# g at a root on its affine piece, evaluated in floating point, is about
# eps (|u|'|x| + |beta|): a median of 0.5x, under 3x in 4600 scaled-prox
# calls captured from the benchmark's runs. |g| under _ROUNDING times that
# counts as a root; a miss costs one more Newton step, not a wrong root.
_ROUNDING = 16 * np.finfo(np.float64).eps
_POLISH = 2  # Newton steps after the final secant


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

    x and beta0, the Newton start, are the per-call inputs: the solver
    writes both, scaled_prox_info neither, and a non-finite beta0 starts
    from 0. What depends on the metric and eta alone is computed once,
    ||u|| here and D^{-1} u, the Newton slope weights and the L1 thresholds
    (per lambda1) on first use. Root solves write into the problem's scratch
    rows, so one problem serves one solve at a time. A splitting that is not
    positive definite in floating point raises NegativeCurvatureError.
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
                raise NegativeCurvatureError(
                    f"metric not positive definite: u'D^-1 u = {s:.6g} >= 1"
                )
        u = self.rank1
        self._unorm = math.sqrt(float(u.dot(u)))  # ||u||, as np.linalg.norm
        self._lambda1 = None  # _parts builds the rest on the first L1 solve
        self._work = np.empty((2, self.x.size))

    def _parts(self, lambda1):
        """(w, t, -t): w = D^{-1} u and the L1 threshold of the diag(D)
        metric t = (eta / D) * lambda1, in the order that makes D = c*I
        bitwise-identical to prox(reg, x, eta / c)."""
        if self._lambda1 is None:
            self._w = self.rank1 / self.diag
            with np.errstate(over="ignore"):  # inf: a Newton step to refuse
                self._slope = (float(self.sign) * self._w) * self.rank1
            self._abs_u = np.abs(self.rank1)
        if self._lambda1 != lambda1:
            self._lambda1 = lambda1
            self._t = (self.eta / self.diag) * lambda1
            self._neg_t = -self._t
        return self._w, self._t, self._neg_t


@dataclass
class RootInfo:
    """Diagnostics from a scaled-prox root solve."""

    beta: float
    residual: float
    evaluations: int
    method: str


def _solve_root(reg, prob):
    """Root of g from prob.beta0 by bracketed semismooth Newton.

    Returns (y, beta, g(beta), evaluations), with y = y(beta) a fresh array.
    Each of the first _NEWTON_ITERS steps goes to the Newton point of the
    current iterate (slope 1 + sum over y_j != 0 of sign u_j w_j) or, when
    that leaves the bracket (lo, hi) given by the signs of g, to the
    bracket's secant point. When both leave the bracket, and for every
    later step, the step goes to the median of the breakpoints still inside
    the bracket, which halves them. Once none is left, g is affine on the
    bracket: the solve takes the secant point through the end nearer 0 and
    a probe at most 1 + |that end| from it (none when the other end is that
    close), then at most _POLISH bracketed Newton steps, which the rounding
    of a secant from a far end (a start of 1e6, say) needs. An open end of
    the bracket has g = -inf or +inf, so a secant from it or from a g that
    overflows (at the probe, say) is nan, and so is the y it returns. The
    solve stops as soon as |g| is at its rounding floor, and after the
    secant also when the Newton steps are spent or leave the bracket. A
    start at the previous root under the same metric usually lies on the
    root's piece already, so one Newton step ends the solve. With d
    coordinates it makes at most _NEWTON_ITERS + floor(log2 2d) + 6
    evaluations: the start, the Newton steps, floor(log2 2d) + 1 medians,
    the probe, the secant and the polish.
    """
    w, t, neg_t = prob._parts(reg.lambda1)
    u, x, slope = prob.rank1, prob.x, prob._slope
    ux = float(u.dot(x))  # dot, not @: same ddot with less call overhead
    sgn = float(prob.sign)
    z, active = prob._work
    y = np.empty_like(x)
    # |u|'|x| bounds the terms of u'x and, near the root, those of u'y
    floor = _ROUNDING * float(prob._abs_u.dot(np.abs(x, out=active)))
    evals = 0

    def g(beta):
        """g(beta), with y(beta) written into y."""
        nonlocal evals
        evals += 1
        np.subtract(x, np.multiply(w, sgn * beta, out=z), out=z)
        _soft_threshold(z, neg_t, t, out=y)
        return ux - float(u.dot(y)) + beta

    def newton(beta, gb):
        """The Newton point from beta, while y holds y(beta)."""
        np.not_equal(y, 0.0, out=active)
        return beta - gb / (1.0 + slope.dot(active))

    lo, hi, g_lo, g_hi = -math.inf, math.inf, -math.inf, math.inf
    beta = float(prob.beta0) if math.isfinite(prob.beta0) else 0.0
    steps, cand, affine = _NEWTON_ITERS, None, False
    while True:
        gb = g(beta)
        if abs(gb) <= floor + _ROUNDING * abs(beta):
            break
        if gb < 0.0:
            lo, g_lo = beta, gb
        else:  # nan too: a non-finite x only ever moves hi
            hi, g_hi = beta, gb
        if steps:  # a Newton point that does not move fails the test too
            steps -= 1
            step = newton(beta, gb)
            if not lo < step < hi:
                step = lo - g_lo * (hi - lo) / (g_hi - g_lo)
            if lo < step < hi:
                beta = step
                continue
        if cand is None:  # x_j - sgn*beta*w_j = +-t_j; w_j = 0 gives none
            sw = sgn * w
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                cand = np.concatenate([(x - t) / sw, (x + t) / sw])
        # take on the index: boolean indexing is slow on a scattered mask;
        # the comparisons drop the +-inf and nan breakpoints
        cand = cand.take(np.flatnonzero((cand > lo) & (cand < hi)))
        if cand.size:
            beta = float(np.partition(cand, cand.size // 2)[cand.size // 2])
            continue
        if affine:  # the polish steps are spent or left the bracket
            break
        # no breakpoint inside (lo, hi): g is affine on it and past an open
        # end. The secant's second point is at most 1 + |end| from the end
        # nearer 0 (a tiny u_j can put the other at 1e306)
        if abs(lo) <= abs(hi):
            a, g_a, b = lo, g_lo, min(hi, lo + (1.0 + abs(lo)))
            g_b = g_hi if b == hi else g(b)
        else:
            a, b, g_b = max(lo, hi - (1.0 + abs(hi))), hi, g_hi
            g_a = g_lo if a == lo else g(a)
        dg = g_b - g_a  # inf or nan where g overflowed or x is not finite
        beta = (a if dg == 0.0 else a - g_a * (b - a) / dg) \
            if math.isfinite(dg) else math.nan
        steps, affine = _POLISH, True
    return y, beta, gb, evals


def scaled_prox_info(reg: Regularizer,
                     prob: ScaledProxProblem) -> tuple[np.ndarray, RootInfo]:
    """Scaled prox plus root diagnostics.

    RootInfo.method is "closed" for R = 0, "diag" for u = 0 (no root to
    find) and "newton" for the root solve, whose g evaluations
    RootInfo.evaluations counts.
    """
    if reg.lambda1 == 0.0:
        # prox of 0 in any metric is the identity
        return prob.x.copy(), RootInfo(0.0, 0.0, 0, "closed")
    # H = D: exact at any x, where the root solve's u'x is 0 * inf = nan
    if prob._unorm < _U_ZERO_TOL:
        _, t, neg_t = prob._parts(reg.lambda1)
        return _soft_threshold(prob.x, neg_t, t), RootInfo(0.0, 0.0, 0, "diag")
    y, beta, res, evals = _solve_root(reg, prob)
    return y, RootInfo(float(beta), float(res), evals, "newton")


def scaled_prox(reg: Regularizer, prob: ScaledProxProblem) -> np.ndarray:
    """prox_{eta R}^H(x) for H = diag(D) + sign * u u'."""
    y, _ = scaled_prox_info(reg, prob)
    return y
