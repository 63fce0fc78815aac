"""Diagonal-plus-rank-one quasi-Newton metric from curvature pairs.

From a pair (s, y) with s'y > 0 the construction sets

    tau = s'y / ||y||^2
    u   = (s - alpha tau y) / sqrt((s - alpha tau y)' y)   (or 0 on skip)
    H^{-1} = alpha tau I + u u'

which satisfies the secant condition H^{-1} y = s identically whenever the
rank-one term is kept. The metric itself, H = (alpha tau I + u u')^{-1},
expands by Sherman-Morrison to the diagonal-minus-rank-one splitting

    H = (1/(alpha tau)) I - w w',   w = u / sqrt(alpha tau (alpha tau + u'u)),

which is exactly the form the scaled proximal mapping consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeCurvatureError, SecantError

_SKIP_EPS_DEFAULT = 1e-8
_SECANT_GUARD = 1e-8


@dataclass(eq=False)
class CurvaturePair:
    """Displacement s and curvature response y = (sum-batch Hessian) s."""

    s: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.s.ndim != 1 or self.s.shape != self.y.shape:
            raise ValueError("s and y must be 1-d with matching shapes")


@dataclass(eq=False)
class Metric:
    """H^{-1} = alpha*tau*I + u u'. u = 0 encodes a skipped rank-one term."""

    tau: float
    alpha: float
    u: np.ndarray
    skipped: bool = False

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.tau <= 0.0:
            raise ValueError("tau must be > 0")

    @property
    def d(self) -> int:
        return self.u.shape[0]


def build_metric(pair: CurvaturePair, alpha: float,
                 skip_eps: float = _SKIP_EPS_DEFAULT) -> Metric:
    """Construct the metric from one curvature pair.

    Raises NegativeCurvatureError when y = 0 or tau <= 0 (curvature pair
    inconsistent with a positive definite batch Hessian), and SecantError
    when the built metric misses H^{-1} y = s by more than a cheap guard
    (rounding has broken the construction). The rank-one term is kept
    only when its squared-norm denominator (s - alpha tau y)'y exceeds both
    0 and eps ||y|| ||s - tau y||; otherwise, a nan threshold included, it
    is skipped (u = 0).
    """
    s, y = pair.s, pair.y
    ynorm2 = float(y @ y)
    if ynorm2 == 0.0:
        raise NegativeCurvatureError("curvature pair has y = 0")
    sy = float(s @ y)
    tau = sy / ynorm2
    if tau <= 0.0:
        raise NegativeCurvatureError(f"nonpositive curvature: tau = {tau:.6g}")
    resid = s - (alpha * tau) * y
    denom = float(resid @ y)
    rhs = skip_eps * math.sqrt(ynorm2) * float(np.linalg.norm(s - tau * y))
    if not denom > max(rhs, 0.0):
        return Metric(tau, alpha, np.zeros_like(s), skipped=True)
    u = resid / math.sqrt(denom)
    m = Metric(tau, alpha, u)
    # cheap construction-time secant check; the property suite tightens this
    err = float(np.linalg.norm(apply_inverse(m, y) - s))
    if err > _SECANT_GUARD * (1.0 + float(np.linalg.norm(s))):
        raise SecantError(f"secant violation at construction: {err:.3e}")
    return m


def apply_inverse(metric: Metric, v: np.ndarray) -> np.ndarray:
    """H^{-1} v in O(d)."""
    out = (metric.alpha * metric.tau) * v
    if not metric.skipped:
        out += metric.u * float(metric.u.dot(v))
    return out


def metric_as_splitting(metric: Metric):
    """(diag, rank1, sign) with H = diag(D) + sign * rank1 rank1'.

    Sherman-Morrison: H = (1/(alpha tau)) I - u u' / (alpha tau (alpha tau +
    u'u)), always positive definite since w'D^{-1}w = u'u/(alpha tau + u'u)
    < 1. A skipped metric (u = 0) gives rank1 = 0, a pure scaled identity.
    """
    at = metric.alpha * metric.tau
    diag = np.full(metric.d, 1.0 / at)
    uu = float(metric.u @ metric.u)
    w = metric.u / math.sqrt(at * (at + uu))
    return diag, w, -1


@dataclass
class MetricBounds:
    """Uniform eigenvalue bounds gamma I <= H <= Gamma I for planning."""

    gamma: float
    big_gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma <= self.big_gamma:
            raise ValueError("need 0 < gamma <= Gamma")


IDENTITY_BOUNDS = MetricBounds(1.0, 1.0)
