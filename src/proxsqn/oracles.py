"""Independent references that `proxsqn.verify` and the tests compare the
metric and the scaled prox against; no solver calls them.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError
from .metric import Metric
from .prox import Regularizer, ScaledProxProblem

__all__ = ["dense_inverse", "dense_metric", "subproblem_oracle",
           "kkt_residual"]


def dense_inverse(metric: Metric) -> np.ndarray:
    """H^{-1} as a dense matrix."""
    out = (metric.alpha * metric.tau) * np.eye(metric.d)
    if not metric.skipped:
        out += np.outer(metric.u, metric.u)
    return out


def dense_metric(prob: ScaledProxProblem) -> np.ndarray:
    """Assemble H = diag(D) + sign * u u' densely."""
    H = np.diag(prob.diag).astype(np.float64)
    H += float(prob.sign) * np.outer(prob.rank1, prob.rank1)
    return H


def subproblem_oracle(reg: Regularizer, prob: ScaledProxProblem,
                      tol: float = 1e-10, max_iter: int = 200000) -> np.ndarray:
    """Independent check: solve the same subproblem by plain proximal gradient.

    Minimizes eta R(y) + 0.5 ||y - x||_H^2 with step 1/sigma_max(H), stopping
    on successive-iterate change <= tol. Shares no code with the scaled
    prox's root-finding routes.
    """
    H = dense_metric(prob)
    sigma = float(np.linalg.eigvalsh(H)[-1])
    y = prob.x.copy()
    thresh = (prob.eta / sigma) * reg.lambda1
    for _ in range(max_iter):
        grad = H @ (y - prob.x)
        z = y - grad / sigma
        y_next = np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)
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
    if reg.lambda1 == 0.0:
        return float(np.max(np.abs(r))) if r.size else 0.0
    lam = reg.lambda1
    viol = np.where(y != 0.0,
                    np.abs(r - lam * np.sign(y)),
                    np.maximum(np.abs(r) - lam, 0.0))
    return float(np.max(viol))
