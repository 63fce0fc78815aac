"""Independent oracles that `proxsqn.verify` and the tests compare the
library's fast paths against; no solver calls them.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError
from .metric import Metric
from .model import LOSSES, BatchHessianSpectrum, SmoothObjective, \
    batch_slabs, dense_batch_hessian
from .prox import Regularizer, ScaledProxProblem

__all__ = ["component_gradient", "batch_gradient", "batch_spectrum",
           "dense_inverse", "dense_metric", "subproblem_oracle",
           "kkt_residual"]


def component_gradient(obj: SmoothObjective, i: int, x: np.ndarray) -> np.ndarray:
    """grad f_i(x), O(nnz) plus the dense ridge term."""
    if not 0 <= i < obj.n:
        raise IndexError(f"component {i} out of range")
    idx, val = obj.dataset.row(i)
    zi = float(val @ x[idx])
    g = obj.ridge * x
    g[idx] += LOSSES[obj.loss].coef(zi, obj.dataset.labels[i]) * val
    return g


def batch_gradient(obj: SmoothObjective, batch: np.ndarray, x: np.ndarray) -> np.ndarray:
    """grad f_S(x) = sum_{i in S} grad f_i(x). S is a sum, not an average."""
    batch = np.asarray(batch, dtype=np.int64)
    if batch.size == 0:
        raise ValueError("batch must be nonempty")
    cols, vals, rid = batch_slabs(obj.dataset, batch)
    z = np.bincount(rid, weights=vals * x[cols], minlength=batch.size)
    coef = LOSSES[obj.loss].coef(z, obj.dataset.labels[batch])
    acc = np.bincount(cols, weights=coef[rid] * vals, minlength=obj.d)
    acc += (batch.size * obj.ridge) * x
    return acc


def batch_spectrum(obj: SmoothObjective, batch: np.ndarray,
                   x: np.ndarray) -> BatchHessianSpectrum:
    """Extreme eigenvalues (lambda_lo, lambda_hi) of the batch-sum Hessian.

    A numerically nonpositive lambda_lo (possible only at ridge = 0) is
    reported with the degenerate flag instead of raising.
    """
    H = dense_batch_hessian(obj, batch, x)
    eigs = np.linalg.eigvalsh(H)
    lo, hi = float(eigs[0]), float(eigs[-1])
    tiny = 1e-12 * max(1.0, abs(hi))
    if lo <= tiny:
        return BatchHessianSpectrum(max(lo, 0.0), hi, degenerate=True)
    return BatchHessianSpectrum(lo, hi)


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
