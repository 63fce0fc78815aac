"""Correctness checks written independently of the library's own oracles.

The objective, its gradient and the L1 optimality conditions are computed
here with numpy/scipy straight from the CSR arrays, so a fault in
`proxsqn.model` cannot certify itself.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

EPS = np.finfo(np.float64).eps


class CheckFailure(AssertionError):
    """A benchmark correctness check did not hold."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


class Problem:
    """P(x) = F(x) + lambda1 ||x||_1 rebuilt from raw CSR arrays."""

    def __init__(self, indptr, indices, values, labels, d, logistic, ridge,
                 lambda1):
        self.A = sp.csr_matrix((np.array(values, dtype=np.float64),
                                np.array(indices), np.array(indptr)),
                               shape=(len(labels), d))
        self.b = np.array(labels, dtype=np.float64)
        self.n = len(labels)
        self.logistic = logistic
        self.ridge = ridge
        self.lambda1 = lambda1

    @classmethod
    def of(cls, ds, logistic, ridge, lambda1):
        return cls(ds.indptr, ds.indices, ds.values, ds.labels, ds.d,
                   logistic, ridge, lambda1)

    def value(self, x: np.ndarray) -> float:
        z = self.A @ x
        if self.logistic:
            data = np.mean(np.logaddexp(0.0, -self.b * z))
        else:
            data = 0.5 * np.mean((z - self.b) ** 2)
        return float(data + 0.5 * self.ridge * (x @ x)
                     + self.lambda1 * np.abs(x).sum())

    def gradient(self, x: np.ndarray) -> np.ndarray:
        z = self.A @ x
        if self.logistic:
            coef = -self.b * expit(-self.b * z)
        else:
            coef = z - self.b
        return (self.A.T @ coef) / self.n + self.ridge * x

    def certify(self, x_ref: np.ndarray, p_ref: float,
                kkt_tol: float) -> float:
        """Check x_ref against the L1 KKT conditions; return the gap bound.

        The minimum-norm element r of the subdifferential bounds the
        suboptimality of a ridge-strongly-convex P by ||r||^2 / (2 ridge).
        The returned allowance adds the rounding of evaluating P itself.
        """
        g = self.gradient(x_ref)
        lam = self.lambda1
        r = np.where(x_ref != 0.0, g + lam * np.sign(x_ref),
                     np.sign(g) * np.maximum(np.abs(g) - lam, 0.0))
        kkt = float(np.max(np.abs(r)))
        require(kkt <= kkt_tol, f"reference violates KKT: max residual "
                                f"{kkt:.3e} > {kkt_tol:.0e}")
        p_own = self.value(x_ref)
        scale = max(1.0, abs(p_own))
        require(abs(p_own - p_ref) <= 1e-12 * scale,
                f"reference objective {p_ref!r} != independent {p_own!r}")
        return float(r @ r) / (2.0 * self.ridge) + 64.0 * EPS * scale


def check_trace(rows, *, name: str, n: int, per_epoch: int | None,
                gap_allow: float) -> None:
    """Check one solver trace: (epoch, objective, subopt, grad_evals,
    elapsed_ns) rows.

    per_epoch is the gradient evaluations of one SQN/SVRG epoch (n + 2 b m);
    None means a full-gradient method with n evaluations per iteration.
    """
    for k, (epoch, _, sub, evals, _) in enumerate(rows, start=1):
        require(epoch == k, f"{name}: record {k} has epoch {epoch}")
        want = k * (n if per_epoch is None else per_epoch)
        require(evals == want,
                f"{name}: epoch {k} grad_evals {evals} != cost model {want}")
        require(sub >= -gap_allow,
                f"{name}: subopt {sub:.3e} below -reference error "
                f"{gap_allow:.3e}")


def first_hit(rows, tol):
    """The first row whose subopt is at or below tol, or None."""
    return next((r for r in rows if r[2] <= tol), None)
