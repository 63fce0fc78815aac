"""Finite-sum smooth objectives over sparse data.

The smooth part of the composite problem is F(x) = (1/n) sum_i f_i(x) with

    squared error:   f_i(x) = 0.5 (a_i'x - b_i)^2      + 0.5 ridge ||x||^2
    logistic ridge:  f_i(x) = log(1 + exp(-b_i a_i'x)) + 0.5 ridge ||x||^2

The loss table LOSSES is the one place that knows each loss. To add one,
add a LossKind member and a Loss entry: value, gradient coefficient, the
estimator's snapshot part and the coefficient difference built from it,
curvature weight and bound, label rule.

Rows a_i are stored sparse (CSR triplet) and every batch kernel is
O(nnz(batch)). Batch quantities are sums over the index set, not averages;
full_gradient is the n-average. SmoothObjective computes its constants:
L_i = (the loss's curvature bound) ||a_i||^2 + ridge, and mu = ridge.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

_DENSE_LIMIT = 256


class LossKind(enum.Enum):
    SQUARED_ERROR = "squared_error"
    LOGISTIC_RIDGE = "logistic_ridge"


@dataclass(frozen=True)
class Loss:
    """One loss as vectorized functions of margins z = a_i'x and labels b."""

    value: Callable             # f_i without the ridge term
    coef: Callable              # c with data gradient c a_i
    snapshot_coef: Callable     # st, the part of coef_diff that z does not move
    coef_diff: Callable         # coef(z, b) - coef(zt, b) from st(zt, b)
    curvature: Callable | None  # w with data Hessian w a_i a_i'; None: constant
    curvature_bound: float      # sup over z of w
    binary_labels: bool         # labels in {-1, +1}, generated as margin signs


def _logistic_curvature(z, b):
    s = expit(b * z)
    return s * (1.0 - s)


LOSSES = {
    LossKind.SQUARED_ERROR: Loss(
        value=lambda z, b: 0.5 * (z - b) ** 2,
        coef=lambda z, b: z - b,
        # not (z - b) - (zt - b): equal in exact arithmetic, rounded otherwise
        snapshot_coef=lambda zt, b: zt,
        coef_diff=lambda z, st, b: z - st,
        curvature=None,
        curvature_bound=1.0,
        binary_labels=False),
    LossKind.LOGISTIC_RIDGE: Loss(
        # log(1 + exp(-b z)) without overflow
        value=lambda z, b: np.logaddexp(0.0, -b * z),
        coef=lambda z, b: -b * expit(-b * z),
        snapshot_coef=lambda zt, b: expit(-b * zt),
        coef_diff=lambda z, st, b: b * (st - expit(-b * z)),
        curvature=_logistic_curvature,
        curvature_bound=0.25,
        binary_labels=True),
}


@dataclass(eq=False)
class Dataset:
    """Sparse design matrix in CSR form plus per-row labels.

    Treated as immutable after construction. Row indices are 0-based,
    strictly increasing within each row.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    d: int
    _csr: sp.csr_matrix | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.d < 1:
            raise ValueError("d must be >= 1")
        n = self.indptr.shape[0] - 1
        if n < 1:
            raise ValueError("dataset needs at least one row")
        if self.labels.shape != (n,):
            raise ValueError(f"labels shape {self.labels.shape} != ({n},)")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.shape[0]:
            raise ValueError("indptr endpoints inconsistent with indices")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if self.indices.shape != self.values.shape:
            raise ValueError("indices and values length mismatch")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.d:
                raise ValueError("column index out of range")
            # strictly increasing within each row; equivalently decreases only
            # at row starts
            gaps = np.diff(self.indices)
            row_starts = self.indptr[1:-1]
            bad = gaps <= 0
            bad[row_starts[(row_starts > 0) & (row_starts < self.indices.size)] - 1] = False
            if np.any(bad):
                raise ValueError("row indices must be strictly increasing")

    @property
    def n(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def nnz(self) -> int:
        return self.indices.shape[0]

    def row(self, i: int):
        """Views of row i's (indices, values)."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def to_csr(self) -> sp.csr_matrix:
        if self._csr is None:
            self._csr = sp.csr_matrix(
                (self.values, self.indices, self.indptr), shape=(self.n, self.d)
            )
        return self._csr


@dataclass(eq=False)
class SmoothObjective:
    """F(x) = (1/n) sum f_i(x) with the smoothness constants it computes:
    component_lipschitz holds the closed-form L_i, and strong_convexity is
    the conservative mu = ridge.
    """

    dataset: Dataset
    loss: LossKind
    ridge: float
    component_lipschitz: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.ridge < math.inf:
            raise ValueError("ridge must be >= 0 and finite")
        ds = self.dataset
        sq_norms = np.zeros(ds.n)
        with np.errstate(over="ignore"):  # an inf L_i or sum is rejected next
            np.add.at(sq_norms, np.repeat(np.arange(ds.n), np.diff(ds.indptr)),
                      ds.values ** 2)
            L = LOSSES[self.loss].curvature_bound * sq_norms + self.ridge
            total = float(np.sum(L))
        bad = np.flatnonzero(~np.isfinite(L))
        if bad.size:  # a row whose squared values overflow, say
            raise ValueError(f"row {bad[0] + 1}: component Lipschitz constant "
                             f"L_i = {float(L[bad[0]])} is not finite")
        if not math.isfinite(total):  # finite L_i, but their sum overflows
            i = int(np.argmax(L))
            raise ValueError(f"row {i + 1}: the component Lipschitz constants "
                             f"sum to {total}; this row's L_i = {L[i]:.6g} is "
                             f"the largest")
        if not np.all(L > 0.0):
            raise ValueError(
                "every component needs L_i > 0; add ridge > 0 or drop empty rows"
            )
        if LOSSES[self.loss].binary_labels and \
                not np.all(np.isin(ds.labels, (-1.0, 1.0))):
            raise ValueError(f"{self.loss.value} loss needs labels in {{-1, +1}}")
        self.component_lipschitz = L

    @classmethod
    def build(cls, dataset, loss, ridge=0.0):
        """SmoothObjective(dataset, loss, ridge), by the name callers use."""
        return cls(dataset, loss, ridge)

    @property
    def strong_convexity(self) -> float:
        """mu = ridge."""
        return self.ridge

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def d(self) -> int:
        return self.dataset.d

    @property
    def lipschitz_mean(self) -> float:
        """L_Q = (1/n) sum_i L_i."""
        return float(np.mean(self.component_lipschitz))


def smooth_value(obj: SmoothObjective, x: np.ndarray) -> float:
    """F(x)."""
    z = obj.dataset.to_csr() @ x
    data = np.mean(LOSSES[obj.loss].value(z, obj.dataset.labels))
    return float(data + 0.5 * obj.ridge * (x @ x))


def batch_slabs(ds: Dataset, rows: np.ndarray):
    """Flat view of a row batch: (cols, vals, row_ids).

    row_ids maps each flat entry back to its position in `rows`; duplicate
    and empty rows are handled. This is the O(nnz(batch)) gather behind all
    batch kernels (scipy row slicing carries too much per-call overhead for
    tiny batches in the inner loop).
    """
    ends = ds.indptr[1:][rows]
    counts = ends - ds.indptr[rows]
    # the method forms: np.repeat and np.cumsum cost twice as much
    row_ids = np.arange(rows.size, dtype=np.int64).repeat(counts)
    # flat position: the entry's rank in the batch, shifted by its row's
    # end in the data less the row's end in the batch
    pos = np.arange(row_ids.size, dtype=np.int64)
    pos += (ends - counts.cumsum())[row_ids]
    return ds.indices[pos], ds.values[pos], row_ids


def batch_margins(rows: np.ndarray, x: np.ndarray, slabs) -> np.ndarray:
    """a_i'x for each batch row i, from the slabs batch_slabs(ds, rows)."""
    cols, vals, rid = slabs
    return np.bincount(rid, weights=vals * x[cols], minlength=rows.size)


def full_gradient(obj: SmoothObjective, x: np.ndarray) -> np.ndarray:
    """grad F(x) = (1/n) sum_i grad f_i(x), fixed-order vectorized reduction."""
    A = obj.dataset.to_csr()
    coef = LOSSES[obj.loss].coef(A @ x, obj.dataset.labels)
    return (A.T @ coef) / obj.n + obj.ridge * x


def _hess_weights(obj, batch, x, slabs):
    """Per-row curvature weights w_i at x: hess f_i = w_i a_i a_i' + ridge I."""
    loss = LOSSES[obj.loss]
    if loss.curvature is None:  # constant: no margins needed
        return np.full(batch.size, loss.curvature_bound)
    z = batch_margins(batch, x, slabs)
    return loss.curvature(z, obj.dataset.labels[batch])


def hessian_vec(obj: SmoothObjective, batch: np.ndarray, x: np.ndarray,
                s: np.ndarray) -> np.ndarray:
    """(sum_{i in T} hess f_i(x)) s without forming the matrix."""
    batch = np.asarray(batch, dtype=np.int64)
    if batch.size == 0:
        raise ValueError("batch must be nonempty")
    slabs = cols, vals, rid = batch_slabs(obj.dataset, batch)
    q = np.bincount(rid, weights=vals * s[cols], minlength=batch.size)
    coef = _hess_weights(obj, batch, x, slabs) * q
    out = np.bincount(cols, weights=coef[rid] * vals, minlength=obj.d)
    out += (batch.size * obj.ridge) * s
    return out


def dense_batch_hessian(obj: SmoothObjective, batch: np.ndarray,
                        x: np.ndarray) -> np.ndarray:
    """Assemble sum_{i in T} hess f_i(x) densely, for d up to _DENSE_LIMIT."""
    batch = np.asarray(batch, dtype=np.int64)
    if obj.d > _DENSE_LIMIT:
        raise ValueError(f"d = {obj.d} exceeds dense limit {_DENSE_LIMIT}")
    if batch.size == 0:
        raise ValueError("batch must be nonempty")
    w = _hess_weights(obj, batch, x, batch_slabs(obj.dataset, batch))
    H = np.zeros((obj.d, obj.d))
    for k, i in enumerate(batch):
        idx, val = obj.dataset.row(i)
        H[np.ix_(idx, idx)] += w[k] * np.outer(val, val)
    H[np.diag_indices(obj.d)] += batch.size * obj.ridge
    return H
