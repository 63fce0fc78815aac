"""Per-component and batch gradients: the references that the model tests
and the estimator's formula test compare the fast paths against.
"""

import numpy as np

from proxsqn import SmoothObjective
from proxsqn.model import LOSSES, batch_slabs


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
