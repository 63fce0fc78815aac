"""Dataset helpers for the tests: building one row by row, and comparing
two bit for bit.
"""

import numpy as np

from proxsqn import Dataset


def from_rows(rows, labels, d):
    """Build a Dataset from a list of (indices, values) pairs, one per row."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    idx_parts, val_parts = [], []
    for k, (idx, val) in enumerate(rows):
        idx = np.asarray(idx, dtype=np.int64)
        val = np.asarray(val, dtype=np.float64)
        indptr[k + 1] = indptr[k] + idx.size
        idx_parts.append(idx)
        val_parts.append(val)
    indices = np.concatenate(idx_parts) if idx_parts else np.zeros(0, np.int64)
    values = np.concatenate(val_parts) if val_parts else np.zeros(0, np.float64)
    return Dataset(indptr, indices, values, np.asarray(labels, np.float64), d)


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    return (a.d == b.d
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.values, b.values)
            and np.array_equal(a.labels, b.labels))
