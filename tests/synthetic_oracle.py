"""The row-by-row generator that `proxsqn.generate_synthetic` replaced,
kept unchanged as the oracle of the bulk generator: the same Dataset and
planted point, bit for bit, on every spec.
"""

import numpy as np

from dataset_helpers import from_rows
from floyd_oracle import floyd_sample
from proxsqn.model import LOSSES
from proxsqn.sampler import make_rng


def generate_synthetic(spec):
    """Sparse Gaussian rows with geometrically decaying column scales,
    labels from a planted sparse ground truth; one row per loop pass."""
    rng = make_rng(spec.seed)
    d, n = spec.d, spec.n
    if d > 1:
        col_scale = spec.condition ** (-np.arange(d) / (2.0 * (d - 1)))
    else:
        col_scale = np.ones(1)
    support = floyd_sample(rng, d, max(1, int(round(0.2 * d))))
    x_true = np.zeros(d)
    x_true[support] = rng.standard_normal(support.size)
    k = max(1, int(round(spec.density * d)))
    rows = []
    margins = np.empty(n)
    for i in range(n):
        idx = floyd_sample(rng, d, k)
        val = rng.standard_normal(k) * col_scale[idx]
        rows.append((idx, val))
        margins[i] = val @ x_true[idx]
    margins += spec.noise * rng.standard_normal(n)
    if LOSSES[spec.loss].binary_labels:
        labels = np.where(margins > 0.0, 1.0, -1.0)
    else:
        labels = margins
    return from_rows(rows, labels, d), x_true
