"""Shared fixtures: tiny deterministic instances used across the suite."""

import numpy as np
import pytest

from dataset_helpers import from_rows
from proxsqn import (
    LossKind,
    RegKind,
    Regularizer,
    SmoothObjective,
    SyntheticSpec,
    generate_synthetic,
)


@pytest.fixture
def sq_small():
    """6 x 4 squared-error instance with a mix of row sparsities."""
    rows = [
        (np.array([0, 2]), np.array([1.0, -2.0])),
        (np.array([1]), np.array([0.5])),
        (np.array([0, 1, 3]), np.array([-1.0, 2.0, 0.3])),
        (np.array([3]), np.array([1.5])),
        (np.array([0, 1, 2, 3]), np.array([0.2, -0.4, 1.1, -0.7])),
        (np.array([2]), np.array([-0.9])),
    ]
    labels = np.array([0.3, -1.2, 2.0, -0.5, 0.8, 1.1])
    ds = from_rows(rows, labels, 4)
    return SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge=0.1)


@pytest.fixture
def log_small():
    """8 x 5 logistic instance, labels in {-1, +1}."""
    spec = SyntheticSpec(n=8, d=5, density=0.6, condition=3.0, noise=0.3,
                         seed=7, loss=LossKind.LOGISTIC_RIDGE)
    ds, _ = generate_synthetic(spec)
    return SmoothObjective.build(ds, LossKind.LOGISTIC_RIDGE, ridge=0.15)


@pytest.fixture(scope="session")
def midsize():
    """200 x 20 squared-error instance for solver-level tests."""
    spec = SyntheticSpec(n=200, d=20, density=0.15, condition=8.0, noise=0.1,
                         seed=3, loss=LossKind.SQUARED_ERROR)
    ds, _ = generate_synthetic(spec)
    return SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge=0.1)


@pytest.fixture
def lasso_reg():
    return Regularizer(RegKind.L1, 0.01)


@pytest.fixture
def zero_reg():
    return Regularizer(RegKind.ZERO)
