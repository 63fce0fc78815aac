"""The numpy identities the library's hot paths rely on, bit for bit.

The curvature rebuild takes norms as math.sqrt(float(v.dot(v))), window
means as np.add.reduce(W, axis=0) divided by Z in place, and inner products
with ndarray.dot, each in place of a slower numpy call that the traces were
first recorded with. Should a numpy release compute either side
differently, these fail instead of the traces moving silently.
"""

import math

import numpy as np
import pytest

from proxsqn import make_rng

TINY = np.finfo(float).tiny
# +-0, subnormals, the least normal, +-1e300 (whose squares overflow), inf
# and nan, among ordinary values
CORPUS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, TINY, -TINY, 1e-160,
                   1e300, -1e300, 1.5, -2.25, 3.0, np.inf, -np.inf, np.nan])


def vectors():
    """Draws from CORPUS of several lengths, then all-finite, all-subnormal
    and all-ordinary ones."""
    rng = make_rng(61)
    out = [rng.choice(CORPUS, size=d) for d in (1, 2, 3, 7, 16, 50, 257)
           for _ in range(25)]
    finite = CORPUS[np.isfinite(CORPUS)]
    out += [rng.choice(finite, size=d) for d in (3, 50, 257)]
    out += [np.full(40, 5e-324), rng.standard_normal(50),
            1e-200 * rng.standard_normal(257), 1e150 * rng.standard_normal(9)]
    return out


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def test_sqrt_of_dot_is_the_norm():
    for v in vectors():
        with np.errstate(all="ignore"):
            assert same_bits(math.sqrt(float(v.dot(v))),
                             np.linalg.norm(v)), v


def test_dot_is_matmul():
    for v in vectors():
        w = v[::-1].copy()
        with np.errstate(all="ignore"):
            assert same_bits(v.dot(w), v @ w), v
            assert same_bits(v.dot(v), v @ v), v


@pytest.mark.parametrize("Z", [1, 2, 7, 10, 17])
def test_reduce_over_z_is_the_mean(Z):
    rng = make_rng(62 + Z)
    for d in (1, 3, 50):
        for W in (rng.choice(CORPUS, size=(Z, d)),
                  rng.choice(CORPUS[np.isfinite(CORPUS)], size=(Z, d)),
                  rng.standard_normal((Z, d))):
            with np.errstate(all="ignore"):
                reduced = np.add.reduce(W, axis=0)
                reduced /= Z
                mean = W.mean(axis=0)
            assert reduced.tobytes() == mean.tobytes(), W
