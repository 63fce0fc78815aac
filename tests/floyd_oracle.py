"""Floyd's rule as a set loop, one subset per call: the reference that
`proxsqn.sampler._floyd_block` must match row for row and word for word.
"""

import numpy as np


def floyd_sample(rng, n, b):
    """Uniform size-b subset of range(n) without replacement in exactly b
    draws (Bentley & Floyd, "A sample of brilliance", CACM 1987).

    The draw bounds are data-independent, so all b words come from one
    vectorized call; only the collision bookkeeping is sequential.
    """
    lo = n - b
    draws = rng.integers(0, np.arange(lo + 1, n + 1))
    chosen = set()
    for j, t in enumerate(draws.tolist()):
        chosen.add(t if t not in chosen else lo + j)
    return np.array(sorted(chosen), dtype=np.int64)
