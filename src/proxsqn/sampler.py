"""Mini-batch sampling and the variance-reduced gradient estimator.

The estimator at inner point x with snapshot xt is

    v = sum_j (grad f_{i_j}(x) - grad f_{i_j}(xt)) / w_j  +  grad F(xt)

with per-index divisors w_j chosen so E[v] = grad F(x) exactly:

    UniformBatch        size-b subset uniform without replacement, w_j = b
    WeightedSingle      b = 1, P(i) = q_i = L_i / sum L, w = n q_i
    WeightedBatch       size-b subset with P(S) = L_S / sum_T L_T,
                        w_j = C(n,b) b q_S (enumeration-backed, small n only)
    WeightedReplacement b i.i.d. draws with P(i) = p_i = L_i / sum L,
                        w_j = n b p_{i_j} (practical b > 1 surrogate; the
                        second-moment bound is not claimed for it)

All draws consume the stream of one numpy Philox generator, so runs are
reproducible from the 64-bit seed alone.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationLimitError
from .model import LOSSES, SmoothObjective, batch_slabs, full_gradient

_ENUM_LIMIT = 100000


class SchemeKind(enum.Enum):
    UNIFORM_BATCH = "uniform_batch"
    WEIGHTED_SINGLE = "weighted_single"
    WEIGHTED_BATCH = "weighted_batch"
    WEIGHTED_REPLACEMENT = "weighted_replacement"


@dataclass(frozen=True)
class SamplingScheme:
    kind: SchemeKind
    b: int
    seed: int = 0

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("batch size must be >= 1")
        if self.kind is SchemeKind.WEIGHTED_SINGLE and self.b != 1:
            raise ValueError("WeightedSingle is defined only for b = 1")


@dataclass(eq=False)
class Batch:
    """Drawn indices with per-index estimator divisors."""

    indices: np.ndarray
    weights: np.ndarray
    full: bool = False  # exact full batch (uniform, b = n)


@dataclass(eq=False)
class SnapshotState:
    """Epoch snapshot: point and its exact full gradient."""

    x_tilde: np.ndarray
    full_grad: np.ndarray


def make_snapshot(obj: SmoothObjective, x: np.ndarray) -> SnapshotState:
    return SnapshotState(x.copy(), full_gradient(obj, x))


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by an explicit 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _floyd_sample(rng, n, b):
    """Uniform size-b subset without replacement in exactly b draws.

    The draw bounds are data-independent, so all b words come from one
    vectorized call; only the collision bookkeeping is sequential.
    """
    lo = n - b
    draws = rng.integers(0, np.arange(lo + 1, n + 1))
    chosen = set()
    for j, t in enumerate(draws.tolist()):
        chosen.add(t if t not in chosen else lo + j)
    return np.array(sorted(chosen), dtype=np.int64)


class Sampler:
    """Stateful batch source for one (objective, scheme) pair.

    Owns its generator; drawing mutates only the generator state. The
    Lipschitz-proportional probabilities are precomputed at construction.
    """

    def __init__(self, obj: SmoothObjective, scheme: SamplingScheme,
                 rng: np.random.Generator | None = None):
        n = obj.n
        if scheme.kind is not SchemeKind.WEIGHTED_REPLACEMENT and scheme.b > n:
            raise ValueError(f"batch size {scheme.b} exceeds n = {n}")
        self.obj = obj
        self.scheme = scheme
        self.rng = rng if rng is not None else make_rng(scheme.seed)
        L = obj.component_lipschitz
        if scheme.kind in (SchemeKind.WEIGHTED_SINGLE,
                           SchemeKind.WEIGHTED_REPLACEMENT):
            self._p = L / L.sum()
            self._cum = np.cumsum(self._p)
        elif scheme.kind is SchemeKind.WEIGHTED_BATCH:
            count = math.comb(n, scheme.b)
            if count > _ENUM_LIMIT:
                raise EnumerationLimitError(
                    f"WeightedBatch needs C(n,b) = {count} <= {_ENUM_LIMIT}"
                )
            subsets = list(itertools.combinations(range(n), scheme.b))
            ls = np.array([L[list(S)].sum() for S in subsets])
            self._subsets = [np.array(S, dtype=np.int64) for S in subsets]
            self._q = ls / ls.sum()
            self._cum = np.cumsum(self._q)

    def draw(self) -> Batch:
        n, b = self.obj.n, self.scheme.b
        kind = self.scheme.kind
        if kind is SchemeKind.UNIFORM_BATCH:
            idx = _floyd_sample(self.rng, n, b)
            return Batch(idx, np.full(b, float(b)), full=(b == n))
        if kind is SchemeKind.WEIGHTED_SINGLE:
            i = int(np.searchsorted(self._cum, self.rng.random(), side="right"))
            i = min(i, n - 1)
            return Batch(np.array([i], dtype=np.int64),
                         np.array([n * b * self._p[i]]))
        if kind is SchemeKind.WEIGHTED_BATCH:
            k = int(np.searchsorted(self._cum, self.rng.random(), side="right"))
            k = min(k, len(self._subsets) - 1)
            idx = self._subsets[k]
            w = math.comb(n, b) * b * self._q[k]
            return Batch(idx, np.full(b, w))
        # replacement: b independent Lipschitz-weighted draws
        ks = np.searchsorted(self._cum, self.rng.random(b), side="right")
        ks = np.minimum(ks, n - 1).astype(np.int64)
        return Batch(ks, n * b * self._p[ks])


def vr_gradient(obj: SmoothObjective, snapshot: SnapshotState, batch: Batch,
                x: np.ndarray) -> np.ndarray:
    """Variance-reduced gradient estimate at x.

    The uniform full batch collapses to grad F(x) exactly (same reduction as
    full_gradient, bit for bit), and x identical to the snapshot point gives
    v = grad F(xt) exactly since the difference coefficients vanish.
    """
    if batch.full:
        return full_gradient(obj, x)
    xt = snapshot.x_tilde
    k = batch.indices.size
    cols, vals, rid = batch_slabs(obj.dataset, batch.indices)
    zs = np.bincount(rid, weights=vals * x[cols], minlength=k)
    zts = np.bincount(rid, weights=vals * xt[cols], minlength=k)
    bl = obj.dataset.labels[batch.indices]
    cw = LOSSES[obj.loss].coef_diff(zs, zts, bl) / batch.weights
    diff = np.bincount(cols, weights=cw[rid] * vals, minlength=obj.d)
    # the ridge and snapshot terms added in place, bit for bit
    ridge = np.subtract(x, xt)
    ridge *= obj.ridge * float((1.0 / batch.weights).sum())
    diff += ridge
    diff += snapshot.full_grad
    return diff


@dataclass
class EstimatorStats:
    """Exact moments of v over the batch distribution."""

    mean: np.ndarray
    mean_sq_deviation: float  # E ||v - grad F(x)||^2


def enumerate_estimator_stats(obj: SmoothObjective, snapshot: SnapshotState,
                              scheme: SamplingScheme,
                              x: np.ndarray) -> EstimatorStats:
    """Enumerate the full support of the batch distribution exactly.

    Independent oracle for the estimator: outcome probabilities are computed
    here from first principles, while each outcome's v reuses vr_gradient so
    what is certified is the production estimator itself.
    """
    n, b = obj.n, scheme.b
    L = obj.component_lipschitz
    outcomes: list[tuple[float, Batch]] = []
    if scheme.kind is SchemeKind.UNIFORM_BATCH:
        count = math.comb(n, b)
        _check_support(count)
        for S in itertools.combinations(range(n), b):
            idx = np.array(S, dtype=np.int64)
            outcomes.append((1.0 / count,
                             Batch(idx, np.full(b, float(b)), full=(b == n))))
    elif scheme.kind is SchemeKind.WEIGHTED_SINGLE:
        _check_support(n)
        q = L / L.sum()
        for i in range(n):
            outcomes.append((float(q[i]),
                             Batch(np.array([i], dtype=np.int64),
                                   np.array([n * 1 * q[i]]))))
    elif scheme.kind is SchemeKind.WEIGHTED_BATCH:
        count = math.comb(n, b)
        _check_support(count)
        subsets = list(itertools.combinations(range(n), b))
        ls = np.array([L[list(S)].sum() for S in subsets])
        q = ls / ls.sum()
        for k, S in enumerate(subsets):
            idx = np.array(S, dtype=np.int64)
            w = count * b * q[k]
            outcomes.append((float(q[k]), Batch(idx, np.full(b, w))))
    elif scheme.kind is SchemeKind.WEIGHTED_REPLACEMENT:
        _check_support(n ** b)
        p = L / L.sum()
        for tup in itertools.product(range(n), repeat=b):
            idx = np.array(tup, dtype=np.int64)
            prob = float(np.prod(p[idx]))
            outcomes.append((prob, Batch(idx, n * b * p[idx])))
    else:
        raise ValueError(f"unknown scheme kind {scheme.kind}")
    g = full_gradient(obj, x)
    mean = np.zeros(obj.d)
    second = 0.0
    total_p = 0.0
    for prob, batch in outcomes:
        v = vr_gradient(obj, snapshot, batch, x)
        mean += prob * v
        dev = v - g
        second += prob * float(dev @ dev)
        total_p += prob
    if abs(total_p - 1.0) > 1e-9:
        raise AssertionError(f"enumeration probabilities sum to {total_p}")
    return EstimatorStats(mean, second)


def _check_support(count):
    if count > _ENUM_LIMIT:
        raise EnumerationLimitError(
            f"support size {count} exceeds enumeration guard {_ENUM_LIMIT}"
        )
