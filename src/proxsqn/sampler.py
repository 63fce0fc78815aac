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
reproducible from the 64-bit seed alone. Sampler.draw_epoch(m, snapshot)
takes the words of m batches in one call, in the order m draw() calls take
them, so the batches are bit for bit the same; uniform subsets come from
_floyd_block, which applies Floyd's rule to all m rows at once.
gather_batches, the one builder of a Batch, gathers their rows in blocks,
and with each block the estimator's terms that depend on the snapshot alone
(margins a_i'xt, the loss's snapshot part, ridge * sum_j 1/w_j), once per
block; vr_gradient does the work that depends on x.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationLimitError
from .model import LOSSES, SmoothObjective, batch_margins, batch_slabs, \
    full_gradient

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
    """Drawn indices with per-index estimator divisors, from gather_batches.

    slabs and labels are the gathered rows, exactly batch_slabs(dataset,
    indices) and dataset.labels[indices]; the terms of the snapshot they were
    gathered against are snapshot_coef, the loss's snapshot part at each
    a_i'xt, and ridge_coef = ridge * sum_j 1/w_j. A full batch carries none.
    """

    indices: np.ndarray
    weights: np.ndarray
    snapshot: SnapshotState
    full: bool = False  # exact full batch (uniform, b = n)
    slabs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    labels: np.ndarray | None = None
    snapshot_coef: np.ndarray | None = None
    ridge_coef: float = 0.0


@dataclass(eq=False)
class SnapshotState:
    """Epoch snapshot: point and its exact full gradient."""

    x_tilde: np.ndarray
    full_grad: np.ndarray


def make_snapshot(obj: SmoothObjective, x: np.ndarray) -> SnapshotState:
    return SnapshotState(x.copy(), full_gradient(obj, x))


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed is a valid 64-bit generator key."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by an explicit 64-bit seed."""
    check_seed(seed)
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


def _floyd_block(rng, n, b, m):
    """m uniform size-b subsets as the sorted rows of an (m, b) array.

    Row for row, and word for word of the stream, m _floyd_sample calls:
    one call takes the m*b words with the same bounds in the same order,
    and _floyd_rows resolves them.
    """
    bounds = np.tile(np.arange(n - b + 1, n + 1), m)
    return _floyd_rows(rng.integers(0, bounds).reshape(m, b), n)


def _floyd_rows(draws, n):
    """Floyd's rule on the rows of an (m, b) int64 array, in place: column j
    holds a draw from [0, n - b + j], and it becomes n - b + j when it
    repeats an entry of its row as the rule has left it. Returns draws with
    each row sorted, one uniform size-b subset of range(n) per row.

    Every draw before column j is in the row's set by then (as drawn, or it
    had repeated a member), so column j repeats a member when it repeats an
    earlier draw, which one stable sort per row finds, or when it equals
    n - b + i for an earlier column i that repeated, which is checked one
    column at a time for all rows.
    """
    m, b = draws.shape
    lo = n - b
    order = np.argsort(draws, axis=1, kind="stable")
    ranked = np.take_along_axis(draws, order, axis=1)
    hit = np.zeros((m, b), bool)
    np.put_along_axis(hit, order[:, 1:], ranked[:, 1:] == ranked[:, :-1],
                      axis=1)
    for j in range(1, b):
        i = draws[:, j] - lo
        late = (i >= 0) & (i < j)
        hit[late, j] |= hit[late, i[late]]
    np.copyto(draws, np.arange(lo, n), where=hit)
    draws.sort(axis=1)
    return draws


class Sampler:
    """Stateful batch source for one (objective, scheme) pair.

    Owns its generator; drawing mutates only the generator state. The
    Lipschitz-proportional probabilities are precomputed at construction.
    """

    def __init__(self, obj: SmoothObjective, scheme: SamplingScheme):
        n = obj.n
        if scheme.kind is not SchemeKind.WEIGHTED_REPLACEMENT and scheme.b > n:
            raise ValueError(f"batch size {scheme.b} exceeds n = {n}")
        self.obj = obj
        self.scheme = scheme
        self.rng = make_rng(scheme.seed)
        L = obj.component_lipschitz
        if scheme.kind in (SchemeKind.WEIGHTED_SINGLE,
                           SchemeKind.WEIGHTED_REPLACEMENT):
            self._p = L / L.sum()
            self._cum = np.cumsum(self._p)
        elif scheme.kind is SchemeKind.WEIGHTED_BATCH:
            _check_support(math.comb(n, scheme.b))
            subsets = list(itertools.combinations(range(n), scheme.b))
            ls = np.array([L[list(S)].sum() for S in subsets])
            self._subsets = np.array(subsets, dtype=np.int64)
            self._q = ls / ls.sum()
            self._cum = np.cumsum(self._q)

    def draw(self, snapshot: SnapshotState) -> Batch:
        """One batch: the first and only batch of draw_epoch(1, snapshot)."""
        return next(self.draw_epoch(1, snapshot))

    def draw_epoch(self, m: int, snapshot: SnapshotState):
        """Iterator over the next m batches, bit for bit m draw() calls.

        Every word of the m batches is taken from the stream now, in the
        order m draw() calls would take them; gather_batches gathers their
        rows against the epoch's snapshot as the iterator is consumed.
        """
        n, b = self.obj.n, self.scheme.b
        kind = self.scheme.kind
        rng = self.rng
        if kind is SchemeKind.UNIFORM_BATCH:
            idx = _floyd_block(rng, n, b, m)
            weights = np.full((m, b), float(b))
        elif kind is SchemeKind.WEIGHTED_BATCH:
            ks = np.searchsorted(self._cum, rng.random(m), side="right")
            ks = np.minimum(ks, len(self._subsets) - 1)
            idx = self._subsets[ks]
            weights = np.repeat(math.comb(n, b) * b * self._q[ks], b)
            weights = weights.reshape(m, b)
        else:
            # weighted_single (b = 1) and replacement: m*b i.i.d. draws
            ks = np.searchsorted(self._cum, rng.random(m * b), side="right")
            idx = np.minimum(ks, n - 1).astype(np.int64).reshape(m, b)
            weights = n * b * self._p[idx]
        return gather_batches(self.obj, snapshot, idx, weights, full=(
            kind is SchemeKind.UNIFORM_BATCH and b == n))


def gather_batches(obj: SmoothObjective, snapshot: SnapshotState,
                   idx: np.ndarray, weights: np.ndarray, full: bool):
    """Iterator over the batches of the rows of idx and weights, (m, b) each.

    The one place a Batch is built. A full batch (uniform, b = n) carries
    no rows: the estimator takes the full gradient. Otherwise the rows are
    gathered as the iterator is consumed, in blocks of at most n rows (one
    batch when b > n), so the memory of a block stays at one pass over the
    data. Each block's snapshot terms take the bits of one batch at a time
    (bincount adds each row's entries in one order; the rest is per row),
    and each batch carries views of its slabs, labels and snapshot terms.
    """
    if full:
        yield from (Batch(i, w, snapshot, True) for i, w in zip(idx, weights))
        return
    ds, loss = obj.dataset, LOSSES[obj.loss]
    m, b = idx.shape
    per_block = max(1, ds.n // b)
    for t0 in range(0, m, per_block):
        rows, w = idx[t0:t0 + per_block], weights[t0:t0 + per_block]
        flat = rows.ravel()
        slabs = cols, vals, rid = batch_slabs(ds, flat)
        labels = ds.labels[rows]
        zt = batch_margins(flat, snapshot.x_tilde, slabs).reshape(rows.shape)
        st = loss.snapshot_coef(zt, labels)
        ridge = (obj.ridge * (1.0 / w).sum(axis=1)).tolist()
        # entry offsets of each batch in the block, and batch-local ids
        ends = np.searchsorted(rid, np.arange(0, rows.size + 1, b))
        local = rid % b
        for t, (lo, hi) in enumerate(zip(ends[:-1].tolist(),
                                         ends[1:].tolist())):
            yield Batch(rows[t], w[t], snapshot, slabs=(
                cols[lo:hi], vals[lo:hi], local[lo:hi]), labels=labels[t],
                snapshot_coef=st[t], ridge_coef=ridge[t])


def vr_gradient(obj: SmoothObjective, snapshot: SnapshotState, batch: Batch,
                x: np.ndarray) -> np.ndarray:
    """Variance-reduced gradient estimate at x, from the snapshot terms the
    batch carries; a batch of another snapshot raises ValueError.

    The uniform full batch collapses to grad F(x) exactly (same reduction as
    full_gradient, bit for bit), and x identical to the snapshot point gives
    v = grad F(xt) exactly since the difference coefficients vanish.
    """
    if batch.snapshot is not snapshot:
        raise ValueError("batch was gathered against another snapshot")
    if batch.full:
        return full_gradient(obj, x)
    k = batch.indices.size
    (cols, vals, rid), bl = batch.slabs, batch.labels
    zs = np.bincount(rid, weights=vals * x[cols], minlength=k)
    cw = LOSSES[obj.loss].coef_diff(zs, batch.snapshot_coef, bl) \
        / batch.weights
    diff = np.bincount(cols, weights=cw[rid] * vals, minlength=obj.d)
    # the ridge and snapshot terms added in place, bit for bit
    ridge = np.subtract(x, snapshot.x_tilde)
    ridge *= batch.ridge_coef
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
    here from first principles, while each outcome's batch is gathered, with
    its snapshot terms, by gather_batches and its v computed by vr_gradient,
    so what is certified is the production estimator itself.
    """
    n, b = obj.n, scheme.b
    L = obj.component_lipschitz
    kind = scheme.kind
    # the outcomes as rows of (K, b) index and divisor arrays, with their
    # probabilities as Python floats; weighted_single is replacement at b = 1
    if kind in (SchemeKind.WEIGHTED_SINGLE, SchemeKind.WEIGHTED_REPLACEMENT):
        _check_support(n ** b)
        p = L / L.sum()
        idx = np.array(list(itertools.product(range(n), repeat=b)),
                       dtype=np.int64)
        weights = n * b * p[idx]
        probs = [float(np.prod(row)) for row in p[idx]]
    else:  # uniform and weighted: the C(n, b) subsets
        count = math.comb(n, b)
        _check_support(count)
        idx = np.array(list(itertools.combinations(range(n), b)),
                       dtype=np.int64)
        if kind is SchemeKind.UNIFORM_BATCH:
            probs = [1.0 / count] * count
            weights = np.full((count, b), float(b))
        else:
            ls = np.array([L[row].sum() for row in idx])
            q = ls / ls.sum()
            probs = q.tolist()
            weights = np.repeat(count * b * q, b).reshape(count, b)
    batches = gather_batches(obj, snapshot, idx, weights, full=(
        kind is SchemeKind.UNIFORM_BATCH and b == n))
    g = full_gradient(obj, x)
    mean, second, total_p = np.zeros(obj.d), 0.0, 0.0
    for prob, batch in zip(probs, batches):
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
