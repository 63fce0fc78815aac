import itertools
import math
import types

import numpy as np
import pytest
from scipy.special import expit

from dataset_helpers import from_rows
from floyd_oracle import floyd_sample
from gradient_oracle import component_gradient
from proxsqn import (
    EnumerationLimitError,
    LossKind,
    Sampler,
    SamplingScheme,
    SchemeKind,
    SmoothObjective,
    SyntheticSpec,
    enumerate_estimator_stats,
    full_gradient,
    generate_synthetic,
    make_rng,
    make_snapshot,
    vr_gradient,
)
from proxsqn.model import batch_slabs
from proxsqn.sampler import _floyd_block, gather_batches


def one_batch(obj, snap, idx, weights, full=False):
    """The batch of one row of indices and divisors, gathered the one way."""
    return next(gather_batches(obj, snap, np.asarray(idx)[None],
                               np.asarray(weights, dtype=np.float64)[None],
                               full))


def origin(obj):
    """A snapshot for draws whose estimator is not under test."""
    return make_snapshot(obj, np.zeros(obj.d))


def draw_one_by_one(sampler, snap):
    """One batch drawn the way the sampler drew one per step before it drew
    whole epochs: the oracle for draw_epoch."""
    obj, n, b = sampler.obj, sampler.obj.n, sampler.scheme.b
    kind = sampler.scheme.kind
    if kind is SchemeKind.UNIFORM_BATCH:
        idx = floyd_sample(sampler.rng, n, b)
        return one_batch(obj, snap, idx, np.full(b, float(b)), full=(b == n))
    if kind is SchemeKind.WEIGHTED_SINGLE:
        i = int(np.searchsorted(sampler._cum, sampler.rng.random(),
                                side="right"))
        i = min(i, n - 1)
        return one_batch(obj, snap, np.array([i], dtype=np.int64),
                         np.array([n * b * sampler._p[i]]))
    if kind is SchemeKind.WEIGHTED_BATCH:
        k = int(np.searchsorted(sampler._cum, sampler.rng.random(),
                                side="right"))
        k = min(k, len(sampler._subsets) - 1)
        idx = sampler._subsets[k]
        w = math.comb(n, b) * b * sampler._q[k]
        return one_batch(obj, snap, idx, np.full(b, w))
    ks = np.searchsorted(sampler._cum, sampler.rng.random(b), side="right")
    ks = np.minimum(ks, n - 1).astype(np.int64)
    return one_batch(obj, snap, ks, n * b * sampler._p[ks])


# each loss's coefficient difference as one function of both margins, not
# split into a snapshot part and the difference built from it
UNSPLIT_COEF_DIFF = {
    LossKind.SQUARED_ERROR: lambda z, zt, b: z - zt,
    LossKind.LOGISTIC_RIDGE:
        lambda z, zt, b: b * (expit(-b * zt) - expit(-b * z)),
}


def vr_gradient_per_step(obj, snapshot, batch, x):
    """v computed from the snapshot alone, every step: both margins by
    bincount, the unsplit coefficient difference and the batch's ridge
    sum. The oracle for the snapshot terms a gathered batch carries."""
    if batch.full:
        return full_gradient(obj, x)
    xt = snapshot.x_tilde
    k = batch.indices.size
    (cols, vals, rid), bl = batch.slabs, batch.labels
    zs = np.bincount(rid, weights=vals * x[cols], minlength=k)
    zts = np.bincount(rid, weights=vals * xt[cols], minlength=k)
    cw = UNSPLIT_COEF_DIFF[obj.loss](zs, zts, bl) / batch.weights
    diff = np.bincount(cols, weights=cw[rid] * vals, minlength=obj.d)
    ridge = np.subtract(x, xt)
    ridge *= obj.ridge * float((1.0 / batch.weights).sum())
    diff += ridge
    diff += snapshot.full_grad
    return diff


# ---------------------------------------------------------------- floyd sampling


def test_floyd_sample_shape_and_range():
    rng = make_rng(41)
    for n, b in [(10, 1), (10, 3), (10, 10), (5, 4)]:
        for s in _floyd_block(rng, n, b, 50):
            assert s.size == b
            assert np.all(np.diff(s) > 0)  # sorted, unique
            assert s.min() >= 0 and s.max() < n


@pytest.mark.parametrize("n,b", [(12, 5), (1000, 10), (10, 10), (7, 1),
                                 (30, 29), (40, 20)])
def test_floyd_block_is_the_floyd_sample_loop(n, b):
    # 300 rows: at (1000, 10) about 13 of them hold a collision; at (30, 29)
    # and (40, 20) a draw often repeats the replacement of an earlier one
    m = 300
    rng, oracle = make_rng(47), make_rng(47)
    block = _floyd_block(rng, n, b, m)
    loop = np.array([floyd_sample(oracle, n, b) for _ in range(m)])
    assert block.dtype == np.int64
    assert np.array_equal(block, loop)
    # the generator is left where the loop leaves it
    assert rng.integers(0, 1 << 40) == oracle.integers(0, 1 << 40)
    assert rng.random() == oracle.random()


def test_floyd_sample_uniform_frequencies():
    rng = make_rng(42)
    draws = 30000
    rows, counts = np.unique(_floyd_block(rng, 5, 2, draws), axis=0,
                             return_counts=True)
    assert len(rows) == 10
    p = 1.0 / 10.0
    sigma = math.sqrt(draws * p * (1 - p))
    assert max(abs(c - draws * p) for c in counts) <= 4 * sigma


def test_make_rng_takes_64_bit_seeds_only():
    assert make_rng(2 ** 64 - 1).random() == make_rng(2 ** 64 - 1).random()
    for bad in (-1, 2 ** 64):
        with pytest.raises(ValueError, match=r"outside \[0, 2\^64\)"):
            make_rng(bad)


def test_sampler_determinism(sq_small):
    scheme = SamplingScheme(SchemeKind.UNIFORM_BATCH, 2, seed=9)
    snap = origin(sq_small)
    a = [Sampler(sq_small, scheme).draw(snap).indices for _ in range(1)]
    b = [Sampler(sq_small, scheme).draw(snap).indices for _ in range(1)]
    assert np.array_equal(a[0], b[0])
    s1, s2 = Sampler(sq_small, scheme), Sampler(sq_small, scheme)
    for _ in range(20):
        assert np.array_equal(s1.draw(snap).indices, s2.draw(snap).indices)


# ---------------------------------------------------------------- epoch draws

# m is never a multiple of n // b, so the last block of rows is short
EPOCHS = [
    ("sq_small", SchemeKind.UNIFORM_BATCH, 2, 7),
    ("sq_small", SchemeKind.UNIFORM_BATCH, 6, 4),  # b = n: full batches
    ("sq_small", SchemeKind.WEIGHTED_SINGLE, 1, 13),
    ("sq_small", SchemeKind.WEIGHTED_BATCH, 2, 7),
    ("sq_small", SchemeKind.WEIGHTED_REPLACEMENT, 4, 7),
    ("sq_small", SchemeKind.WEIGHTED_REPLACEMENT, 9, 5),  # b > n
    ("midsize", SchemeKind.UNIFORM_BATCH, 7, 60),
    ("midsize", SchemeKind.WEIGHTED_SINGLE, 1, 450),
    ("midsize", SchemeKind.WEIGHTED_REPLACEMENT, 7, 60),
]


@pytest.mark.parametrize("fixture,kind,b,m", EPOCHS)
def test_draw_epoch_is_m_draws(fixture, kind, b, m, request):
    obj = request.getfixturevalue(fixture)
    ds = obj.dataset
    scheme = SamplingScheme(kind, b, seed=5)
    sampler, oracle = Sampler(obj, scheme), Sampler(obj, scheme)
    rng = make_rng(48)
    x, xt = rng.standard_normal(obj.d), rng.standard_normal(obj.d)
    snap = make_snapshot(obj, xt)
    batches = sampler.draw_epoch(m, snap)
    want = [draw_one_by_one(oracle, snap) for _ in range(m)]
    # every word of the epoch is taken before the first batch is used
    assert sampler.rng.random() == oracle.rng.random()
    got = list(batches)
    assert len(got) == m
    for batch, ref in zip(got, want):
        assert batch.indices.dtype == np.int64
        assert np.array_equal(batch.indices, ref.indices)
        assert np.array_equal(batch.weights, ref.weights)
        assert batch.full == ref.full
        # the same bits from rows gathered in an epoch block or one batch alone
        assert np.array_equal(vr_gradient(obj, batch, x),
                              vr_gradient(obj, ref, x))
        if batch.full:
            continue
        assert np.array_equal(batch.labels, ds.labels[ref.indices])
        for part, oracle_part in zip(batch.slabs,
                                     batch_slabs(ds, ref.indices)):
            assert part.dtype == oracle_part.dtype
            assert np.array_equal(part, oracle_part)
    # draw() is draw_epoch(1)'s batch
    for _ in range(3):
        one, ref = sampler.draw(snap), draw_one_by_one(oracle, snap)
        assert np.array_equal(one.indices, ref.indices)
        assert np.array_equal(one.weights, ref.weights)


@pytest.fixture(scope="module")
def log_midsize():
    """200 x 20 logistic instance: blocks of many batches, binary labels."""
    spec = SyntheticSpec(n=200, d=20, density=0.15, condition=8.0, noise=0.1,
                         seed=3, loss=LossKind.LOGISTIC_RIDGE)
    ds, _ = generate_synthetic(spec)
    return SmoothObjective.build(ds, LossKind.LOGISTIC_RIDGE, ridge=0.1)


# n = 200: m is never a multiple of n // b, and b = 250 > n draws one batch
# per block
CARRIED = [(SchemeKind.UNIFORM_BATCH, 7, 60),
           (SchemeKind.UNIFORM_BATCH, 200, 3),  # b = n: full batches
           (SchemeKind.WEIGHTED_SINGLE, 1, 450),
           (SchemeKind.WEIGHTED_BATCH, 2, 150),
           (SchemeKind.WEIGHTED_REPLACEMENT, 7, 60),
           (SchemeKind.WEIGHTED_REPLACEMENT, 250, 3)]


@pytest.mark.parametrize("fixture", ["midsize", "log_midsize"])
@pytest.mark.parametrize("kind,b,m", CARRIED)
def test_carried_snapshot_terms_are_the_per_step_ones(fixture, kind, b, m,
                                                      request):
    # the terms computed once per gathered block give the bits of the
    # per-step formula, each epoch against its own snapshot
    obj = request.getfixturevalue(fixture)
    sampler = Sampler(obj, SamplingScheme(kind, b, seed=6))
    rng = make_rng(49)
    for _ in range(3):
        snap = make_snapshot(obj, rng.standard_normal(obj.d))
        for batch in sampler.draw_epoch(m, snap):
            x = rng.standard_normal(obj.d)
            assert np.array_equal(vr_gradient(obj, batch, x),
                                  vr_gradient_per_step(obj, snap, batch, x))


@pytest.mark.parametrize("b", [2, 6])  # 6 = n: a full batch
def test_batch_carries_its_snapshot(sq_small, b):
    # vr_gradient takes the snapshot from the batch: no other can meet it
    sampler = Sampler(sq_small, SamplingScheme(SchemeKind.UNIFORM_BATCH, b))
    rng = make_rng(50)
    snap = make_snapshot(sq_small, rng.standard_normal(sq_small.d))
    batch = sampler.draw(snap)
    assert batch.snapshot is snap
    x = rng.standard_normal(sq_small.d)
    assert np.array_equal(vr_gradient(sq_small, batch, x),
                          vr_gradient_per_step(sq_small, snap, batch, x))


@pytest.mark.parametrize("kind,b,m", [(SchemeKind.UNIFORM_BATCH, 7, 60),
                                      (SchemeKind.WEIGHTED_SINGLE, 1, 450),
                                      (SchemeKind.WEIGHTED_REPLACEMENT, 7, 60)])
def test_draw_epoch_gathers_at_most_n_rows(midsize, kind, b, m, monkeypatch):
    import proxsqn.sampler as sampler_module

    sizes = []

    def recording_slabs(ds, rows):
        sizes.append(rows.size)
        return batch_slabs(ds, rows)

    monkeypatch.setattr(sampler_module, "batch_slabs", recording_slabs)
    batches = Sampler(midsize, SamplingScheme(kind, b)).draw_epoch(
        m, origin(midsize))
    assert sizes == []  # rows are gathered only as batches are taken
    for _ in batches:
        assert max(sizes) <= midsize.n
    assert sum(sizes) == m * b
    assert len(sizes) == -(-m // (midsize.n // b))


# ---------------------------------------------------------------- schemes


def test_scheme_validation(sq_small):
    with pytest.raises(ValueError, match="b = 1"):
        SamplingScheme(SchemeKind.WEIGHTED_SINGLE, 2)
    with pytest.raises(ValueError, match=">= 1"):
        SamplingScheme(SchemeKind.UNIFORM_BATCH, 0)
    with pytest.raises(ValueError, match="exceeds n"):
        Sampler(sq_small, SamplingScheme(SchemeKind.UNIFORM_BATCH, 99))
    # replacement draws may exceed n
    Sampler(sq_small, SamplingScheme(SchemeKind.WEIGHTED_REPLACEMENT, 99))


def test_uniform_batch_weights(sq_small):
    s = Sampler(sq_small, SamplingScheme(SchemeKind.UNIFORM_BATCH, 3))
    batch = s.draw(origin(sq_small))
    assert np.array_equal(batch.weights, [3.0, 3.0, 3.0])
    assert not batch.full
    full = Sampler(sq_small, SamplingScheme(SchemeKind.UNIFORM_BATCH, 6)).draw(
        origin(sq_small))
    assert full.full
    assert np.array_equal(full.indices, np.arange(6))


def test_weighted_single_weights(sq_small):
    L = sq_small.component_lipschitz
    q = L / L.sum()
    s = Sampler(sq_small, SamplingScheme(SchemeKind.WEIGHTED_SINGLE, 1))
    for _ in range(30):
        batch = s.draw(origin(sq_small))
        i = int(batch.indices[0])
        assert batch.weights[0] == pytest.approx(sq_small.n * q[i])


def test_weighted_batch_weights(sq_small):
    L = sq_small.component_lipschitz
    n, b = sq_small.n, 2
    s = Sampler(sq_small, SamplingScheme(SchemeKind.WEIGHTED_BATCH, b))
    total = sum(L[list(S)].sum()
                for S in itertools.combinations(range(n), b))
    for _ in range(20):
        batch = s.draw(origin(sq_small))
        q = L[batch.indices].sum() / total
        want = math.comb(n, b) * b * q
        assert np.allclose(batch.weights, want)


def test_weighted_batch_enumeration_guard():
    # C(30, 15) = 155 million blows the support guard
    from proxsqn import LossKind, SmoothObjective
    rows = [(np.array([0]), np.array([1.0]))] * 30
    ds = from_rows(rows, np.ones(30), 1)
    obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge=0.1)
    with pytest.raises(EnumerationLimitError):
        Sampler(obj, SamplingScheme(SchemeKind.WEIGHTED_BATCH, 15))


def test_weighted_replacement_weights(sq_small):
    L = sq_small.component_lipschitz
    p = L / L.sum()
    s = Sampler(sq_small, SamplingScheme(SchemeKind.WEIGHTED_REPLACEMENT, 3))
    batch = s.draw(origin(sq_small))
    assert np.allclose(batch.weights, sq_small.n * 3 * p[batch.indices])


# ---------------------------------------------------------------- estimator


def test_vr_gradient_formula(sq_small, log_small):
    rng = make_rng(43)
    for obj in (sq_small, log_small):
        xt = rng.standard_normal(obj.d)
        x = rng.standard_normal(obj.d)
        snap = make_snapshot(obj, xt)
        idx = np.array([1, 3, 4])
        w = np.array([2.0, 3.0, 5.0])
        v = vr_gradient(obj, one_batch(obj, snap, idx, w), x)
        want = snap.full_grad.copy()
        for i, wi in zip(idx, w):
            want += (component_gradient(obj, int(i), x)
                     - component_gradient(obj, int(i), xt)) / wi
        assert np.allclose(v, want, atol=1e-12)


def test_vr_gradient_at_snapshot_is_exact(sq_small):
    rng = make_rng(44)
    x = rng.standard_normal(sq_small.d)
    snap = make_snapshot(sq_small, x)
    batch = one_batch(sq_small, snap, [0, 2], [2.0, 2.0])
    v = vr_gradient(sq_small, batch, x)
    assert np.array_equal(v, snap.full_grad)  # bitwise


def test_vr_gradient_full_batch_is_full_gradient(sq_small):
    rng = make_rng(45)
    x = rng.standard_normal(sq_small.d)
    xt = rng.standard_normal(sq_small.d)
    snap = make_snapshot(sq_small, xt)
    n = sq_small.n
    v = vr_gradient(sq_small, one_batch(
        sq_small, snap, np.arange(n), np.full(n, float(n)), True), x)
    assert np.array_equal(v, full_gradient(sq_small, x))  # bitwise


def test_snapshot_is_a_copy(sq_small):
    x = np.ones(sq_small.d)
    snap = make_snapshot(sq_small, x)
    x[0] = 99.0
    assert snap.x_tilde[0] == 1.0


@pytest.mark.parametrize("kind,b", [
    (SchemeKind.UNIFORM_BATCH, 2),
    (SchemeKind.WEIGHTED_SINGLE, 1),
    (SchemeKind.WEIGHTED_BATCH, 2),
    (SchemeKind.WEIGHTED_REPLACEMENT, 2),
])
def test_estimator_unbiased_all_schemes(sq_small, kind, b):
    rng = make_rng(46)
    for _ in range(3):
        xt = rng.standard_normal(sq_small.d)
        x = rng.standard_normal(sq_small.d)
        snap = make_snapshot(sq_small, xt)
        stats = enumerate_estimator_stats(sq_small, snap,
                                          SamplingScheme(kind, b), x)
        g = full_gradient(sq_small, x)
        assert np.max(np.abs(stats.mean - g)) <= 1e-12
        assert stats.mean_sq_deviation >= 0.0


def test_enumeration_checks_its_probabilities(sq_small, monkeypatch):
    # a support that drops one subset carries probability 1 - 1/C(n, b)
    import proxsqn.sampler as S
    monkeypatch.setattr(S, "itertools", types.SimpleNamespace(
        combinations=lambda pool, b: list(itertools.combinations(pool, b))[1:]))
    snap = make_snapshot(sq_small, np.zeros(sq_small.d))
    with pytest.raises(AssertionError, match="probabilities sum to"):
        enumerate_estimator_stats(
            sq_small, snap, SamplingScheme(SchemeKind.UNIFORM_BATCH, 2),
            np.zeros(sq_small.d))


def test_enumeration_guard():
    from proxsqn import LossKind, SmoothObjective

    rows = [(np.array([0]), np.array([1.0]))] * 25
    ds = from_rows(rows, np.ones(25), 1)
    obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge=0.1)
    snap = make_snapshot(obj, np.zeros(1))
    with pytest.raises(EnumerationLimitError):
        enumerate_estimator_stats(
            obj, snap, SamplingScheme(SchemeKind.UNIFORM_BATCH, 12),
            np.zeros(1))
