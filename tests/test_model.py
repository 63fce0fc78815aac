import numpy as np
import pytest

from dataset_helpers import from_rows
from gradient_oracle import batch_gradient, component_gradient
from proxsqn import (
    Dataset,
    LossKind,
    SmoothObjective,
    dense_batch_hessian,
    full_gradient,
    hessian_vec,
    make_rng,
    smooth_value,
)
from proxsqn.model import batch_margins, batch_slabs


def num_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


# ---------------------------------------------------------------- dataset


def test_dataset_basic_shape(sq_small):
    ds = sq_small.dataset
    assert ds.n == 6 and ds.d == 4 and ds.nnz == 12
    idx, val = ds.row(2)
    assert np.array_equal(idx, [0, 1, 3])
    assert np.array_equal(val, [-1.0, 2.0, 0.3])


def test_dataset_validation():
    with pytest.raises(ValueError, match="at least one row"):
        Dataset(np.array([0]), np.zeros(0), np.zeros(0), np.zeros(0), 2)
    with pytest.raises(ValueError, match="labels shape"):
        Dataset(np.array([0, 1]), np.array([0]), np.array([1.0]),
                np.zeros(2), 2)
    with pytest.raises(ValueError, match="out of range"):
        Dataset(np.array([0, 1]), np.array([5]), np.array([1.0]),
                np.zeros(1), 2)
    with pytest.raises(ValueError, match="strictly increasing"):
        Dataset(np.array([0, 2]), np.array([1, 1]), np.array([1.0, 2.0]),
                np.zeros(1), 3)
    with pytest.raises(ValueError, match="indptr"):
        Dataset(np.array([0, 3]), np.array([0]), np.array([1.0]),
                np.zeros(1), 2)
    with pytest.raises(ValueError, match="d must be >= 1"):
        Dataset(np.array([0, 1]), np.array([0]), np.array([1.0]),
                np.zeros(1), 0)
    with pytest.raises(ValueError, match="nondecreasing"):
        Dataset(np.array([0, 2, 1, 2]), np.array([0, 1]),
                np.array([1.0, 2.0]), np.zeros(3), 2)
    with pytest.raises(ValueError, match="length mismatch"):
        Dataset(np.array([0, 1]), np.array([0]), np.array([1.0, 2.0]),
                np.zeros(1), 2)
    # equal indices are fine across a row boundary
    ds = Dataset(np.array([0, 1, 2]), np.array([1, 1]), np.array([1.0, 2.0]),
                 np.zeros(2), 3)
    assert ds.n == 2


def test_dataset_empty_row_allowed():
    ds = from_rows([(np.array([], dtype=np.int64), np.array([])),
                    (np.array([0]), np.array([2.0]))],
                   np.array([1.0, -1.0]), 2)
    obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge=0.5)
    assert obj.component_lipschitz[0] == 0.5  # ridge only
    # without ridge the empty row has L_i = 0, which is rejected
    with pytest.raises(ValueError, match="L_i > 0"):
        SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge=0.0)


def test_objective_validation(sq_small):
    ds = sq_small.dataset
    with pytest.raises(ValueError, match="labels"):
        SmoothObjective.build(ds, LossKind.LOGISTIC_RIDGE, ridge=0.1)


def test_objective_rejects_an_overflowing_lipschitz_sum():
    # every L_i = a_i^2 + 0.1 is finite, but their sum is not: the row with
    # the largest one is named
    values = [1.3e154, 1.2e154, 1.1e154, 1.0e154, 0.9e154, 1.0]
    ds = from_rows([(np.array([j]), np.array([v]))
                    for j, v in zip([0] * 5 + [1], values)],
                   np.ones(6), 2)
    with pytest.raises(ValueError, match=r"^row 1: the component Lipschitz "
                       r"constants sum to inf; this row's L_i = 1\.69e\+308"):
        SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge=0.1)


@pytest.mark.parametrize("ridge", [float("nan"), float("inf")])
def test_objective_rejects_nonfinite_ridge(sq_small, ridge):
    with pytest.raises(ValueError, match="ridge"):
        SmoothObjective.build(sq_small.dataset, LossKind.SQUARED_ERROR,
                              ridge=ridge)


def test_component_lipschitz_closed_forms(sq_small, log_small):
    ds = sq_small.dataset
    for i in range(ds.n):
        _, val = ds.row(i)
        assert sq_small.component_lipschitz[i] == pytest.approx(
            val @ val + 0.1, rel=1e-15)
    dl = log_small.dataset
    for i in range(dl.n):
        _, val = dl.row(i)
        assert log_small.component_lipschitz[i] == pytest.approx(
            0.25 * (val @ val) + 0.15, rel=1e-15)
    assert sq_small.lipschitz_mean == pytest.approx(
        np.mean(sq_small.component_lipschitz))
    # mu is the ridge
    assert (sq_small.strong_convexity, log_small.strong_convexity) == \
        (0.1, 0.15)


# ---------------------------------------------------------------- values and gradients


@pytest.mark.parametrize("fixture", ["sq_small", "log_small"])
def test_full_gradient_matches_finite_difference(fixture, request):
    obj = request.getfixturevalue(fixture)
    rng = make_rng(11)
    for _ in range(3):
        x = rng.standard_normal(obj.d)
        g = full_gradient(obj, x)
        gn = num_grad(lambda z: smooth_value(obj, z), x)
        assert np.allclose(g, gn, atol=5e-7)


def test_component_gradients_average_to_full(sq_small, log_small):
    for obj in (sq_small, log_small):
        rng = make_rng(12)
        x = rng.standard_normal(obj.d)
        mean = np.mean([component_gradient(obj, i, x) for i in range(obj.n)],
                       axis=0)
        assert np.allclose(mean, full_gradient(obj, x), atol=1e-12)


def test_component_gradient_bounds():
    ds = from_rows([(np.array([0]), np.array([1.0]))], np.array([1.0]), 1)
    obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge=0.1)
    with pytest.raises(IndexError):
        component_gradient(obj, 1, np.zeros(1))


def test_batch_gradient_is_component_sum(sq_small, log_small):
    rng = make_rng(13)
    for obj in (sq_small, log_small):
        x = rng.standard_normal(obj.d)
        for batch in ([0], [1, 4], [0, 2, 3, 5], list(range(obj.n))):
            want = np.sum([component_gradient(obj, i, x) for i in batch],
                          axis=0)
            got = batch_gradient(obj, np.array(batch), x)
            assert np.allclose(got, want, atol=1e-12)
    with pytest.raises(ValueError, match="nonempty"):
        batch_gradient(sq_small, np.array([], dtype=np.int64),
                       np.zeros(sq_small.d))


def test_batch_slabs_and_margins(sq_small):
    ds = sq_small.dataset
    rows = np.array([4, 0, 4, 1])  # duplicates allowed
    cols, vals, rid = batch_slabs(ds, rows)
    for k, i in enumerate(rows):
        idx, val = ds.row(i)
        assert np.array_equal(cols[rid == k], idx)
        assert np.array_equal(vals[rid == k], val)
    x = make_rng(14).standard_normal(ds.d)
    z = batch_margins(rows, x, (cols, vals, rid))
    dense = ds.to_csr().toarray()
    assert np.allclose(z, dense[rows] @ x, atol=1e-14)


def test_batch_slabs_empty_row():
    ds = from_rows([(np.array([], dtype=np.int64), np.array([])),
                    (np.array([1]), np.array([3.0]))],
                   np.array([0.0, 1.0]), 2)
    cols, vals, rid = batch_slabs(ds, np.array([0, 1]))
    assert np.array_equal(rid, [1])
    assert np.array_equal(cols, [1])


# ---------------------------------------------------------------- hessians


@pytest.mark.parametrize("fixture", ["sq_small", "log_small"])
def test_hessian_vec_matches_dense(fixture, request):
    obj = request.getfixturevalue(fixture)
    rng = make_rng(15)
    x = rng.standard_normal(obj.d)
    s = rng.standard_normal(obj.d)
    for batch in ([0, 3], list(range(obj.n))):
        T = np.array(batch)
        H = dense_batch_hessian(obj, T, x)
        assert np.allclose(hessian_vec(obj, T, x, s), H @ s, atol=1e-10)
        assert np.allclose(H, H.T, atol=1e-14)
        assert np.linalg.eigvalsh(H)[0] > 0  # ridge keeps it PD


@pytest.mark.parametrize("fixture", ["sq_small", "log_small"])
def test_hessian_vec_matches_gradient_difference(fixture, request):
    # directional finite difference of the batch gradient: independent of
    # the curvature weights hessian_vec and dense_batch_hessian share
    obj = request.getfixturevalue(fixture)
    rng = make_rng(16)
    x = rng.standard_normal(obj.d)
    s = rng.standard_normal(obj.d)
    T = np.array([1, 2, 5])
    h = 1e-5
    fd = (batch_gradient(obj, T, x + h * s)
          - batch_gradient(obj, T, x - h * s)) / (2 * h)
    assert np.allclose(hessian_vec(obj, T, x, s), fd, atol=1e-5)


def test_hessian_vec_gathers_its_batch_once(log_small, monkeypatch):
    import proxsqn.model as model_module

    calls = []

    def counting_slabs(ds, rows):
        calls.append(rows.size)
        return batch_slabs(ds, rows)

    rng = make_rng(17)
    x, s = rng.standard_normal(log_small.d), rng.standard_normal(log_small.d)
    batch = np.array([0, 2, 5, 7])
    want = hessian_vec(log_small, batch, x, s)
    monkeypatch.setattr(model_module, "batch_slabs", counting_slabs)
    got = hessian_vec(log_small, batch, x, s)
    assert calls == [batch.size]
    assert np.array_equal(got, want)


def test_dense_hessian_limit():
    # d = 257 is one past the limit
    ds = from_rows([(np.array([0]), np.array([1.0]))], np.array([1.0]), 257)
    obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge=0.1)
    with pytest.raises(ValueError, match="d = 257 exceeds dense limit 256"):
        dense_batch_hessian(obj, np.array([0]), np.zeros(obj.d))


def test_hessians_reject_an_empty_batch(log_small):
    empty, x = np.zeros(0, dtype=np.int64), np.zeros(log_small.d)
    with pytest.raises(ValueError, match="batch must be nonempty"):
        hessian_vec(log_small, empty, x, np.ones(log_small.d))
    with pytest.raises(ValueError, match="batch must be nonempty"):
        dense_batch_hessian(log_small, empty, x)


def test_smooth_value_squared_by_hand():
    ds = from_rows([(np.array([0]), np.array([2.0]))], np.array([3.0]), 1)
    obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge=0.2)
    x = np.array([1.5])
    assert smooth_value(obj, x) == pytest.approx(0.5 * (3.0 - 3.0) ** 2
                                                 + 0.1 * 2.25)
    assert smooth_value(obj, np.zeros(1)) == pytest.approx(4.5)


def test_smooth_value_logistic_by_hand():
    ds = from_rows([(np.array([0]), np.array([1.0]))], np.array([-1.0]), 1)
    obj = SmoothObjective.build(ds, LossKind.LOGISTIC_RIDGE, ridge=0.0)
    x = np.array([0.7])
    assert smooth_value(obj, x) == pytest.approx(np.log1p(np.exp(0.7)))
