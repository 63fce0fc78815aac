import numpy as np
import pytest

from proxsqn import (
    CurvaturePair,
    Metric,
    MetricBounds,
    NegativeCurvatureError,
    ScaledProxProblem,
    SecantError,
    apply_inverse,
    build_metric,
    make_rng,
    metric_as_splitting,
)
from proxsqn.oracles import dense_inverse


def random_spd(rng, d, lo, hi):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = lo + (hi - lo) * rng.random(d)
    return (q * eigs) @ q.T


# ---------------------------------------------------------------- construction


def test_secant_identity_random_pairs():
    rng = make_rng(31)
    for _ in range(50):
        d = int(rng.integers(2, 20))
        B = random_spd(rng, d, 0.4, 4.0)
        s = rng.standard_normal(d)
        y = B @ s
        m = build_metric(CurvaturePair(s, y), 0.5)
        assert not m.skipped
        err = np.linalg.norm(apply_inverse(m, y) - s)
        assert err <= 1e-10 * (1 + np.linalg.norm(s))


def test_secant_violation_is_a_typed_value_error(monkeypatch):
    # a broken H^{-1} y must surface as SecantError, which callers that
    # handle ValueError (the CLI's per-solver report) catch
    real = apply_inverse
    monkeypatch.setattr("proxsqn.metric.apply_inverse",
                        lambda m, v: real(m, v) + 1e-3)
    rng = make_rng(32)
    B = random_spd(rng, 5, 0.4, 4.0)
    s = rng.standard_normal(5)
    with pytest.raises(SecantError, match="secant violation"):
        build_metric(CurvaturePair(s, B @ s), 0.5)
    assert issubclass(SecantError, ValueError)


def test_tau_is_inverse_rayleigh():
    # tau = s'y/||y||^2 with y = Bs lies in [1/Lambda, 1/lambda]
    rng = make_rng(32)
    for _ in range(20):
        B = random_spd(rng, 6, 0.5, 3.0)
        eigs = np.linalg.eigvalsh(B)
        s = rng.standard_normal(6)
        m = build_metric(CurvaturePair(s, B @ s), 0.3)
        assert 1.0 / eigs[-1] - 1e-12 <= m.tau <= 1.0 / eigs[0] + 1e-12


def test_negative_curvature_raises():
    s = np.array([1.0, 2.0])
    with pytest.raises(NegativeCurvatureError, match="tau"):
        build_metric(CurvaturePair(s, -s), 0.5)
    with pytest.raises(NegativeCurvatureError, match="y = 0"):
        build_metric(CurvaturePair(s, np.zeros(2)), 0.5)


def test_skip_on_tiny_aligned_curvature():
    # s nearly orthogonal to y: s'y is tiny against the residual scale, so
    # the rank-one denominator fails the relative guard and u is dropped
    y = np.array([1.0, 0.0])
    s = np.array([1e-12, 1.0])
    m = build_metric(CurvaturePair(s, y), 0.5, skip_eps=1e-8)
    assert m.skipped
    assert np.array_equal(m.u, np.zeros(2))
    # skipped metric still applies as a scaled identity
    v = np.array([2.0, -4.0])
    assert np.array_equal(apply_inverse(m, v), m.alpha * m.tau * v)


def test_nan_skip_threshold_skips():
    # ||s - tau y|| overflows, so eps * ||y|| * ||s - tau y|| = 0 * inf is
    # nan: the rank-one term is kept only above a threshold that is a number
    s, y = np.array([1e308, 1e308]), np.array([1.0, 0.0])
    with np.errstate(over="ignore"):
        m = build_metric(CurvaturePair(s, y), 0.5, skip_eps=0.0)
    assert m.skipped and m.tau == 1e308
    assert np.array_equal(m.u, np.zeros(2))


@pytest.mark.parametrize("s,y,alpha", [
    # s'y > 0, but (s - alpha tau y)'y rounds to 0 ...
    (("0x1p+0", "0x1.fffffffffffffp-1"), ("0x1p+0", "-0x1.fffffffffffffp-1"),
     0.5),
    # ... and to -7.6e-17
    (("-0x1.8767d72ff8274p-1", "-0x1.143d4e666660ap+0"),
     ("-0x1.aa1d89aca34b5p-1", "0x1.2de206d40c24cp-1"), 0.9),
], ids=["zero", "negative"])
def test_nonpositive_denominator_skips_below_a_negative_threshold(s, y,
                                                                  alpha):
    s, y = (np.array([float.fromhex(v) for v in w]) for w in (s, y))
    resid = s - (alpha * (s @ y) / (y @ y)) * y
    assert s @ y > 0.0 and resid @ y <= 0.0
    m = build_metric(CurvaturePair(s, y), alpha, skip_eps=-1.0)
    assert m.skipped
    assert np.array_equal(m.u, np.zeros(2))


def test_metric_validation():
    with pytest.raises(ValueError, match="alpha"):
        Metric(1.0, 1.5, np.zeros(2))
    with pytest.raises(ValueError, match="tau"):
        Metric(-1.0, 0.5, np.zeros(2))
    with pytest.raises(ValueError, match="matching"):
        CurvaturePair(np.zeros(2), np.zeros(3))


def test_apply_inverse_matches_dense():
    rng = make_rng(33)
    B = random_spd(rng, 8, 0.4, 4.0)
    s = rng.standard_normal(8)
    m = build_metric(CurvaturePair(s, B @ s), 0.4)
    Hinv = dense_inverse(m)
    v = rng.standard_normal(8)
    assert np.allclose(apply_inverse(m, v), Hinv @ v, atol=1e-12)


# ---------------------------------------------------------------- splitting


def test_splitting_inverts_the_inverse():
    rng = make_rng(34)
    for _ in range(10):
        B = random_spd(rng, 7, 0.5, 2.5)
        s = rng.standard_normal(7)
        m = build_metric(CurvaturePair(s, B @ s), 0.5)
        diag, rank1, sign = metric_as_splitting(m)
        assert sign == -1
        H = np.diag(diag) + sign * np.outer(rank1, rank1)
        assert np.allclose(H @ dense_inverse(m), np.eye(7), atol=1e-10)
        # Sherman-Morrison form stays positive definite
        assert float(np.sum(rank1 ** 2 / diag)) < 1.0


# alpha*tau (alpha*tau + u'u) below the normal range (about 1e-341 here:
# w was inf) and above the float range (about 1e319: w was 0)
EXTREME_PAIRS = [(1e-100, (1e170, 2e170, 3e170)),
                 (1.0, (1e-160, 2e-160, 3e-160))]


@pytest.mark.parametrize("scale,curvature", EXTREME_PAIRS,
                         ids=["underflow", "overflow"])
def test_splitting_at_either_end_of_the_float_range(scale, curvature):
    s = scale * make_rng(5).standard_normal(3)
    y = np.array(curvature) * s
    m = build_metric(CurvaturePair(s, y), 0.5)
    at = m.alpha * m.tau
    product = at * (at + float(m.u @ m.u))
    assert not np.finfo(float).tiny <= product < np.inf
    diag, rank1, sign = metric_as_splitting(m)
    assert np.isfinite(rank1).all() and np.all(rank1 != 0.0)
    # the splitting is the inverse of H^-1 = alpha tau I + u u': H s = y
    hs = diag * s + sign * rank1 * float(rank1 @ s)
    assert np.allclose(hs, y, rtol=1e-12, atol=0.0)
    assert float(np.sum(rank1 ** 2 / diag)) < 1.0
    ScaledProxProblem(diag, rank1, sign, 1.0, np.zeros(3))  # no error


def test_splitting_of_skipped_metric():
    m = Metric(2.0, 0.5, np.zeros(3), skipped=True)
    diag, rank1, sign = metric_as_splitting(m)
    assert np.array_equal(diag, np.full(3, 1.0))  # 1/(alpha tau) = 1
    assert np.array_equal(rank1, np.zeros(3))


def test_near_orthogonal_pairs_build_or_raise_typed_errors():
    # cos(s, y) in [1e-9, 1e-6]: build_metric keeps the rank-one term of
    # some pairs whose splitting rounds to u'D^-1 u >= 1. Every pair must
    # give a problem, NegativeCurvatureError or SecantError, never a bare
    # ValueError, and the fuzz must reach the indefinite case
    rng = make_rng(22)
    rejected = 0
    for _ in range(5000):
        d = int(rng.integers(2, 51))
        alpha = (0.1, 0.5, 0.9)[int(rng.integers(3))]
        s = rng.standard_normal(d)
        e = rng.standard_normal(d)
        e -= (e @ s) / (s @ s) * s
        cos = 10.0 ** rng.uniform(-9.0, -6.0)
        y = (np.sqrt(1.0 - cos * cos) * e / np.linalg.norm(e)
             + cos * s / np.linalg.norm(s))
        s *= 10.0 ** rng.uniform(-3.0, 3.0)
        y *= 10.0 ** rng.uniform(-3.0, 3.0)
        try:
            ScaledProxProblem(*metric_as_splitting(
                build_metric(CurvaturePair(s, y), alpha)), 0.1,
                rng.standard_normal(d))
        except (NegativeCurvatureError, SecantError):
            rejected += 1
    assert rejected > 0


# --------------------------------------------------------------- metric bounds


def test_metric_bounds_validation():
    with pytest.raises(ValueError, match="gamma"):
        MetricBounds(2.0, 1.0)
    with pytest.raises(ValueError, match="gamma"):
        MetricBounds(0.0, 1.0)


def test_metric_sigma_max_within_planned_bound():
    rng = make_rng(35)
    for _ in range(25):
        d = int(rng.integers(2, 16))
        B = random_spd(rng, d, 0.3, 5.0)
        eigs = np.linalg.eigvalsh(B)
        s = rng.standard_normal(d)
        alpha = 0.1 + 0.8 * float(rng.random())
        m = build_metric(CurvaturePair(s, B @ s), alpha)
        H = np.linalg.inv(dense_inverse(m))
        sigma = np.linalg.eigvalsh(H)[-1]
        # Gamma = d Lambda / alpha, as criterion 02 plans it
        assert sigma <= d * eigs[-1] / alpha + 1e-9
