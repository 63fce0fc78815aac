import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from proxsqn import (
    RegKind,
    Regularizer,
    ScaledProxProblem,
    make_rng,
    reg_value,
    scaled_prox,
    scaled_prox_info,
)

import proxsqn.prox as P
from proxsqn.oracles import dense_metric, kkt_residual, subproblem_oracle
from proxsqn.prox import prox


def random_problem(rng, d, sign, lam=0.3):
    diag = 0.3 + 2.7 * rng.random(d)
    u = rng.standard_normal(d)
    if sign == -1:
        # keep diag(D) - uu' safely positive definite
        ratio = float(np.sum(u * u / diag))
        u *= math.sqrt(0.7 / ratio)
    eta = 0.05 + 1.5 * float(rng.random())
    x = 3.0 * rng.standard_normal(d)
    reg = Regularizer(RegKind.L1 if lam > 0 else RegKind.ZERO, lam)
    return reg, ScaledProxProblem(diag, u, sign, eta, x)


def root_function(reg, prob):
    """(g, y_of) from the definition: y(beta) soft-thresholds
    x - sign * beta * D^{-1} u at (eta / D) * lambda1, and
    g(beta) = u'(x - y(beta)) + beta."""
    w = prob.rank1 / prob.diag
    t = (prob.eta / prob.diag) * reg.lambda1

    def y_of(beta):
        z = prob.x - (prob.sign * beta) * w
        return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)

    def g(beta):
        return float(prob.rank1 @ (prob.x - y_of(beta))) + beta

    return g, y_of


def breakpoints(reg, prob):
    """The finite beta where a coordinate of y(beta) switches state."""
    w = prob.rank1 / prob.diag
    t = (prob.eta / prob.diag) * reg.lambda1
    live = w != 0.0
    sw = prob.sign * w[live]
    bp = np.concatenate([(prob.x[live] - t[live]) / sw,
                         (prob.x[live] + t[live]) / sw])
    return bp[np.isfinite(bp)]


def sorted_search(reg, prob):
    """Exact root oracle: sort every finite breakpoint, binary-search the
    segment where g changes sign, take the secant on it. Returns
    (y, beta, residual)."""
    g, y_of = root_function(reg, prob)
    bp = np.sort(breakpoints(reg, prob))  # duplicates are harmless
    if not bp.size:  # g is affine everywhere
        bp = np.zeros(1)
    lo_i, hi_i = 0, bp.size  # first breakpoint with g >= 0; g increases
    while lo_i < hi_i:
        mid = (lo_i + hi_i) // 2
        if g(bp[mid]) < 0.0:
            lo_i = mid + 1
        else:
            hi_i = mid
    k = lo_i
    b_lo = bp[k - 1] if k > 0 else -math.inf
    b_hi = bp[k] if k < bp.size else math.inf
    # g is affine on the segment, which is open past an outer breakpoint
    # and reaches 1e306 where a subnormal u_j puts one: the secant's points
    # are the end nearer 0 and one at most 1 + |that end| from it
    if abs(b_lo) <= abs(b_hi):
        b_hi = min(b_hi, b_lo + (1.0 + abs(b_lo)))
    else:
        b_lo = max(b_lo, b_hi - (1.0 + abs(b_hi)))
    g_lo, g_hi = g(b_lo), g(b_hi)
    beta = b_lo if g_hi == g_lo else b_lo - g_lo * (b_hi - b_lo) / (g_hi - g_lo)
    return y_of(beta), float(beta), g(beta)


_BISECT_WIDTH = 1e-13
_MAX_DOUBLINGS = 60


def bisect_search(reg, prob):
    """An independent solver of g(beta) = 0 in continuous beta: geometric
    bracket expansion, bisection, secant polish. Returns (y, beta, residual)
    as sorted_search does."""
    g, y_of = root_function(reg, prob)
    hi = float(np.linalg.norm(prob.rank1) * np.linalg.norm(prob.x)) + 1.0
    lo = -hi
    width = hi - lo
    glo, ghi = g(lo), g(hi)
    k = 0
    while glo > 0.0:
        assert k < _MAX_DOUBLINGS, "no sign change after 60 lower doublings"
        lo -= width
        width *= 2.0
        glo = g(lo)
        k += 1
    width = hi - lo
    k = 0
    while ghi < 0.0:
        assert k < _MAX_DOUBLINGS, "no sign change after 60 upper doublings"
        hi += width
        width *= 2.0
        ghi = g(hi)
        k += 1
    while hi - lo > _BISECT_WIDTH * (1.0 + max(abs(lo), abs(hi))):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        gm = g(mid)
        if gm < 0.0:
            lo, glo = mid, gm
        else:
            hi, ghi = mid, gm
    if ghi != glo:
        beta = lo - glo * (hi - lo) / (ghi - glo)
        if not lo <= beta <= hi:
            beta = 0.5 * (lo + hi)
    else:
        beta = 0.5 * (lo + hi)
    return y_of(beta), float(beta), g(beta)


def evaluation_bound(d):
    """_solve_root's docstring bound: _NEWTON_ITERS + floor(log2 2d) + 6."""
    return P._NEWTON_ITERS + (2 * d).bit_length() - 1 + 6


def assert_root_matches_oracle(reg, prob):
    """The root solve against sorted_search: the same signs of y, y within
    1e-12 in the max norm, a residual at rounding level and no more
    evaluations than the docstring's bound. Returns the RootInfo.

    The residual bound adds the rounding floor of g itself: u'x and u'y
    sum terms up to |u|'|x|, which reaches 1.7e4 when the root lies outside
    every breakpoint.
    """
    y, info = scaled_prox_info(reg, prob)
    y_ref = sorted_search(reg, prob)[0]
    assert info.method == "newton"
    assert np.array_equal(np.sign(y), np.sign(y_ref))
    assert np.max(np.abs(y - y_ref)) <= 1e-12
    floor = 16 * np.finfo(float).eps * float(np.abs(prob.rank1)
                                             .dot(np.abs(prob.x)))
    assert abs(info.residual) <= 1e-12 * (1.0 + abs(info.beta)) + floor
    assert info.evaluations <= evaluation_bound(prob.x.size)
    return info


# the Newton step budget at its value and at 0 (the safeguard alone), each
# from the cold start and from far on either side
START_PARAMS = [(iters, beta0) for iters in (P._NEWTON_ITERS, 0)
                for beta0 in (0.0, -1e6, 1e6)]


@pytest.fixture(params=START_PARAMS,
                ids=[f"iters={i}-beta0={b:g}" for i, b in START_PARAMS])
def start(request, monkeypatch):
    """The Newton start beta0, with _NEWTON_ITERS set for the test."""
    iters, beta0 = request.param
    monkeypatch.setattr(P, "_NEWTON_ITERS", iters)
    return beta0


# ---------------------------------------------------------------- plain prox


def test_prox_closed_forms(zero_reg):
    x = np.array([3.0, -0.5, 0.0])
    l1 = Regularizer(RegKind.L1, 1.0)
    assert np.array_equal(prox(l1, x, 1.0), [2.0, 0.0, 0.0])
    assert np.array_equal(prox(zero_reg, x, 0.3), x)
    assert prox(zero_reg, x, 0.3) is not x  # defensive copy
    with pytest.raises(ValueError, match="eta"):
        prox(l1, x, 0.0)


def test_prox_rejects_nan_step():
    with pytest.raises(ValueError, match="eta"):
        prox(Regularizer(RegKind.L1, 1.0), np.ones(3), math.nan)


def test_prox_per_coordinate_oracle():
    # each coordinate solves min_y lam|y| + 0.5 (y - x_j)^2 / eta-weighting
    rng = make_rng(21)
    lam, eta = 0.4, 0.7
    reg = Regularizer(RegKind.L1, lam)
    x = rng.standard_normal(4) * 2.0
    y = prox(reg, x, eta)
    for j in range(4):
        res = minimize_scalar(
            lambda t, c=x[j]: eta * lam * abs(t) + 0.5 * (t - c) ** 2,
            bounds=(-10, 10), method="bounded",
            options={"xatol": 1e-10})
        assert y[j] == pytest.approx(res.x, abs=1e-8)


def test_prox_firmly_nonexpansive():
    rng = make_rng(22)
    reg = Regularizer(RegKind.L1, 0.8)
    for _ in range(50):
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        px, py = prox(reg, x, 0.5), prox(reg, y, 0.5)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-15


def test_reg_value(zero_reg):
    x = np.array([1.0, -2.0, 0.0])
    assert reg_value(Regularizer(RegKind.L1, 0.5), x) == pytest.approx(1.5)
    assert reg_value(zero_reg, x) == 0.0


def test_regularizer_validation():
    with pytest.raises(ValueError, match="lambda1"):
        Regularizer(RegKind.L1, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lambda1"):
            Regularizer(RegKind.L1, bad)
    with pytest.raises(ValueError, match="Zero"):
        Regularizer(RegKind.ZERO, 0.5)


# ---------------------------------------------------------------- problem validation


def test_problem_validation():
    d3 = np.ones(3)
    with pytest.raises(ValueError, match="positive"):
        ScaledProxProblem(np.array([1.0, 0.0, 1.0]), d3, 1, 0.1, d3)
    with pytest.raises(ValueError, match="sign"):
        ScaledProxProblem(d3, d3, 0, 0.1, d3)
    with pytest.raises(ValueError, match="eta"):
        ScaledProxProblem(d3, d3, 1, -0.1, d3)
    with pytest.raises(ValueError, match="matching"):
        ScaledProxProblem(d3, np.ones(2), 1, 0.1, d3)
    with pytest.raises(ValueError, match="positive definite"):
        ScaledProxProblem(d3, np.array([1.0, 1.0, 0.0]), -1, 0.1, d3)
    # u'D^-1 u < 1 is fine
    ScaledProxProblem(d3, np.array([0.6, 0.6, 0.0]), -1, 0.1, d3)


def test_problem_rejects_nonfinite_step():
    d3 = np.ones(3)
    for eta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eta"):
            ScaledProxProblem(d3, d3, 1, eta, d3)


def test_problem_rejects_nonfinite_diag():
    d3 = np.ones(3)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="diag"):
            ScaledProxProblem(np.array([1.0, bad, 1.0]), d3, 1, 0.1, d3)
    with pytest.raises(ValueError, match="rank1"):
        ScaledProxProblem(d3, np.array([0.1, math.nan, 0.1]), 1, 0.1, d3)


# ---------------------------------------------------------------- scaled prox


def test_scaled_prox_zero_reg_returns_x(zero_reg):
    rng = make_rng(23)
    _, prob = random_problem(rng, 5, -1, lam=0.0)
    y, info = scaled_prox_info(zero_reg, prob)
    assert np.array_equal(y, prob.x)
    assert info.method == "closed"


def test_scaled_prox_identity_metric_reduces_to_prox(lasso_reg):
    rng = make_rng(24)
    x = rng.standard_normal(6)
    prob = ScaledProxProblem(np.ones(6), np.zeros(6), 1, 0.4, x)
    assert np.array_equal(scaled_prox(lasso_reg, prob),
                          prox(lasso_reg, x, 0.4))


def test_scaled_prox_scalar_metric_bitwise(lasso_reg):
    # D = c I, u = 0 must equal prox with step eta / c, bit for bit
    rng = make_rng(25)
    x = rng.standard_normal(8)
    c, eta = 2.7, 0.9
    prob = ScaledProxProblem(np.full(8, c), np.zeros(8), -1, eta, x)
    assert np.array_equal(scaled_prox(lasso_reg, prob),
                          prox(lasso_reg, x, eta / c))


def test_scaled_prox_matches_oracle_both_signs(lasso_reg):
    rng = make_rng(26)
    for k in range(40):
        d = 3 if k % 2 else 16
        reg, prob = random_problem(rng, d, -1 if k % 3 else 1)
        y = scaled_prox(reg, prob)
        oracle = subproblem_oracle(reg, prob)
        assert np.linalg.norm(y - oracle) <= 1e-8
        assert kkt_residual(reg, prob, y) <= 1e-8


def test_root_and_both_oracles_agree():
    # the root solve, sorted_search and bisect_search are independent
    # solvers of the same scalar equation
    rng = make_rng(27)
    for k in range(72):
        d = 2 + int(rng.integers(0, 12)) if k < 60 else \
            int(rng.choice([200, 2000, 20000]))
        reg, prob = random_problem(rng, d, -1 if k % 2 else 1,
                                   lam=float(rng.choice([0.05, 0.3, 1.5])))
        y, info = scaled_prox_info(reg, prob)
        ys, _, res_s = sorted_search(reg, prob)
        yb, _, res_b = bisect_search(reg, prob)
        assert info.method == "newton"
        for got, res in ((y, info.residual), (ys, res_s)):
            assert np.linalg.norm(got - yb) <= 1e-9 * (1 + np.linalg.norm(yb))
            assert abs(res) < 1e-10
        assert abs(res_b) < 1e-10


# ---------------------------------------------------------------- the root solve vs the oracles


@pytest.mark.parametrize("sign", [1, -1])
def test_root_matches_sorted_search(sign, start):
    rng = make_rng(30 + sign)
    for d in (2, 3, 5, 17, 50, 400, 3000, 20000):
        for _ in range(12 if d < 3000 else 3):
            reg, prob = random_problem(rng, d, sign,
                                       lam=float(rng.choice([0.05, 0.3, 1.5])))
            prob.beta0 = start
            assert_root_matches_oracle(reg, prob)


@pytest.mark.parametrize("sign", [1, -1])
def test_root_with_dead_coordinates(sign, start):
    # about 40% of rank1 is exactly zero, as on a sparse lasso metric
    rng = make_rng(32)
    for _ in range(20):
        d = int(rng.choice([10, 300, 20000]))
        reg, prob = random_problem(rng, d, sign)
        u = prob.rank1 * (rng.random(d) >= 0.4)
        prob = ScaledProxProblem(prob.diag, u, sign, prob.eta, prob.x, start)
        assert_root_matches_oracle(reg, prob)


@pytest.mark.parametrize("sign", [1, -1])
def test_root_with_duplicate_breakpoints(sign, start):
    rng = make_rng(33)
    reg = Regularizer(RegKind.L1, 0.3)
    for _ in range(20):
        # a few distinct coordinates, each repeated, on a constant diagonal
        base = int(rng.integers(1, 6))
        reps = int(rng.integers(2, 40))
        x = np.repeat(rng.choice([-2.0, -0.5, 0.0, 0.5, 2.0], base), reps)
        u = np.repeat(rng.choice([-0.25, 0.25, 0.5], base), reps)
        if sign == -1:
            u *= math.sqrt(0.5 / float(u @ u))
        prob = ScaledProxProblem(np.full(x.size, 2.0), u, sign, 0.7, x, start)
        assert np.unique(breakpoints(reg, prob)).size < 2 * x.size
        assert_root_matches_oracle(reg, prob)


@pytest.mark.parametrize("sign", [1, -1])
def test_root_outside_every_breakpoint(sign, start):
    # u > 0 and |x| far past the threshold keep every coordinate on one
    # side: the root lies left or right of every breakpoint, by the side
    # of x and the sign
    rng = make_rng(34)
    reg = Regularizer(RegKind.L1, 0.1)
    hits = set()
    for side in (-1.0, 1.0):
        for _ in range(20):
            d = int(rng.choice([3, 40, 5000]))
            u = 0.1 + rng.random(d)
            diag = 1.0 + rng.random(d)
            if sign == -1:
                u *= math.sqrt(0.5 / float(np.sum(u * u / diag)))
            x = side * (5.0 + rng.random(d))
            prob = ScaledProxProblem(diag, u, sign, 0.5, x, start)
            beta = assert_root_matches_oracle(reg, prob).beta
            bp = breakpoints(reg, prob)
            hits.add("left" if beta < bp.min() else
                     "right" if beta > bp.max() else "inside")
    assert hits == {"left", "right"}


@pytest.mark.parametrize("sign", [1, -1])
def test_root_with_overflowing_breakpoints(sign, start):
    # subnormal rank1 entries give |x_j / w_j| beyond the float range: their
    # breakpoints are +-inf and must be ignored, not searched
    rng = make_rng(35)
    for _ in range(20):
        d = int(rng.choice([6, 80, 20000]))
        reg, prob = random_problem(rng, d, sign)
        tiny = rng.random(d) < 0.3
        tiny[0] = True
        u = np.where(tiny, 1e-310, prob.rank1)
        prob = ScaledProxProblem(prob.diag, u, sign, prob.eta, prob.x, start)
        with np.errstate(over="ignore"):
            assert breakpoints(reg, prob).size < 2 * d
            assert_root_matches_oracle(reg, prob)


# u_0 = 1e10 on D_0 = 1e-290: w_0 = 1e300 is finite but the Newton slope
# u_0 w_0 overflows, and so does g a unit step from the root. eta * lambda1
# = 5e-291 and the smallest eigenvalue of H is about 1, so y is x to 1e-290.
OVERFLOWING_SLOPES = [([1e-290], [1e10], [1.0]), ([1e-290], [1e10], [-2.0]),
                      ([1e-290, 1.0], [1e10, 1.0], [1.0, 0.0]),
                      ([1e-290, 1.0], [1e10, 1e-3], [-2.0, 0.0])]


def test_overflowing_slope_never_gives_a_finite_wrong_y(start):
    # the one-coordinate roots lie past every breakpoint, where only a
    # probe that overflows g would give the secant; the second coordinate
    # brackets the root with finite g
    reg = Regularizer(RegKind.L1, 0.5)
    finite = []
    for diag, u, x in OVERFLOWING_SLOPES:
        prob = ScaledProxProblem(diag, u, 1, 1e-290, x, start)
        with np.errstate(all="ignore"):
            y, info = scaled_prox_info(reg, prob)
        assert info.evaluations <= evaluation_bound(len(x))
        finite.append(bool(np.isfinite(y).all()))
        if finite[-1]:
            assert np.max(np.abs(y - prob.x)) <= 1e-12
            floor = 16 * np.finfo(float).eps * float(np.abs(u) @ np.abs(x))
            assert abs(info.residual) <= floor
        else:
            assert not math.isfinite(info.residual)
    assert finite == [False, False, True, True]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("sign", [1, -1])
def test_nonfinite_point_flows_through(bad, sign, start):
    # a diverging run hands the prox a non-finite x; g is then inf or nan
    # and has no root: the prox must return a non-finite y, which the
    # solver's epoch-end guard turns into a divergence, and raise nothing
    rng = make_rng(41)
    for d in (2, 8, 300):
        reg, prob = random_problem(rng, d, sign)
        prob.x[rng.integers(d)] = bad
        prob.beta0 = start
        with np.errstate(all="ignore"):
            y, info = scaled_prox_info(reg, prob)
        assert info.method == "newton"
        assert not np.isfinite(y).all()
        assert not math.isfinite(info.residual)
        assert info.evaluations <= evaluation_bound(d)


def test_nan_point_past_every_breakpoint_gives_nan(start):
    # every g is nan, so each evaluation moves hi; the medians walk it to
    # about -1e308, where the affine branch's probe overflows to the open
    # end lo, whose g is -inf: the secant is nan, not a TypeError
    reg = Regularizer(RegKind.L1, 1e-3)
    prob = ScaledProxProblem(np.ones(2), np.full(2, 0.1), -1, 1.0,
                             np.array([math.nan, 1e307]), start)
    with np.errstate(all="ignore"):
        y, info = scaled_prox_info(reg, prob)
    assert info.method == "newton"
    assert np.isnan(y).all()
    assert info.evaluations <= evaluation_bound(2)


# ---------------------------------------------------------------- Newton steps and warm starts


def test_newton_route_evaluation_count():
    # the last evaluation is the root's residual: at d = 2e4 the Newton
    # steps need far fewer evaluations than the median safeguard would
    rng = make_rng(37)
    evals = []
    for k in range(12):
        reg, prob = random_problem(rng, 20000, -1 if k % 2 else 1)
        evals.append(assert_root_matches_oracle(reg, prob).evaluations)
    assert max(evals) <= 4
    assert np.median(evals) <= 3


def test_newton_step_across_the_dead_zone():
    # H = 1 - 0.9 e1 e1' on a live and a dead coordinate. From beta = 0
    # (y_0 > 0) the first Newton step lands where y_0 < 0: y_0 != 0 at
    # both points, but g is not affine between them, so the iteration must
    # not stop there; the root lies inside the dead zone
    u = np.array([math.sqrt(0.9), 0.0])
    prob = ScaledProxProblem(np.ones(2), u, -1, 1.0, np.array([3.0, 0.5]))
    reg = Regularizer(RegKind.L1, 1.0)
    g, y_of = root_function(reg, prob)
    g0, y0 = g(0.0), y_of(0.0)[0]
    beta1 = -g0 / (1.0 - 0.9)
    assert y0 > 0.0 and y_of(beta1)[0] < 0.0
    info = assert_root_matches_oracle(reg, prob)
    y = scaled_prox(reg, prob)
    assert y[0] == 0.0
    assert info.beta == pytest.approx(-3.0 * math.sqrt(0.9), rel=1e-12)


@pytest.mark.parametrize("sign", [1, -1])
def test_warm_start_matches_oracle(sign):
    # the root does not depend on the start: from the cold root, from far
    # on either side of it and from +-1e6 the solve must land on the
    # oracle's y
    rng = make_rng(42 + sign)
    for d in (2, 40, 3000, 20000):
        for _ in range(4 if d < 3000 else 2):
            reg, prob = random_problem(rng, d, sign,
                                       lam=float(rng.choice([0.05, 0.3, 1.5])))
            root = scaled_prox_info(reg, prob)[1].beta
            far = 1e3 * (1.0 + abs(root))
            for start in (root, root - far, root + far, -1e6, 1e6):
                prob.beta0 = start
                assert_root_matches_oracle(reg, prob)
                assert prob.beta0 == start  # read, never written


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_start_is_a_cold_start(bad):
    rng = make_rng(44)
    for d in (2, 40, 3000):
        reg, prob = random_problem(rng, d, -1 if d % 2 else 1)
        y_cold, info_cold = scaled_prox_info(reg, prob)
        prob.beta0 = bad
        y, info = scaled_prox_info(reg, prob)
        fresh = ScaledProxProblem(prob.diag, prob.rank1, prob.sign, prob.eta,
                                  prob.x)
        y_fresh, info_fresh = scaled_prox_info(reg, fresh)
        assert y.tobytes() == y_fresh.tobytes() == y_cold.tobytes()
        assert info == info_fresh == info_cold


def test_warm_start_saves_evaluations():
    # a sequence of nearby points, as the solver's steps are: started from
    # the previous root, the Newton route usually makes one step (two
    # evaluations, the last one the root's residual); from 0 it makes two
    rng = make_rng(45)
    d = 20000
    for sign in (1, -1):
        reg, prob = random_problem(rng, d, sign)
        cold, warm = [], []
        for k in range(20):
            prob.x = prob.x + 1e-2 * rng.standard_normal(d)
            start, prob.beta0 = prob.beta0, 0.0
            cold.append(assert_root_matches_oracle(reg, prob).evaluations)
            prob.beta0 = start
            info = assert_root_matches_oracle(reg, prob)
            warm.append(info.evaluations)
            prob.beta0 = info.beta
        assert np.median(warm) <= 2
        assert np.median(cold) >= 3
        assert sum(warm) < sum(cold)


def assert_sign_form_plus_zero(y, z, t):
    """y is sign(z) * max(|z| - t, 0) bit for bit where that is nonzero,
    and +0 where it is zero."""
    want = np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
    live = want != 0.0
    assert np.array_equal(y != 0.0, live)
    assert y[live].tobytes() == want[live].tobytes()
    assert not np.signbit(y[~live]).any()


# -0, +-1e-300 and values on both sides of a threshold near 0.5
ZERO_CORPUS = np.array([-0.0, 0.0, 1e-300, -1e-300, 0.25, -0.25, 0.5, -0.5,
                        0.75, -0.75])
INFS = np.array([math.inf, -math.inf])


def test_soft_threshold_bitwise_sign_form():
    # z - clip(z, -t, t) keeps the bytes of sign(z) * max(|z| - t, 0), for
    # scalar and per-coordinate thresholds, except that every zero is +0
    rng = make_rng(46)
    z = np.concatenate([3.0 * rng.standard_normal(500), ZERO_CORPUS, INFS])
    for t in (0.5, 0.05 + rng.random(z.size)):
        assert_sign_form_plus_zero(P._soft_threshold(z, -t, t), z, t)


def test_prox_zeros_are_plus_zero():
    rng = make_rng(47)
    reg = Regularizer(RegKind.L1, 0.3)
    x = np.concatenate([ZERO_CORPUS, INFS, 2.0 * rng.standard_normal(200)])
    assert_sign_form_plus_zero(prox(reg, x, 1.5), x, 1.5 * 0.3)


@pytest.mark.parametrize("sign", [1, -1])
def test_scaled_prox_zeros_are_plus_zero(sign):
    # the diag route (u = 0) and the Newton route: y is the soft threshold
    # of the inner point x - sign * beta * D^{-1} u, with +0 for its zeros
    rng = make_rng(48)
    reg, prob = random_problem(rng, 212, sign)
    x, u = prob.x, prob.rank1.copy()
    x[:ZERO_CORPUS.size] = ZERO_CORPUS
    u[:4] = 0.0  # coordinates where the inner point is x itself
    t = (prob.eta / prob.diag) * reg.lambda1
    for rank1, method in ((np.zeros_like(u), "diag"), (u, "newton")):
        p = ScaledProxProblem(prob.diag, rank1, sign, prob.eta, x)
        y, info = scaled_prox_info(reg, p)
        assert info.method == method
        z = x - (sign * info.beta) * (rank1 / prob.diag)
        assert_sign_form_plus_zero(y, z, t)


def test_prox_module_not_shadowed():
    import proxsqn
    assert P.__name__ == "proxsqn.prox"
    assert proxsqn.prox is P


def test_problem_reuse_across_points_and_lambdas():
    # the cached per-metric parts follow x and lambda1: a reused problem
    # gives the bytes of a fresh one
    rng = make_rng(38)
    reg, prob = random_problem(rng, 300, -1)
    for lam in (0.3, 0.3, 1.2, 0.05, 0.3):
        reg = Regularizer(RegKind.L1, lam)
        prob.x = 3.0 * rng.standard_normal(300)
        fresh = ScaledProxProblem(prob.diag, prob.rank1, -1, prob.eta,
                                  prob.x)
        assert scaled_prox(reg, prob).tobytes() == \
            scaled_prox(reg, fresh).tobytes()


def test_root_info_diag_shortcut(lasso_reg):
    rng = make_rng(28)
    x = rng.standard_normal(5)
    prob = ScaledProxProblem(1.0 + rng.random(5), np.full(5, 1e-16), 1,
                             0.5, x)
    y, info = scaled_prox_info(lasso_reg, prob)
    assert info.method == "diag"
    assert info.evaluations == 0


def test_kkt_residual_flags_bad_point(lasso_reg):
    rng = make_rng(29)
    reg, prob = random_problem(rng, 6, 1, lam=0.05)
    y = scaled_prox(reg, prob)
    assert kkt_residual(reg, prob, y) <= 1e-8
    assert kkt_residual(reg, prob, y + 0.5) > 1e-3


def test_dense_metric_assembly():
    diag = np.array([2.0, 3.0])
    u = np.array([0.5, -0.5])
    H = dense_metric(ScaledProxProblem(diag, u, -1, 1.0, np.zeros(2)))
    want = np.diag(diag) - np.outer(u, u)
    assert np.array_equal(H, want)


def test_scaled_prox_weights_coordinates(lasso_reg):
    # a large diagonal entry means a small effective step for that coordinate
    x = np.array([1.0, 1.0])
    prob = ScaledProxProblem(np.array([1.0, 100.0]), np.zeros(2), 1, 1.0, x)
    y = scaled_prox(lasso_reg, prob)
    assert y[0] == pytest.approx(1.0 - 0.01)
    assert y[1] == pytest.approx(1.0 - 0.01 / 100.0)
