import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from proxsqn import (
    RegKind,
    Regularizer,
    ScaledProxProblem,
    dense_metric,
    kkt_residual,
    make_rng,
    reg_value,
    scaled_prox,
    scaled_prox_info,
    subproblem_oracle,
)

import proxsqn.prox as P
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


def sorted_search(reg, prob):
    """The exact route before the Newton search, kept as a bit-exact oracle:
    sort every finite breakpoint, binary-search the bracketing segment, take
    the secant on it. Returns (y, beta, residual) as scaled_prox_info does."""
    w, t = prob.rank1 / prob.diag, (prob.eta / prob.diag) * reg.lambda1
    g, y_of, count = P._make_rootfn(prob, w, t)
    x, sw = prob.x, float(prob.sign) * w
    live = w != 0.0
    if not live.any():
        return y_of(0.0), 0.0, float(g(0.0))
    if not live.all():
        x, t, sw = x[live], t[live], sw[live]
    # x_j - sgn*beta*w_j = +-t_j
    bp = np.concatenate([(x - t) / sw, (x + t) / sw])
    finite = np.isfinite(bp)
    if not finite.all():
        bp = bp[finite]
    bp.sort()  # duplicates are harmless in the search
    # lazy binary search for the first breakpoint with g >= 0; g is monotone
    # increasing so ~log2(2d) evaluations bracket the linear segment
    cache: dict[int, float] = {}

    def geval(i):
        if i not in cache:
            cache[i] = g(bp[i])
        return cache[i]

    lo_i, hi_i = 0, bp.size
    while lo_i < hi_i:
        mid = (lo_i + hi_i) // 2
        if geval(mid) < 0.0:
            lo_i = mid + 1
        else:
            hi_i = mid
    k = lo_i
    if k == 0:
        b_hi, g_hi = bp[0], geval(0)
        b_lo = b_hi - (1.0 + abs(b_hi))
        g_lo = g(b_lo)
    elif k == bp.size:
        b_lo, g_lo = bp[-1], geval(bp.size - 1)
        b_hi = b_lo + (1.0 + abs(b_lo))
        g_hi = g(b_hi)
    else:
        b_lo, g_lo = bp[k - 1], geval(k - 1)
        b_hi, g_hi = bp[k], geval(k)
    if g_hi == g_lo:
        beta = b_lo
    else:
        beta = b_lo - g_lo * (b_hi - b_lo) / (g_hi - g_lo)
    res = g(beta)
    return y_of(beta), float(beta), float(res)


_BISECT_WIDTH = 1e-13
_MAX_DOUBLINGS = 60


def bisect_search(reg, prob):
    """An independent solver of g(beta) = 0 in continuous beta: geometric
    bracket expansion, bisection, secant polish. Returns (y, beta, residual)
    as sorted_search does."""
    w, t = prob.rank1 / prob.diag, (prob.eta / prob.diag) * reg.lambda1
    g, y_of, count = P._make_rootfn(prob, w, t)
    hi = prob._unorm * float(np.linalg.norm(prob.x)) + 1.0
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
    res = g(beta)
    return y_of(beta), float(beta), float(res)


def exact_route(reg, prob):
    """The library's fallback route on its own: (y, beta, residual,
    evaluations)."""
    beta, res, y_of, count = P._solve_exact(reg, prob)
    return y_of(beta), float(beta), float(res), count[0]


def assert_matches_sorted_search(reg, prob):
    """The exact route against sorted_search, bit for bit, with a root that
    passes the library's residual guard. Returns (evaluations, beta)."""
    y, beta, res, evals = exact_route(reg, prob)
    y_ref, beta_ref, res_ref = sorted_search(reg, prob)
    assert abs(res) <= 1e-9 * (1.0 + abs(beta))
    assert y.tobytes() == y_ref.tobytes()
    assert np.float64(beta).tobytes() == np.float64(beta_ref).tobytes()
    assert np.float64(res).tobytes() == np.float64(res_ref).tobytes()
    return evals, beta_ref


def assert_newton_matches_exact(reg, prob):
    """auto (the Newton route) against the exact route: the same signs of
    y, a residual at rounding level and y within 1e-12 in the max norm.

    The residual bound adds the rounding floor of g itself: u'x and u'y
    sum terms up to |u|'|x|, which reaches 1.7e4 when the root lies outside
    every breakpoint, and there the exact route's residual reaches 7e-12.
    """
    y, info = scaled_prox_info(reg, prob)
    ye = exact_route(reg, prob)[0]
    assert info.method == "newton"
    assert np.array_equal(np.sign(y), np.sign(ye))
    floor = 16 * np.finfo(float).eps * float(np.abs(prob.rank1)
                                             .dot(np.abs(prob.x)))
    assert abs(info.residual) <= 1e-12 * (1.0 + abs(info.beta)) + floor
    assert np.max(np.abs(y - ye)) <= 1e-12
    return info


def breakpoints(reg, prob):
    w = prob.rank1 / prob.diag
    t = (prob.eta / prob.diag) * reg.lambda1
    live = w != 0.0
    sw = prob.sign * w[live]
    bp = np.concatenate([(prob.x[live] - t[live]) / sw,
                         (prob.x[live] + t[live]) / sw])
    return bp[np.isfinite(bp)]


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


def test_exact_and_bisect_routes_agree():
    # the Newton route, the breakpoint route and bisect_search are
    # independent solvers of the same scalar equation
    rng = make_rng(27)
    for k in range(72):
        d = 2 + int(rng.integers(0, 12)) if k < 60 else \
            int(rng.choice([200, 2000, 20000]))
        reg, prob = random_problem(rng, d, -1 if k % 2 else 1,
                                   lam=float(rng.choice([0.05, 0.3, 1.5])))
        y, info = scaled_prox_info(reg, prob)
        ye, _, res_e, _ = exact_route(reg, prob)
        yb, _, res_b = bisect_search(reg, prob)
        assert info.method == "newton"
        for got, res in ((y, info.residual), (ye, res_e)):
            assert np.linalg.norm(got - yb) <= 1e-9 * (1 + np.linalg.norm(yb))
            assert abs(res) < 1e-10
        assert abs(res_b) < 1e-10


# ---------------------------------------------------------------- exact route vs the sorted search


@pytest.mark.parametrize("sign", [1, -1])
def test_exact_route_bitwise_matches_sorted_search(sign):
    rng = make_rng(30 + sign)
    for d in (2, 3, 5, 17, 50, 400, 3000, 20000):
        for _ in range(12 if d < 3000 else 3):
            reg, prob = random_problem(rng, d, sign,
                                       lam=float(rng.choice([0.05, 0.3, 1.5])))
            assert_matches_sorted_search(reg, prob)
            assert_newton_matches_exact(reg, prob)


def test_exact_route_bitwise_with_dead_coordinates():
    # about 40% of rank1 is exactly zero, as on a sparse lasso metric
    rng = make_rng(32)
    for k in range(20):
        d = int(rng.choice([10, 300, 20000]))
        reg, prob = random_problem(rng, d, -1 if k % 2 else 1)
        u = prob.rank1 * (rng.random(d) >= 0.4)
        prob = ScaledProxProblem(prob.diag, u, prob.sign, prob.eta, prob.x)
        assert_matches_sorted_search(reg, prob)
        assert_newton_matches_exact(reg, prob)


def test_exact_route_bitwise_with_duplicate_breakpoints():
    rng = make_rng(33)
    reg = Regularizer(RegKind.L1, 0.3)
    for k in range(20):
        # a few distinct coordinates, each repeated, on a constant diagonal
        base = int(rng.integers(1, 6))
        reps = int(rng.integers(2, 40))
        x = np.repeat(rng.choice([-2.0, -0.5, 0.0, 0.5, 2.0], base), reps)
        u = np.repeat(rng.choice([-0.25, 0.25, 0.5], base), reps)
        sign = -1 if k % 2 else 1
        if sign == -1:
            u *= math.sqrt(0.5 / float(u @ u))
        prob = ScaledProxProblem(np.full(x.size, 2.0), u, sign, 0.7, x)
        assert np.unique(breakpoints(reg, prob)).size < 2 * x.size
        assert_matches_sorted_search(reg, prob)
        assert_newton_matches_exact(reg, prob)


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_exact_route_bitwise_root_outside_every_breakpoint(side):
    # u > 0 and |x| far past the threshold keep every coordinate on one
    # side: the root lies left (side -1 with sign +1: k = 0) or right of all
    rng = make_rng(34)
    reg = Regularizer(RegKind.L1, 0.1)
    hits = set()
    for k in range(20):
        d = int(rng.choice([3, 40, 5000]))
        sign = -1 if k % 2 else 1
        u = 0.1 + rng.random(d)
        diag = 1.0 + rng.random(d)
        if sign == -1:
            u *= math.sqrt(0.5 / float(np.sum(u * u / diag)))
        x = side * (5.0 + rng.random(d))
        prob = ScaledProxProblem(diag, u, sign, 0.5, x)
        info, beta = assert_matches_sorted_search(reg, prob)
        assert_newton_matches_exact(reg, prob)
        bp = breakpoints(reg, prob)
        hits.add("left" if beta < bp.min() else
                 "right" if beta > bp.max() else "inside")
    assert hits == {"left", "right"}


def test_exact_route_bitwise_with_overflowing_breakpoints():
    # subnormal rank1 entries give |x_j / w_j| beyond the float range: their
    # breakpoints are +-inf and must be ignored, not searched
    rng = make_rng(35)
    for k in range(20):
        d = int(rng.choice([6, 80, 20000]))
        reg, prob = random_problem(rng, d, -1 if k % 2 else 1)
        tiny = rng.random(d) < 0.3
        tiny[0] = True
        u = np.where(tiny, 1e-310, prob.rank1)
        prob = ScaledProxProblem(prob.diag, u, prob.sign, prob.eta, prob.x)
        with np.errstate(over="ignore"):
            assert breakpoints(reg, prob).size < 2 * d
            assert_matches_sorted_search(reg, prob)
            assert_newton_matches_exact(reg, prob)


def test_exact_route_median_safeguard_bitwise():
    # the search only halves the candidates, in no sorted order; it must
    # still land on the segment the sorted search finds
    rng = make_rng(36)
    for k in range(60):
        d = int(rng.choice([2, 30, 3000]))
        reg, prob = random_problem(rng, d, -1 if k % 2 else 1)
        evals, _ = assert_matches_sorted_search(reg, prob)
        assert evals <= math.ceil(math.log2(2 * d)) + 3


def test_exact_route_evaluation_count():
    # median probes over 2d breakpoints, the ends of an outer segment and
    # the final residual: no more than a binary search at d = 2e4
    rng = make_rng(37)
    d = 20000
    evals = []
    for k in range(12):
        reg, prob = random_problem(rng, d, -1 if k % 2 else 1)
        evals.append(exact_route(reg, prob)[3])
    assert max(evals) <= math.ceil(math.log2(2 * d)) + 3


# ---------------------------------------------------------------- Newton route


def test_newton_route_evaluation_count():
    # the last evaluation is the root's residual: at d = 2e4 the Newton
    # route needs fewer evaluations than the exact route above
    rng = make_rng(37)
    evals = []
    for k in range(12):
        reg, prob = random_problem(rng, 20000, -1 if k % 2 else 1)
        evals.append(assert_newton_matches_exact(reg, prob).evaluations)
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
    g, y_of, _ = P._make_rootfn(prob, *prob._parts(1.0)[:2])
    g0, y0 = g(0.0), y_of(0.0)[0]
    beta1 = -g0 / (1.0 - 0.9)
    assert y0 > 0.0 and y_of(beta1)[0] < 0.0
    info = assert_newton_matches_exact(reg, prob)
    y = scaled_prox(reg, prob)
    assert y[0] == 0.0
    assert info.beta == pytest.approx(-3.0 * math.sqrt(0.9), rel=1e-12)


def test_newton_cap_falls_back_to_exact_bytes(monkeypatch):
    # with no Newton step allowed, auto is the exact route, bit for bit,
    # and says so
    monkeypatch.setattr(P, "_NEWTON_ITERS", 0)
    rng = make_rng(39)
    for k in range(20):
        d = int(rng.choice([2, 40, 3000]))
        reg, prob = random_problem(rng, d, -1 if k % 2 else 1)
        y, info = scaled_prox_info(reg, prob)
        ye, beta, res, evals = exact_route(reg, prob)
        assert info.method == "newton+exact"
        assert y.tobytes() == ye.tobytes()
        assert (info.beta, info.residual, info.evaluations) == \
            (beta, res, evals)


def test_newton_miss_hands_over_to_exact(monkeypatch):
    # a Newton root that misses the guard hands over to the exact route: its
    # root stands, and both routes' evaluations are counted
    rng = make_rng(40)
    reg, prob = random_problem(rng, 50, -1)
    newton_evals = scaled_prox_info(reg, prob)[1].evaluations
    y_ref, beta_ref, res_ref = sorted_search(reg, prob)
    exact_evals = exact_route(reg, prob)[3]
    solve_newton = P._solve_newton

    def missing(reg, prob):
        beta, _, y_of, count = solve_newton(reg, prob)
        return beta, 1.0, y_of, count  # a residual the guard rejects

    monkeypatch.setattr(P, "_solve_newton", missing)
    y, info = scaled_prox_info(reg, prob)
    assert info.method == "newton+exact"
    assert y.tobytes() == y_ref.tobytes()
    assert (info.beta, info.residual) == (beta_ref, res_ref)
    assert info.evaluations == newton_evals + exact_evals


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_point_flows_through(bad, monkeypatch):
    # a diverging run hands the prox a non-finite x; g(0) is then inf or
    # nan and neither route has a root: the prox must return a non-finite
    # y, which the solver's epoch-end guard turns into a divergence, not
    # raise, whether the Newton route stops early or takes no step at all
    rng = make_rng(41)
    caps = (P._NEWTON_ITERS, 0)
    for sign in (1, -1):
        for d in (2, 8, 300):
            reg, prob = random_problem(rng, d, sign)
            prob.x[rng.integers(d)] = bad
            for iters in caps:
                monkeypatch.setattr(P, "_NEWTON_ITERS", iters)
                with np.errstate(all="ignore"):
                    y, info = scaled_prox_info(reg, prob)
                assert info.method == "newton+exact"
                assert not np.isfinite(y).all()
                assert not math.isfinite(info.residual)


@pytest.mark.parametrize("sign", [1, -1])
def test_warm_start_matches_exact(sign):
    # the root does not depend on the start: from the cold root, from far
    # on either side of it and from +-1e6 the Newton route must land on the
    # exact route's y without falling back
    rng = make_rng(42 + sign)
    for d in (2, 40, 3000, 20000):
        for _ in range(4 if d < 3000 else 2):
            reg, prob = random_problem(rng, d, sign,
                                       lam=float(rng.choice([0.05, 0.3, 1.5])))
            root = scaled_prox_info(reg, prob)[1].beta
            far = 1e3 * (1.0 + abs(root))
            for start in (root, root - far, root + far, -1e6, 1e6):
                prob.beta0 = start
                assert_newton_matches_exact(reg, prob)
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
            cold.append(assert_newton_matches_exact(reg, prob).evaluations)
            prob.beta0 = start
            info = assert_newton_matches_exact(reg, prob)
            warm.append(info.evaluations)
            prob.beta0 = info.beta
        assert np.median(warm) <= 2
        assert np.median(cold) >= 3
        assert sum(warm) < sum(cold)


def test_soft_threshold_bitwise_sign_form():
    # the copysign form keeps the bytes of sign(z) * max(|z| - t, 0), for
    # scalar and per-coordinate thresholds; only z = -0 differs (-0 for +0)
    rng = make_rng(46)
    z = np.concatenate([3.0 * rng.standard_normal(500),
                        [0.0, 0.5, -0.5, 1e-300, -1e-300, math.inf,
                         -math.inf]])
    for t in (0.5, 0.05 + rng.random(z.size)):
        want = np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
        assert P._soft_threshold(z, t).tobytes() == want.tobytes()
    y = P._soft_threshold(np.array([-0.0]), 0.5)
    assert y[0] == 0.0 and math.copysign(1.0, y[0]) == -1.0


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_prox_out_matches_allocating_call(lam):
    rng = make_rng(47)
    reg = Regularizer(RegKind.L1 if lam > 0 else RegKind.ZERO, lam)
    for d in (1, 7, 20000):
        x = 2.0 * rng.standard_normal(d)
        want = prox(reg, x, 0.7)
        buf = np.full(d, math.nan)
        got = prox(reg, x, 0.7, out=buf)
        assert got is buf
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_prox_out_sharing_x_raises(lam):
    # out may not overlap x, whether it is x itself or a view into it
    reg = Regularizer(RegKind.L1 if lam > 0 else RegKind.ZERO, lam)
    rows = np.arange(12.0).reshape(2, 6)
    for x, out in ((rows[0], rows[0]), (rows.ravel()[:6], rows.ravel()[3:9])):
        with pytest.raises(ValueError, match="share memory"):
            prox(reg, x, 0.5, out=out)
    assert np.array_equal(rows, np.arange(12.0).reshape(2, 6))
    prox(reg, rows[0], 0.5, out=rows[1])  # disjoint rows of one array


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
