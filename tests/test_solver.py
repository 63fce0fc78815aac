import math
import warnings

import numpy as np
import pytest

from dataset_helpers import from_rows
from floyd_oracle import floyd_sample
from proxsqn import (
    IDENTITY_BOUNDS,
    CurvaturePair,
    DivergenceError,
    LossKind,
    RegKind,
    Regularizer,
    Sampler,
    ScaledProxProblem,
    SchemeKind,
    SmoothObjective,
    SolverConfig,
    SolverKind,
    SyntheticSpec,
    apply_inverse,
    build_metric,
    composite_value,
    full_gradient,
    generate_synthetic,
    metric_as_splitting,
    rate_plan,
    reference_solution,
    run,
    scaled_prox,
    smooth_value,
)
from proxsqn.errors import ConvergenceError
from proxsqn.prox import prox
from proxsqn.solver import estimate_smoothness


def sqn_config(**kw):
    base = dict(kind=SolverKind.PROX_SQN, epochs=5, eta=0.05, m=50, b=4,
                b_hessian=10, metric_period=5, alpha=0.5,
                scheme=SchemeKind.UNIFORM_BATCH, seed=0)
    base.update(kw)
    return SolverConfig(**base)


# ---------------------------------------------------------------- config and records


def test_config_validation():
    with pytest.raises(ValueError, match="epochs"):
        sqn_config(epochs=0)
    with pytest.raises(ValueError, match="eta"):
        sqn_config(eta=0.0)
    with pytest.raises(ValueError, match="alpha"):
        sqn_config(alpha=1.0)
    with pytest.raises(ValueError, match="batch"):
        sqn_config(b=0)


def test_config_rejects_nan_step():
    for eta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eta"):
            sqn_config(eta=eta)


def test_config_rejects_bad_skip_eps():
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="skip_eps"):
            sqn_config(skip_eps=bad)


def test_composite_value(sq_small, lasso_reg):
    x = np.array([1.0, -2.0, 0.5, 0.0])
    assert composite_value(sq_small, lasso_reg, x) == pytest.approx(
        smooth_value(sq_small, x) + 0.01 * 3.5)


def test_trace_record_invariants(midsize, lasso_reg):
    res = run(midsize, lasso_reg, sqn_config(epochs=4))
    assert len(res.records) == 4
    for r in res.records:
        assert np.isfinite(r.objective)
    for a, b in zip(res.records, res.records[1:]):
        assert b.grad_evals > a.grad_evals
        assert b.metric_rebuilds >= a.metric_rebuilds
        assert b.elapsed_ns >= a.elapsed_ns
        assert b.iteration == a.iteration + 50
    # uniform b < n: n snapshot evals plus 2b per inner step, per epoch
    assert res.grad_evals == 4 * (midsize.n + 2 * 4 * 50)
    assert res.records[-1].objective == pytest.approx(
        composite_value(midsize, lasso_reg, res.x))


def test_subopt_only_with_reference(midsize, lasso_reg):
    res = run(midsize, lasso_reg, sqn_config(epochs=2))
    assert all(r.subopt is None for r in res.records)
    res2 = run(midsize, lasso_reg, sqn_config(epochs=2), p_star=0.0)
    assert all(r.subopt == r.objective for r in res2.records)


# ---------------------------------------------------------------- degenerate reductions


def test_svrg_full_batch_zero_reg_is_plain_gd(midsize, zero_reg):
    # b = n makes the estimator exact, so the inner loop is gradient descent;
    # compare against a straight-line implementation for 100 steps
    eta = 0.01
    cfg = SolverConfig(kind=SolverKind.PROX_SVRG, epochs=100, eta=eta,
                       m=1, b=midsize.n, seed=0)
    res = run(midsize, zero_reg, cfg)
    x = np.zeros(midsize.d)
    for _ in range(100):
        x = x - eta * full_gradient(midsize, x)
    assert np.array_equal(res.x, x)


def test_sqn_identity_metric_matches_prox_gd(midsize, lasso_reg):
    # m = 1, b = n, no metric (ProxSVRG): the epoch loop is exactly ISTA
    eta = 0.02
    sqn = run(midsize, lasso_reg,
              SolverConfig(kind=SolverKind.PROX_SVRG, epochs=60, eta=eta,
                           m=1, b=midsize.n, seed=0),
              p_star=1.0)
    gd = run(midsize, lasso_reg,
             SolverConfig(kind=SolverKind.PROX_GD, epochs=60, eta=eta),
             p_star=1.0)
    for a, b in zip(sqn.records, gd.records):
        assert (a.epoch, a.iteration) == (b.epoch, b.iteration)
        assert repr(a.objective) == repr(b.objective)
        assert repr(a.subopt) == repr(b.subopt)
    assert np.array_equal(sqn.x, gd.x)


def test_sqn_draws_the_svrg_gradient_batches(midsize, lasso_reg, monkeypatch):
    # Hessian batches come from their own stream, so switching the metric
    # on leaves the gradient batches exactly as ProxSVRG draws them
    draws = []
    real_draw_epoch = Sampler.draw_epoch

    def recording_draw_epoch(self, m, snapshot):
        batches = real_draw_epoch(self, m, snapshot)

        def recorded():
            for batch in batches:
                draws[-1].append((batch.indices.tolist(),
                                  batch.weights.tolist()))
                yield batch

        return recorded()

    monkeypatch.setattr(Sampler, "draw_epoch", recording_draw_epoch)
    kw = dict(epochs=3, eta=0.03, m=30, b=5, b_hessian=10, metric_period=5,
              seed=11)
    for kind in (SolverKind.PROX_SVRG, SolverKind.PROX_SQN):
        draws.append([])
        res = run(midsize, lasso_reg, SolverConfig(kind=kind, **kw))
    assert res.metric_rebuilds > 0
    assert len(draws[0]) == 3 * 30
    assert draws[0] == draws[1]


def test_hessian_batches_are_the_per_rebuild_draws(midsize, lasso_reg,
                                                   monkeypatch):
    # Hessian batches are drawn ahead in blocks of m // Z + 1 rows, and an
    # anchor that skips its rebuild takes none: the batches are those of
    # one floyd_sample call per drawn anchor on a fresh generator. The
    # plain prox pins x at 0 for the first 4Z steps, so the anchors at 2Z,
    # 3Z and 4Z see s_r = 0 and skip.
    import proxsqn.solver as solver_module
    from proxsqn.sampler import make_rng
    Z, seed = 5, 13
    real_prox, steps = solver_module.prox, []

    def pinned_prox(reg, v, eta):
        steps.append(None)
        if len(steps) <= 4 * Z:
            return np.zeros_like(v)
        return real_prox(reg, v, eta)

    drawn = []
    real_hessian_vec = solver_module.hessian_vec

    def recording_hessian_vec(obj, batch, x, s):
        drawn.append(np.array(batch))
        return real_hessian_vec(obj, batch, x, s)

    monkeypatch.setattr(solver_module, "prox", pinned_prox)
    monkeypatch.setattr(solver_module, "hessian_vec", recording_hessian_vec)
    res = run(midsize, lasso_reg, sqn_config(epochs=4, m=40, b_hessian=12,
                                             metric_period=Z, seed=seed))
    assert res.anomalies >= 3
    assert len(drawn) == 4 * 40 // Z - 1 - 3  # 28, from blocks of 9 rows
    fresh = make_rng(seed ^ 0x9E3779B97F4A7C15)
    for T in drawn:
        assert np.array_equal(T, floyd_sample(fresh, midsize.n, 12))


def test_anchors_are_means_of_the_step_start_points(midsize, lasso_reg,
                                                    monkeypatch):
    # each anchor xhat_r, at g = rZ, is bit for bit the mean of the points
    # that steps g-Z+1..g started from, and s_r = xhat_r - xhat_{r-1}. With
    # m % Z != 0 the windows straddle epoch ends, so they hold the epoch
    # averages that the next epochs restart from.
    import proxsqn.solver as solver_module
    Z, m, epochs = 10, 37, 3
    starts, pairs = [], []
    real_vr_gradient = solver_module.vr_gradient
    real_hessian_vec = solver_module.hessian_vec

    def recording_vr_gradient(obj, batch, x):
        starts.append(x.copy())
        return real_vr_gradient(obj, batch, x)

    def recording_hessian_vec(obj, batch, x, s):
        pairs.append((len(starts), x.copy(), s.copy()))
        return real_hessian_vec(obj, batch, x, s)

    monkeypatch.setattr(solver_module, "vr_gradient", recording_vr_gradient)
    monkeypatch.setattr(solver_module, "hessian_vec", recording_hessian_vec)
    res = run(midsize, lasso_reg, sqn_config(epochs=epochs, m=m,
                                             metric_period=Z))
    assert len(starts) == epochs * m
    anchors = {g: np.array(starts[g - Z:g]).mean(axis=0)
               for g in range(Z, epochs * m + 1, Z)}
    assert res.anomalies == 0
    assert [g for g, _, _ in pairs] == sorted(anchors)[1:]
    for g, xhat, sr in pairs:
        assert xhat.tobytes() == anchors[g].tobytes()
        assert sr.tobytes() == (anchors[g] - anchors[g - Z]).tobytes()


def test_prox_gd_closed_form_quadratic():
    # least squares with diagonal design: x_{k+1} = (I - eta Q) x_k + eta c
    rows = [(np.array([j]), np.array([v]))
            for j, v in enumerate([1.0, 2.0, 0.5, 1.5])]
    ds = from_rows(rows, np.array([1.0, -2.0, 0.5, 3.0]), 4)
    obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge=0.05)
    reg = Regularizer(RegKind.ZERO)
    A = ds.to_csr().toarray()
    Q = A.T @ A / obj.n + 0.05 * np.eye(4)
    c = A.T @ ds.labels / obj.n
    eigs = np.linalg.eigvalsh(Q)
    mu, L = eigs[0], eigs[-1]
    eta = 1.0 / L
    x_star = np.linalg.solve(Q, c)
    x_closed = np.zeros(4)
    for k in range(1, 26):
        x_closed = x_closed - eta * (Q @ x_closed - c)
        res = run(obj, reg, SolverConfig(kind=SolverKind.PROX_GD,
                                         epochs=k, eta=eta))
        assert np.allclose(res.x, x_closed, atol=1e-9)
        # geometric decay at rate (1 - mu/L)
        err = np.linalg.norm(res.x - x_star)
        start = np.linalg.norm(x_star)
        assert err <= (1 - mu / L) ** k * start + 1e-9


def test_divergence_guard(midsize, lasso_reg):
    with pytest.raises(DivergenceError):
        run(midsize, lasso_reg,
            SolverConfig(kind=SolverKind.PROX_GD, epochs=200, eta=50.0))


def test_sqn_divergence_caught_at_anchor():
    # at eta = 1e3 the anchors blow up within the first epoch: the run must
    # stop with a divergence naming the global iteration, not fail while
    # rebuilding the metric from non-finite curvature
    for loss in LossKind:
        ds, _ = generate_synthetic(SyntheticSpec(
            n=200, d=20, density=0.5, condition=4.0, noise=0.1, seed=3,
            loss=loss))
        obj = SmoothObjective.build(ds, loss, 0.1)
        for lam in (0.0, 0.01):
            reg = Regularizer(RegKind.L1 if lam else RegKind.ZERO, lam)
            cfg = SolverConfig(kind=SolverKind.PROX_SQN, epochs=3, eta=1e3,
                               m=200, b=5, b_hessian=20, metric_period=5)
            with np.errstate(all="ignore"), \
                    pytest.raises(DivergenceError, match="at iteration"):
                run(obj, reg, cfg)


def _diverging_sqn(eta):
    ds, _ = generate_synthetic(SyntheticSpec(
        n=200, d=20, density=0.5, condition=4.0, noise=0.1, seed=3,
        loss=LossKind.SQUARED_ERROR))
    obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, 0.1)
    cfg = SolverConfig(kind=SolverKind.PROX_SQN, epochs=3, eta=eta, m=200,
                       b=5, b_hessian=20, metric_period=5)
    return obj, Regularizer(RegKind.L1, 0.01), cfg


def test_sqn_divergence_caught_in_curvature():
    # at eta = 150 the anchors stay finite but s_r'y_r and y_r'y_r overflow
    # after many rebuilds: tau = inf/inf leaves a metric with no finite
    # scale, which is a divergence, not an invalid ScaledProxProblem
    obj, reg, cfg = _diverging_sqn(150.0)
    with np.errstate(all="ignore"), pytest.raises(
            DivergenceError, match="curvature pair not finite at iteration"):
        run(obj, reg, cfg)


def test_sqn_indefinite_splitting_is_an_anomaly(monkeypatch):
    # the third curvature pair is all but orthogonal to s: build_metric
    # keeps its rank-one term, but u'D^-1 u rounds to 1, so the splitting
    # is not positive definite. That rebuild counts as an anomaly and the
    # run goes on with the last metric
    import proxsqn.solver as solver_module
    ds, _ = generate_synthetic(SyntheticSpec(
        n=200, d=20, density=0.5, condition=4.0, noise=0.1, seed=3))
    obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, 0.1)
    cfg = SolverConfig(kind=SolverKind.PROX_SQN, epochs=2, eta=0.05, m=100,
                       b=5, b_hessian=20, metric_period=5, alpha=0.1)
    real, calls = solver_module.hessian_vec, []

    def near_orthogonal(obj, rows, x, s):
        y = real(obj, rows, x, s)
        calls.append(1)
        if len(calls) != 3:
            return y
        e = np.cos(np.arange(s.size) + 1.0)
        e -= (e @ s) / (s @ s) * s
        e /= np.linalg.norm(e)
        return np.linalg.norm(y) * (e + 1.5e-8 * s / np.linalg.norm(s))

    monkeypatch.setattr(solver_module, "hessian_vec", near_orthogonal)
    res = run(obj, Regularizer(RegKind.L1, 0.01), cfg)
    assert res.anomalies == 1
    assert res.metric_rebuilds == len(calls) - 1 > 3


def test_sqn_nonfinite_scaled_step_is_a_divergence(monkeypatch):
    # a step that overflows between two anchors hands the scaled prox a
    # non-finite point after a metric exists; the prox must let the nan
    # through (no route has a root) so that the run ends as a divergence
    import proxsqn.solver as solver_module
    obj, reg, cfg = _diverging_sqn(0.05)
    calls = []

    def overflowing(metric, v):
        out = apply_inverse(metric, v)
        calls.append(1)
        if len(calls) > 3:
            out[0] = math.inf
        return out

    monkeypatch.setattr(solver_module, "apply_inverse", overflowing)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        run(obj, reg, cfg)
    assert len(calls) > 3


# ---------------------------------------------------------------- inner loop structure


def test_warmup_gating(midsize, lasso_reg):
    Z = 5
    res = run(midsize, lasso_reg, sqn_config(epochs=3, m=40,
                                             metric_period=Z))
    # first scaled call at the first step after 2Z warmup iterations
    assert res.first_scaled_iteration == 2 * Z + 1
    total = 3 * 40
    assert res.scaled_prox_calls == total - 2 * Z
    # rebuild cadence: one per Z steps after the anchor trigger
    assert res.metric_rebuilds + res.anomalies == total // Z - 1


def test_scaled_steps_start_from_the_previous_root(midsize, lasso_reg,
                                                    monkeypatch):
    # every scaled step goes through proxsqn.prox.scaled_prox_info, and its
    # Newton start is the previous step's root under the same metric (0
    # after each rebuild)
    import proxsqn.prox as prox_module
    orig = prox_module.scaled_prox_info
    calls = []

    def recording(reg, prob):
        start = prob.beta0
        y, info = orig(reg, prob)
        calls.append((prob, start, info.beta))
        return y, info

    monkeypatch.setattr(prox_module, "scaled_prox_info", recording)
    res = run(midsize, lasso_reg, sqn_config(epochs=2, m=40))
    assert len(calls) == res.scaled_prox_calls > 0
    assert calls[0][1] == 0.0
    for (p0, _, root), (p1, start, _) in zip(calls, calls[1:]):
        assert start == (root if p1 is p0 else 0.0)
    # the last rebuild may come after the last scaled step
    assert 1 < len({id(c[0]) for c in calls}) <= res.metric_rebuilds


@pytest.mark.parametrize("kind", [SolverKind.PROX_SQN, SolverKind.PROX_SVRG])
def test_runs_share_no_buffers(midsize, lasso_reg, kind):
    # the inner loop's buffers are its own; two runs in one process give
    # the same trace, and the first result's x belongs to its caller
    cfg = sqn_config(kind=kind, epochs=3, m=40)
    first = run(midsize, lasso_reg, cfg)
    x_first = first.x.copy()
    first.x[:] = math.nan
    second = run(midsize, lasso_reg, cfg)

    def trace(res):  # every record field but elapsed_ns
        return [(r.epoch, r.iteration, r.objective, r.subopt, r.grad_evals,
                 r.metric_rebuilds) for r in res.records]

    assert trace(first) == trace(second)
    assert second.x.tobytes() == x_first.tobytes()


def test_metric_disabled_run_never_scales(midsize, lasso_reg):
    res = run(midsize, lasso_reg, sqn_config(kind=SolverKind.PROX_SVRG,
                                             epochs=2))
    assert res.scaled_prox_calls == 0
    assert res.metric_rebuilds == 0
    assert res.first_scaled_iteration is None


def test_epoch_average_output(midsize, zero_reg):
    # with b = n and R = Zero the inner iterates are plain GD points, so the
    # epoch output must be their running mean
    eta = 0.01
    m = 3
    cfg = SolverConfig(kind=SolverKind.PROX_SVRG, epochs=2, eta=eta, m=m,
                       b=midsize.n, seed=0)
    res = run(midsize, zero_reg, cfg)
    x = np.zeros(midsize.d)
    for _ in range(2):
        inner = []
        for _ in range(m):
            x = x - eta * full_gradient(midsize, x)
            inner.append(x)
        x = np.mean(inner, axis=0)
    assert np.allclose(res.x, x, atol=1e-14)


def test_monotone_trend(midsize, lasso_reg):
    # eta at half the planned maximum: epoch suboptimality is non-increasing
    # after epoch 2 in at least 95% of seeded runs
    plan = rate_plan(IDENTITY_BOUNDS, midsize.lipschitz_mean,
                     midsize.strong_convexity, 100, 0.01)
    eta = plan.eta_max / 2
    _, p_star = reference_solution(midsize, lasso_reg, tol=1e-12)
    good = 0
    for seed in range(20):
        res = run(midsize, lasso_reg,
                  sqn_config(epochs=8, m=100, eta=eta, seed=seed),
                  p_star=p_star)
        subs = [r.subopt for r in res.records]
        if all(b <= a for a, b in zip(subs[1:], subs[2:])):
            good += 1
    assert good >= 19


def test_lasso_instance_linear_decay(lasso_reg):
    # epoch suboptimality strictly decreasing down to 1e-9 within 30 epochs
    # at m = 2n and a planned step
    spec = SyntheticSpec(n=200, d=20, density=0.1, condition=8.0, noise=0.1,
                         seed=3, loss=LossKind.SQUARED_ERROR)
    ds, _ = generate_synthetic(spec)
    obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge=0.1)
    m = 2 * obj.n
    plan = rate_plan(IDENTITY_BOUNDS, obj.lipschitz_mean,
                     obj.strong_convexity, m, 0.01)
    eta = plan.eta_max / 2
    _, p_star = reference_solution(obj, lasso_reg, tol=1e-12)
    res = run(obj, lasso_reg,
              sqn_config(epochs=30, m=m, eta=eta, metric_period=10,
                         b_hessian=50, seed=1),
              p_star=p_star)
    subs = [r.subopt for r in res.records]
    hit = [s for s in subs if s <= 1e-9]
    assert hit, f"never reached 1e-9, last subopt {subs[-1]:.2e}"
    first = subs.index(hit[0])
    assert all(b < a for a, b in zip(subs[:first], subs[1:first + 1]))


def test_fixed_point_of_scaled_update(midsize, lasso_reg):
    # x_k = x*, v_k = grad F(x*): the scaled prox update returns x*
    x_star, _ = reference_solution(midsize, lasso_reg, tol=1e-12)
    g = full_gradient(midsize, x_star)
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = rng.standard_normal(midsize.d)
        B = np.eye(midsize.d) * 2.0 + 0.5 * np.outer(s, s) / (s @ s)
        m = build_metric(CurvaturePair(s, B @ s), 0.5)
        diag, rank1, sign = metric_as_splitting(m)
        eta = 0.05
        z = x_star - eta * apply_inverse(m, g)
        y = scaled_prox(lasso_reg, ScaledProxProblem(diag, rank1, sign,
                                                     eta, z))
        assert np.linalg.norm(y - x_star) <= 1e-9


# ---------------------------------------------------------------- baselines


@pytest.mark.parametrize("kind", [SolverKind.PROX_GD, SolverKind.FISTA,
                                  SolverKind.PROX_NEWTON_FULL])
def test_full_gradient_cost_model(midsize, lasso_reg, kind):
    # one full gradient per iteration, and one Hessian rebuild for Newton
    res = run(midsize, lasso_reg, SolverConfig(kind=kind, epochs=5, eta=0.5))
    per_rebuild = 1 if kind is SolverKind.PROX_NEWTON_FULL else 0
    assert [(r.epoch, r.iteration, r.grad_evals, r.metric_rebuilds)
            for r in res.records] == [
        (k, k, k * midsize.n, k * per_rebuild) for k in range(1, 6)]
    assert res.grad_evals == 5 * midsize.n
    assert res.metric_rebuilds == 5 * per_rebuild
    assert res.anomalies == res.scaled_prox_calls == 0
    assert res.first_scaled_iteration is None
    assert res.records[-1].objective == composite_value(midsize, lasso_reg,
                                                        res.x)


@pytest.mark.parametrize("kind", [SolverKind.PROX_GD, SolverKind.FISTA])
def test_full_gradient_zeros_are_plus_zero(midsize, lasso_reg, kind):
    # the soft threshold writes +0 for every zero it makes
    eta = 1.0 / estimate_smoothness(midsize)
    x = run(midsize, lasso_reg, SolverConfig(kind=kind, epochs=30, eta=eta)).x
    assert (x == 0.0).any()
    assert not np.signbit(x[x == 0.0]).any()


def test_fista_beats_ista():
    # acceleration only pays off without strong convexity; drop the ridge
    # and stretch the column scaling so ISTA is stuck in its slow regime
    spec = SyntheticSpec(n=120, d=30, density=1.0, condition=50.0, noise=0.1,
                         seed=5, loss=LossKind.SQUARED_ERROR)
    ds, _ = generate_synthetic(spec)
    obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge=0.0)
    reg = Regularizer(RegKind.L1, 0.001)
    _, p_star = reference_solution(obj, reg, tol=1e-12)
    eta = 1.0 / estimate_smoothness(obj)
    ista = run(obj, reg,
               SolverConfig(kind=SolverKind.PROX_GD, epochs=100, eta=eta),
               p_star=p_star)
    fista = run(obj, reg,
                SolverConfig(kind=SolverKind.FISTA, epochs=100, eta=eta),
                p_star=p_star)
    assert fista.records[-1].subopt < 0.1 * ista.records[-1].subopt


def test_prox_newton_one_step_on_least_squares(zero_reg):
    spec = SyntheticSpec(n=40, d=6, density=1.0, condition=4.0, noise=0.0,
                         seed=2, loss=LossKind.SQUARED_ERROR)
    ds, _ = generate_synthetic(spec)
    obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge=0.0)
    x_star, _ = reference_solution(obj, zero_reg, tol=1e-12)
    res = run(obj, zero_reg,
              SolverConfig(kind=SolverKind.PROX_NEWTON_FULL, epochs=1,
                           eta=1.0))
    # quadratic objective, exact Hessian: one full Newton step lands on x*
    assert np.linalg.norm(res.x - x_star) <= 1e-10


def test_prox_newton_l1_fixed_point(lasso_reg):
    spec = SyntheticSpec(n=60, d=8, density=1.0, condition=3.0, noise=0.1,
                         seed=4, loss=LossKind.SQUARED_ERROR)
    ds, _ = generate_synthetic(spec)
    obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge=0.1)
    x_star, p_star = reference_solution(obj, lasso_reg, tol=1e-12)
    res = run(obj, lasso_reg,
              SolverConfig(kind=SolverKind.PROX_NEWTON_FULL, epochs=20,
                           eta=1.0),
              p_star=p_star)
    assert np.linalg.norm(res.x - x_star) <= 1e-8
    assert res.records[-1].subopt <= 1e-12


def test_prox_newton_dense_limit(lasso_reg):
    # d = 257 is one past the dense Hessian's limit
    spec = SyntheticSpec(n=10, d=257, density=0.01, seed=0)
    ds, _ = generate_synthetic(spec)
    obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge=0.1)
    with pytest.raises(ValueError, match="d = 257 exceeds dense limit 256"):
        run(obj, lasso_reg,
            SolverConfig(kind=SolverKind.PROX_NEWTON_FULL, epochs=1,
                         eta=1.0))


# ---------------------------------------------------------------- rate planning


def test_rate_plan_unit_example():
    # gamma = Gamma = mu = L_Q = 1, eta = 0.1, m = 1000
    rep = rate_plan(IDENTITY_BOUNDS, 1.0, 1.0, 1000, 0.1)
    assert rep.eta_max == pytest.approx(0.125)
    assert rep.rho == pytest.approx(41.04 / 60.0)
    assert rep.feasible
    assert rep.m_min == 53


def test_rate_plan_monotone_in_m():
    r1 = rate_plan(IDENTITY_BOUNDS, 1.0, 1.0, 500, 0.1)
    r2 = rate_plan(IDENTITY_BOUNDS, 1.0, 1.0, 1000, 0.1)
    assert r2.rho < r1.rho
    # boundary: rho(m_min) < 1 <= rho(m_min - 1)
    m_min = r1.m_min
    assert rate_plan(IDENTITY_BOUNDS, 1.0, 1.0, m_min, 0.1).rho < 1.0
    assert rate_plan(IDENTITY_BOUNDS, 1.0, 1.0, m_min - 1, 0.1).rho >= 1.0


def test_rate_plan_infeasible_regimes():
    # eta above eta_max: no m works, reported infeasible without raising
    rep = rate_plan(IDENTITY_BOUNDS, 1.0, 1.0, 1000, 0.2)
    assert not rep.feasible
    assert rep.m_min is None
    # eta -> 0: rho -> infinity
    rep = rate_plan(IDENTITY_BOUNDS, 1.0, 1.0, 10, 1e-9)
    assert not rep.feasible
    assert rep.rho > 1.0
    # eta large enough to flip the denominator sign
    rep = rate_plan(IDENTITY_BOUNDS, 1.0, 1.0, 10, 0.3)
    assert rep.rho == np.inf
    with pytest.raises(ValueError):
        rate_plan(IDENTITY_BOUNDS, 1.0, 0.0, 10, 0.1)


def test_rate_plan_search_cap():
    # m_min is about Gamma / (eta mu): 1e16 at eta = 1e-16, past 2^49, where
    # the doubling search stops; 1e13 at eta = 1e-13 is found
    rep = rate_plan(IDENTITY_BOUNDS, 1.0, 1.0, 10, 1e-16)
    assert rep.eta_max > 1e-16 and rep.m_min is None and not rep.feasible
    m_min = rate_plan(IDENTITY_BOUNDS, 1.0, 1.0, 10, 1e-13).m_min
    assert 1e12 < m_min < 2 ** 49


def test_run_rejects_an_unknown_kind(midsize, lasso_reg):
    with pytest.raises(ValueError, match="unknown solver kind"):
        run(midsize, lasso_reg, SolverConfig(kind="newton", epochs=1))


# ---------------------------------------------------------------- references


def test_estimate_smoothness_bounds(midsize):
    A = midsize.dataset.to_csr().toarray()
    Q = A.T @ A / midsize.n + midsize.ridge * np.eye(midsize.d)
    true_L = np.linalg.eigvalsh(Q)[-1]
    est = estimate_smoothness(midsize)
    assert true_L <= est <= 1.02 * true_L


def test_estimate_smoothness_matches_the_top_eigenvalue(midsize):
    A = midsize.dataset.to_csr().toarray()
    Q = A.T @ A / midsize.n + midsize.ridge * np.eye(midsize.d)
    est = estimate_smoothness(midsize)
    assert est == pytest.approx(1.01 * np.linalg.eigvalsh(Q)[-1], rel=1e-8)


def test_estimate_smoothness_bounds_a_clustered_spectrum():
    # A'A/n = diag(0.98, ..., 1.0, ..., 0.98) at d = n = 1e4: 200 power
    # steps read 0.99654, below L_F = 1
    d = 10000
    diag = np.full(d, 0.98)
    diag[d // 2] = 1.0
    rows = [(np.array([j]), np.array([math.sqrt(diag[j] * d)]))
            for j in range(d)]
    ds = from_rows(rows, np.ones(d), d)
    obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, 0.0)
    assert 1.0 <= estimate_smoothness(obj) <= 1.02


@pytest.mark.parametrize("loss, rows, d", [
    (LossKind.SQUARED_ERROR, [([0], [2.0]), ([0], [-1.0])], 1),
    (LossKind.LOGISTIC_RIDGE, [([0], [3.0])], 1),
    (LossKind.SQUARED_ERROR, [([0, 1], [1.0, 2.0]), ([1], [0.5])], 2),
    (LossKind.LOGISTIC_RIDGE, [([0, 1], [1.0, -3.0]), ([0], [2.0])], 2),
])
def test_estimate_smoothness_is_exact_at_small_d(loss, rows, d):
    # the Krylov space is the whole space after d products
    rows = [(np.array(j), np.array(v)) for j, v in rows]
    ds = from_rows(rows, np.ones(len(rows)), d)
    obj = SmoothObjective.build(ds, loss, 0.1)
    A = ds.to_csr().toarray()
    scale = 0.25 if loss is LossKind.LOGISTIC_RIDGE else 1.0
    top = np.linalg.eigvalsh(scale * A.T @ A / obj.n + 0.1 * np.eye(d))[-1]
    assert estimate_smoothness(obj) == pytest.approx(1.01 * top + 1e-12,
                                                     rel=1e-14)


def test_estimate_smoothness_is_deterministic(midsize):
    first = estimate_smoothness(midsize)
    assert repr(estimate_smoothness(midsize)) == repr(first)


def _column_instance(loss, ridge, entries, labels):
    rows = [(np.array([j]), np.array([v])) for j, v in entries]
    ds = from_rows(rows, np.array(labels), 2)
    return SmoothObjective.build(ds, loss, ridge)


def test_estimate_smoothness_returns_an_overflow(zero_reg):
    # L_i = 4.2e307 is finite, but ||A'A v|| overflows: the estimate is
    # inf, not the ridge left after v was scaled to 0, and numpy is silent
    obj = _column_instance(LossKind.LOGISTIC_RIDGE, 0.1,
                           [(0, 1.3e154), (1, 1.3e154), (0, 1.0)],
                           [1.0, -1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not math.isfinite(estimate_smoothness(obj))
        with pytest.raises(ConvergenceError,
                           match=r"smoothness estimate (inf|nan) is not"):
            reference_solution(obj, zero_reg)


def test_reference_solution_rejects_an_underflowed_smoothness(zero_reg):
    # A'A v underflows to 0 at ridge 0: a step of 1/0 must not be taken
    obj = _column_instance(LossKind.SQUARED_ERROR, 0.0,
                           [(0, 1e-160), (0, 2e-160)], [1.0, -1.0])
    assert estimate_smoothness(obj) == 0.0
    with pytest.raises(ConvergenceError,
                       match=r"smoothness estimate 0\.0 is not in \(0, inf\)"):
        reference_solution(obj, zero_reg)


def test_reference_solution_least_squares(zero_reg):
    spec = SyntheticSpec(n=50, d=8, density=1.0, condition=5.0, noise=0.2,
                         seed=6, loss=LossKind.SQUARED_ERROR)
    ds, _ = generate_synthetic(spec)
    obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge=0.05)
    x, p = reference_solution(obj, zero_reg, tol=1e-12)
    A = ds.to_csr().toarray()
    Q = A.T @ A / obj.n + 0.05 * np.eye(8)
    c = A.T @ ds.labels / obj.n
    assert np.allclose(x, np.linalg.solve(Q, c), atol=1e-9)
    assert p == pytest.approx(composite_value(obj, zero_reg, x))


def test_reference_solution_threshold_kill(midsize):
    # lambda1 >= ||grad F(0)||_inf forces x* = 0
    g0 = np.max(np.abs(full_gradient(midsize, np.zeros(midsize.d))))
    reg = Regularizer(RegKind.L1, float(g0) * 1.01)
    x, p = reference_solution(midsize, reg, tol=1e-12)
    assert np.array_equal(x, np.zeros(midsize.d))
    assert p == pytest.approx(composite_value(midsize, reg, x))


def test_reference_solution_iteration_cap(midsize, lasso_reg):
    with pytest.raises(ConvergenceError):
        reference_solution(midsize, lasso_reg, tol=0.0, max_iter=10)


def test_reference_solution_rejects_nan_tol(midsize, lasso_reg):
    # a nan tol is never met: it must fail at once, not at the cap
    with pytest.raises(ValueError, match="tol"):
        reference_solution(midsize, lasso_reg, tol=math.nan, max_iter=10)


def test_reference_solution_rejects_nonfinite_smoothness(midsize, lasso_reg,
                                                        monkeypatch):
    # entries near 1e160 overflow the smoothness estimate to nan; a nan step
    # must not reach the prox
    monkeypatch.setattr("proxsqn.solver.estimate_smoothness",
                        lambda obj: math.nan)
    with pytest.raises(ConvergenceError, match="smoothness estimate nan"):
        reference_solution(midsize, lasso_reg)


def test_reference_solution_stops_on_nonfinite_residual(midsize, lasso_reg,
                                                        monkeypatch):
    # a step 1e6 times too long overflows within a few hundred iterations;
    # the solve must stop there, not run on to the iteration cap
    monkeypatch.setattr("proxsqn.solver.estimate_smoothness",
                        lambda obj: 1e-6)
    with np.errstate(all="ignore"), \
            pytest.raises(ConvergenceError, match="non-finite"):
        reference_solution(midsize, lasso_reg, max_iter=100000)
