"""End-to-end acceptance suite.

Each test prints one `criterion-NN PASS/FAIL` line with its wall time and a
short summary, then enforces the numeric bound and its runtime budget. The
flagship convergence instance is shared between criteria 7 and 8 through a
module fixture whose build time is billed to both budgets.
"""

import contextlib
import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from proxsqn import (
    IDENTITY_BOUNDS,
    CurvaturePair,
    LossKind,
    RegKind,
    Regularizer,
    SamplingScheme,
    ScaledProxProblem,
    SchemeKind,
    SmoothObjective,
    SolverConfig,
    SolverKind,
    SyntheticSpec,
    apply_inverse,
    build_metric,
    composite_value,
    enumerate_estimator_stats,
    full_gradient,
    generate_synthetic,
    make_snapshot,
    metric_as_splitting,
    rate_plan,
    reference_solution,
    run,
    scaled_prox,
    scaled_prox_info,
)
from proxsqn.cli import main as cli_main
from proxsqn.oracles import dense_inverse, subproblem_oracle


@pytest.fixture
def report(capsys):
    @contextlib.contextmanager
    def _report(name, budget):
        info = {"detail": ""}
        start = time.perf_counter()
        try:
            yield info
        except BaseException:
            elapsed = time.perf_counter() - start + info.get("extra", 0.0)
            with capsys.disabled():
                print(f"{name} FAIL ({elapsed:.2f}s / {budget:.0f}s budget)")
            raise
        elapsed = time.perf_counter() - start + info.get("extra", 0.0)
        status = "PASS" if elapsed < budget else "FAIL"
        with capsys.disabled():
            print(f"{name} {status} ({elapsed:.2f}s / {budget:.0f}s budget)"
                  f"  {info['detail']}")
        assert elapsed < budget, \
            f"{name}: {elapsed:.2f}s exceeds the {budget:.0f}s budget"
    return _report


def _random_spd(rng, d, lo, hi):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = lo + (hi - lo) * rng.random(d)
    return (q * eigs) @ q.T


# ------------------------------------------------------------- criterion 1


def test_criterion_01_secant_identity(report):
    with report("criterion-01 secant identity", 5.0) as info:
        rng = np.random.default_rng(1001)
        checked = 0
        skipped = 0
        worst = 0.0
        for d, count in ((2, 334), (8, 333), (32, 333)):
            for _ in range(count):
                b = _random_spd(rng, d, 0.3, 5.0)
                s = rng.standard_normal(d)
                alpha = 0.1 + 0.8 * rng.random()
                m = build_metric(CurvaturePair(s, b @ s), alpha)
                if m.skipped:
                    skipped += 1
                    continue
                err = float(np.linalg.norm(apply_inverse(m, b @ s) - s))
                bound = 1e-10 * (1.0 + float(np.linalg.norm(s)))
                assert err <= bound, f"d={d}: {err:.3e} > {bound:.3e}"
                worst = max(worst, err / bound)
                checked += 1
        assert checked + skipped == 1000
        info["detail"] = (f"{checked} metrics within bound "
                          f"({skipped} skipped), worst at "
                          f"{worst:.1e} of tolerance")


# ------------------------------------------------------------- criterion 2


def test_criterion_02_metric_eigen_bounds(report):
    with report("criterion-02 metric eigenvalue bounds", 10.0) as info:
        rng = np.random.default_rng(1002)
        slack = np.inf
        for _ in range(200):
            d = int(rng.integers(2, 33))
            b = _random_spd(rng, d, 0.3, 5.0)
            eigs = np.linalg.eigvalsh(b)
            lam, big = float(eigs[0]), float(eigs[-1])
            s = rng.standard_normal(d)
            alpha = 0.1 + 0.8 * rng.random()
            m = build_metric(CurvaturePair(s, b @ s), alpha)
            sigma_max = float(np.linalg.eigvalsh(
                np.linalg.inv(dense_inverse(m)))[-1])
            assert sigma_max <= d * big / alpha + 1e-9
            assert 1.0 / big <= m.tau <= 1.0 / lam
            slack = min(slack, d * big / alpha + 1e-9 - sigma_max)
        info["detail"] = (f"200 metrics, tightest sigma_max slack "
                          f"{slack:.3e}")


# ------------------------------------------------------------- criterion 3


def test_criterion_03_scaled_prox_oracle(report):
    with report("criterion-03 scaled prox vs oracle", 30.0) as info:
        rng = np.random.default_rng(1003)
        worst_gap = 0.0
        worst_res = 0.0
        for k in range(200):
            d = 3 if k % 2 == 0 else 16
            diag = 0.3 + 2.7 * rng.random(d)
            u = rng.standard_normal(d)
            sign = -1.0 if k % 3 else 1.0
            if sign < 0:
                ratio = float(np.sum(u * u / diag))
                u *= np.sqrt((0.1 + 0.8 * rng.random()) / ratio)
            lam = float(rng.choice([0.0, 0.01, 0.3]))
            reg = Regularizer(RegKind.L1 if lam > 0 else RegKind.ZERO, lam)
            eta = 0.05 + 1.5 * float(rng.random())
            prob = ScaledProxProblem(diag, u, sign, eta,
                                     3.0 * rng.standard_normal(d))
            y, root = scaled_prox_info(reg, prob)
            gap = float(np.linalg.norm(y - subproblem_oracle(reg, prob)))
            assert gap <= 1e-8, f"case {k}: oracle gap {gap:.3e}"
            worst_gap = max(worst_gap, gap)
            if root.method != "closed":
                assert abs(root.residual) < 1e-10
                worst_res = max(worst_res, abs(root.residual))
        info["detail"] = (f"200 instances, worst gap {worst_gap:.1e}, "
                          f"worst residual {worst_res:.1e}")


# ------------------------------------------------------------- criterion 4


def test_criterion_04_prox_nonexpansive(report):
    with report("criterion-04 scaled prox nonexpansive", 20.0) as info:
        rng = np.random.default_rng(1004)
        margin = np.inf
        for _ in range(50):
            d = int(rng.integers(2, 33))
            b = _random_spd(rng, d, 0.4, 4.0)
            s = rng.standard_normal(d)
            alpha = 0.1 + 0.8 * rng.random()
            m = build_metric(CurvaturePair(s, b @ s), alpha)
            diag, rank1, sign = metric_as_splitting(m)
            h = np.diag(diag) + sign * np.outer(rank1, rank1)
            eigs = np.linalg.eigvalsh(h)
            ratio = float(eigs[-1] / eigs[0])
            lam = float(rng.choice([0.0, 0.05, 0.5]))
            reg = Regularizer(RegKind.L1 if lam > 0 else RegKind.ZERO, lam)
            eta = 0.05 + float(rng.random())
            for _ in range(10):
                x = 2.0 * rng.standard_normal(d)
                y = x + rng.standard_normal(d) * float(
                    rng.choice([1e-3, 1.0]))
                px = scaled_prox(reg, ScaledProxProblem(diag, rank1, sign,
                                                        eta, x))
                py = scaled_prox(reg, ScaledProxProblem(diag, rank1, sign,
                                                        eta, y))
                lhs = float(np.linalg.norm(px - py))
                rhs = ratio * float(np.linalg.norm(x - y))
                assert lhs <= rhs
                margin = min(margin, rhs - lhs)
        info["detail"] = (f"500 pairs across 50 metrics, zero violations, "
                          f"tightest slack {margin:.3e}")


# ------------------------------------------------------------- criterion 5


def _small_instance(rng, n, d, ridge):
    spec = SyntheticSpec(n=n, d=d, density=0.6, condition=4.0, noise=0.3,
                         seed=int(rng.integers(0, 2 ** 31)))
    ds, _ = generate_synthetic(spec)
    return SmoothObjective.build(ds, LossKind.SQUARED_ERROR, ridge)


def test_criterion_05_estimator_unbiased(report):
    with report("criterion-05 estimator unbiased", 5.0) as info:
        rng = np.random.default_rng(1005)
        worst = 0.0
        for n, scheme in ((6, SamplingScheme(SchemeKind.UNIFORM_BATCH, 2)),
                          (8, SamplingScheme(SchemeKind.WEIGHTED_SINGLE, 1))):
            obj = _small_instance(rng, n, 4, 0.05)
            for _ in range(20):
                x = rng.standard_normal(obj.d)
                snap = make_snapshot(obj, rng.standard_normal(obj.d))
                stats = enumerate_estimator_stats(obj, snap, scheme, x)
                dev = float(np.max(np.abs(stats.mean
                                          - full_gradient(obj, x))))
                assert dev <= 1e-12
                worst = max(worst, dev)
        info["detail"] = (f"2 schemes x 20 anchor pairs enumerated, worst "
                          f"|mean - grad| {worst:.1e}")


# ------------------------------------------------------------- criterion 6


def test_criterion_06_variance_bound(report):
    with report("criterion-06 estimator variance bound", 10.0) as info:
        rng = np.random.default_rng(1006)
        reg = Regularizer(RegKind.L1, 0.02)
        margin = np.inf
        pairs = 0
        for n, scheme in ((8, SamplingScheme(SchemeKind.WEIGHTED_SINGLE, 1)),
                          (6, SamplingScheme(SchemeKind.WEIGHTED_BATCH, 2))):
            obj = _small_instance(rng, n, 4, 0.15)
            x_star, p_star = reference_solution(obj, reg, tol=1e-12)
            for _ in range(25):
                x = x_star + 0.5 * rng.standard_normal(obj.d)
                xt = x_star + 0.5 * rng.standard_normal(obj.d)
                stats = enumerate_estimator_stats(
                    obj, make_snapshot(obj, xt), scheme, x)
                bound = 4.0 * obj.lipschitz_mean * (
                    composite_value(obj, reg, x) - p_star
                    + composite_value(obj, reg, xt) - p_star)
                assert stats.mean_sq_deviation <= bound
                margin = min(margin, bound - stats.mean_sq_deviation)
                pairs += 1
        info["detail"] = (f"{pairs} pairs at ridge 0.15, zero violations, "
                          f"tightest slack {margin:.3e}")


# ------------------------------------------------- flagship shared instance


FLAGSHIP_SPEC = SyntheticSpec(n=1000, d=50, density=0.24, condition=16.0,
                              noise=0.2, seed=42,
                              loss=LossKind.LOGISTIC_RIDGE)
FLAGSHIP_M = 2000


@pytest.fixture(scope="module")
def flagship():
    t0 = time.perf_counter()
    ds, _ = generate_synthetic(FLAGSHIP_SPEC)
    obj = SmoothObjective.build(ds, LossKind.LOGISTIC_RIDGE, 0.1)
    reg = Regularizer(RegKind.L1, 0.01)
    _, p_star = reference_solution(obj, reg, tol=1e-12)
    eta = rate_plan(IDENTITY_BOUNDS, obj.lipschitz_mean,
                    obj.strong_convexity, FLAGSHIP_M, 0.01).eta_max / 4.0
    t_setup = time.perf_counter() - t0

    t0 = time.perf_counter()
    sqn = []
    for seed in range(5):
        cfg = SolverConfig(kind=SolverKind.PROX_SQN, epochs=25, eta=eta,
                           m=FLAGSHIP_M, b=10, b_hessian=50, metric_period=10,
                           alpha=0.5, scheme=SchemeKind.UNIFORM_BATCH,
                           seed=seed)
        sqn.append(run(obj, reg, cfg, p_star=p_star))
    t_sqn = time.perf_counter() - t0

    t0 = time.perf_counter()
    gd = run(obj, reg,
             SolverConfig(kind=SolverKind.PROX_GD, epochs=1500, eta=eta),
             p_star=p_star)
    t_gd = time.perf_counter() - t0
    return SimpleNamespace(obj=obj, reg=reg, p_star=p_star, eta=eta,
                           sqn=sqn, gd=gd, t_setup=t_setup, t_sqn=t_sqn,
                           t_gd=t_gd)


# ------------------------------------------------------------- criterion 7


def test_criterion_07_linear_convergence(report, flagship):
    with report("criterion-07 linear convergence", 60.0) as info:
        info["extra"] = flagship.t_setup + flagship.t_sqn
        plan = rate_plan(IDENTITY_BOUNDS, flagship.obj.lipschitz_mean,
                         flagship.obj.strong_convexity, FLAGSHIP_M,
                         flagship.eta)
        assert plan.feasible and plan.rho < 1.0
        slopes = []
        r2s = []
        hits = []
        for res in flagship.sqn:
            subs = np.array([r.subopt for r in res.records])
            below = np.nonzero(subs <= 1e-9)[0]
            assert below.size, \
                f"never reached 1e-9 in 25 epochs (last {subs[-1]:.2e})"
            hits.append(int(below[0]) + 1)
            t = np.arange(5, 26, dtype=float)
            ylog = np.log(subs[4:25])
            a = np.vstack([t, np.ones_like(t)]).T
            coef, *_ = np.linalg.lstsq(a, ylog, rcond=None)
            pred = a @ coef
            r2 = 1.0 - (np.sum((ylog - pred) ** 2)
                        / np.sum((ylog - ylog.mean()) ** 2))
            assert coef[0] < 0.0
            assert r2 >= 0.9, f"R^2 {r2:.4f} below 0.9"
            slopes.append(coef[0])
            r2s.append(r2)
        info["detail"] = (f"5 seeds hit 1e-9 by epoch {max(hits)}, slope "
                          f"{np.median(slopes):+.3f}/epoch, min R^2 "
                          f"{min(r2s):.4f}, planned rho {plan.rho:.3f}")


# ------------------------------------------------------------- criterion 8


def test_criterion_08_fewer_grad_evals_than_prox_gd(report, flagship):
    with report("criterion-08 grad-eval comparison", 60.0) as info:
        info["extra"] = flagship.t_setup + flagship.t_sqn + flagship.t_gd

        def evals_to_tol(records):
            for r in records:
                if r.subopt is not None and r.subopt <= 1e-6:
                    return r.grad_evals
            return None

        gd_evals = evals_to_tol(flagship.gd.records)
        assert gd_evals is not None, "baseline never reached 1e-6"
        sqn_evals = [evals_to_tol(res.records) for res in flagship.sqn]
        wins = sum(1 for e in sqn_evals
                   if e is not None and e <= gd_evals)
        assert wins >= 4, f"only {wins}/5 seeds at or under {gd_evals}"
        info["detail"] = (f"{wins}/5 seeds win: quasi-Newton "
                          f"{min(sqn_evals)}-{max(sqn_evals)} evals vs "
                          f"baseline {gd_evals} at the same step size")


# ------------------------------------------------------------- criterion 9


def test_criterion_09_degenerate_reductions(report):
    with report("criterion-09 degenerate reductions", 10.0) as info:
        # full batches plus a forced identity metric must replay plain
        # proximal gradient exactly
        spec = SyntheticSpec(n=60, d=8, density=0.5, condition=4.0,
                             noise=0.1, seed=12)
        ds, _ = generate_synthetic(spec)
        obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, 0.1)
        reg = Regularizer(RegKind.L1, 0.01)
        _, p_star = reference_solution(obj, reg, tol=1e-12)
        eta = 0.3
        sqn = run(obj, reg,
                  SolverConfig(kind=SolverKind.PROX_SVRG, epochs=100, eta=eta,
                               m=1, b=obj.n, b_hessian=10, metric_period=10,
                               seed=0),
                  p_star=p_star)
        gd = run(obj, reg,
                 SolverConfig(kind=SolverKind.PROX_GD, epochs=100, eta=eta),
                 p_star=p_star)
        for a, b in zip(sqn.records, gd.records):
            assert repr((a.objective, a.subopt)) == \
                repr((b.objective, b.subopt))
        assert np.array_equal(sqn.x, gd.x)

        # exact full Newton on least squares: error squared in one step,
        # then pinned at the rounding floor
        spec = SyntheticSpec(n=40, d=6, density=1.0, condition=4.0,
                             noise=0.0, seed=2)
        ds, x_true = generate_synthetic(spec)
        ds = dataclasses.replace(
            ds, labels=ds.labels * (0.5 / float(np.linalg.norm(x_true))))
        newton_obj = SmoothObjective.build(ds, LossKind.SQUARED_ERROR, 0.0)
        a_dense = ds.to_csr().toarray()
        x_star = np.linalg.lstsq(a_dense, ds.labels, rcond=None)[0]
        zero = Regularizer(RegKind.ZERO)
        e0 = float(np.linalg.norm(x_star))
        errs = []
        for k in (1, 2):
            res = run(newton_obj, zero,
                      SolverConfig(kind=SolverKind.PROX_NEWTON_FULL,
                                   epochs=k, eta=1.0))
            errs.append(float(np.linalg.norm(res.x - x_star)))
        assert errs[0] <= e0 ** 2
        assert errs[0] <= 1e-10 and errs[1] <= 1e-10
        info["detail"] = (f"100 iterations bitwise equal; Newton error "
                          f"{e0:.2f} -> {errs[0]:.1e} -> {errs[1]:.1e}")


# ------------------------------------------------------------ criterion 10


CLI_CONFIG = (
    "loss = squared_error\n"
    "ridge = 0.1\n"
    "lambda1 = 0.01\n"
    "synthetic.n = 60\n"
    "synthetic.d = 8\n"
    "synthetic.density = 0.5\n"
    "synthetic.condition = 4.0\n"
    "synthetic.noise = 0.1\n"
    "synthetic.seed = 12\n"
    "solvers = sqn, sqn_weighted, fista\n"
    "solver.sqn.kind = prox_sqn\n"
    "solver.sqn.epochs = 4\n"
    "solver.sqn.eta = 0.1\n"
    "solver.sqn.m = 60\n"
    "solver.sqn.b = 5\n"
    "solver.sqn.b_hessian = 10\n"
    "solver.sqn.metric_period = 5\n"
    "solver.sqn_weighted.kind = prox_sqn\n"
    "solver.sqn_weighted.epochs = 4\n"
    "solver.sqn_weighted.eta = 0.1\n"
    "solver.sqn_weighted.m = 60\n"
    "solver.sqn_weighted.b = 1\n"
    "solver.sqn_weighted.scheme = weighted_single\n"
    "solver.sqn_weighted.metric_period = 5\n"
    "solver.fista.epochs = 30\n"
    "solver.fista.eta = 0.5\n"
)


def test_criterion_10_run_determinism(report, tmp_path):
    with report("criterion-10 run determinism", 30.0) as info:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CLI_CONFIG)
        runner = CliRunner()
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            res = runner.invoke(cli_main, ["--output", str(out), "run",
                                           str(cfg)])
            assert res.exit_code == 0, res.output
            outs.append(out)
        names = sorted(p.name for p in outs[0].glob("*.csv"))
        assert names == ["exp_fista.csv", "exp_sqn.csv",
                         "exp_sqn_weighted.csv"]
        for name in names:
            first = [line.rsplit(",", 1) for line in
                     (outs[0] / name).read_text().splitlines()]
            second = [line.rsplit(",", 1) for line in
                      (outs[1] / name).read_text().splitlines()]
            assert [f[0] for f in first] == [s[0] for s in second], \
                f"{name} differs beyond the elapsed column"
        info["detail"] = (f"3 traces byte-identical across reruns up to "
                          f"elapsed_ns")
