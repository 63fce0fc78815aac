"""Trace fingerprints: one hash per solver run, to show which runs a change moves.

    PYTHONPATH=src python tools/fingerprint.py > after.txt
    python tools/fingerprint.py --compare before.txt after.txt
    python tools/fingerprint.py --base HEAD

The first form runs every solver kind under every sampling scheme, for both
losses and lambda1 in {0, 0.02}, on a small synthetic instance; then ProxSQN
and ProxSVRG on a wider sparse one (d=400, where the scaled prox has many
breakpoints, lambda1 in {0, 0.002}); then ProxSQN and ProxSVRG with
m % Z != 0, on the small instance (m=37, Z=10 and m=23, Z=7) and at d=1
(m=37, Z=10); then reference_solution on each of those three instances,
per loss and lambda1, and once capped at max_iter=3, where it raises;
then estimate_smoothness on each of them per loss (the smoothness/* runs);
then `proxsqn run` on one config per
loss and lambda1 in {0, 0.02}, with all five solvers; then each property
check of `run_checks("fast")`; then the exact estimator moments of
`enumerate_estimator_stats` for every sampling scheme, on a tiny instance
per loss; then `parse_libsvm` on a fixed corpus of valid and malformed
texts, with and without binary_labels and d; then `prox` and
`scaled_prox_info` on a fixed corpus (-0, +-1e-300, +-inf and values on
both sides of the threshold), for lambda1 in {0, 0.3}, under the identity,
a diagonal metric (u = 0) and a diagonal-plus-rank-one metric of each sign,
on the whole corpus and on its finite part; where the scaled prox solves
for a root (lambda1 > 0, u != 0), also with the Newton steps turned off
(_NEWTON_ITERS = 0, the median safeguard alone) and from the starts
beta0 = +-1e6; then generate_synthetic on the benchmark's three specs
and on one (d = 1e6, k = 10) whose row draws reject words. It prints one
line per run:
its name, a SHA-256 hash and its per-epoch objectives ("-" when it has
none). A solver run's hash covers every TraceRecord field except
elapsed_ns, the final x bytes and the RunResult counters; a reference
run's covers the bytes of x* and repr(P*), or the ConvergenceError's
message; a smoothness run's covers the estimate's repr; a CLI run's
covers its exit code and each CSV with the elapsed_ns column cut off. A
run that raises hashes the exception's type and message instead. A check's
hash covers its name, pass flag, margin repr and detail; an enumeration's
covers the mean's bytes and the repr of the mean squared deviation; a
parse's covers d and the bytes of indptr, indices, values and labels, or
the exception's type and message; a prox run's covers the bytes of y and,
for the scaled prox, the RootInfo repr; a generate run's covers d and the
bytes of indptr, indices, values, labels and the planted point.

--compare reads two such outputs. It names the runs that only one of them
has, then the runs of both whose hashes differ and, for each, the largest
objective difference relative to max(1, |P|), or inf for a run without
objectives; its verdict counts the runs of both. It exits 1 when the run
names differ or a difference exceeds --tol.

--base REV exports revision REV as tools/ab.py does (git archive into a
temporary directory, removed afterwards), runs REV's own fingerprint tool on
REV's src/ there and this one on the working tree's src/, and prints the
--compare verdict of the two, with its exit status.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

LAMBDAS = (0.0, 0.02)
SMALL = dict(n=40, d=12, density=0.5, condition=8.0, noise=0.1, seed=5)
# instance name -> (spec, lambda1 values)
INSTANCES = {
    "small": (SMALL, LAMBDAS),
    # lambda1 = 0.02 would zero the logistic solution here
    "wide": (dict(n=600, d=400, density=0.05, condition=8.0, noise=0.1,
                  seed=6), (0.0, 0.002)),
    "line": (dict(n=40, d=1, noise=0.1, seed=7), LAMBDAS),
}


def _instance(proxsqn, loss, spec_kw, ridge=0.1):
    ds, _ = proxsqn.generate_synthetic(proxsqn.SyntheticSpec(loss=loss,
                                                             **spec_kw))
    return proxsqn.SmoothObjective.build(ds, loss, ridge)


def _run_hash(proxsqn, obj, reg, cfg, p_star):
    h = hashlib.sha256()
    try:
        res = proxsqn.run(obj, reg, cfg, p_star=p_star)
    except (ValueError, RuntimeError) as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return h.hexdigest(), []
    for r in res.records:
        h.update(repr((r.epoch, r.iteration, r.objective, r.subopt,
                       r.grad_evals, r.metric_rebuilds)).encode())
    h.update(res.x.tobytes())
    h.update(repr((res.grad_evals, res.metric_rebuilds, res.anomalies,
                   res.scaled_prox_calls,
                   res.first_scaled_iteration)).encode())
    return h.hexdigest(), [r.objective for r in res.records]


def solver_runs(proxsqn):
    """(name, hash, objectives) for every library run."""
    from proxsqn.solver import estimate_smoothness
    K, S = proxsqn.SolverKind, proxsqn.SchemeKind
    sqn_svrg = [K.PROX_SQN, K.PROX_SVRG]
    sets = [  # instance, lambda1 values, solver kinds, schemes, (m, Z)
        ("small", *INSTANCES["small"], list(K), list(S), (60, 5)),
        ("wide", *INSTANCES["wide"], sqn_svrg, [S.UNIFORM_BATCH], (60, 5)),
        # m % Z != 0, so anchor windows straddle epoch ends; the window
        # mean of Z = 10 points at d = 1 sums its one column pairwise
        ("small/m=37/Z=10", SMALL, LAMBDAS, sqn_svrg, list(S), (37, 10)),
        ("small/m=23/Z=7", SMALL, LAMBDAS, sqn_svrg, [S.UNIFORM_BATCH],
         (23, 7)),
        ("line/m=37/Z=10", *INSTANCES["line"], sqn_svrg,
         [S.UNIFORM_BATCH, S.WEIGHTED_SINGLE], (37, 10)),
    ]
    for loss in proxsqn.LossKind:
        for size, spec_kw, lams, kinds, schemes, (m, Z) in sets:
            obj = _instance(proxsqn, loss, spec_kw)
            eta = {K.PROX_GD: 1.0 / estimate_smoothness(obj),
                   K.PROX_SQN: 0.1 / obj.lipschitz_mean,
                   K.PROX_NEWTON_FULL: 0.2}
            eta[K.FISTA], eta[K.PROX_SVRG] = eta[K.PROX_GD], eta[K.PROX_SQN]
            for lam in lams:
                reg = proxsqn.Regularizer(
                    proxsqn.RegKind.L1 if lam else proxsqn.RegKind.ZERO, lam)
                _, p_star = proxsqn.reference_solution(obj, reg)
                for kind in kinds:
                    for scheme in schemes:
                        inner = kind in (K.PROX_SQN, K.PROX_SVRG)
                        cfg = proxsqn.SolverConfig(
                            kind=kind, epochs=6 if inner else 12,
                            eta=eta[kind], m=m,
                            b=1 if scheme is S.WEIGHTED_SINGLE else 2,
                            b_hessian=10, metric_period=Z, scheme=scheme,
                            seed=3)
                        name = (f"{size}/{loss.value}/l1={lam}/"
                                f"{kind.value}/{scheme.value}")
                        yield (name,) + _run_hash(proxsqn, obj, reg, cfg,
                                                  p_star)


def _reference_hash(proxsqn, obj, reg, **kw):
    h = hashlib.sha256()
    try:
        x, p_star = proxsqn.reference_solution(obj, reg, **kw)
    except proxsqn.ConvergenceError as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return h.hexdigest(), []
    h.update(x.tobytes())
    h.update(repr(p_star).encode())
    return h.hexdigest(), [p_star]


def reference_runs(proxsqn):
    """(name, hash, [P*]) for reference_solution on each instance, per loss
    and lambda1; then one run capped at 3 iterations, which raises."""
    for loss in proxsqn.LossKind:
        for size, (spec_kw, lams) in INSTANCES.items():
            obj = _instance(proxsqn, loss, spec_kw)
            for lam in lams:
                reg = proxsqn.Regularizer(
                    proxsqn.RegKind.L1 if lam else proxsqn.RegKind.ZERO, lam)
                yield ((f"reference/{size}/{loss.value}/l1={lam}",)
                       + _reference_hash(proxsqn, obj, reg))
    loss = proxsqn.LossKind.LOGISTIC_RIDGE
    yield ((f"reference/small/{loss.value}/l1=0.02/max_iter=3",)
           + _reference_hash(proxsqn, _instance(proxsqn, loss, SMALL),
                             proxsqn.Regularizer(proxsqn.RegKind.L1, 0.02),
                             max_iter=3))


def smoothness_runs(proxsqn):
    """(name, hash, []) for estimate_smoothness on each instance, per loss."""
    from proxsqn.solver import estimate_smoothness
    for loss in proxsqn.LossKind:
        for size, (spec_kw, _) in INSTANCES.items():
            est = estimate_smoothness(_instance(proxsqn, loss, spec_kw))
            yield (f"smoothness/{size}/{loss.value}",
                   hashlib.sha256(repr(est).encode()).hexdigest(), [])


CLI_CONFIG = """loss = {loss}
ridge = 0.1
lambda1 = {lam}
synthetic.n = 60
synthetic.d = 15
synthetic.density = 0.4
synthetic.condition = 8.0
synthetic.noise = 0.1
synthetic.seed = 4
solvers = prox_sqn, prox_svrg, prox_gd, fista, prox_newton_full
solver.prox_sqn.epochs = 5
solver.prox_sqn.eta = 0.05
solver.prox_sqn.m = 60
solver.prox_sqn.b = 3
solver.prox_sqn.b_hessian = 10
solver.prox_sqn.metric_period = 5
solver.prox_svrg.epochs = 5
solver.prox_svrg.eta = 0.05
solver.prox_svrg.m = 60
solver.prox_svrg.b = 3
solver.prox_gd.epochs = 10
solver.prox_gd.eta = 0.2
solver.fista.epochs = 10
solver.fista.eta = 0.2
solver.prox_newton_full.epochs = 5
solver.prox_newton_full.eta = 0.5
"""


def cli_runs(proxsqn):
    """(name, hash, objectives) for every `proxsqn run` CSV."""
    from proxsqn.cli import main
    for loss in proxsqn.LossKind:
        for lam in LAMBDAS:
            with tempfile.TemporaryDirectory() as tmp:
                cfg = os.path.join(tmp, "exp.cfg")
                with open(cfg, "w") as f:
                    f.write(CLI_CONFIG.format(loss=loss.value, lam=lam))
                out = os.path.join(tmp, "out")
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        main(["--output", out, "run", cfg],
                             standalone_mode=False)
                        code = 0
                    except SystemExit as exc:
                        code = exc.code
                for name in sorted(os.listdir(out)):
                    with open(os.path.join(out, name)) as f:
                        rows = [line.rsplit(",", 1)[0]
                                for line in f.read().splitlines()]
                    h = hashlib.sha256(repr((code, rows)).encode())
                    objs = [float(r.split(",")[2]) for r in rows[1:]]
                    yield (f"cli/{loss.value}/l1={lam}/{name}",
                           h.hexdigest(), objs)


def check_runs(proxsqn):
    """(name, hash, []) for each property check of the fast level."""
    for res in proxsqn.run_checks("fast"):
        h = hashlib.sha256(repr((res.name, res.passed, repr(res.margin),
                                 res.detail)).encode())
        yield f"verify/fast/{res.name}", h.hexdigest(), []


def enumeration_runs(proxsqn):
    """(name, hash, []) for the exact estimator moments of each scheme;
    b = 3 on n = 7 gathers the outcomes in blocks with a short last one,
    and uniform b = n takes the full-batch route."""
    S = proxsqn.SchemeKind
    cases = [(S.UNIFORM_BATCH, 2), (S.UNIFORM_BATCH, 7),
             (S.WEIGHTED_SINGLE, 1), (S.WEIGHTED_BATCH, 3),
             (S.WEIGHTED_REPLACEMENT, 3)]
    for loss in proxsqn.LossKind:
        obj = _instance(proxsqn, loss, dict(n=7, d=5, density=0.6,
                                            condition=4.0, noise=0.1,
                                            seed=8))
        rng = proxsqn.make_rng(9)
        x, xt = rng.standard_normal(obj.d), rng.standard_normal(obj.d)
        snapshot = proxsqn.make_snapshot(obj, xt)
        for kind, b in cases:
            stats = proxsqn.enumerate_estimator_stats(
                obj, snapshot, proxsqn.SamplingScheme(kind, b), x)
            h = hashlib.sha256(stats.mean.tobytes())
            h.update(repr(stats.mean_sq_deviation).encode())
            yield f"enum/{loss.value}/{kind.value}/b={b}", h.hexdigest(), []


PARSE_TEXTS = [
    ("known", "1.0 1:0.5 3:-2.0\n-1.0 2:4.0\n0.25\n"),
    ("blank-lines", "1.0 1:2.0\n\n   \n-1.0 2:3.0\n"),
    ("breaks-and-spaces",
     "1 1:2\r\n-1\x0b+1 3:1.\x1c.5 2:1_0\u2028 0\t1:.5\xa04:7\x85\n"),
    ("empty", ""),
    ("blank-only", "\n  \n"),
    ("bad-label", "abc 1:2.0\n"),
    ("missing-colon", "1.0 1:2.0\n-1.0 notpair\n"),
    ("empty-index", "1 :2\n"),
    ("empty-value", "1 2:\n"),
    ("a:b:c", "1 a:b:c\n"),
    ("balanced-colons", "1 1:2:3 4\n"),
    ("index-0", "1.0 0:2.0\n"),
    ("not-increasing", "1.0 3:1.0 2:3.0\n"),
    ("bad-value", "1.0 1:zz\n"),
    ("nan-label", "nan 1:2.0\n"),
    ("inf-value", "1.0 1:2.0 3:inf\n"),
    ("1e400", "1.0 1:1e400\n"),
    ("error-after-nan", "1 1:nan\n1 2:x\n"),
    ("index-past-int64", "1 99999999999999999999:1\n"),
]


def parse_texts(proxsqn):
    """PARSE_TEXTS, then a 2500-line text written from a synthetic
    instance, alone and with a malformed token, a nan or both far apart."""
    yield from PARSE_TEXTS
    ds, _ = proxsqn.generate_synthetic(proxsqn.SyntheticSpec(
        n=2500, d=30, density=0.3, noise=0.1, seed=12))
    lines = proxsqn.write_libsvm(ds).splitlines(keepends=True)

    def edit(**at):
        out = list(lines)
        for k, line in at.items():
            out[int(k[1:])] = line
        return "".join(out)

    yield "synthetic", "".join(lines)
    yield "synthetic/bad-token", edit(l2300="1 2:1 3:4:5\n")
    yield "synthetic/nan", edit(l1500="-1 4:nan\n")
    yield "synthetic/nan-then-bad", edit(l10="nan 1:1\n", l2400="1 x:1\n")


def parse_runs(proxsqn):
    """(name, hash, []) for parse_libsvm on each corpus text."""
    for text_name, text in parse_texts(proxsqn):
        for binary in (False, True):
            for d in (None, 40):
                h = hashlib.sha256()
                try:
                    ds = proxsqn.parse_libsvm(text, d=d, binary_labels=binary)
                except (ValueError, OverflowError) as exc:
                    h.update(f"{type(exc).__name__}: {exc}".encode())
                else:
                    h.update(repr(ds.d).encode())
                    for a in (ds.indptr, ds.indices, ds.values, ds.labels):
                        h.update(a.tobytes())
                yield (f"parse/{text_name}/binary={binary}/d={d}",
                       h.hexdigest(), [])


# threshold 0.3 at eta = 1, lambda1 = 0.3: both sides of it, and of zero
PROX_CORPUS = np.array([-0.0, 0.0, 1e-300, -1e-300, 0.1, -0.1, 0.29, -0.29,
                        0.3, -0.3, 0.31, -0.31, 2.0, -2.0, math.inf,
                        -math.inf])


# (name suffix, _NEWTON_ITERS or None for its value, beta0) of each root
# solve: the default, the safeguard alone and two far starts
ROOT_VARIANTS = [("", None, 0.0), ("/iters=0", 0, 0.0),
                 ("/beta0=1e6", None, 1e6), ("/beta0=-1e6", None, -1e6)]


def _scaled_prox_hash(proxsqn, reg, prob, iters):
    P = importlib.import_module("proxsqn.prox")
    default = P._NEWTON_ITERS
    P._NEWTON_ITERS = default if iters is None else iters
    try:
        y, info = proxsqn.scaled_prox_info(reg, prob)
    finally:
        P._NEWTON_ITERS = default
    h = hashlib.sha256(y.tobytes())
    h.update(repr(info).encode())
    return h.hexdigest()


def prox_runs(proxsqn):
    """(name, hash, []) for the plain and scaled prox on PROX_CORPUS."""
    from proxsqn.prox import prox
    n = PROX_CORPUS.size
    diag = np.linspace(0.5, 2.0, n)
    u = 0.1 * np.cos(np.arange(n))  # u'D^{-1}u < 1: either sign is PD
    metrics = [("diag", np.zeros(n), 1), ("rank1+", u, 1), ("rank1-", u, -1)]
    for lam in (0.0, 0.3):
        reg = proxsqn.Regularizer(
            proxsqn.RegKind.L1 if lam else proxsqn.RegKind.ZERO, lam)
        for part, x in (("full", PROX_CORPUS),
                        ("finite", PROX_CORPUS[np.isfinite(PROX_CORPUS)])):
            k = x.size
            yield (f"prox/plain/l1={lam}/{part}",
                   hashlib.sha256(prox(reg, x, 1.0).tobytes()).hexdigest(),
                   [])
            for name, rank1, sign in metrics:
                root = lam and rank1.any()
                for suffix, iters, beta0 in (ROOT_VARIANTS if root else
                                             ROOT_VARIANTS[:1]):
                    prob = proxsqn.ScaledProxProblem(diag[:k], rank1[:k],
                                                     sign, 1.0, x, beta0)
                    yield (f"prox/{name}/l1={lam}/{part}{suffix}",
                           _scaled_prox_hash(proxsqn, reg, prob, iters), [])


# the benchmark's three specs, written out here, and d = 1e6 with k = 10,
# where some blocks of the row draws reject a word and are drawn again
GENERATE_SPECS = {
    "flagship": dict(n=1000, d=50, density=0.24, condition=16.0, noise=0.2,
                     seed=42, loss="logistic_ridge"),
    "sparse_wide": dict(n=100000, d=20000, density=5e-4, condition=16.0,
                        noise=0.2, seed=2016, loss="squared_error"),
    "cli_ridge": dict(n=20000, d=500, density=0.04, condition=16.0,
                      noise=0.2, seed=7, loss="logistic_ridge"),
    "rejections": dict(n=3000, d=1_000_000, density=1e-5, condition=16.0,
                       noise=0.2, seed=4, loss="squared_error"),
}


def generate_runs(proxsqn):
    """(name, hash, []) for generate_synthetic on each GENERATE_SPECS."""
    for name, kw in GENERATE_SPECS.items():
        spec = proxsqn.SyntheticSpec(**dict(kw,
                                            loss=proxsqn.LossKind(kw["loss"])))
        ds, x_true = proxsqn.generate_synthetic(spec)
        h = hashlib.sha256(repr(ds.d).encode())
        for a in (ds.indptr, ds.indices, ds.values, ds.labels, x_true):
            h.update(a.tobytes())
        yield f"generate/{name}", h.hexdigest(), []


def emit():
    import proxsqn
    for name, digest, objs in (*solver_runs(proxsqn),
                               *reference_runs(proxsqn),
                               *smoothness_runs(proxsqn), *cli_runs(proxsqn),
                               *check_runs(proxsqn),
                               *enumeration_runs(proxsqn),
                               *parse_runs(proxsqn), *prox_runs(proxsqn),
                               *generate_runs(proxsqn)):
        print(name, digest, ",".join(repr(p) for p in objs) or "-",
              sep="\t", flush=True)


def _read(path):
    runs = {}
    with open(path) as f:
        for line in f:
            name, digest, objs = line.rstrip("\n").split("\t")
            runs[name] = (digest, [] if objs == "-" else
                          [float(p) for p in objs.split(",")])
    return runs


def compare(before_path, after_path, tol) -> int:
    before, after = _read(before_path), _read(after_path)
    unpaired = sorted(before.keys() ^ after.keys())
    if unpaired:
        print("run names differ:", unpaired)
    before = {name: run for name, run in before.items() if name in after}
    worst, changed = 0.0, []
    for name, (digest, objs) in before.items():
        digest2, objs2 = after[name]
        if digest == digest2:
            continue
        if len(objs) != len(objs2) or not objs:
            rel = float("inf")
        else:
            rel = max((abs(a - b) / max(1.0, abs(a))
                       for a, b in zip(objs, objs2)), default=0.0)
        changed.append(name)
        worst = max(worst, rel)
        print(f"changed\t{name}\tmax rel objective diff {rel:.3g}")
    print(f"{len(before) - len(changed)} of {len(before)} runs identical; "
          f"{len(changed)} changed, worst rel objective diff {worst:.3g}")
    return 1 if unpaired or worst > tol else 0


def against_base(rev, tol) -> int:
    """The --compare verdict of revision rev against the working tree."""
    from ab import ROOT, export
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as tmp:
        base = os.path.join(tmp, "base")
        export(rev, base)
        outputs = [os.path.join(tmp, "before.txt"),
                   os.path.join(tmp, "after.txt")]
        for tree, path in zip((base, ROOT), outputs):
            env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
            with open(path, "w") as out:
                subprocess.run([sys.executable, os.path.join(
                    tree, "tools", "fingerprint.py")], cwd=tree, env=env,
                    stdout=out, check=True)
        return compare(*outputs, tol)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    p.add_argument("--base", metavar="REV",
                   help="compare revision REV with the working tree")
    p.add_argument("--tol", type=float, default=1e-12)
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare, args.tol)
    if args.base:
        return against_base(args.base, args.tol)
    with np.errstate(all="ignore"):
        emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
