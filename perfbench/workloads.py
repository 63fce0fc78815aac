"""The three benchmark workloads: instances, solver settings, rounds.

A run repeats whole rounds of the same operations until its time is up;
on flagship and sparse_wide each round runs in a fresh worker process. An
operation is one solver run on one seed (flagship, sparse_wide) or one
`proxsqn run` process (cli_ridge). Every operation's trace is checked, and
timings are reported as medians over repeats, averaged over seeds.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from checks import Problem, check_trace, first_hit, require
from tracer import Tracer, layer_metrics

import proxsqn

# submodules by name: a package attribute can shadow one (proxsqn.prox is
# the function prox), and the tracer patches these module objects
S = importlib.import_module("proxsqn.solver")
D = importlib.import_module("proxsqn.dataio")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REF_TOL = 1e-12        # reference fixed-point tolerance, as the CLI default
KKT_TOL = 1e-9         # certified max KKT residual of every reference
CHILD_TIMEOUT_S = 150
CSV_HEADER = "epoch,iter,objective,subopt,grad_evals,metric_rebuilds,elapsed_ns"
LOGISTIC = proxsqn.LossKind.LOGISTIC_RIDGE
SQUARED = proxsqn.LossKind.SQUARED_ERROR


@dataclass(frozen=True)
class Workload:
    name: str
    spec: object               # proxsqn.SyntheticSpec, fixed data seed
    ridge: float
    lambda1: float
    setups_per_round: int
    inner: dict                # SolverConfig fields shared by SQN and SVRG
    epochs: dict               # solver label -> epochs (FISTA: iterations)
    fista_eta: float           # 1 / L_F from a power iteration on the data
    per_round: dict            # solver label -> runs per round
    eta_from_plan: bool = False


FLAGSHIP = Workload(
    name="flagship",
    # the acceptance suite's frozen logistic elastic-net instance
    spec=proxsqn.SyntheticSpec(n=1000, d=50, density=0.24, condition=16.0,
                               noise=0.2, seed=42, loss=LOGISTIC),
    ridge=0.1, lambda1=0.01, setups_per_round=3,
    inner=dict(m=2000, b=10, b_hessian=50, metric_period=10, alpha=0.5,
               scheme=proxsqn.SchemeKind.UNIFORM_BATCH),
    epochs={"sqn": 18, "svrg": 5, "fista": 9},
    fista_eta=1.0 / 0.16334263467390944,
    per_round={"sqn": 1, "svrg": 4, "fista": 20},
    eta_from_plan=True,
)

SPARSE_WIDE = Workload(
    name="sparse_wide",
    # n=1e5, d=2e4, 10 nonzeros per row (nnz = 1e6)
    spec=proxsqn.SyntheticSpec(n=100000, d=20000, density=5e-4,
                               condition=16.0, noise=0.2, seed=2016,
                               loss=SQUARED),
    ridge=1e-2, lambda1=2e-5, setups_per_round=1,
    inner=dict(eta=1.0, m=250, b=10, b_hessian=50, metric_period=10,
               alpha=0.5, scheme=proxsqn.SchemeKind.UNIFORM_BATCH),
    epochs={"sqn": 6, "svrg": 9, "fista": 6},
    fista_eta=1.0 / 0.011152062609862045,
    per_round={"sqn": 1, "svrg": 4, "fista": 8},
)

CLI_RIDGE = Workload(
    name="cli_ridge",
    # written once per run to a ~9.6 MB LIBSVM file
    spec=proxsqn.SyntheticSpec(n=20000, d=500, density=0.04, condition=16.0,
                               noise=0.2, seed=7, loss=LOGISTIC),
    ridge=0.1, lambda1=0.0, setups_per_round=1,
    inner=dict(eta=0.06, m=2000, b=1, b_hessian=50, metric_period=10,
               alpha=0.5, scheme=proxsqn.SchemeKind.WEIGHTED_SINGLE),
    epochs={"sqn": 9, "svrg": 4, "fista": 6},
    fista_eta=1.0 / 0.11191482437902202,
    # solvers of one `proxsqn run`; FISTA takes ~10 ms, so it runs 4 times
    per_round={"sqn": 1, "svrg": 1, "fista": 4},
)

WORKLOADS = {w.name: w for w in (FLAGSHIP, SPARSE_WIDE, CLI_RIDGE)}
KINDS = {"sqn": proxsqn.SolverKind.PROX_SQN,
         "svrg": proxsqn.SolverKind.PROX_SVRG,
         "fista": proxsqn.SolverKind.FISTA}


class OperationFailed(RuntimeError):
    """One operation raised or fell short of a tolerance it must report."""


@dataclass
class Instance:
    ds: object
    obj: object
    reg: object
    p_star: float
    gap_allow: float          # certified reference error plus rounding
    problem: Problem
    eta: float


def _regularizer(w: Workload):
    if w.lambda1 > 0.0:
        return proxsqn.Regularizer(proxsqn.RegKind.L1, w.lambda1)
    return proxsqn.Regularizer(proxsqn.RegKind.ZERO)


def _finish_setup(w: Workload, ds):
    """Objective, lazy CSR and reference: the timed tail of every set-up."""
    obj = proxsqn.SmoothObjective.build(ds, w.spec.loss, w.ridge)
    ds.to_csr()
    reg = _regularizer(w)
    x_ref, p_star = S.reference_solution(obj, reg, tol=REF_TOL)
    return obj, reg, x_ref, p_star


def _certify(w: Workload, ds, obj, reg, x_ref, p_star) -> Instance:
    problem = Problem.of(ds, w.spec.loss is LOGISTIC, w.ridge, w.lambda1)
    gap_allow = problem.certify(x_ref, p_star, KKT_TOL)
    eta = w.inner.get("eta")
    if w.eta_from_plan:
        # the acceptance suite's step: a quarter of the planned maximum
        eta = S.rate_plan(proxsqn.IDENTITY_BOUNDS, obj.lipschitz_mean,
                          obj.strong_convexity, w.inner["m"],
                          0.01).eta_max / 4.0
    return Instance(ds, obj, reg, p_star, gap_allow, problem, eta)


def generated_setup(w: Workload) -> tuple[float, Instance]:
    """Generate, build and solve to reference; returns (seconds, instance)."""
    t0 = time.perf_counter()
    ds, _ = D.generate_synthetic(w.spec)
    obj, reg, x_ref, p_star = _finish_setup(w, ds)
    elapsed = time.perf_counter() - t0
    return elapsed, _certify(w, ds, obj, reg, x_ref, p_star)


def solver_config(w: Workload, inst: Instance, label: str, seed: int):
    if label == "fista":
        return proxsqn.SolverConfig(kind=KINDS[label],
                                    epochs=w.epochs[label], eta=w.fista_eta,
                                    seed=seed)
    fields = dict(w.inner, eta=inst.eta)
    return proxsqn.SolverConfig(kind=KINDS[label], epochs=w.epochs[label],
                                seed=seed, **fields)


def _per_epoch(w: Workload, n: int, label: str):
    if label == "fista":
        return None
    return n + 2 * w.inner["b"] * w.inner["m"]


def check_rows(w: Workload, inst: Instance, label: str, rows) -> None:
    """rows: (epoch, objective, subopt, grad_evals, elapsed_ns) per epoch."""
    require(len(rows) == w.epochs[label],
            f"{label}: {len(rows)} trace rows for {w.epochs[label]} epochs")
    # every reported tolerance must be reached; the tightest is 1e-9
    if rows[-1][2] > 1e-9:
        raise OperationFailed(f"{label}: final subopt {rows[-1][2]:.3e} "
                              f"misses 1e-9")
    check_trace(rows, name=label, n=inst.obj.n,
                per_epoch=_per_epoch(w, inst.obj.n, label),
                gap_allow=inst.gap_allow)
    p_implied = rows[-1][1] - rows[-1][2]
    scale = max(1.0, abs(inst.p_star))
    require(abs(p_implied - inst.p_star) <= 1e-12 * scale,
            f"{label}: trace implies P* = {p_implied!r}, reference "
            f"{inst.p_star!r}")


def op_metrics(label: str, rows) -> dict[str, float]:
    """Per-operation figures: seconds and grad evals to each tolerance."""
    hit6, hit9 = first_hit(rows, 1e-6), first_hit(rows, 1e-9)
    if label == "fista":
        return {"fista.tt_1e-9_s": hit9[4] / 1e9}
    return {f"{label}.tt_1e-6_s": hit6[4] / 1e9,
            f"{label}.tt_1e-9_s": hit9[4] / 1e9,
            f"{label}.evals_1e-6": float(hit6[3]),
            f"{label}.epoch_s": rows[-1][4] / 1e9 / len(rows)}


def run_op(w: Workload, inst: Instance, label: str, seed: int):
    """One in-process solver run; returns (wall seconds, rows)."""
    cfg = solver_config(w, inst, label, seed)
    t0 = time.perf_counter()
    try:
        res = S.run(inst.obj, inst.reg, cfg, p_star=inst.p_star)
    except Exception as exc:  # the operation fails, the run goes on
        raise OperationFailed(f"{label} seed {seed}: {exc!r}") from exc
    wall = time.perf_counter() - t0
    rows = [(r.epoch, r.objective, r.subopt, r.grad_evals, r.elapsed_ns)
            for r in res.records]
    check_rows(w, inst, label, rows)
    p_own = inst.problem.value(res.x)
    require(abs(p_own - rows[-1][1]) <= 1e-12 * max(1.0, abs(p_own)),
            f"{label}: traced objective {rows[-1][1]!r} != independent "
            f"{p_own!r} at the returned iterate")
    return wall, rows


class Tally:
    """Samples per metric key, attempted/failed counts, determinism."""

    def __init__(self):
        self.samples: dict[tuple[str, int], dict[str, list[float]]] = {}
        self.first_rows: dict[tuple[str, int], list] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, key, rows, figures) -> None:
        # same seed, same trace: everything but elapsed_ns must repeat
        stripped = [r[:4] for r in rows]
        prev = self.first_rows.setdefault(key, stripped)
        require(prev == stripped, f"{key}: rerun with the same seed changed "
                                  f"the trace")
        per = self.samples.setdefault(key, {})
        for name, value in figures.items():
            per.setdefault(name, []).append(value)

    def aggregate(self) -> dict[str, float]:
        """Median over repeats of each (solver, seed), then mean over seeds."""
        by_name: dict[str, list[float]] = {}
        for per in self.samples.values():
            for name, values in per.items():
                by_name.setdefault(name, []).append(statistics.median(values))
        return {name: statistics.fmean(v) for name, v in by_name.items()}


def solver_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in
            np.random.default_rng(seed).integers(0, 2**31, size=count)]


def _round_plan(w: Workload, seed: int):
    """The operations of one round. SVRG runs sit on both sides of the long
    SQN run, and short FISTA runs between all of them, so that repeats
    sample the whole round, not one moment of it."""
    seeds = solver_seeds(seed, max(w.per_round.values()))
    svrg = [("svrg", seeds[k]) for k in range(w.per_round["svrg"])]
    half = len(svrg) // 2
    long_ops = (svrg[:half] + [("sqn", seeds[k]) for k in
                               range(w.per_round["sqn"])] + svrg[half:])
    # FISTA is deterministic: its repeats share one seed
    short = w.per_round["fista"]
    n = len(long_ops)
    plan = []
    for i, op in enumerate(long_ops):
        plan.append(op)
        plan += [("fista", seeds[0])] * ((short * (i + 1)) // n
                                         - (short * i) // n)
    return plan


# ---------------------------------------------------------------- in-process


def run_round(name: str, seed: int) -> dict:
    """One round in this process: its set-ups, then its operations.

    Runs inside a fresh worker process (`worker.py`), so that each round
    also samples a fresh process: timings of one process differ from the
    next by up to a few tens of percent on this small-array code.
    """
    w = WORKLOADS[name]
    setups = []
    for _ in range(w.setups_per_round):
        inst = None
        gc.collect()
        elapsed, inst = generated_setup(w)
        setups.append(elapsed)
    ops = []
    for label, s in _round_plan(w, seed):
        try:
            wall, rows = run_op(w, inst, label, s)
        except OperationFailed as exc:
            ops.append({"label": label, "seed": s, "failed": str(exc)})
        else:
            ops.append({"label": label, "seed": s, "wall": wall,
                        "rows": rows})
    return {"setups": setups, "ops": ops}


def measure_in_process(w: Workload, seed: int, seconds: float):
    """Rounds in fresh worker processes, one at a time, until time is up."""
    tally = Tally()
    setups, round_walls, rss = [], [], []
    t_start = time.perf_counter()
    while True:
        out = run_child([sys.executable, os.path.join(HERE, "worker.py"),
                         w.name, str(seed)], cwd=ROOT)
        require(out.code == 0, f"round worker exited {out.code}: "
                               f"{out.stderr.strip()[-500:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        setups += result["setups"]
        rss.append(out.rss_mb)
        round_wall = 0.0
        for op in result["ops"]:
            tally.attempted += 1
            if "failed" in op:
                tally.failed += 1
                print(f"failed: {op['failed']}", file=sys.stderr)
                continue
            rows = [tuple(r) for r in op["rows"]]
            round_wall += op["wall"]
            tally.add((op["label"], op["seed"]), rows,
                      op_metrics(op["label"], rows))
        round_walls.append(round_wall)
        if time.perf_counter() - t_start >= seconds:
            break
    metrics = tally.aggregate()
    metrics["setup_s"] = statistics.median(setups)
    metrics["run_s"] = statistics.median(round_walls)
    metrics["peak_rss_mb"] = statistics.median(rss)
    return tally, metrics


OVERHEAD_PAIRS = 3


def tracing_overhead(run_once) -> float:
    """Median traced minus median untraced wall of one operation, from
    alternating pairs; run_once(traced) returns the operation's wall time."""
    untraced, traced = [], []
    for _ in range(OVERHEAD_PAIRS):
        untraced.append(run_once(False))
        traced.append(run_once(True))
    return statistics.median(traced) - statistics.median(untraced)


def trace_in_process(w: Workload, seed: int):
    plan = _round_plan(w, seed)
    tracer = Tracer().install()
    try:
        _, inst = generated_setup(w)
        for label, s in plan:
            run_op(w, inst, label, s)
    finally:
        tracer.restore()
    svrg_op = next(op for op in plan if op[0] == "svrg")

    def run_once(traced):
        probe = Tracer().install() if traced else None
        try:
            return run_op(w, inst, *svrg_op)[0]
        finally:
            if probe is not None:
                probe.restore()

    layers = layer_metrics(tracer.dump(), tracing_overhead(run_once),
                           import_time())
    layers["dataio.parse_s"] = (parse_probe(inst.ds), "s")
    return len(plan) + 2 * OVERHEAD_PAIRS, layers


def import_time() -> float:
    out = run_child([sys.executable, os.path.join(HERE, "cli_child.py"),
                     "--import-only"], cwd=ROOT)
    require(out.code == 0, f"import child exited {out.code}: {out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])["import_s"]


def parse_probe(ds) -> float:
    """Parse the instance back from LIBSVM text; the parser's cost on it."""
    text = libsvm_text(ds)
    t0 = time.perf_counter()
    parsed = D.parse_libsvm(text, d=ds.d)
    elapsed = time.perf_counter() - t0
    require_same_arrays(parsed, ds)
    return elapsed


# ---------------------------------------------------------------- LIBSVM I/O


def libsvm_text(ds) -> str:
    """The benchmark's own writer: shortest round-trip reprs, 1-based."""
    indptr, cols, vals = ds.indptr.tolist(), ds.indices.tolist(), \
        ds.values.tolist()
    lines = []
    for i, label in enumerate(ds.labels.tolist()):
        lo, hi = indptr[i], indptr[i + 1]
        lines.append(" ".join([repr(label)] + [f"{c + 1}:{v!r}" for c, v in
                                        zip(cols[lo:hi], vals[lo:hi])]))
    return "\n".join(lines) + "\n"


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def require_same_arrays(parsed, ds) -> None:
    same = (parsed.d == ds.d
            and np.array_equal(parsed.indptr, ds.indptr)
            and np.array_equal(parsed.indices, ds.indices)
            and np.array_equal(_bits(parsed.values), _bits(ds.values))
            and np.array_equal(_bits(parsed.labels), _bits(ds.labels)))
    require(same, "parsed LIBSVM arrays differ from the generated ones")


# ---------------------------------------------------------------- cli_ridge


@dataclass
class ChildResult:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("PROXSQN_THREADS", None)
    return env


def run_child(argv, cwd) -> ChildResult:
    """Spawn, reap with wait4 for the child's own peak RSS, kill on timeout.

    The pipes are drained by threads so that wait4, not Popen, reaps the
    child and its resource usage is not lost.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    texts = {}
    readers = [threading.Thread(target=lambda k=k, f=f: texts.__setitem__(
        k, f.read())) for k, f in (("out", proc.stdout), ("err", proc.stderr))]
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    for t in (*readers, timer):
        t.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        for t in readers:
            t.join()
        proc.stdout.close()
        proc.stderr.close()
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                       texts["out"], texts["err"])


def cli_solvers(w: Workload) -> list[tuple[str, str]]:
    """(config name, label) of each solver, in the order of a round."""
    return [(f"{label}{k}", label) for k, (label, _) in
            enumerate(_round_plan(w, 0))]


def cli_config(w: Workload) -> str:
    solvers = cli_solvers(w)
    lines = [
        f"loss = {w.spec.loss.value}",
        f"ridge = {w.ridge!r}",
        f"lambda1 = {w.lambda1!r}",
        f"ref_tol = {REF_TOL!r}",
        "dataset = data.libsvm",
        "output = out",
        "solvers = " + ", ".join(name for name, _ in solvers),
    ]
    for name, label in solvers:
        if label == "fista":
            fields = dict(eta=w.fista_eta)
        else:
            fields = dict(w.inner, scheme=w.inner["scheme"].value)
        fields.update(kind=KINDS[label].value, epochs=w.epochs[label])
        lines += [f"solver.{name}.{k} = {v!r}" if isinstance(v, float)
                  else f"solver.{name}.{k} = {v}" for k, v in fields.items()]
    return "\n".join(lines) + "\n"


def read_csv(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        header, *body = fh.read().splitlines()
    require(header == CSV_HEADER, f"{path}: unexpected header {header!r}")
    rows = []
    for line in body:
        epoch, _, obj, sub, evals, _, elapsed = line.split(",")
        require(sub != "", f"{path}: empty subopt (no reference)")
        rows.append((int(epoch), float(obj), float(sub), int(evals),
                     int(elapsed)))
    return rows


class CliWorkdir:
    """A per-run directory inside the checkout holding data, config, CSVs."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seed = seed
        self.path = os.path.join(HERE, "_work", f"{w.name}-{os.getpid()}")

    def __enter__(self):
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        work = os.path.dirname(self.path)
        if os.path.isdir(work) and not os.listdir(work):
            os.rmdir(work)

    def write_inputs(self) -> tuple[float, object]:
        t0 = time.perf_counter()
        ds, _ = D.generate_synthetic(self.w.spec)
        generate_s = time.perf_counter() - t0
        with open(os.path.join(self.path, "data.libsvm"), "w",
                  encoding="utf-8") as fh:
            fh.write(libsvm_text(ds))
        return generate_s, ds

    def setup(self, generated) -> tuple[float, Instance]:
        """What `proxsqn run` does before its solvers: read, parse, build,
        reference. The parse is checked bit for bit against the generator."""
        w = self.w
        t0 = time.perf_counter()
        with open(os.path.join(self.path, "data.libsvm"), "r",
                  encoding="utf-8") as fh:
            text = fh.read()
        ds = D.parse_libsvm(text, binary_labels=True)
        obj, reg, x_ref, p_star = _finish_setup(w, ds)
        elapsed = time.perf_counter() - t0
        require_same_arrays(ds, generated)
        return elapsed, _certify(w, ds, obj, reg, x_ref, p_star)

    def write_config(self) -> None:
        with open(os.path.join(self.path, "cli_ridge.cfg"), "w",
                  encoding="utf-8") as fh:
            fh.write(cli_config(self.w))

    def cli_args(self) -> list[str]:
        return ["--seed", str(self.seed), "--threads", "1", "run",
                "cli_ridge.cfg"]

    def run_cli(self, inst: Instance, trace_out: str | None = None):
        """One `proxsqn run` process; returns (child result, (label, rows)
        per solver)."""
        out_dir = os.path.join(self.path, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        if trace_out is None:
            argv = [sys.executable, "-m", "proxsqn.cli", *self.cli_args()]
        else:
            argv = [sys.executable, os.path.join(HERE, "cli_child.py"),
                    "--trace-out", trace_out, "--", *self.cli_args()]
        res = run_child(argv, cwd=self.path)
        if res.code != 0:
            raise OperationFailed(f"proxsqn run exited {res.code}: "
                                  f"{res.stderr.strip()[-500:]}")
        traces = []
        for name, label in cli_solvers(self.w):
            rows = read_csv(os.path.join(out_dir, f"cli_ridge_{name}.csv"))
            check_rows(self.w, inst, label, rows)
            traces.append((label, rows))
        return res, traces


def measure_cli(w: Workload, seed: int, seconds: float):
    tally = Tally()
    with CliWorkdir(w, solver_seeds(seed, 1)[0]) as work:
        _, generated = work.write_inputs()
        work.write_config()
        setups, walls, rss = [], [], []
        t_start = time.perf_counter()
        while True:
            inst = None
            gc.collect()
            elapsed, inst = work.setup(generated)
            setups.append(elapsed)
            tally.attempted += 1
            try:
                res, rows = work.run_cli(inst)
            except OperationFailed as exc:
                tally.failed += 1
                print(f"failed: {exc}", file=sys.stderr)
            else:
                walls.append(res.wall_s)
                rss.append(res.rss_mb)
                for label, r in rows:
                    tally.add((label, work.seed), r, op_metrics(label, r))
            if time.perf_counter() - t_start >= seconds:
                break
    metrics = tally.aggregate()
    metrics["setup_s"] = statistics.median(setups)
    if walls:
        metrics["run_s"] = statistics.median(walls)
        metrics["peak_rss_mb"] = statistics.median(rss)
    return tally, metrics


def trace_cli(w: Workload, seed: int):
    with CliWorkdir(w, solver_seeds(seed, 1)[0]) as work:
        generate_s, generated = work.write_inputs()
        _, inst = work.setup(generated)
        work.write_config()
        trace_path = os.path.join(work.path, "trace.json")

        def run_once(traced):
            res, _ = work.run_cli(inst, trace_path if traced else None)
            return res.wall_s

        overhead = tracing_overhead(run_once)
        with open(trace_path, "r", encoding="utf-8") as fh:
            dump = json.load(fh)
    layers = layer_metrics(dump, overhead, dump["import_s"])
    layers["dataio.generate_s"] = (generate_s, "s")
    return 2 * OVERHEAD_PAIRS, layers


def measure(name: str, seed: int, seconds: float):
    """Untraced pass: (attempted, failed, end-to-end metrics)."""
    w = WORKLOADS[name]
    if w is CLI_RIDGE:
        tally, metrics = measure_cli(w, seed, seconds)
    else:
        tally, metrics = measure_in_process(w, seed, seconds)
    return tally.attempted, tally.failed, metrics


def trace(name: str, seed: int):
    """Traced pass: (attempted, per-layer metrics)."""
    w = WORKLOADS[name]
    if w is CLI_RIDGE:
        return trace_cli(w, seed)
    return trace_in_process(w, seed)
