import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

from dataset_helpers import datasets_equal
import proxsqn
from proxsqn import (
    SyntheticSpec,
    generate_synthetic,
    parse_libsvm,
)
from proxsqn.cli import CSV_HEADER, main

CONFIG = (
    "loss = squared_error\n"
    "ridge = 0.1\n"
    "lambda1 = 0.01\n"
    "synthetic.n = 40\n"
    "synthetic.d = 6\n"
    "synthetic.density = 0.5\n"
    "synthetic.condition = 4.0\n"
    "synthetic.noise = 0.1\n"
    "synthetic.seed = 2\n"
    "solvers = sqn, prox_gd\n"
    "solver.sqn.kind = prox_sqn\n"
    "solver.sqn.epochs = 3\n"
    "solver.sqn.eta = 0.05\n"
    "solver.sqn.m = 40\n"
    "solver.sqn.b = 4\n"
    "solver.sqn.b_hessian = 10\n"
    "solver.sqn.metric_period = 5\n"
    "solver.prox_gd.epochs = 10\n"
    "solver.prox_gd.eta = 0.5\n"
)


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_lines(path):
    return path.read_text().splitlines()


def strip_elapsed(lines):
    # elapsed_ns is the last column and the only nondeterministic one
    return [line.rsplit(",", 1)[0] for line in lines]


def test_run_writes_csv_traces(runner, tmp_path):
    cfg = write_config(tmp_path, CONFIG)
    out = tmp_path / "traces"
    res = runner.invoke(main, ["--output", str(out), "run", cfg])
    assert res.exit_code == 0, res.output
    for name, rows in (("sqn", 3), ("prox_gd", 10)):
        lines = read_lines(out / f"exp_{name}.csv")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + rows
        epochs = [int(line.split(",")[0]) for line in lines[1:]]
        assert epochs == list(range(1, rows + 1))
        for line in lines[1:]:
            cols = line.split(",")
            float(cols[2])           # objective parses
            float(cols[3])           # subopt present (reference exists here)
            int(cols[4]), int(cols[5]), int(cols[6])
    assert "wrote" in res.output
    assert not list(out.glob("*.partial"))


def test_run_deterministic_modulo_elapsed(runner, tmp_path):
    cfg = write_config(tmp_path, CONFIG)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert runner.invoke(main,
                             ["--output", str(out), "run", cfg]).exit_code == 0
        outs.append(out)
    for name in ("exp_sqn.csv", "exp_prox_gd.csv"):
        first = strip_elapsed(read_lines(outs[0] / name))
        second = strip_elapsed(read_lines(outs[1] / name))
        assert first == second


def test_seed_override(runner, tmp_path):
    cfg = write_config(tmp_path, CONFIG)
    def trace(args, sub):
        out = tmp_path / sub
        assert runner.invoke(
            main, args + ["--output", str(out), "run", cfg]).exit_code == 0
        return {n: strip_elapsed(read_lines(out / f"exp_{n}.csv"))
                for n in ("sqn", "prox_gd")}

    base = trace([], "base")
    seeded = trace(["--seed", "7"], "seeded")
    again = trace(["--seed", "7"], "again")
    assert seeded == again
    assert seeded["sqn"] != base["sqn"]         # stochastic path moved
    assert seeded["prox_gd"] == base["prox_gd"]  # deterministic baseline


def test_run_missing_config(runner, tmp_path):
    res = runner.invoke(main, ["run", str(tmp_path / "nope.cfg")])
    assert res.exit_code == 1
    assert "cannot read config" in res.stderr


def test_run_malformed_config(runner, tmp_path):
    cfg = write_config(tmp_path, "loss = squared_error\nbogus = 1\n")
    res = runner.invoke(main, ["run", cfg])
    assert res.exit_code == 1
    assert "line 2: unknown key 'bogus'" in res.stderr


def test_run_missing_dataset(runner, tmp_path):
    cfg = write_config(
        tmp_path,
        "loss = squared_error\nridge = 0.1\nlambda1 = 0.0\n"
        f"dataset = {tmp_path / 'missing.libsvm'}\nsolvers = prox_gd\n")
    res = runner.invoke(main, ["run", cfg])
    assert res.exit_code == 1
    assert "cannot read dataset" in res.stderr


def test_run_malformed_dataset(runner, tmp_path):
    bad = tmp_path / "bad.libsvm"
    bad.write_text("1.0 0:2.0\n")
    cfg = write_config(
        tmp_path,
        "loss = squared_error\nridge = 0.1\nlambda1 = 0.0\n"
        f"dataset = {bad}\nsolvers = prox_gd\n")
    res = runner.invoke(main, ["run", cfg])
    assert res.exit_code == 1
    assert "line 1, column 5" in res.stderr


def exited_cleanly(res, code):
    # a SystemExit is the CLI's own exit; anything else is an escaped
    # exception, which the real command line would print as a traceback
    return res.exit_code == code and isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("line,key", [(2, "ridge"), (3, "lambda1")])
def test_run_nonfinite_config_exits_fast(tmp_path, line, key):
    # past the parser, a nan ridge spins the reference solver and a nan
    # lambda1 fails inside Regularizer; the parser must stop both
    cfg = write_config(tmp_path, re.sub(rf"^{key} = .*$", f"{key} = nan",
                                        CONFIG, flags=re.M))
    src = os.path.dirname(os.path.dirname(proxsqn.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "proxsqn.cli", "--output",
                           str(tmp_path / "out"), "run", cfg],
                          env=env, capture_output=True, text=True, timeout=60)
    assert time.monotonic() - t0 < 15.0
    assert proc.returncode == 1
    assert f"line {line}: {key}: expected a finite float, got 'nan'" \
        in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_nonfinite_dataset(runner, tmp_path):
    bad = tmp_path / "bad.libsvm"
    bad.write_text("1.0 1:2.0\n-1.0 1:nan\n")
    cfg = write_config(
        tmp_path,
        "loss = logistic_ridge\nridge = 0.1\nlambda1 = 0.0\n"
        f"dataset = {bad}\nsolvers = prox_gd\n")
    res = runner.invoke(main, ["run", cfg])
    assert exited_cleanly(res, 1)
    assert "line 2, column 8: non-finite value 'nan'" in res.stderr


@pytest.mark.parametrize("index", [
    "99999999999999999999",  # past int64 in the parser
    str(2 ** 63),            # parses, to d = 2^63
])
def test_run_index_past_int64_exit_1(runner, tmp_path, index):
    data = tmp_path / "data.libsvm"
    data.write_text(f"1 {index}:1\n")
    cfg = write_config(
        tmp_path,
        "loss = squared_error\nridge = 0.1\nlambda1 = 0.0\n"
        f"dataset = {data}\nsolvers = prox_gd\n")
    res = runner.invoke(main, ["--output", str(tmp_path / "out"), "run", cfg])
    assert exited_cleanly(res, 1)
    assert res.stderr == f"error: {data}: a feature index exceeds 2^63 - 1\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_nonfinite_smoothness_falls_back_to_raw_traces(runner, tmp_path):
    # 1e160 squared overflows row 1's Lipschitz constant: the objective
    # rejects it by row, before numpy can warn or a solver can diverge
    data = tmp_path / "data.libsvm"
    data.write_text("1 1:1e160\n-1 2:2\n")
    cfg = write_config(
        tmp_path,
        "loss = squared_error\nridge = 0.1\nlambda1 = 0.0\n"
        f"dataset = {data}\nsolvers = prox_gd\n")
    res = runner.invoke(main, ["--output", str(tmp_path / "out"), "run", cfg])
    assert exited_cleanly(res, 1)
    assert res.stderr == (f"error: {data}: row 1: component Lipschitz "
                          f"constant L_i = inf is not finite\n")
    assert "Traceback" not in res.output


def test_run_without_reference_writes_raw_traces(runner, tmp_path,
                                                 monkeypatch):
    # no reference solution: a warning, and traces with an empty subopt
    def no_reference(*args, **kwargs):
        raise proxsqn.ConvergenceError("no convergence in 10 steps")

    monkeypatch.setattr("proxsqn.cli.reference_solution", no_reference)
    cfg = write_config(tmp_path, CONFIG)
    out = tmp_path / "traces"
    res = runner.invoke(main, ["--output", str(out), "run", cfg])
    assert res.exit_code == 0, res.output
    assert res.stderr == ("warning: no reference solution (no convergence "
                          "in 10 steps); traces carry raw objectives only\n")
    for name in ("sqn", "prox_gd"):
        for line in read_lines(out / f"exp_{name}.csv")[1:]:
            assert line.split(",")[3] == ""


@pytest.mark.parametrize("index", [
    str(2 ** 50),  # past the address space
    str(2 ** 62),  # past numpy's array size limit
])
def test_run_unallocatable_d_exit_1(runner, tmp_path, index):
    data = tmp_path / "data.libsvm"
    data.write_text(f"1 {index}:1\n")
    cfg = write_config(
        tmp_path,
        "loss = squared_error\nridge = 0.1\nlambda1 = 0.0\n"
        f"dataset = {data}\nsolvers = prox_gd\n")
    res = runner.invoke(main, ["--output", str(tmp_path / "out"), "run", cfg])
    assert exited_cleanly(res, 1)
    assert res.stderr.startswith(
        f"error: {data}: d = {index} features: cannot allocate")
    assert res.stderr.count("\n") == 1
    assert "Traceback" not in res.output


@pytest.mark.parametrize("command", ["run", "gen"])
@pytest.mark.parametrize("n,d,density", [
    (10 ** 13, 10, 0.5),  # 364 TiB of feature indices
    (10 ** 20, 10, 0.5),  # past numpy's dimension limit
    (10, 10 ** 13, 1e-12),  # 72.8 TiB of column scales
])
def test_unallocatable_synthetic_exit_1(runner, tmp_path, command, n, d,
                                        density):
    # sizes that numpy refuses at once, before touching any memory
    cfg = write_config(
        tmp_path,
        "loss = squared_error\nridge = 0.1\nlambda1 = 0.0\n"
        f"synthetic.n = {n}\nsynthetic.d = {d}\n"
        f"synthetic.density = {density}\nsolvers = prox_gd\n")
    args = (["--output", str(tmp_path / "out"), "run", cfg]
            if command == "run" else
            ["gen", cfg, "-o", str(tmp_path / "data.libsvm")])
    res = runner.invoke(main, args)
    assert exited_cleanly(res, 1)
    assert res.stderr.startswith(
        f"error: synthetic data: n = {n}, d = {d}: cannot allocate (")
    assert res.stderr.count("\n") == 1
    assert "Traceback" not in res.output
    assert os.listdir(tmp_path) == ["exp.cfg"]


def test_run_non_utf8_dataset(runner, tmp_path):
    bad = tmp_path / "bad.libsvm"
    bad.write_bytes(b"1 1:2.0\n-1 2:\xff3.0\n")
    cfg = write_config(
        tmp_path,
        "loss = squared_error\nridge = 0.1\nlambda1 = 0.0\n"
        f"dataset = {bad}\nsolvers = prox_gd\n")
    res = runner.invoke(main, ["run", cfg])
    assert exited_cleanly(res, 1)
    assert res.stderr == (f"error: {bad}: line 2, column 6: "
                          "not valid UTF-8 (byte 0xff)\n")


@pytest.mark.parametrize("command", ["run", "gen"])
def test_non_utf8_config(runner, tmp_path, command):
    # lines as the config parser counts them (CRLF is one break), columns
    # in characters (the two-byte e-acute is one)
    path = tmp_path / "exp.cfg"
    path.write_bytes(CONFIG.encode().replace(
        b"loss = squared_error\nridge = 0.1\n",
        b"loss = squared_error\r\nridge = \xc3\xa9\xe9\n"))
    args = [str(path), "-o", str(tmp_path / "x.libsvm")] \
        if command == "gen" else [str(path)]
    res = runner.invoke(main, [command, *args])
    assert exited_cleanly(res, 1)
    assert res.stderr == (f"error: {path}: line 2, column 10: "
                          "not valid UTF-8 (byte 0xe9)\n")


@pytest.mark.parametrize("args,edit,message", [
    ([], ("synthetic.seed = 2", "synthetic.seed = -1"),
     "invalid synthetic spec: seed -1 is outside [0, 2^64)"),
    ([], ("solvers = sqn", "solver.sqn.seed = -1\nsolvers = sqn"),
     "solver 'sqn': seed -1 is outside [0, 2^64)"),
    (["--seed", str(2 ** 64)], ("", ""),
     f"--seed: seed {2 ** 64} is outside [0, 2^64)"),
])
def test_run_seed_out_of_range_exit_1(runner, tmp_path, args, edit, message):
    cfg = write_config(tmp_path, CONFIG.replace(*edit))
    res = runner.invoke(main, args + ["--output", str(tmp_path / "out"),
                                      "run", cfg])
    assert exited_cleanly(res, 1)
    assert message in res.stderr
    assert len(res.stderr.splitlines()) == 1
    assert "Traceback" not in res.output


def test_run_invalid_objective_exit_1(runner, tmp_path):
    # an empty row has L_i = 0 without ridge, which the objective rejects
    data = tmp_path / "data.libsvm"
    data.write_text("1.0\n2.0 1:1.0\n")
    cfg = write_config(
        tmp_path,
        "loss = squared_error\nridge = 0.0\nlambda1 = 0.0\n"
        f"dataset = {data}\nsolvers = prox_gd\n")
    res = runner.invoke(main, ["run", cfg])
    assert exited_cleanly(res, 1)
    assert "L_i > 0" in res.stderr


def test_run_solver_error_exit_1(runner, tmp_path):
    # one solver rejects its batch size; the others still run and write
    text = (CONFIG.replace("synthetic.n = 40", "synthetic.n = 30")
            .replace("solver.sqn.b = 4", "solver.sqn.b = 50")
            .replace("solvers = sqn, prox_gd", "solvers = sqn, fista")
            .replace("solver.prox_gd.", "solver.fista."))
    cfg = write_config(tmp_path, text)
    out = tmp_path / "traces"
    res = runner.invoke(main, ["--output", str(out), "run", cfg])
    assert exited_cleanly(res, 1)
    assert "sqn                error: batch size 50 exceeds n = 30" \
        in res.output
    assert len(read_lines(out / "exp_fista.csv")) == 1 + 10
    assert not (out / "exp_sqn.csv").exists()


def test_run_secant_error_exit_1(runner, tmp_path, monkeypatch):
    # a metric that misses the secant condition fails only its solver
    real = proxsqn.metric.apply_inverse
    monkeypatch.setattr("proxsqn.metric.apply_inverse",
                        lambda m, v: real(m, v) + 1e-3)
    cfg = write_config(tmp_path, CONFIG)
    out = tmp_path / "traces"
    res = runner.invoke(main, ["--output", str(out), "run", cfg])
    assert exited_cleanly(res, 1)
    assert "sqn                error: secant violation at construction" \
        in res.output
    assert len(read_lines(out / "exp_prox_gd.csv")) == 1 + 10
    assert not (out / "exp_sqn.csv").exists()


def test_run_divergence_exit_2(runner, tmp_path):
    text = CONFIG.replace("solver.sqn.eta = 0.05", "solver.sqn.eta = 1000.0")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "traces"
    res = runner.invoke(main, ["--output", str(out), "run", cfg])
    assert res.exit_code == 2
    assert "diverged" in res.output
    # the healthy solver's trace still lands on disk
    assert (out / "exp_prox_gd.csv").exists()
    assert not (out / "exp_sqn.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("eta, what", [
    ("1000.0", "anchor point or step not finite"),
    ("150.0", "curvature pair not finite"),
])
def test_run_divergence_at_anchor_exit_2(runner, tmp_path, eta, what):
    # the anchors, or the curvature built from them, turn non-finite before
    # any epoch ends: still a divergence (exit 2), not an error in the
    # metric rebuild (exit 1)
    text = (CONFIG.replace("synthetic.n = 40", "synthetic.n = 200")
            .replace("synthetic.d = 6", "synthetic.d = 20")
            .replace("synthetic.seed = 2", "synthetic.seed = 3")
            .replace("solver.sqn.eta = 0.05", f"solver.sqn.eta = {eta}")
            .replace("solver.sqn.m = 40", "solver.sqn.m = 200")
            .replace("solver.sqn.b = 4", "solver.sqn.b = 5")
            .replace("solver.sqn.b_hessian = 10", "solver.sqn.b_hessian = 20"))
    cfg = write_config(tmp_path, text)
    out = tmp_path / "traces"
    res = runner.invoke(main, ["--output", str(out), "run", cfg])
    assert res.exit_code == 2, res.output
    assert f"sqn                diverged: {what} at iteration" in res.output
    assert (out / "exp_prox_gd.csv").exists()
    assert not (out / "exp_sqn.csv").exists()


def run_in_subprocess(tmp_path, cfg):
    """`proxsqn run cfg` in a fresh interpreter, whose numpy warnings
    reach its stderr as they would on the command line."""
    src = os.path.dirname(os.path.dirname(proxsqn.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "proxsqn.cli", "--output",
                           str(tmp_path / "out"), "run", cfg],
                          env=env, capture_output=True, text=True, timeout=60)


def test_run_overflow_inside_an_epoch_prints_no_warning(tmp_path):
    # criterion 10's instance at eta = 1e6: x overflows within the first
    # epoch; the epoch-end and anchor guards report it, numpy prints nothing
    text = (
        "loss = squared_error\nridge = 0.1\nlambda1 = 0.01\n"
        "synthetic.n = 60\nsynthetic.d = 8\nsynthetic.density = 0.5\n"
        "synthetic.condition = 4.0\nsynthetic.noise = 0.1\n"
        "synthetic.seed = 12\nsolvers = svrg, sqn\n"
        "solver.svrg.kind = prox_svrg\nsolver.sqn.kind = prox_sqn\n")
    for name in ("svrg", "sqn"):
        text += (f"solver.{name}.epochs = 4\nsolver.{name}.eta = 1e6\n"
                 f"solver.{name}.m = 600\nsolver.{name}.b = 5\n")
    text += "solver.sqn.b_hessian = 10\nsolver.sqn.metric_period = 5\n"
    proc = run_in_subprocess(tmp_path, write_config(tmp_path, text))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "svrg               diverged: " in proc.stdout
    assert "sqn                diverged: " in proc.stdout
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("loss,ridge,rows,code", [
    # ||A'A v|| overflows in the power iteration; both solvers diverge
    ("logistic_ridge", 0.1, "1 1:1.3e154\n-1 2:1.3e154\n1 1:1\n", 2),
    # A'A v underflows to 0 at ridge 0; both solvers run
    ("squared_error", 0.0, "1 1:1e-160\n-1 1:2e-160\n", 0)],
    ids=["overflow", "underflow"])
def test_run_smoothness_out_of_range_gives_raw_traces(tmp_path, loss, ridge,
                                                      rows, code):
    data = tmp_path / "data.libsvm"
    data.write_text(rows)
    cfg = write_config(tmp_path, (
        f"loss = {loss}\nridge = {ridge}\nlambda1 = 0\ndataset = {data}\n"
        "solvers = prox_gd, prox_sqn\nsolver.prox_sqn.b = 1\n"
        "solver.prox_sqn.b_hessian = 2\nsolver.prox_sqn.m = 20\n"
        "solver.prox_sqn.metric_period = 2\n"))
    proc = run_in_subprocess(tmp_path, cfg)
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert proc.stderr.startswith("warning: no reference solution "
                                  "(smoothness estimate ")
    assert proc.stderr.count("\n") == 1
    if code == 0:
        for name in ("prox_gd", "prox_sqn"):
            csv = (tmp_path / "out" / f"exp_{name}.csv").read_text()
            records = csv.splitlines()[1:]
            assert records and all(r.split(",")[3] == "" for r in records)


def test_run_csv_rename_failure_exit_3(runner, tmp_path, monkeypatch):
    # a failed rename leaves neither the CSV nor its partial file
    cfg = write_config(tmp_path, CONFIG)
    out = tmp_path / "traces"
    csv = out / "exp_sqn.csv"
    real_replace = os.replace

    def failing_replace(src, dst):
        if str(dst) == str(csv):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr("proxsqn.cli.os.replace", failing_replace)
    res = runner.invoke(main, ["--output", str(out), "run", cfg])
    assert exited_cleanly(res, 3)
    assert not csv.exists()
    assert not (out / "exp_sqn.csv.partial").exists()
    assert res.stderr == f"error: cannot write {csv}: disk full\n"


def test_run_bad_output_dir_exit_3(runner, tmp_path):
    cfg = write_config(tmp_path, CONFIG)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    res = runner.invoke(main,
                        ["--output", str(blocker / "sub"), "run", cfg])
    assert res.exit_code == 3
    assert "cannot create output directory" in res.stderr


def test_threads_match_serial(runner, tmp_path):
    cfg = write_config(tmp_path, CONFIG)
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    assert runner.invoke(
        main, ["--output", str(serial), "run", cfg]).exit_code == 0
    assert runner.invoke(
        main, ["--threads", "2", "--output", str(threaded), "run", cfg]
    ).exit_code == 0
    for name in ("exp_sqn.csv", "exp_prox_gd.csv"):
        assert strip_elapsed(read_lines(serial / name)) == \
            strip_elapsed(read_lines(threaded / name))


def test_verify_fast(runner):
    res = runner.invoke(main, ["verify"])
    assert res.exit_code == 0, res.output
    assert "all checks passed" in res.output
    assert sum(line.startswith("PASS") for line in res.output.splitlines()) == 8


def test_verify_rejects_bad_level(runner):
    res = runner.invoke(main, ["verify", "--level", "paranoid"])
    assert res.exit_code == 2  # click usage error


GEN_CONFIG = (
    "loss = squared_error\n"
    "ridge = 0.0\n"
    "lambda1 = 0.0\n"
    "synthetic.n = 30\n"
    "synthetic.d = 8\n"
    "synthetic.density = 0.5\n"
    "synthetic.condition = 4.0\n"
    "synthetic.noise = 0.1\n"
    "synthetic.seed = 6\n"
)


def test_gen_matches_library_generator(runner, tmp_path):
    cfg = write_config(tmp_path, GEN_CONFIG, "spec.cfg")
    out = tmp_path / "data.libsvm"
    truth = tmp_path / "truth.txt"
    res = runner.invoke(main, ["gen", cfg, "-o", str(out),
                               "--truth", str(truth)])
    assert res.exit_code == 0, res.output
    assert "n=30 d=8" in res.output
    spec = SyntheticSpec(n=30, d=8, density=0.5, condition=4.0, noise=0.1,
                         seed=6)
    want_ds, want_x = generate_synthetic(spec)
    got = parse_libsvm(out.read_text(), d=8)
    assert datasets_equal(got, want_ds)
    x_back = np.array([float(v) for v in read_lines(truth)])
    assert np.array_equal(x_back, want_x)


def test_gen_truth_written_atomically(runner, tmp_path, monkeypatch):
    # a failed rename leaves no truth file, as for the dataset and the CSVs
    cfg = write_config(tmp_path, GEN_CONFIG, "spec.cfg")
    truth = tmp_path / "truth.txt"
    real_replace = os.replace

    def failing_replace(src, dst):
        if str(dst) == str(truth):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr("proxsqn.cli.os.replace", failing_replace)
    res = runner.invoke(main, ["gen", cfg, "-o", str(tmp_path / "d.libsvm"),
                               "--truth", str(truth)])
    assert exited_cleanly(res, 3)
    assert not truth.exists()
    assert not (tmp_path / "truth.txt.partial").exists()
    assert res.stderr == f"error: cannot write {truth}: disk full\n"


def test_gen_deterministic_bytes(runner, tmp_path):
    cfg = write_config(tmp_path, GEN_CONFIG, "spec.cfg")
    paths = [tmp_path / "a.libsvm", tmp_path / "b.libsvm"]
    for p in paths:
        assert runner.invoke(main,
                             ["gen", cfg, "-o", str(p)]).exit_code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_gen_requires_synthetic_section(runner, tmp_path):
    cfg = write_config(
        tmp_path,
        "loss = squared_error\nridge = 0.0\nlambda1 = 0.0\ndataset = d\n",
        "spec.cfg")
    res = runner.invoke(main, ["gen", cfg, "-o", str(tmp_path / "x.libsvm")])
    assert res.exit_code == 1
    assert "synthetic" in res.stderr
