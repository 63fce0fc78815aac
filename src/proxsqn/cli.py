"""Command-line front end.

Subcommands:

  run <config>          execute configured solvers, write one CSV per solver
  verify [--level]      run the property-check suite (exit 4 on failure)
  gen <spec> -o <path>  generate a synthetic dataset in LIBSVM format

Exit codes for run: 0 success, 1 config/input error (nan, inf and bytes
that are not UTF-8 included) or a solver rejecting its settings, 2 solver
divergence, 3 output I/O failure; other solvers' traces are still written
past a per-solver error or divergence. CSVs are written to `<name>.partial`
and renamed into place when complete, so an interrupted run never leaves a
finished-looking file; a failed write or rename removes the partial file.

Traces are deterministic for a fixed config: reruns produce byte-identical
CSVs except the elapsed_ns column. --seed overrides every solver's seed
(the dataset seed stays as configured); --threads (default from
PROXSQN_THREADS) runs configured solvers concurrently, one per worker.
"""

from __future__ import annotations

import concurrent.futures as cf
import contextlib
import dataclasses
import os
import sys

import click
import numpy as np

from .config import ExperimentConfig, parse_config
from .dataio import generate_synthetic, parse_libsvm, write_libsvm
from .errors import ConfigError, ConvergenceError, DivergenceError, \
    LibsvmFormatError
from .model import LOSSES, SmoothObjective
from .prox import RegKind, Regularizer
from .solver import RunResult, reference_solution, run as run_solver
from .verify import run_checks

CSV_HEADER = "epoch,iter,objective,subopt,grad_evals,metric_rebuilds,elapsed_ns"


@click.group()
@click.option("--seed", type=int, default=None,
              help="Override the seed of every configured solver.")
@click.option("--threads", type=int, default=1, envvar="PROXSQN_THREADS",
              show_default=True, help="Concurrent solver runs.")
@click.option("--output", type=click.Path(file_okay=False), default=None,
              help="Output directory (overrides the config's `output`).")
@click.pass_context
def main(ctx, seed, threads, output):
    """Composite-objective solver toolkit: stochastic quasi-Newton with
    variance reduction, first-order baselines, and a verification suite."""
    ctx.obj = {"seed": seed, "threads": max(1, threads), "output": output}


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_text(path: str, what: str) -> str:
    """The text of a UTF-8 file, read once as bytes and decoded once; exit
    1 when it cannot be read, or at its first byte that is not UTF-8,
    placed by line and column as the parsers count them. Newlines stay as
    they are: every parser splits with str.splitlines, which breaks at
    \r\n, \r and \n alike."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        _fail(1, f"cannot read {what} {path}: {exc}")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = exc.start
    # one stand-in character for the byte ends the last line at its column
    lines = (data[:at].decode("utf-8") + "?").splitlines()
    _fail(1, f"{path}: line {len(lines)}, column {len(lines[-1])}: "
             f"not valid UTF-8 (byte 0x{data[at]:02x})")


def _load_config(path: str, require_solvers: bool = True) -> ExperimentConfig:
    text = _read_text(path, "config")
    try:
        return parse_config(text, require_solvers=require_solvers)
    except ConfigError as exc:
        _fail(1, f"{path}: {exc}")


def _generate(spec):
    """generate_synthetic(spec); exit 1 when numpy cannot allocate it."""
    try:
        return generate_synthetic(spec)
    except (MemoryError, ValueError) as exc:  # "array is too big"
        _fail(1, f"synthetic data: n = {spec.n}, d = {spec.d}: "
                 f"cannot allocate ({exc})")


def _materialize(cfg: ExperimentConfig):
    if cfg.synthetic is not None:
        return _generate(cfg.synthetic)[0]
    text = _read_text(cfg.dataset, "dataset")
    try:
        ds = parse_libsvm(text, binary_labels=LOSSES[cfg.loss].binary_labels)
    except LibsvmFormatError as exc:
        _fail(1, f"{cfg.dataset}: {exc}")
    except OverflowError:  # a 0-based index past int64
        ds = None
    # an index of 2^63 parses, but no int64 matrix shape holds d = 2^63
    if ds is None or ds.d >= 2 ** 63:
        _fail(1, f"{cfg.dataset}: a feature index exceeds 2^63 - 1")
    return ds


def _format_float(v: float) -> str:
    return repr(float(v))


def _write_atomic(path: str, text: str) -> None:
    """Write text to `<path>.partial`, then rename it to path; when either
    step fails, remove the partial file and re-raise."""
    partial = path + ".partial"
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(partial, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise


def _write_csv(path: str, records) -> None:
    lines = [CSV_HEADER]
    for r in records:
        sub = "" if r.subopt is None else _format_float(r.subopt)
        lines.append(",".join((
            str(r.epoch), str(r.iteration), _format_float(r.objective), sub,
            str(r.grad_evals), str(r.metric_rebuilds), str(r.elapsed_ns))))
    _write_atomic(path, "\n".join(lines) + "\n")


@main.command("run")
@click.argument("config_path", type=click.Path(dir_okay=False))
@click.pass_context
def cmd_run(ctx, config_path):
    """Run every solver in CONFIG_PATH and write one CSV trace per solver."""
    cfg = _load_config(config_path)
    if ctx.obj["seed"] is not None:
        try:
            cfg.solvers = [
                (name, dataclasses.replace(sc, seed=ctx.obj["seed"]))
                for name, sc in cfg.solvers]
        except ValueError as exc:
            _fail(1, f"--seed: {exc}")
    ds = _materialize(cfg)
    source = cfg.dataset or "synthetic data"
    try:
        obj = SmoothObjective.build(ds, cfg.loss, cfg.ridge)
    except ValueError as exc:
        _fail(1, f"{source}: {exc}")
    try:  # every solver holds vectors of length d: fail here, not in one
        np.empty(obj.d)
    except (MemoryError, ValueError) as exc:  # "array is too big"
        _fail(1, f"{source}: d = {obj.d} features: cannot allocate a "
                 f"vector of length d ({exc})")
    reg = Regularizer(RegKind.L1 if cfg.lambda1 > 0 else RegKind.ZERO,
                      cfg.lambda1)
    try:
        _, p_star = reference_solution(obj, reg, tol=cfg.ref_tol)
    except ConvergenceError as exc:
        click.echo(f"warning: no reference solution ({exc}); "
                   f"traces carry raw objectives only", err=True)
        p_star = None

    out_dir = ctx.obj["output"] or cfg.output or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        _fail(3, f"cannot create output directory {out_dir}: {exc}")
    stem = os.path.splitext(os.path.basename(config_path))[0]

    def one(item) -> tuple[str, RunResult]:
        name, sc = item
        return name, run_solver(obj, reg, sc, p_star=p_star)

    results: dict[str, RunResult] = {}
    failed: dict[str, tuple[int, str]] = {}  # name -> (exit code, summary)
    with cf.ThreadPoolExecutor(max_workers=ctx.obj["threads"]) as pool:
        futures = {pool.submit(one, item): item[0] for item in cfg.solvers}
        for fut in cf.as_completed(futures):
            name = futures[fut]
            try:
                results[name] = fut.result()[1]
            except DivergenceError as exc:
                failed[name] = (2, f"diverged: {exc}")
            except ValueError as exc:
                failed[name] = (1, f"error: {exc}")

    wrote = []
    for name, _ in cfg.solvers:
        if name not in results:
            continue
        path = os.path.join(out_dir, f"{stem}_{name}.csv")
        try:
            _write_csv(path, results[name].records)
        except OSError as exc:
            _fail(3, f"cannot write {path}: {exc}")
        wrote.append((name, path))

    click.echo(f"{'solver':<18} {'objective':>14} {'subopt':>12} "
               f"{'grad_evals':>11} {'rebuilds':>9} {'ms':>9}")
    for name, _ in cfg.solvers:
        if name in failed:
            click.echo(f"{name:<18} {failed[name][1]}")
            continue
        last = results[name].records[-1]
        sub = "-" if last.subopt is None else f"{last.subopt:.3e}"
        click.echo(f"{name:<18} {last.objective:>14.8f} {sub:>12} "
                   f"{last.grad_evals:>11} {last.metric_rebuilds:>9} "
                   f"{last.elapsed_ns / 1e6:>9.1f}")
    for name, path in wrote:
        click.echo(f"wrote {path}")
    if failed:
        sys.exit(min(code for code, _ in failed.values()))


@main.command("verify")
@click.option("--level", type=click.Choice(["fast", "full"]), default="fast",
              show_default=True)
def cmd_verify(level):
    """Run the registered property checks; exit 4 if any fail."""
    failed = False
    for res in run_checks(level):
        status = "PASS" if res.passed else "FAIL"
        failed = failed or not res.passed
        click.echo(f"{status} {res.name:<24} margin={res.margin:+.3e}  "
                   f"{res.detail}")
    if failed:
        sys.exit(4)
    click.echo("all checks passed")


@main.command("gen")
@click.argument("spec_config", type=click.Path(dir_okay=False))
@click.option("-o", "--out", "out_path", required=True,
              type=click.Path(dir_okay=False),
              help="Destination LIBSVM file.")
@click.option("--truth", "truth_path", type=click.Path(dir_okay=False),
              default=None, help="Also write the planted point, one "
                                 "coordinate per line.")
def cmd_gen(spec_config, out_path, truth_path):
    """Generate the synthetic dataset described by SPEC_CONFIG."""
    cfg = _load_config(spec_config, require_solvers=False)
    if cfg.synthetic is None:
        _fail(1, f"{spec_config}: gen needs a synthetic.* section")
    ds, x_true = _generate(cfg.synthetic)
    files = [(out_path, write_libsvm(ds))]
    if truth_path is not None:
        files.append((truth_path,
                      "\n".join(repr(float(v)) for v in x_true) + "\n"))
    for path, text in files:
        try:
            _write_atomic(path, text)
        except OSError as exc:
            _fail(3, f"cannot write {path}: {exc}")
    click.echo(f"wrote {out_path}: n={ds.n} d={ds.d} nnz={ds.nnz} "
               f"loss={cfg.loss.value}")


if __name__ == "__main__":
    main()
