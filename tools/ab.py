"""A/B runner: the benchmark on a base revision against the working tree.

    python tools/ab.py --label gen --workload sparse_wide --seed 1 --pairs 10
    python tools/ab.py --label x --base main --workload flagship \\
        --workload cli_ridge --seed 1 --seed 2 --pairs 3 --seconds 15

The base revision (default HEAD) is exported with `git archive` into a
temporary directory, which is removed afterwards, whatever happens. Then
`perfbench/run.py --trace 0` runs alternately there ("parent") and in the
working tree ("change"): PAIRS pairs per workload and seed, the side that
runs first switching from pair to pair. For each end-to-end metric it prints
each side's median and quartiles, the change's median over the parent's,
the pairs the change won (ties count for neither), and whether a gain may
be claimed: at least 10 pairs ran, the change won at least 9 in 10 of
them, and its median beats the parent's by more than the distance between
the parent's quartiles. The
first pair of each workload is written to the working tree as
BENCH_<label>_<workload>_{parent,change}.json. The tool only reads
perfbench/ and BENCHMARK.json; it exits 1 when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of xs."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float],
            better: str = "lower") -> tuple[int, bool]:
    """(wins, gain) for one metric over paired runs: parent[i] and
    change[i] ran as pair i. A pair is won when the change is strictly
    better. gain holds when at least 10 pairs ran, at least 9 in 10 of them
    are won, and the medians differ, in the change's favour, by more than
    the parent's interquartile range."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of runs on each side, >= 1")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    q1, med_p, q3 = quartiles(parent)
    gap = sign * (med_p - statistics.median(change))
    n = len(parent)
    return wins, n >= 10 and 10 * wins >= 9 * n and gap > q3 - q1


def export(rev: str, dest: str) -> None:
    """Write the files of revision rev into dest, as committed."""
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                       stdout=tar, check=True)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(dest, filter="data")


def run_bench(tree: str, workload: str, seed: int, seconds: float):
    """The benchmark's JSON result on tree, or None when the run failed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        print(f"  run failed on {tree} (exit {proc.returncode}): "
              f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
        return None
    return result


def report(workload: str, seed: int, runs: dict, better: dict) -> None:
    """Print the comparison table of one workload and seed."""
    done = [i for i in range(len(runs["parent"]))
            if runs["parent"][i] and runs["change"][i]]
    print(f"\n{workload}, seed {seed}: {len(done)} complete pairs")
    if not done:
        return
    print(f"{'metric':<18}{'parent median [q1, q3]':>34}"
          f"{'change median [q1, q3]':>34}{'ratio':>8}{'wins':>8}  gain")
    for name in runs["parent"][done[0]]["metrics"]:
        side = {s: [runs[s][i]["metrics"][name]["value"] for i in done]
                for s in SIDES}
        wins, gain = verdict(side["parent"], side["change"],
                             better.get(name, "lower"))
        cells = []
        for s in SIDES:
            q1, med, q3 = quartiles(side[s])
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        p_med = statistics.median(side["parent"])
        ratio = statistics.median(side["change"]) / p_med if p_med else 0.0
        print(f"{name:<18}{cells[0]:>34}{cells[1]:>34}{ratio:>8.3f}"
              f"{f'{wins}/{len(done)}':>8}  {'yes' if gain else 'no'}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--base", default="HEAD")
    p.add_argument("--workload", action="append", required=True,
                   choices=("flagship", "sparse_wide", "cli_ridge"))
    p.add_argument("--seed", type=int, action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="ab-") as base:
        export(args.base, base)
        trees = {"parent": base, "change": ROOT}
        for workload in args.workload:
            for seed in args.seed:
                runs = {s: [] for s in SIDES}
                for i in range(args.pairs):
                    order = SIDES if i % 2 == 0 else SIDES[::-1]
                    for s in order:
                        result = run_bench(trees[s], workload, seed,
                                           args.seconds)
                        failed += result is None
                        runs[s].append(result)
                    print(f"{workload} seed {seed}: pair {i + 1}/"
                          f"{args.pairs} done", file=sys.stderr)
                    if i == 0 and seed == args.seed[0] and all(
                            runs[s][0] for s in SIDES):
                        for s in SIDES:
                            path = os.path.join(
                                ROOT, f"BENCH_{args.label}_{workload}_{s}.json")
                            with open(path, "w") as f:
                                json.dump(runs[s][0], f)
                report(workload, seed, runs, better)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
