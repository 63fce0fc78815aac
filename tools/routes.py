"""Scaled-prox route tally on the benchmark instances.

    PYTHONPATH=src python tools/routes.py [--workload flagship] [--seeds 2]

Runs ProxSQN on the flagship and sparse_wide instances of perfbench (solver
seeds 0, 1, ...) with the benchmark's settings, and wraps
proxsqn.prox.scaled_prox_info to record every call's RootInfo. For each
workload it prints the number of calls, the count of each route
(RootInfo.method: "newton" when the Newton route's root passed the guard,
"newton+exact" after a fallback to the exact route), the calls that fell
back (a method with "+"), and the mean, median and largest number of g
evaluations per call. It exits 1 when any call fell back.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import os
import statistics
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))


def tally(name, seeds):
    import workloads as W
    P = importlib.import_module("proxsqn.prox")
    w = W.WORKLOADS[name]
    _, inst = W.generated_setup(w)
    routes, evals = collections.Counter(), []
    orig = P.scaled_prox_info

    def wrapped(*args, **kwargs):
        y, info = orig(*args, **kwargs)
        routes[info.method] += 1
        evals.append(info.evaluations)
        return y, info

    P.scaled_prox_info = wrapped
    try:
        for seed in range(seeds):
            W.S.run(inst.obj, inst.reg, W.solver_config(w, inst, "sqn", seed),
                    p_star=inst.p_star)
    finally:
        P.scaled_prox_info = orig
    fallbacks = sum(c for m, c in routes.items() if "+" in m)
    print(f"{name}: {len(evals)} calls, routes {dict(routes)}, "
          f"fallbacks {fallbacks}, evaluations mean "
          f"{statistics.fmean(evals) if evals else 0:.3f} median "
          f"{statistics.median(evals) if evals else 0} max "
          f"{max(evals, default=0)}", flush=True)
    return fallbacks


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("flagship", "sparse_wide"),
                   action="append")
    p.add_argument("--seeds", type=int, default=2)
    args = p.parse_args(argv)
    with np.errstate(all="ignore"):
        falls = [tally(name, args.seeds)
                 for name in args.workload or ("flagship", "sparse_wide")]
    return 1 if any(falls) else 0


if __name__ == "__main__":
    sys.exit(main())
