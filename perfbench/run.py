"""proxsqn benchmark: time and gradient evaluations to 1e-6 and 1e-9.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 makes
the separate traced pass and reports the per-layer metrics. Every metric is
printed as `name value unit`; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. A failed
correctness check prints `correct: false` and exits 1. Without the library
sources next to this directory the command exits 2 and prints no result.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import sys

# one BLAS/OpenMP thread here and in every child (children copy os.environ);
# must happen before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

END_TO_END = ("setup_s", "peak_rss_mb", "sqn.tt_1e-6_s", "sqn.tt_1e-9_s",
              "svrg.tt_1e-6_s", "svrg.tt_1e-9_s", "fista.tt_1e-9_s",
              "sqn.evals_1e-6", "svrg.evals_1e-6", "sqn.epoch_s",
              "svrg.epoch_s", "run_s")
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "sqn.evals_1e-6": "count",
         "svrg.evals_1e-6": "count"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("flagship", "sparse_wide", "cli_ridge"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "proxsqn")):
        print(f"error: library sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from checks import CheckFailure

    attempted = failed = 0
    try:
        if args.trace:
            attempted, layers = workloads.trace(args.workload, args.seed)
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in layers.items()}
        else:
            attempted, failed, values = workloads.measure(
                args.workload, args.seed, args.seconds)
            missing = [k for k in END_TO_END if k not in values]
            if missing:
                raise CheckFailure(f"no successful operation measured "
                                   f"{', '.join(missing)}")
            metrics = {k: {"value": values[k], "unit": UNITS.get(k, "s")}
                       for k in END_TO_END}
        correct = True
    except (CheckFailure, workloads.OperationFailed) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, metrics = False, {}
    for name, m in metrics.items():
        print(f"{name:<26} {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
