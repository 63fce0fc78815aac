"""Round worker of the benchmark: runs one round of an in-process workload
in a fresh interpreter and prints its set-up times and traces as JSON.

    python3 perfbench/worker.py <workload> <seed>

Exits 3 with the message on standard error if a correctness check fails.
"""

import json
import sys

import workloads
from checks import CheckFailure


def main(argv):
    name, seed = argv[0], int(argv[1])
    try:
        result = workloads.run_round(name, seed)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
