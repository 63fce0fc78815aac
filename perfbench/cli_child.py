"""Child process of the benchmark: times the package import in a fresh
interpreter, then optionally runs the `proxsqn` CLI under the tracer.

    python3 perfbench/cli_child.py --import-only
    python3 perfbench/cli_child.py --trace-out FILE -- <proxsqn arguments>

Prints `{"import_s": ...}` for --import-only. With --trace-out it writes the
import time and the tracer's spans and counts to FILE as JSON, and exits
with the CLI's own exit code.
"""

import importlib
import json
import sys
import time

from tracer import Tracer


def main(argv):
    if argv == ["--import-only"]:
        t0 = time.perf_counter()
        importlib.import_module("proxsqn.cli")
        print(json.dumps({"import_s": time.perf_counter() - t0}))
        return 0
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 64
    out_path, cli_args = argv[1], argv[3:]
    t0 = time.perf_counter()
    cli = importlib.import_module("proxsqn.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer().install(with_cli=True)
    code = 0
    try:
        cli.main(args=cli_args, prog_name="proxsqn")
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        tracer.restore()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, **tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
