"""tools/linecov.py on the metric tests: it lists what they never run (the
CLI) and not what they run (build_metric)."""

import ast
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "linecov.py")
METRIC = os.path.join(ROOT, "src", "proxsqn", "metric.py")


def first_statement_line(path, function):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    node = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == function)
    return node.body[1].lineno  # body[0] is the docstring


def test_linecov_lists_what_the_metric_tests_never_run():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, TOOL, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         os.path.join("tests", "test_metric.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    listed = re.findall(r"^(src/proxsqn/\w+\.py):(\d+): ", proc.stdout, re.M)
    assert any(path == "src/proxsqn/cli.py" for path, _ in listed)
    first = first_statement_line(METRIC, "build_metric")
    assert ("src/proxsqn/metric.py", str(first)) not in listed
    count = re.search(r"^(\d+) of (\d+) statements never executed$",
                      proc.stdout, re.M)
    assert count and int(count[1]) == len(listed) < int(count[2])
