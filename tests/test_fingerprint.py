"""Smoke test of tools/fingerprint.py: a full run, then --compare of its
output with itself."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "fingerprint.py")


def run_tool(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, TOOL, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_fingerprint_runs_and_compares_with_itself(tmp_path):
    proc = run_tool()
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    names = [line.split("\t")[0] for line in lines]
    assert all(line.count("\t") == 2 for line in lines)
    assert len(names) == len(set(names)), "run names repeat"
    out = tmp_path / "fingerprints.txt"
    out.write_text(proc.stdout)
    proc = run_tool("--compare", str(out), str(out))
    assert proc.returncode == 0, proc.stdout
    n = len(names)
    assert re.search(rf"^{n} of {n} runs identical; 0 changed",
                     proc.stdout, re.M), proc.stdout
