"""Smoke tests of tools/fingerprint.py: a full run, then --compare of its
output with itself; --compare of outputs whose run names differ; and
--base HEAD."""

import os
import re
import subprocess
import sys

import pytest

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


def test_base_head_is_identical_while_src_is_unchanged():
    # --base HEAD exports the last commit and compares its fingerprints
    # with the working tree's: with src/ as committed, every run agrees
    git = ["git", "-C", ROOT]
    if subprocess.run(git + ["rev-parse", "--verify", "-q", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout with a commit")
    clean = subprocess.run(git + ["diff", "--quiet", "HEAD", "--", "src"],
                           capture_output=True).returncode == 0
    proc = run_tool("--base", "HEAD")
    verdict = re.search(r"^(\d+) of (\d+) runs identical; (\d+) changed",
                        proc.stdout, re.M)
    assert verdict, proc.stdout + proc.stderr
    if clean:
        assert proc.returncode == 0, proc.stdout
        assert verdict[1] == verdict[2] and verdict[3] == "0", proc.stdout


def test_compare_counts_the_shared_runs_when_names_differ(tmp_path):
    # a tool with more runs than the one it is compared with: the verdict
    # covers the runs of both, and the extra names still fail the compare
    before, after = tmp_path / "before.txt", tmp_path / "after.txt"
    before.write_text("a\t00\t1.0\nb\t11\t-\n")
    after.write_text("a\t00\t1.0\nb\t11\t-\nc\t22\t-\n")
    proc = run_tool("--compare", str(before), str(after))
    assert proc.returncode == 1, proc.stdout
    assert "run names differ: ['c']" in proc.stdout
    assert re.search(r"^2 of 2 runs identical; 0 changed", proc.stdout,
                     re.M), proc.stdout
