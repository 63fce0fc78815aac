"""List the library statements that a command never executes.

    PYTHONPATH=src python tools/linecov.py -m pytest -q
    PYTHONPATH=src python tools/linecov.py path/to/script.py [args ...]

Runs the module (as `python -m` would) or the script in this process under
a line tracer, sys.settrace and threading.settrace, that records only
frames whose code lies in the proxsqn package directory; it needs nothing
outside the standard library. Then, for every .py file of the package, it
prints each statement of which no line ran as `path:line: source`, and
last the count. A statement's lines are its header for a compound
statement (up to its first body statement) and its whole extent
otherwise; lines without bytecode do not count, so docstrings, `global`
and `nonlocal` declarations are never listed. Only threads started after
the tracer is set are traced, and child processes (subprocess,
multiprocessing, a CLI test run in a fresh interpreter) are not, so code
that only they run is listed. Exits with the command's exit status.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import runpy
import sys
import threading
import types

COMPOUND_BODIES = ("body", "handlers", "orelse", "finalbody")


class LineTracer:
    """Records (co_filename, line) for every line run in a frame of code
    under root."""

    def __init__(self, root: str):
        self.prefix = os.path.realpath(root) + os.sep
        self.files: dict[str, str | None] = {}  # co_filename -> real path
        self.hits: set[tuple[str, int]] = set()

    def on_call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self.files:
            real = os.path.realpath(name)
            self.files[name] = real if real.startswith(self.prefix) else None
        return self.on_line if self.files[name] else None

    def on_line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self.on_line

    def lines_run(self) -> dict[str, set[int]]:
        """Real path -> the lines run in it."""
        out: dict[str, set[int]] = {}
        for name, line in self.hits:
            out.setdefault(self.files[name], set()).add(line)
        return out


def code_lines(code: types.CodeType) -> set[int]:
    """The lines that carry bytecode in code and the code nested in it."""
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line is not None)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def own_lines(node: ast.stmt) -> range:
    """The header of a compound statement, the extent of a simple one."""
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    children = [child.lineno for field in COMPOUND_BODIES
                for child in getattr(node, field, ())]
    last = max(first, min(children) - 1) if children else node.end_lineno
    return range(first, last + 1)


def statements(path: str):
    """(first line, lines) of each statement of path that has bytecode."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, path)
    with_code = code_lines(compile(tree, path, "exec"))
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and \
                not isinstance(node, (ast.Global, ast.Nonlocal)):
            lines = with_code.intersection(own_lines(node))
            if lines:
                yield node.lineno, lines


def run_command(argv: list[str]) -> int:
    """Run `-m module args` or `script args` as __main__; its exit code."""
    if argv[0] == "-m":
        sys.argv = argv[1:]
        sys.path[0] = os.getcwd()
        target = lambda: runpy.run_module(argv[1], run_name="__main__",
                                          alter_sys=True)
    else:
        sys.argv = argv
        sys.path[0] = os.path.dirname(os.path.abspath(argv[0]))
        target = lambda: runpy.run_path(argv[0], run_name="__main__")
    try:
        target()
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        print(exc.code, file=sys.stderr)
        return 1
    return 0


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help") or argv == ["-m"]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec = importlib.util.find_spec("proxsqn")
    if spec is None or not spec.submodule_search_locations:
        print("linecov: proxsqn is not importable (set PYTHONPATH=src)",
              file=sys.stderr)
        return 2
    root = os.path.realpath(spec.submodule_search_locations[0])
    tracer = LineTracer(root)
    threading.settrace(tracer.on_call)
    sys.settrace(tracer.on_call)
    try:
        code = run_command(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    run = tracer.lines_run()
    missed = total = 0
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(root, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        hit = run.get(path, set())
        for first, lines in sorted(statements(path)):
            total += 1
            if hit.isdisjoint(lines):
                missed += 1
                print(f"{os.path.relpath(path)}:{first}: "
                      f"{source[first - 1].strip()}")
    print(f"{missed} of {total} statements never executed")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
