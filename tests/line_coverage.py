"""Fail when a line of ``src/affmin`` never runs under the tier-1 tests.

Run from anywhere, with the standard library and the test requirements only:

    python3 tests/line_coverage.py [extra pytest arguments]

It runs ``python -m pytest -q`` over ``tests/`` with a fixed
``--hypothesis-seed`` and an empty hypothesis example database, so the same
lines run every time.  A generated ``sitecustomize.py``, first on
``PYTHONPATH``, installs a ``sys.settrace`` hook in that process and in every
Python process it starts (the CLI subprocesses of ``tests/test_cli.py``); the
hook records each line that runs in a file of ``src/affmin``.  A module's
executable lines are the lines of its code objects' instructions
(``co_lines``), less its docstrings.  The script exits 1 listing each such
line that never ran, or with pytest's own exit code when a test fails.
Pytest does not collect this file: its name does not start with ``test_``.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "affmin"

# Records, per process, the lines run in files under $AFFMIN_TRACE_PACKAGE and
# writes them as JSON into $AFFMIN_TRACE_OUT at exit.
SITECUSTOMIZE = '''
import atexit, json, os, sys, threading

_package = os.environ["AFFMIN_TRACE_PACKAGE"] + os.sep
_hits = {}          # real path -> set of line numbers run
_tracers = {}       # co_filename -> its line tracer, or None outside the package


def _tracer_for(filename):
    path = os.path.realpath(filename)
    if not path.startswith(_package):
        return None
    add = _hits.setdefault(path, set()).add

    def trace_lines(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return trace_lines
    return trace_lines


def _trace_calls(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename not in _tracers:
        _tracers[filename] = _tracer_for(filename)
    return _tracers[filename]


@atexit.register
def _dump():
    sys.settrace(None)
    path = os.path.join(os.environ["AFFMIN_TRACE_OUT"], f"{os.getpid()}.json")
    with open(path, "w") as handle:
        json.dump({name: sorted(lines) for name, lines in _hits.items()}, handle)


threading.settrace(_trace_calls)
sys.settrace(_trace_calls)
'''


def executable_lines(path: Path) -> set:
    """The lines of ``path`` that hold bytecode, docstrings left out."""
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)     # 0: module start
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines - docstrings


def traced_run(pytest_args) -> tuple:
    """Run tier-1 under the trace hook: pytest's exit code and {path: lines run}."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch, "lines")
        out.mkdir()
        Path(scratch, "sitecustomize.py").write_text(SITECUSTOMIZE)
        env = dict(os.environ, AFFMIN_TRACE_PACKAGE=str(PACKAGE), AFFMIN_TRACE_OUT=str(out),
                   HYPOTHESIS_STORAGE_DIRECTORY=str(Path(scratch, "hypothesis")),
                   PYTHONPATH=os.pathsep.join(filter(None, [scratch, str(ROOT / "src"),
                                                             os.environ.get("PYTHONPATH")])))
        code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors", "--hypothesis-seed=0",
                               *pytest_args],
                              cwd=ROOT, env=env).returncode
        hits = {}
        for dump in out.iterdir():
            for name, lines in json.loads(dump.read_text()).items():
                hits.setdefault(name, set()).update(lines)
    return code, hits


def main(argv) -> int:
    code, hits = traced_run(argv)
    if code != 0:
        print(f"line coverage: pytest exited {code}; no lines are counted", file=sys.stderr)
        return code
    missed, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        source = path.read_text().splitlines()
        missed += [f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}"
                   for line in sorted(lines - hits.get(str(path.resolve()), set()))]
    for line in missed:
        print(line)
    print(f"line coverage: {total - len(missed)} of {total} executable lines of "
          f"src/affmin ran, {len(missed)} never did")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
