"""List the lines of ``src/hyperq`` that no test runs.

Runs the test suite in process under a line tracer (``sys.settrace`` and
``threading.settrace``, standard library only) and prints
``file:line: text`` for every executable line of ``src/hyperq`` that no test
ran, docstrings excluded.  Executable lines are those the compiled code maps
to a source line.  Tests that run the CLI in a subprocess are not traced, so
a line that only they reach is listed too.  A full run takes several minutes
(about 7 on 2 cores), so it is a tool to run by hand, not a CI step:

    python3 scripts/untested_lines.py              # the whole of tests/
    python3 scripts/untested_lines.py -k derive    # any pytest arguments

Exits with pytest's status.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "hyperq"

_hit = defaultdict(set)  # file name -> the line numbers run


def _line(frame, event, arg):
    if event == "line":
        _hit[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(str(PACKAGE)) else None


def _code_lines(code) -> set:
    lines = {line for _, _, line in code.co_lines() if line}  # None, or 0, on no line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                lines |= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def untested(path: Path) -> list:
    """(line number, text) of each executable line of ``path`` that was not run."""
    text = path.read_text()
    executable = _code_lines(compile(text, str(path), "exec")) - _docstring_lines(ast.parse(text))
    source = text.splitlines()
    return [(n, source[n - 1].strip()) for n in sorted(executable - _hit[str(path)])]


def main(argv) -> int:
    sys.path.insert(0, str(SRC))
    # the CLI tests' subprocesses import the package too, untraced
    pythonpath = [str(SRC), os.environ.get("PYTHONPATH")]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, pythonpath))
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        status = pytest.main(argv or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        for n, text in untested(path):
            print(f"{path.relative_to(ROOT)}:{n}: {text}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
