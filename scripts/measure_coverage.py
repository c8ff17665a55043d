#!/usr/bin/env python3
"""Measure line coverage of ``src/repro`` under the tier-1 suite, stdlib-only.

CI runs the real thing (``pytest --cov`` via pytest-cov); this script exists
for environments without coverage.py installed -- it was used to measure the
baseline behind the ``--cov-fail-under`` floor in ``.github/workflows/ci.yml``.

Method: a ``sys.settrace`` global hook attaches a line collector to every
frame whose code lives under ``src/repro`` and the tier-1 suite runs
in-process.  The denominator is the set of executable lines per file, taken
from the compiled code objects' ``co_lines()`` tables (walked recursively),
which approximates coverage.py's statement count from above -- it also counts
docstring-load lines, so the percentage reported here is slightly
*pessimistic* relative to pytest-cov.  Lines run only inside forked worker
processes (pooled ``SweepPool`` maps) are not observed, same as a default
pytest-cov run without subprocess concurrency support.

Usage::

    python scripts/measure_coverage.py [pytest args...]   # default: -q tests

Prints a per-file table and the total, and writes ``coverage_baseline.json``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import types
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"
sys.path.insert(0, str(SRC))
# Child processes (the example-script tests spawn fresh interpreters) need
# the package on *their* path too; their lines are not traced, but they must
# pass for the run to count.
os.environ["PYTHONPATH"] = str(SRC) + (
    os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""
)

_executed: dict = {}


def _global_trace(frame, event, arg):
    if event != "call":
        return None
    filename = frame.f_code.co_filename
    if not filename.startswith(str(PACKAGE)):
        return None
    bucket = _executed.get(filename)
    if bucket is None:
        bucket = _executed[filename] = set()

    def _local_trace(frame, event, arg):
        if event == "line":
            bucket.add(frame.f_lineno)
        return _local_trace

    return _local_trace


def executable_lines(path: Path) -> set:
    """All line numbers carrying bytecode in ``path`` (recursively)."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: set = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        for _start, _end, line in obj.co_lines():
            if line is not None and line > 0:
                lines.add(line)
        for const in obj.co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
    return lines


def main(argv: list) -> int:
    import pytest

    pytest_args = argv or ["-q", str(REPO / "tests")]
    os.chdir(REPO)

    threading.settrace(_global_trace)
    sys.settrace(_global_trace)
    try:
        exit_code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if exit_code != 0:
        print(f"pytest exited with {exit_code}; coverage numbers would be partial")
        return int(exit_code)

    rows = []
    total_executable = 0
    total_hit = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        possible = executable_lines(path)
        if not possible:
            continue
        hit = _executed.get(str(path), set()) & possible
        total_executable += len(possible)
        total_hit += len(hit)
        rows.append(
            {
                "file": str(path.relative_to(REPO)),
                "lines": len(possible),
                "covered": len(hit),
                "percent": round(100.0 * len(hit) / len(possible), 1),
            }
        )

    width = max(len(row["file"]) for row in rows)
    for row in rows:
        print(f"{row['file']:<{width}}  {row['covered']:>5}/{row['lines']:<5} {row['percent']:>6.1f}%")
    total_percent = round(100.0 * total_hit / total_executable, 2)
    print("-" * (width + 22))
    print(f"{'TOTAL':<{width}}  {total_hit:>5}/{total_executable:<5} {total_percent:>6.2f}%")

    report = {
        "method": "sys.settrace line collector vs co_lines() denominator",
        "pytest_args": pytest_args,
        "total_percent": total_percent,
        "total_lines": total_executable,
        "covered_lines": total_hit,
        "files": rows,
    }
    out = REPO / "coverage_baseline.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"report written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
