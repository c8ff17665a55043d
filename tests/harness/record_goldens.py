#!/usr/bin/env python3
"""(Re)record the golden fingerprints under ``tests/harness/goldens/``.

Usage::

    python tests/harness/record_goldens.py            # record every scenario
    python tests/harness/record_goldens.py NAME ...   # record a subset

Provenance: the goldens were first generated on the pre-refactor election
core (commit 19a8dd0); the migrations since then -- each an *intended*
stream/accounting change -- are listed in the "Golden provenance" section of
``harness/differential.py``.  Re-record only when a behaviour change is
intended, and explain the diff in the commit message.  ``tests/test_differential_election.py`` asserts every
scenario against these files on each run.
"""

from __future__ import annotations

import sys
from pathlib import Path

_HERE = Path(__file__).resolve()
_REPO = _HERE.parents[2]
for entry in (str(_REPO / "src"), str(_REPO / "tests")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from harness.differential import SCENARIOS, run_scenario, save_golden  # noqa: E402


def main(argv: list) -> int:
    names = argv or sorted(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {unknown}; known: {sorted(SCENARIOS)}")
        return 2
    for name in names:
        path = save_golden(name, run_scenario(name))
        print(f"recorded {name} -> {path.relative_to(_REPO)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
