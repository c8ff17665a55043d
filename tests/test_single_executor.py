"""One executor: worker pools are made in one place and no module-level state.

Trial execution once had three pool factories (a fork-per-call runner, a
persistent mapper over it, and ``SweepPool``) and two ``global`` slots (an
ambient execution policy and a fork-inherited trial callable).  Every fan-out
now goes through :class:`repro.experiments.parallel.SweepPool`, which carries
its policy and store explicitly; these checks keep it that way.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent

#: A worker-pool constructor call: ``multiprocessing.Pool(``,
#: ``context.Pool(``, ``ProcessPoolExecutor(`` -- not ``SweepPool(``.
POOL_CONSTRUCTOR = re.compile(r"(?<![A-Za-z0-9_])(?:Pool|ProcessPoolExecutor)\(")

GLOBAL_STATEMENT = re.compile(r"^\s*global\s", re.MULTILINE)


def test_worker_pools_are_created_in_exactly_one_place():
    sites = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if POOL_CONSTRUCTOR.search(line):
                sites.append(f"{path.relative_to(PACKAGE_ROOT.parent)}:{number}")
    assert len(sites) == 1, f"worker pools created at: {sites}"
    assert sites[0].startswith("repro/experiments/parallel.py:")


def test_execution_layers_hold_no_global_state():
    offenders = [
        str(path.relative_to(PACKAGE_ROOT.parent))
        for package in ("experiments", "scenarios")
        for path in sorted((PACKAGE_ROOT / package).rglob("*.py"))
        if GLOBAL_STATEMENT.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == [], f"modules using `global`: {offenders}"
