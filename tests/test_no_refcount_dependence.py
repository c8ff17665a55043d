"""No simulation result may depend on CPython reference counts.

Free lists guarded by exact ``sys.getrefcount`` values tie a run's
behaviour to interpreter internals that shift across Python versions and
implementations.  This test keeps any such guard out of the package.
"""

from __future__ import annotations

from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def test_no_module_references_getrefcount():
    offenders = [
        str(path.relative_to(PACKAGE_ROOT.parent))
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        if "getrefcount" in path.read_text(encoding="utf-8")
    ]
    assert offenders == [], f"modules referencing sys.getrefcount: {offenders}"
