"""``setup.py`` declares the package and the documented ``abe-repro`` command.

The metadata is loaded through setuptools without installing anything: the
script runs only up to the point where the distribution is initialised.  The
runtime needs numpy alone; fresh interpreters check that nothing imports
scipy or networkx and that the command runs with both made unimportable.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import repro
import repro.cli

SETUP = Path(__file__).resolve().parent.parent / "setup.py"
SRC = SETUP.parent / "src"


def _distribution():
    import setuptools  # noqa: F401 -- makes ``distutils`` setuptools' own copy
    from distutils.core import run_setup

    return run_setup(str(SETUP), stop_after="init")


def test_setup_declares_the_src_layout_package():
    dist = _distribution()
    assert dist.get_name() == "abe-repro"
    assert dist.get_version() == repro.__version__
    assert dist.package_dir == {"": "src"}
    assert {"repro", "repro.sim", "repro.store"} <= set(dist.packages)
    assert dist.install_requires == ["numpy"]


def test_console_script_resolves_to_the_cli_entry_point():
    (script,) = _distribution().entry_points["console_scripts"]
    name, target = (part.strip() for part in script.split("="))
    module, attribute = target.split(":")
    assert name == "abe-repro"
    assert getattr(importlib.import_module(module), attribute) is repro.cli.main


def _run_fresh(snippet: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_the_cli_imports_neither_scipy_nor_networkx():
    completed = _run_fresh(
        "import sys\n"
        "import repro.cli\n"
        "print(sorted({name.split('.')[0] for name in sys.modules}"
        " & {'scipy', 'networkx'}))\n"
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


def test_the_cli_runs_with_scipy_and_networkx_unimportable():
    # A None entry in sys.modules makes ``import scipy`` raise ImportError.
    completed = _run_fresh(
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['networkx'] = None\n"
        "from repro.cli import main\n"
        "from repro.stats.confidence import confidence_interval\n"
        "assert main(['elect', '--n', '8', '--seed', '1']) == 0\n"
        "assert main(['experiment', 'e5', '--trials', '2']) == 0\n"
        "print(confidence_interval([1.0, 2.0, 4.0]).upper)\n"
    )
    assert completed.returncode == 0, completed.stderr
    assert "gnp-32-p0.3" in completed.stdout  # E5 ran its random graphs
    assert float(completed.stdout.split()[-1]) > 4.0
