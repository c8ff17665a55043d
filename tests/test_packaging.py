"""``setup.py`` declares the package and the documented ``abe-repro`` command.

The metadata is loaded through setuptools without installing anything: the
script runs only up to the point where the distribution is initialised.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import repro
import repro.cli

SETUP = Path(__file__).resolve().parent.parent / "setup.py"


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
    assert sorted(dist.install_requires) == ["numpy", "scipy"]


def test_console_script_resolves_to_the_cli_entry_point():
    (script,) = _distribution().entry_points["console_scripts"]
    name, target = (part.strip() for part in script.split("="))
    module, attribute = target.split(":")
    assert name == "abe-repro"
    assert getattr(importlib.import_module(module), attribute) is repro.cli.main
