"""Packaging for the ``repro`` library and its ``abe-repro`` command.

This file is the whole package description (there is no ``pyproject.toml``).
``pip install -e .`` -- or ``python setup.py develop`` where pip cannot build
an editable wheel offline -- installs an importable ``repro`` package from
``src/`` together with the ``abe-repro`` console script.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"$', INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="abe-repro",
    version=VERSION,
    description=(
        "Leader election and synchronizers in asynchronous bounded expected "
        "delay (ABE) networks"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["abe-repro = repro.cli:main"]},
)
