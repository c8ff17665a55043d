"""One event core: each engine keeps one heap, and only two modules own one.

The object engine (:class:`repro.sim.engine.Simulator`) and the columnar
vector core (:mod:`repro.core.vector_core`) each keep a single :mod:`heapq`
list of plain tuples.  There was once a second, columnar event store with
its own free list beside them, plus several re-arm and fast-path scheduling
variants, and an observer surface (event listeners, kind and payload tags)
that nothing in the library read; these checks keep them from growing back.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro
import repro.sim
from repro.sim.engine import Simulator

PACKAGE_ROOT = Path(repro.__file__).resolve().parent

HEAPQ_IMPORT = re.compile(r"^\s*(?:import heapq\b|from heapq import\b)", re.MULTILINE)


def test_only_the_two_engines_import_heapq():
    importers = [
        str(path.relative_to(PACKAGE_ROOT.parent))
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        if HEAPQ_IMPORT.search(path.read_text(encoding="utf-8"))
    ]
    assert importers == ["repro/core/vector_core.py", "repro/sim/engine.py"]


def test_simulator_has_three_scheduling_calls():
    scheduling = sorted(name for name in vars(Simulator) if name.startswith("schedule"))
    assert scheduling == ["schedule", "schedule_at", "schedule_call_at"]


def test_simulator_public_names_are_pinned():
    public = sorted(name for name in vars(Simulator) if not name.startswith("_"))
    assert public == [
        "add_before_event",
        "clear",
        "events_processed",
        "events_scheduled",
        "now",
        "pending",
        "remove_before_event",
        "run",
        "schedule",
        "schedule_at",
        "schedule_call_at",
        "stop",
    ]


def test_sim_exports_no_event_kind():
    # Events carry no kind tag: no ``*Kind`` enum is defined or exported.
    assert [name for name in vars(repro.sim) if name.endswith("Kind")] == []
