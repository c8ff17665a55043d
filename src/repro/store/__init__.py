"""Persistent, fingerprint-keyed result storage.

The execution layer (:mod:`repro.experiments.parallel`) established the
contract that makes results cacheable at all: **a trial is a pure function of
its derived seed**, and a :class:`~repro.scenarios.spec.ScenarioSpec` is a
frozen, JSON-round-trippable description of the workload -- i.e. a
content-addressable key.  This package turns that contract into storage:

:mod:`repro.store.codec`
    ``encode_result`` / ``decode_result``: the exact-float JSON codec for
    trial results (dataclasses round-trip field for field), shared by every
    backend.

:mod:`repro.store.fingerprint`
    The key discipline.  ``spec_fingerprint`` canonicalizes a spec (dataclass
    overrides are hashed field by field; anything with a memory-address repr
    refuses a key instead of producing a per-process one), and
    ``code_version`` stamps every stored result with
    ``repro.__version__`` plus a content hash of the recorded behaviour
    goldens -- so results cached under different code are never silently
    mixed into aggregates.

:mod:`repro.store.result_store`
    :class:`ResultStore`: the one store backend, sqlite, keyed by
    ``(key, seed, code_version)`` with O(1) appends.  The trial executor
    (:class:`~repro.experiments.parallel.SweepPool`) serves cached trials
    from it and journals fresh ones into it; ``--checkpoint``, ``serve
    --store`` and ``optimize --store`` all open one.

:mod:`repro.store.service`
    :class:`StudyService` and the ``abe-repro serve`` job queue: spec
    submissions deduplicated by fingerprint, one warm
    :class:`~repro.experiments.parallel.SweepPool`, incremental progress and
    scenario-level JSON/table export.  See ``docs/SERVICE.md``.
"""

from repro.store.codec import decode_result, encode_result
from repro.store.fingerprint import (
    callable_fingerprint,
    code_version,
    spec_fingerprint,
    study_fingerprint,
)
from repro.store.result_store import ResultStore

__all__ = [
    "ResultStore",
    "callable_fingerprint",
    "code_version",
    "decode_result",
    "encode_result",
    "spec_fingerprint",
    "study_fingerprint",
]
