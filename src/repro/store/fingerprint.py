"""Content-addressable keys: specs, callables, studies, and the code itself.

A cached trial result is only reusable if its key pins down everything that
could change the result.  Three components do that here:

* :func:`spec_fingerprint` / :func:`callable_fingerprint` -- *what* ran
  (the workload), canonicalized so the same workload hashes identically in
  every process and distinct workloads never collide;
* the trial seed -- *which* random draw (carried alongside the key, not
  inside it);
* :func:`code_version` -- *which code* ran it.  Stored separately from the
  key so a store can report "I have this result, but from different code"
  instead of silently missing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import re
from typing import Any, Optional

__all__ = [
    "callable_fingerprint",
    "code_version",
    "spec_fingerprint",
    "study_fingerprint",
]

#: CPython's default object repr (and everything built on it) embeds the
#: instance address: ``<Foo object at 0x7f3a2c04d8e0>``.  Such a repr is
#: different in every process, so a key built from it can never hit on
#: resume -- and worse, it *looks* like a valid stable key.
_ADDRESS_REPR = re.compile(r" at 0x[0-9a-fA-F]+")


class _NotCanonical(Exception):
    """A value has no process-independent canonical form."""


def _canonical_default(value: Any) -> Any:
    """``json.dumps`` fallback for live runtime objects inside a spec.

    Dataclasses are expanded field by field from ``dataclasses.fields`` --
    *not* via ``repr`` -- so a field declared ``repr=False`` still
    distinguishes two otherwise-identical specs (a repr-based key would alias
    them to one entry and serve wrong cache hits).  Everything else falls
    back to ``repr``, but a repr carrying a memory address is refused: it
    would produce a different key every process, so the caller skips
    journaling instead of caching under a useless (or colliding) key.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            "__dataclass__": f"{cls.__module__}:{cls.__qualname__}",
            "fields": {f.name: getattr(value, f.name) for f in dataclasses.fields(value)},
        }
    text = repr(value)
    if _ADDRESS_REPR.search(text):
        raise _NotCanonical(text)
    return text


def spec_fingerprint(spec: Any) -> Optional[str]:
    """Content-addressable key of a :class:`~repro.scenarios.spec.ScenarioSpec`.

    The SHA-256 of the spec's canonical JSON form minus the three fields that
    cannot change per-seed results: ``workers`` (execution is bit-identical
    for any worker count), ``stopping`` (adaptive rules choose *which*
    derived seeds run, never what any seed produces) and ``trials`` (the
    count only determines how many derived seeds run; trial ``i``'s result
    is the same whether the spec asks for 2 trials or 200).  Resuming a
    checkpointed study with a different worker count or stopping rule
    therefore still hits the journal -- and growing a spec's trial budget
    re-executes only the new seeds, which is what lets the DSE successive-
    halving rungs (:mod:`repro.dse`) promote a configuration to a larger
    budget incrementally instead of from scratch.

    Overrides may carry live runtime objects (e.g. a delay-model instance);
    :func:`_canonical_default` keeps the fingerprint total for dataclasses
    (field-by-field, immune to ``repr=False`` aliasing) and for objects with
    stable reprs (the delay models print as ``ExponentialDelay(mean=1.0)``).
    Returns ``None`` -- journaling is skipped, never wrong -- when any value
    only has an address-bearing repr, which would yield a different key every
    process.
    """
    data = spec.to_dict()
    data.pop("workers", None)
    data.pop("stopping", None)
    data.pop("trials", None)
    try:
        canonical = json.dumps(
            data, sort_keys=True, separators=(",", ":"), default=_canonical_default
        )
    except _NotCanonical:
        return None
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def study_fingerprint(study: Any) -> Optional[str]:
    """Content-addressable key of a :class:`~repro.scenarios.spec.StudySpec`.

    Built from the metric and the ordered per-point ``(spec_fingerprint,
    trials)`` pairs (the name/title are presentation, not workload).  Trials
    re-enter here even though :func:`spec_fingerprint` drops them: two
    studies asking for different budgets of the same points are different
    *studies* (their aggregates differ) even though their per-seed store
    rows coincide.  ``None`` if any point refuses a key.
    """
    keys = [spec_fingerprint(point) for point in study.points]
    if any(key is None for key in keys):
        return None
    blob = json.dumps(
        {
            "metric": study.metric,
            "points": [[key, point.trials] for key, point in zip(keys, study.points)],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def callable_fingerprint(run_one: Any, base_seed: int, label: str) -> Optional[str]:
    """Journal key for a raw trial callable (no declarative spec available).

    Hashes the pickled callable (configuration travels inside it -- e.g.
    :class:`~repro.scenarios.algorithms.ElectionScenarioTrial` carries ring
    size, ``a0`` and the delay model) together with the seed family.  Returns
    ``None`` -- journaling is skipped, never wrong -- when the callable does
    not pickle (fork-only closures).
    """
    try:
        blob = pickle.dumps(run_one, protocol=4)
    except Exception:
        return None
    digest = hashlib.sha256(blob)
    digest.update(repr((base_seed, label)).encode("utf-8"))
    return digest.hexdigest()


#: Cached per process: the goldens cannot change under a running study.
_CODE_VERSION: Optional[str] = None


def _goldens_digest() -> Optional[str]:
    """Content hash of the recorded behaviour goldens, or ``None`` outside a
    source checkout (installed package without the test harness)."""
    here = os.path.dirname(os.path.abspath(__file__))
    for _ in range(6):
        here = os.path.dirname(here)
        candidate = os.path.join(here, "tests", "harness", "goldens")
        if os.path.isdir(candidate):
            digest = hashlib.sha256()
            for name in sorted(os.listdir(candidate)):
                path = os.path.join(candidate, name)
                if not os.path.isfile(path):
                    continue
                digest.update(name.encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
            return digest.hexdigest()[:12]
    return None


def code_version() -> str:
    """The version stamp stored with every cached result.

    ``repro.__version__`` plus a content hash of the recorded behaviour
    goldens (``tests/harness/goldens``): the goldens are this repo's
    definition of "same observable behaviour", so a golden re-record --
    which by policy accompanies any intentional behaviour change -- bumps
    the stamp even when the version string was not touched.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        from repro import __version__  # deferred: repro imports nothing from here

        goldens = _goldens_digest()
        _CODE_VERSION = f"{__version__}+g{goldens}" if goldens else __version__
    return _CODE_VERSION
