"""One-way migration of JSONL checkpoint journals into a sqlite store.

``--checkpoint`` once wrote append-only JSONL journals; it now opens a
:class:`~repro.store.result_store.ResultStore` only, and refuses a journal
path with a message pointing here.  This converter (``abe-repro migrate``) is
the documented path for old journals; it is deprecated and will be removed in
a later release.

PR 6 journals predate the code-version stamp, so their lines carry no
``version`` field.  Migration preserves what is actually known: version-less
lines are stored under the stamp ``"unversioned"`` by default -- visible,
never silently served -- and can be *promoted* to an explicit stamp via
``assume_version`` when the operator knows which code produced them (e.g.
``assume_version=code_version()`` right after an upgrade that changed no
behaviour).  Payloads are copied byte-for-byte (no decode/re-encode round
trip), so aggregates resumed from the migrated store match the journal
exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from repro.store.result_store import ResultStore

__all__ = ["MigrationReport", "migrate_journal"]


@dataclass
class MigrationReport:
    """What a :func:`migrate_journal` pass did."""

    source: str
    migrated: int = 0
    duplicates: int = 0
    skipped_lines: int = 0

    def summary(self) -> str:
        return (
            f"{self.source}: migrated {self.migrated} result(s)"
            f" ({self.duplicates} already present, {self.skipped_lines} unparsable line(s))"
        )


def migrate_journal(
    journal_path: Any, store: ResultStore, assume_version: Optional[str] = None
) -> MigrationReport:
    """Copy every parsable line of a JSONL journal into ``store``.

    Lines carrying their own ``version`` keep it; version-less (PR 6) lines
    are stamped ``assume_version`` or ``"unversioned"``.  Torn or foreign
    lines are skipped individually, duplicates (already-present
    ``(key, seed, version)`` rows) are counted but not overwritten.
    """
    report = MigrationReport(source=str(journal_path))
    fallback = assume_version if assume_version is not None else "unversioned"
    with open(str(journal_path), "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                key = str(record["key"])
                seed = int(record["seed"])
                payload = record["result"]
            except (ValueError, KeyError, TypeError):
                report.skipped_lines += 1
                continue
            version = str(record.get("version") or fallback)
            if store.record_payload(key, seed, payload, version):
                report.migrated += 1
            else:
                report.duplicates += 1
    return report
