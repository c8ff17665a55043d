"""Result containers for experiments.

A :class:`ResultTable` is a light-weight, ordered table of rows (dicts) with a
fixed column order -- the in-memory form of the tables the experiment
report and the benchmarks print.  An :class:`ExperimentResult` bundles one
or more tables with the experiment's identity, the paper claim it checks, and
a dictionary of boolean/numeric *findings* that the tests assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["ResultTable", "ExperimentResult"]


@dataclass
class ResultTable:
    """An ordered table of result rows."""

    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        """Append a row; keys not in ``columns`` are rejected to catch typos."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ValueError(f"unknown column(s) {sorted(unknown)}; table has {self.columns}")
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        """Attach a free-form note rendered under the table."""
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order (missing cells become ``None``)."""
        if name not in self.columns:
            raise KeyError(f"no column {name!r} in table {self.title!r}")
        return [row.get(name) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


@dataclass
class ExperimentResult:
    """The complete outcome of one experiment run."""

    experiment_id: str
    title: str
    claim: str
    tables: List[ResultTable] = field(default_factory=list)
    findings: Dict[str, Any] = field(default_factory=dict)
    parameters: Dict[str, Any] = field(default_factory=dict)

    def table(self, title: Optional[str] = None) -> ResultTable:
        """The first table (or the one with a matching title)."""
        if not self.tables:
            raise ValueError(f"experiment {self.experiment_id} produced no tables")
        if title is None:
            return self.tables[0]
        for table in self.tables:
            if table.title == title:
                return table
        raise KeyError(f"no table titled {title!r} in experiment {self.experiment_id}")

    def finding(self, key: str) -> Any:
        """A single named finding (raises ``KeyError`` when absent)."""
        return self.findings[key]
