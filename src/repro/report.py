"""Results and their rendering: tables, point summaries, scaling verdicts, CSV.

Every report the package prints or exports starts from trial results and
goes through this module:

* :class:`ResultTable` and :class:`ExperimentResult` hold an experiment's
  tables and findings; :func:`format_table` pads every printed table
  (experiments, scenarios, served jobs, DSE winners) and
  :func:`render_experiment` prints one experiment.
* :func:`result_row` turns one trial result into a field dict, and
  :func:`point_summary` aggregates one point's results: exact-float
  mean/min/max per numeric field and true-counts for booleans.  ``serve``
  exports that summary, the DSE optimizer scores it and ``abe-repro
  scenario`` prints it as "aggregates over all trials".
* :func:`study_scaling_fits` states every scaling verdict: the weighted
  log-log slope of a ring study's mean cost with its 95% CI
  (:func:`~repro.stats.complexity_fit.loglog_slope`), for ring studies and
  for experiments E1, E2 and E6 alike.
* :func:`write_store_csv` exports a result store as one CSV row per trial.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # the scenario and store layers import this module
    from repro.scenarios.spec import ScenarioSpec, StudySpec
    from repro.stats.complexity_fit import ScalingSlope
    from repro.store.result_store import ResultStore

__all__ = [
    "ResultTable",
    "ExperimentResult",
    "format_cell",
    "format_table",
    "render_experiment",
    "result_row",
    "point_summary",
    "scenario_table",
    "render_scenario",
    "study_scaling_fits",
    "format_slope",
    "slope_findings",
    "render_study_scaling",
    "store_rows",
    "write_store_csv",
]


# ------------------------------------------------------------------ tables


@dataclass
class ResultTable:
    """An ordered table of result rows with a fixed column order."""

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
    """The complete outcome of one experiment run: its identity, the paper
    claim it checks, its tables, and the findings the tests assert on."""

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


def format_cell(value: Any) -> str:
    """Render one cell: floats get 4 significant digits, booleans yes/no."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 10_000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    if value is None:
        return "-"
    return str(value)


def format_table(table: ResultTable) -> str:
    """Fixed-width rendering of a :class:`ResultTable`."""
    header = list(table.columns)
    body: List[List[str]] = [
        [format_cell(row.get(column)) for column in header] for row in table.rows
    ]
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    lines = [table.title, "-" * len(table.title)]
    lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for line in body:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(header))))
    for note in table.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def render_experiment(result: ExperimentResult) -> str:
    """Full plain-text report of one experiment (claim, tables, findings)."""
    lines = [
        f"== {result.experiment_id.upper()}: {result.title} ==",
        f"claim: {result.claim}",
        "",
    ]
    for table in result.tables:
        lines.append(format_table(table))
        lines.append("")
    if result.findings:
        lines.append("findings:")
        for key in sorted(result.findings):
            lines.append(f"  {key}: {format_cell(result.findings[key])}")
    if result.parameters:
        lines.append("parameters:")
        for key in sorted(result.parameters):
            lines.append(f"  {key}: {format_cell(result.parameters[key])}")
    return "\n".join(lines)


# --------------------------------------------------------- point summaries


#: Field values ``dataclasses.asdict`` would return as they are.
_ATOMIC = frozenset({int, float, str, bool, type(None)})


def result_row(result: Any) -> Dict[str, Any]:
    """One trial result as a flat field dict.

    A dataclass gives its fields (nested dataclasses as dicts, as
    ``dataclasses.asdict`` makes them), a dict a copy; anything else is
    kept whole under ``result``.
    """
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        row = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
        # asdict deep-copies every value; scalars come back unchanged.
        if all(type(value) in _ATOMIC for value in row.values()):
            return row
        return dataclasses.asdict(result)
    if isinstance(result, dict):
        return dict(result)
    return {"result": result}


def _each_result(results: Sequence[Any]) -> List[Any]:
    """One point's results, with one-shot batteries' row lists spliced in."""
    flat: List[Any] = []
    for result in results:
        if isinstance(result, list):
            flat.extend(result)
        else:
            flat.append(result)
    return flat


#: Identifier-like fields left out of summaries: a mean over derived 64-bit
#: seeds or anonymous node uids is noise, not a metric.
_IDENTIFIER_COLUMNS = frozenset({"seed", "leader_uid", "node_uid", "uid"})


def point_summary(results: Sequence[Any]) -> Dict[str, Any]:
    """Deterministic aggregates of one point's results.

    ``{"trials", "failures", "metrics"}``: ``metrics`` maps each numeric
    field of the first result to its exact-float mean/min/max over every
    successful trial, and each boolean field to its true-count.  A pure
    function of the (bit-identical) trial results, so a re-served study
    exports byte-equal summaries.
    """
    from repro.experiments.resilience import TrialFailure  # late: experiments import us

    flat = _each_result(results)
    rows = [result_row(result) for result in flat if not isinstance(result, TrialFailure)]
    metrics: Dict[str, Any] = {}
    if rows:
        for key in rows[0]:
            if key in _IDENTIFIER_COLUMNS:
                continue
            values = [row.get(key) for row in rows]
            numeric = [
                float(v)
                for v in values
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            ]
            if len(numeric) == len(values) and numeric:
                metrics[key] = {
                    "mean": sum(numeric) / len(numeric),
                    "min": min(numeric),
                    "max": max(numeric),
                }
            elif all(isinstance(v, bool) for v in values):
                metrics[key] = {"true": sum(values), "total": len(values)}
    return {"trials": len(flat), "failures": len(flat) - len(rows), "metrics": metrics}


# -------------------------------------------------------- scenario reports

#: Cap on per-trial rows printed; the aggregates always cover every trial.
MAX_ROWS = 20


def scenario_table(spec: "ScenarioSpec", results: Sequence[Any]) -> ResultTable:
    """Per-trial rows of one scenario run as a :class:`ResultTable`."""
    rows = [result_row(result) for result in _each_result(results)]
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    table = ResultTable(
        title=f"scenario: {spec.algorithm} on {spec.topology.kind}", columns=columns
    )
    for row in rows[:MAX_ROWS]:
        table.add_row(**row)
    if len(rows) > MAX_ROWS:
        table.add_note(f"{len(rows) - MAX_ROWS} further row(s) omitted")
    return table


def render_scenario(spec: "ScenarioSpec", results: Sequence[Any]) -> str:
    """Full plain-text report of one scenario run: its trials, then the
    :func:`point_summary` of two or more successful trials."""
    lines = [
        f"== scenario: {spec.algorithm} ==",
        f"topology : {spec.topology.kind} {spec.topology.params or ''}".rstrip(),
        f"trials   : {len(results)} (seed {spec.seed})",
        "",
        format_table(scenario_table(spec, results)),
    ]
    summary = point_summary(results)
    if summary["trials"] - summary["failures"] >= 2 and summary["metrics"]:
        lines += ["", "aggregates over all trials:"]
        for key, stats in summary["metrics"].items():
            if "mean" in stats:
                lines.append(
                    f"  {key}: mean={format_cell(stats['mean'])} "
                    f"min={format_cell(stats['min'])} max={format_cell(stats['max'])}"
                )
            else:
                lines.append(f"  {key}: {stats['true']}/{stats['total']} true")
    return "\n".join(lines)


# --------------------------------------------------------- scaling verdicts

#: Metrics a ring-size study fits scaling slopes for (result attribute ->
#: whether only elected trials contribute).
_SCALING_METRICS = (("election_time", True), ("messages_total", False))


def study_scaling_fits(
    study: "StudySpec", per_point: Sequence[Sequence[Any]]
) -> Optional[Dict[str, Any]]:
    """Fitted log-log slopes for a ring study sweeping >= 2 distinct sizes.

    Returns ``{"sizes": [...], "fits": {metric: slope}}`` where each
    ``slope`` is the :class:`~repro.stats.complexity_fit.ScalingSlope` of
    :func:`~repro.stats.complexity_fit.loglog_slope` over every trial's
    value, or ``None`` when the study is not a ring-size scaling sweep
    (non-ring points, a single size, or fewer than two values of a metric
    at some size -- for election time, two completed elections) or when a
    value is not positive (a budget that ends trials before any message),
    which has no logarithm.
    """
    from repro.stats.complexity_fit import loglog_slope

    sizes: List[int] = []
    samples: Dict[str, List[List[float]]] = {metric: [] for metric, _ in _SCALING_METRICS}
    for point, results in zip(study.points, per_point):
        node = point.topology
        if node.kind != "uniring" or "n" not in node.params:
            return None
        for metric, elected_only in _SCALING_METRICS:
            values = [
                float(getattr(result, metric))
                for result in results
                if getattr(result, metric, None) is not None
                and (not elected_only or getattr(result, "elected", False))
            ]
            if len(values) < 2 or min(values) <= 0:
                return None
            samples[metric].append(values)
        sizes.append(int(node.params["n"]))
    if len(set(sizes)) < 2:
        return None
    return {
        "sizes": sizes,
        "fits": {
            metric: loglog_slope(sizes, samples[metric]) for metric, _ in _SCALING_METRICS
        },
    }


def format_slope(metric: str, fit: "ScalingSlope", sizes: Sequence[int]) -> str:
    """One scaling verdict: ``metric: log-log slope S (95% CI L to H) over n = a..b``."""
    return (
        f"{metric}: log-log slope {fit.slope:.2f} (95% CI "
        f"{fit.low:.2f} to {fit.high:.2f}) over n = {min(sizes)}..{max(sizes)}"
    )


def slope_findings(prefix: str, fit: Optional["ScalingSlope"]) -> Dict[str, Any]:
    """One scaling verdict as experiment findings: ``<prefix>_slope``, its
    95% CI ends and whether that interval holds 1 (linear growth), all
    ``None`` without a fit (one size, or fewer than two trials per size)."""
    names = ("slope", "slope_ci_low", "slope_ci_high", "slope_ci_holds_1")
    values = (
        (None,) * 4 if fit is None else (fit.slope, fit.low, fit.high, fit.low <= 1.0 <= fit.high)
    )
    return {f"{prefix}_{name}": value for name, value in zip(names, values)}


def render_study_scaling(
    study: "StudySpec", per_point: Sequence[Sequence[Any]]
) -> Optional[str]:
    """Plain-text scaling-law block for a ring-size study, or ``None``."""
    fitted = study_scaling_fits(study, per_point)
    if fitted is None:
        return None
    sizes = fitted["sizes"]
    lines = [f"== fitted scaling laws ({len(sizes)} sizes) =="]
    for metric, fit in fitted["fits"].items():
        lines.append(f"  {format_slope(metric, fit, sizes)}")
    return "\n".join(lines)


# -------------------------------------------------------------- CSV export

_IDENTITY_COLUMNS = ("key", "seed", "version", "created_at")


def _csv_cell(value: Any) -> Any:
    if value is None or isinstance(value, (int, float, str, bool)):
        return value
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def store_rows(
    store: "ResultStore", all_versions: bool = False
) -> Tuple[List[str], List[List[Any]]]:
    """``(header, rows)`` of a result store's columnar form.

    Four identity columns (``key``, ``seed``, ``version``, ``created_at``)
    followed by the sorted union of every trial's :func:`result_row`
    fields; structured values (nested dicts, lists, battery rows) are
    JSON-encoded in place.  Rows follow
    :meth:`~repro.store.result_store.ResultStore.iter_rows` (key, seed,
    version), so the same store always exports byte-identically.
    """
    flattened: List[Tuple[Tuple[str, int, str, float], Dict[str, Any]]] = [
        ((key, seed, version, created_at), result_row(result))
        for key, seed, version, created_at, result in store.iter_rows(all_versions)
    ]
    # Payload fields shadowed by an identity column (a result's own ``seed``
    # always equals the store key's) would duplicate the header; drop them.
    fields = sorted(
        {name for _, data in flattened for name in data} - set(_IDENTITY_COLUMNS)
    )
    header = list(_IDENTITY_COLUMNS) + fields
    rows = [
        list(identity) + [_csv_cell(data.get(name)) for name in fields]
        for identity, data in flattened
    ]
    return header, rows


def write_store_csv(store: "ResultStore", path: str, all_versions: bool = False) -> int:
    """Write the store as CSV to ``path`` (``-`` for stdout), as ``abe-repro
    export-store --csv`` does; returns the data-row count.

    Every row is read before ``path`` is opened, so a store that fails a
    read leaves an existing file as it was.
    """
    header, rows = store_rows(store, all_versions)
    with (
        contextlib.nullcontext(sys.stdout)
        if path == "-"
        else open(path, "w", encoding="utf-8", newline="")
    ) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return len(rows)
