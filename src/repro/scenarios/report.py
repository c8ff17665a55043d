"""Plain-text rendering of scenario runs (the ``abe-repro scenario`` output).

Scenario results are heterogeneous (election results, wave results, battery
rows, measurement tuples), so the renderer is generic: dataclass results
become per-trial table rows plus aggregate statistics over their numeric
fields; battery rows (lists of dicts) render as one table; anything else
falls back to ``repr``.  The fixed-width layout is shared with the
experiment reports (:mod:`repro.experiments.reporting`).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.reporting import format_cell, format_table
from repro.experiments.results import ResultTable
from repro.scenarios.spec import ScenarioSpec, StudySpec

__all__ = [
    "scenario_table",
    "render_scenario",
    "study_scaling_fits",
    "render_study_scaling",
]

#: Cap on per-trial rows printed; aggregates always cover every trial.
MAX_ROWS = 20


def _result_rows(results: Sequence[Any]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for result in results:
        if dataclasses.is_dataclass(result) and not isinstance(result, type):
            rows.append(dataclasses.asdict(result))
        elif isinstance(result, dict):
            rows.append(dict(result))
        elif isinstance(result, (list, tuple)):
            rows.append({f"value_{i}": value for i, value in enumerate(result)})
        else:
            rows.append({"result": repr(result)})
    return rows


def scenario_table(spec: ScenarioSpec, results: Sequence[Any]) -> ResultTable:
    """Per-trial rows of one scenario run as a :class:`ResultTable`."""
    flat: List[Any] = []
    for result in results:
        # One-shot batteries return a list of rows per evaluation.
        if isinstance(result, list):
            flat.extend(result)
        else:
            flat.append(result)
    rows = _result_rows(flat)
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


#: Identifier-like columns excluded from the aggregate statistics -- a mean
#: over derived 64-bit seeds or anonymous node uids is noise, not a metric.
_IDENTIFIER_COLUMNS = frozenset({"seed", "leader_uid", "node_uid", "uid"})


def _aggregates(rows: List[Dict[str, Any]]) -> List[str]:
    lines: List[str] = []
    if len(rows) < 2:
        return lines
    for key in rows[0]:
        if key in _IDENTIFIER_COLUMNS:
            continue
        values = [row.get(key) for row in rows]
        numeric = [float(v) for v in values if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if len(numeric) == len(values) and numeric:
            mean = sum(numeric) / len(numeric)
            lines.append(
                f"  {key}: mean={format_cell(mean)} "
                f"min={format_cell(min(numeric))} max={format_cell(max(numeric))}"
            )
        elif all(isinstance(v, bool) for v in values):
            lines.append(f"  {key}: {sum(values)}/{len(values)} true")
    return lines


#: Metrics a ring-size study fits scaling slopes for (result attribute ->
#: whether only elected trials contribute).
_SCALING_METRICS = (("election_time", True), ("messages_total", False))


def study_scaling_fits(
    study: StudySpec, per_point: Sequence[Sequence[Any]]
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


def render_study_scaling(
    study: StudySpec, per_point: Sequence[Sequence[Any]]
) -> Optional[str]:
    """Plain-text scaling-law block for a ring-size study, or ``None``."""
    fitted = study_scaling_fits(study, per_point)
    if fitted is None:
        return None
    sizes = fitted["sizes"]
    lines = [f"== fitted scaling laws ({len(sizes)} sizes) =="]
    for metric, fit in fitted["fits"].items():
        lines.append(
            f"  {metric}: log-log slope {fit.slope:.2f} (95% CI "
            f"{fit.low:.2f} to {fit.high:.2f}) over n = {min(sizes)}..{max(sizes)}"
        )
    return "\n".join(lines)


def render_scenario(spec: ScenarioSpec, results: Sequence[Any]) -> str:
    """Full plain-text report of one scenario run."""
    lines = [
        f"== scenario: {spec.algorithm} ==",
        f"topology : {spec.topology.kind} {spec.topology.params or ''}".rstrip(),
        f"trials   : {len(results)} (seed {spec.seed})",
        "",
    ]
    table = scenario_table(spec, results)
    lines.append(format_table(table))
    rows = _result_rows(
        [row for result in results for row in (result if isinstance(result, list) else [result])]
    )
    aggregates = _aggregates(rows)
    if aggregates:
        lines.append("")
        lines.append("aggregates over all trials:")
        lines.extend(aggregates)
    return "\n".join(lines)
