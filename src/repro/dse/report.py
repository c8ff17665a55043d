"""Search outcomes: the report document, the winner table, the figure.

:class:`SearchReport` mirrors the :class:`~repro.store.service.JobReport`
export discipline: ``to_dict()`` keeps everything the search *computed*
(groups, rounds, per-point metric values, winners, baselines) in a
deterministic ``"groups"`` block, with cache statistics and timing in
separate blocks -- so a cold and a warm run of the same search produce
byte-identical ``"groups"`` (and byte-identical figures) while their
``"cache"`` blocks tell the zero-redundant-compute story.

:func:`comparison_svg` renders the flagship deliverable without any
plotting dependency: a grouped-bar SVG comparing the paper's fixed
constants (baseline) against each group's search winner.  All geometry is
formatted with fixed precision, so the file is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.report import ResultTable

__all__ = [
    "PointOutcome",
    "RoundOutcome",
    "GroupOutcome",
    "SearchReport",
    "comparison_svg",
]


def _value_dict(value: Optional[float]) -> Optional[float]:
    # Losses are +inf internally when a point never produced the metric;
    # JSON has no inf, so the exported value is null.
    if value is None or value != value or value in (float("inf"), float("-inf")):
        return None
    return value


@dataclass(frozen=True)
class PointOutcome:
    """One evaluated configuration at one budget: assignments and metric mean."""

    point: Dict[str, Any]
    label: str
    value: Optional[float]
    trials: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "point": dict(self.point),
            "label": self.label,
            "value": _value_dict(self.value),
            "trials": self.trials,
        }


@dataclass(frozen=True)
class RoundOutcome:
    """One strategy round: shared budget, outcomes in evaluation order."""

    index: int
    budget: int
    points: List[PointOutcome] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "budget": self.budget,
            "points": [outcome.to_dict() for outcome in self.points],
        }


@dataclass(frozen=True)
class GroupOutcome:
    """One group's full search: every round, the winner, the paper baseline."""

    label: str
    rounds: List[RoundOutcome]
    winner: PointOutcome
    baseline: PointOutcome

    def evaluations(self) -> int:
        """Point evaluations across all rounds (baseline excluded)."""
        return sum(len(round_.points) for round_ in self.rounds)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "rounds": [round_.to_dict() for round_ in self.rounds],
            "winner": self.winner.to_dict(),
            "baseline": self.baseline.to_dict(),
        }


@dataclass
class SearchReport:
    """Everything one ``abe-repro optimize`` run produced."""

    name: str
    title: str
    metric: str
    goal: str
    seed: int
    strategy: str
    groups: List[GroupOutcome] = field(default_factory=list)
    lookups: int = 0
    hits: int = 0
    trials_executed: int = 0
    elapsed: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        from repro.store.fingerprint import code_version

        return {
            "name": self.name,
            "title": self.title,
            "metric": self.metric,
            "goal": self.goal,
            "seed": self.seed,
            "strategy": self.strategy,
            "code_version": code_version(),
            # The deterministic block: compare two runs on ["groups"] to
            # check byte-identity of what the search concluded.
            "groups": [group.to_dict() for group in self.groups],
            "cache": {
                "lookups": self.lookups,
                "hits": self.hits,
                "misses": self.lookups - self.hits,
                "trials_executed": self.trials_executed,
            },
            "timing": {"elapsed_seconds": self.elapsed},
        }

    # ------------------------------------------------------------ winner table

    def winner_table(self) -> ResultTable:
        """Per-group winner vs the paper's constants, for
        :func:`repro.report.format_table` (``-`` where a value is missing)."""
        table = ResultTable(
            title="winners vs paper constants",
            columns=["group", "winner", self.metric, "baseline", "change"],
        )
        for group in self.groups:
            winner = _value_dict(group.winner.value)
            baseline = _value_dict(group.baseline.value)
            table.add_row(
                **{
                    "group": group.label,
                    "winner": group.winner.label,
                    self.metric: winner,
                    "baseline": baseline,
                    "change": _format_change(winner, baseline),
                }
            )
        return table


def _format_change(winner: Optional[float], baseline: Optional[float]) -> Optional[str]:
    if winner is None or baseline is None or baseline == 0:
        return None
    delta = (winner - baseline) / abs(baseline) * 100.0
    sign = "+" if delta > 0 else ""
    return f"{sign}{format(delta, '.1f')}%"


# ------------------------------------------------------------------ the figure

#: Data-viz reference palette (light mode): categorical slots 1 and 2, chart
#: chrome inks.  Baseline wears slot 1, the search winner slot 2; all text
#: wears ink tokens, never a series color.
_SURFACE = "#fcfcfb"
_SERIES_BASELINE = "#2a78d6"
_SERIES_WINNER = "#eb6834"
_INK_PRIMARY = "#0b0b0b"
_INK_SECONDARY = "#52514e"
_INK_MUTED = "#898781"
_GRIDLINE = "#e1e0d9"
_AXIS = "#c3c2b7"
_FONT = 'font-family="system-ui, -apple-system, sans-serif"'


def _fmt(number: float) -> str:
    """Fixed-precision coordinate formatting: byte-identical across runs."""
    return format(number, ".2f")


def _rounded_bar(x: float, y: float, width: float, height: float, color: str) -> str:
    """A bar anchored to the baseline with a 4px-rounded top (mark spec)."""
    if height <= 0:
        return ""
    radius = min(4.0, width / 2.0, height / 2.0)
    return (
        f'<path d="M {_fmt(x)} {_fmt(y + height)} '
        f"L {_fmt(x)} {_fmt(y + radius)} "
        f"Q {_fmt(x)} {_fmt(y)} {_fmt(x + radius)} {_fmt(y)} "
        f"L {_fmt(x + width - radius)} {_fmt(y)} "
        f"Q {_fmt(x + width)} {_fmt(y)} {_fmt(x + width)} {_fmt(y + radius)} "
        f'L {_fmt(x + width)} {_fmt(y + height)} Z" fill="{color}"/>'
    )


def _nice_ticks(top: float, count: int = 4) -> List[float]:
    """``count`` evenly spaced ticks from 0 to a rounded-up "nice" top."""
    import math

    if top <= 0:
        return [0.0, 1.0]
    raw = top / count
    exponent = math.floor(math.log10(raw))
    base = raw / 10.0 ** exponent
    step = 10.0 * 10.0 ** exponent
    for nice in (1.0, 2.0, 2.5, 5.0):
        if base <= nice:
            step = nice * 10.0 ** exponent
            break
    return [step * index for index in range(count + 1)]


def comparison_svg(report: SearchReport, width: int = 680, height: int = 380) -> str:
    """Grouped-bar SVG: paper baseline vs search winner, one pair per group."""
    margin_left, margin_right, margin_top, margin_bottom = 64.0, 20.0, 64.0, 56.0
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom
    groups = report.groups
    values: List[float] = []
    for group in groups:
        for outcome in (group.baseline, group.winner):
            value = _value_dict(outcome.value)
            if value is not None:
                values.append(value)
    ticks = _nice_ticks(max(values) if values else 1.0)
    top = ticks[-1]

    def y_of(value: float) -> float:
        return margin_top + plot_h * (1.0 - value / top)

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="{report.metric} per group: baseline vs search winner">',
        f'<rect width="{width}" height="{height}" fill="{_SURFACE}"/>',
        f'<text x="{_fmt(margin_left)}" y="24" {_FONT} font-size="15" '
        f'font-weight="600" fill="{_INK_PRIMARY}">'
        f"{report.title or report.name}</text>",
        f'<text x="{_fmt(margin_left)}" y="42" {_FONT} font-size="12" '
        f'fill="{_INK_SECONDARY}">mean {report.metric} -- paper constants vs '
        f"search winner ({report.strategy})</text>",
    ]
    # Gridlines + y-axis tick labels (hairline grid, muted ink).
    for tick in ticks:
        y = y_of(tick)
        parts.append(
            f'<line x1="{_fmt(margin_left)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(margin_left + plot_w)}" y2="{_fmt(y)}" '
            f'stroke="{_GRIDLINE}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(margin_left - 8)}" y="{_fmt(y + 4)}" {_FONT} '
            f'font-size="11" text-anchor="end" fill="{_INK_MUTED}">'
            f"{format(tick, '.6g')}</text>"
        )
    # Bars: one baseline/winner pair per group, 2px surface gap inside a pair.
    slot = plot_w / max(len(groups), 1)
    bar_w = min(44.0, slot / 3.0)
    for index, group in enumerate(groups):
        center = margin_left + slot * (index + 0.5)
        for offset, outcome, color in (
            (-bar_w - 1.0, group.baseline, _SERIES_BASELINE),
            (1.0, group.winner, _SERIES_WINNER),
        ):
            value = _value_dict(outcome.value)
            x = center + offset
            if value is None:
                parts.append(
                    f'<text x="{_fmt(x + bar_w / 2)}" y="{_fmt(y_of(0) - 6)}" {_FONT} '
                    f'font-size="10" text-anchor="middle" fill="{_INK_MUTED}">n/a</text>'
                )
                continue
            y = y_of(value)
            parts.append(_rounded_bar(x, y, bar_w, y_of(0) - y, color))
            parts.append(
                f'<text x="{_fmt(x + bar_w / 2)}" y="{_fmt(y - 6)}" {_FONT} '
                f'font-size="10" text-anchor="middle" fill="{_INK_SECONDARY}">'
                f"{format(value, '.6g')}</text>"
            )
        parts.append(
            f'<text x="{_fmt(center)}" y="{_fmt(margin_top + plot_h + 18)}" {_FONT} '
            f'font-size="11" text-anchor="middle" fill="{_INK_SECONDARY}">'
            f"{group.label}</text>"
        )
    # Axis baseline.
    parts.append(
        f'<line x1="{_fmt(margin_left)}" y1="{_fmt(y_of(0))}" '
        f'x2="{_fmt(margin_left + plot_w)}" y2="{_fmt(y_of(0))}" '
        f'stroke="{_AXIS}" stroke-width="1"/>'
    )
    # Legend (two series: always present, text in ink).
    legend_x = width - margin_right - 200.0
    for offset, label, color in (
        (0.0, "paper constants", _SERIES_BASELINE),
        (110.0, "search winner", _SERIES_WINNER),
    ):
        parts.append(
            f'<rect x="{_fmt(legend_x + offset)}" y="16" width="10" height="10" '
            f'rx="2" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(legend_x + offset + 15)}" y="25" {_FONT} '
            f'font-size="11" fill="{_INK_SECONDARY}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(part for part in parts if part) + "\n"
