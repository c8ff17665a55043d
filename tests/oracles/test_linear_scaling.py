"""Linear average cost: the election's growth rejects n log n, not only n².

Paper claim (Sections 1 and 3): on anonymous unidirectional ABE rings of
known size the election has *average linear* message and time complexity,
below the Omega(n log n) messages any asynchronous ring election needs.

Each run elects ``TRIALS`` times at each of seven ring sizes, n = 125 to
8000 in doublings, on the vector core with ``recommended_a0(n)``, and fits
the weighted log-log slope of the mean cost with its 95% CI
(:func:`repro.report.study_scaling_fits`, the estimate every ring study and
experiments E1, E2 and E6 report).  For messages and for election time the
interval must hold 1, and its upper end must lie below the log-log slope
that ``n log n`` itself shows over the same sizes (about 1.148): the data
then rule out ``n log n`` growth, not just ``n²``.  Sizes, trials, seeds and
the bound were fixed before the first run; a run outside the band is a
finding, not a reason to re-seed or widen it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.workloads import election_spec
from repro.report import study_scaling_fits
from repro.scenarios import StudySpec, run_study

SIZES = (125, 250, 500, 1000, 2000, 4000, 8000)
TRIALS = 100
BASE_SEEDS = (1, 2, 3)
METRICS = ("messages_total", "election_time")


def nlogn_slope(sizes=SIZES) -> float:
    """The least-squares slope of log(n log n) on log n over ``sizes``."""
    x = np.log(np.asarray(sizes, dtype=float))
    return float(np.polyfit(x, x + np.log(x), 1)[0])


def test_nlogn_slope_over_the_sizes():
    assert nlogn_slope() == pytest.approx(1.148, abs=5e-4)
    # log n grows ever slower, so the bound tightens toward 1 as n grows.
    assert 1.0 < nlogn_slope(SIZES[3:]) < nlogn_slope()


@pytest.mark.parametrize("base_seed", BASE_SEEDS)
def test_mean_cost_grows_linearly(base_seed):
    study = StudySpec(
        name="linear-scaling-oracle",
        points=tuple(election_spec(n, TRIALS, base_seed, core="vector") for n in SIZES),
    )
    per_point = run_study(study)
    assert all(result.elected for results in per_point for result in results)
    fitted = study_scaling_fits(study, per_point)
    assert fitted is not None and fitted["sizes"] == list(SIZES)
    bound = nlogn_slope()
    for metric in METRICS:
        fit = fitted["fits"][metric]
        assert fit.low <= 1.0 <= fit.high, f"{metric}: {fit} excludes linear growth"
        assert fit.high < bound, f"{metric}: {fit} does not rule out n log n ({bound:.3f})"
