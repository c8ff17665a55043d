"""Golden lock-down of the election core, plus summed external counters.

1. **Goldens** -- every scenario of the differential harness
   (``tests/harness/differential.py``) is asserted bit-identical to its
   recorded fingerprint (first recorded at commit 19a8dd0, re-recorded by the
   migrations listed in the harness): all four baseline leader elections,
   all three synchronizers, the ABE election with drifting clocks / FIFO /
   tracing / a constant schedule / the no-purge ablation / fault injection,
   and reduced E2/E3 experiment runs.  Distributional correctness of the
   activation rule is checked separately by
   ``tests/oracles/test_activation_parity.py``.
2. **Unit regressions** for the summed external counters the election
   status publishes.
"""

from __future__ import annotations

import pytest

from harness.differential import SCENARIOS, assert_matches_golden

from repro.sim.monitor import MetricsCollector


class TestGoldens:
    """Every harness scenario must match its recorded golden, bit for bit."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_matches_pre_refactor_golden(self, name):
        assert_matches_golden(name)


class TestSummedExternalCounters:
    def test_same_source_binds_once(self):
        metrics = MetricsCollector()
        box = {"value": 0}
        source = object()
        for _ in range(5):  # every node program of a run binds the shared status
            metrics.bind_external_sum("hits", source, lambda: box["value"])
        box["value"] = 3
        assert metrics.count("hits") == 3.0

    def test_distinct_sources_sum(self):
        metrics = MetricsCollector()
        a, b = {"value": 2}, {"value": 5}
        metrics.bind_external_sum("hits", a, lambda: a["value"])
        metrics.bind_external_sum("hits", b, lambda: b["value"])
        assert metrics.count("hits") == 7.0
        assert metrics.counters()["hits"] == 7.0

    def test_zero_valued_sum_is_hidden_like_an_untouched_counter(self):
        metrics = MetricsCollector()
        box = {"value": 0}
        metrics.bind_external_sum("hits", box, lambda: box["value"])
        assert "hits" not in metrics.counters()
        assert "hits" not in metrics.summary()
        assert metrics.count("hits") == 0.0
        box["value"] = 1
        assert metrics.counters()["hits"] == 1.0

    def test_summed_names_are_read_only_through_the_collector(self):
        metrics = MetricsCollector()
        metrics.bind_external_sum("hits", self, lambda: 1)
        with pytest.raises(ValueError):
            metrics.increment("hits")

    def test_binding_styles_cannot_mix(self):
        metrics = MetricsCollector()
        metrics.bind_external("plain", lambda: 1)
        with pytest.raises(ValueError):
            metrics.bind_external_sum("plain", self, lambda: 1)
        other = MetricsCollector()
        other.bind_external_sum("summed", self, lambda: 1)
        with pytest.raises(ValueError):
            other.bind_external("summed", lambda: 1)

    def test_collector_owned_names_cannot_be_rebound(self):
        metrics = MetricsCollector()
        metrics.increment("hits")
        with pytest.raises(ValueError):
            metrics.bind_external_sum("hits", self, lambda: 1)
