"""Tests of the public API surface: exports, docstrings, version metadata.

These guard the package boundary a downstream user sees: everything advertised
in ``__all__`` must be importable, carry a docstring, and the top-level
quickstart of the README must keep working verbatim.
"""

from __future__ import annotations

import importlib

import pytest

import repro


PUBLIC_MODULES = [
    "repro",
    "repro.sim",
    "repro.network",
    "repro.models",
    "repro.core",
    "repro.algorithms",
    "repro.algorithms.leader_election",
    "repro.synchronizers",
    "repro.stats",
    "repro.experiments",
    "repro.report",
    "repro.cli",
]


class TestExports:
    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_imports_and_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} has no module docstring"

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", [])
        for name in exported:
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"

    def test_version_is_semver_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_public_classes_have_docstrings(self):
        from repro import (
            ABDModel,
            ABEModel,
            AbeElectionProgram,
            AdaptiveActivation,
            ElectionResult,
            Network,
            NetworkConfig,
        )

        for obj in (
            ABDModel,
            ABEModel,
            AbeElectionProgram,
            AdaptiveActivation,
            ElectionResult,
            Network,
            NetworkConfig,
        ):
            assert obj.__doc__, f"{obj.__name__} has no docstring"


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        from repro import recommended_a0, run_election

        n = 16
        result = run_election(n, a0=recommended_a0(n), seed=7)
        assert result.elected is True
        assert 0 <= result.leader_uid < n
        assert result.messages_total > 0
        assert result.election_time > 0

    def test_docstring_quickstart_in_package(self):
        assert "run_election" in repro.__doc__

    def test_election_result_repr_fields(self):
        from repro import run_election

        result = run_election(8, a0=0.05, seed=1)
        for field_name in (
            "n",
            "elected",
            "leader_uid",
            "messages_total",
            "activations",
            "knockout_messages",
            "ticks",
            "seed",
            "a0",
        ):
            assert hasattr(result, field_name)
