"""Tests of the package's public surface."""

import importlib

import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module", [
        "repro.autodiff", "repro.graph", "repro.regions", "repro.trips",
        "repro.histograms", "repro.core", "repro.baselines",
        "repro.metrics", "repro.experiments", "repro.persistence",
        "repro.forecast", "repro.viz", "repro.cli",
    ])
    def test_subpackage_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} lacks a module docstring"
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_no_accidental_float32_default(self):
        import numpy as np

        from repro import AdvancedFramework, BasicFramework, FCBaseline
        rng = np.random.default_rng(0)
        w = rng.uniform(0.1, 1.0, size=(4, 4))
        models = [
            BasicFramework(4, 4, 3, rng, rank=2, encoder_dim=4,
                           hidden_dim=5),
            AdvancedFramework((w + w.T) / 2, (w + w.T) / 2, 3, rng,
                              rank=2, rnn_hidden=4),
            FCBaseline(4, 4, 3, rng, encoder_dim=4, hidden_dim=5)]
        for model in models:
            assert model.dtype == np.float64
            assert all(p.data.dtype == np.float64
                       for p in model.parameters())

    def test_quickstart_snippet_objects_exist(self):
        """The README quickstart names must exist with the documented
        signatures."""
        from repro import full_roster, prepare, run_comparison, toy_dataset
        assert callable(prepare) and callable(run_comparison)
        assert callable(full_roster) and callable(toy_dataset)
