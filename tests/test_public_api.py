"""Tests of the top-level public API surface (repro.__init__)."""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro


#: The sub-packages (and the CLI module) of the public surface.
SUBMODULES = (
    "repro.channel",
    "repro.combinatorics",
    "repro.core",
    "repro.baselines",
    "repro.analysis",
    "repro.reporting",
    "repro.experiments",
    "repro.engine",
    "repro.workloads",
    "repro.sweeps",
    "repro.adversary",
    "repro.service",
    "repro.cli",
)


class TestPublicSurface:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("module_name", ("repro", *SUBMODULES))
    def test_all_names_resolve(self, module_name):
        # A name left in some __all__ after its definition is deleted breaks
        # `from <module> import *`; check every module of the surface.
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_scenario_classes_exported(self):
        assert repro.WakeupWithS.name == "wakeup-with-s"
        assert repro.WakeupWithK.name == "wakeup-with-k"
        assert repro.WakeupProtocol.name == "wakeup-scenario-c"

    def test_quickstart_docstring_flow(self):
        protocol = repro.WakeupWithK(n=64, k=8, rng=0)
        pattern = repro.WakeupPattern(64, {5: 0, 17: 3, 40: 9})
        result = repro.run_deterministic(protocol, pattern)
        assert result.solved and result.winner is not None

    @pytest.mark.parametrize("module_name", SUBMODULES)
    def test_submodules_importable(self, module_name):
        assert importlib.import_module(module_name).__name__ == module_name

    def test_bound_helpers_exported(self):
        assert repro.trivial_lower_bound(16, 4) == 4
        assert repro.scenario_ab_bound(64, 4) > 0
        assert repro.scenario_c_bound(64, 4) > repro.scenario_ab_bound(64, 4)

    def test_experiment_registry_exported(self):
        assert "E1" in repro.DEFINITIONS
        assert callable(repro.run_experiment)
        assert repro.QUICK.name == "quick"


#: Entry points from the engines up to the service that resolve patterns;
#: each takes its protocol, patterns or configs and nothing that picks an
#: array implementation, because there is exactly one (NumPy).
_RESOLVING_ENTRY_POINTS = [
    ("repro.engine.batch", "run_deterministic_batch"),
    ("repro.engine.batch", "run_randomized_batch"),
    ("repro.engine.feedback_batch", "run_feedback_batch"),
    ("repro.engine.batch", "run_batch"),
    ("repro.engine.campaign", "Campaign"),
    ("repro.sweeps.runner", "resolve_config"),
    ("repro.sweeps.runner", "SweepRunner"),
    ("repro.service.daemon", "ResultsService"),
    ("repro.experiments.campaign", "resolve_specs"),
    ("repro.experiments.campaign", "run_experiment"),
    ("repro.experiments.campaign", "PaperCampaign"),
]


class TestSingleArrayPath:
    @pytest.mark.parametrize(
        "module, qualname",
        _RESOLVING_ENTRY_POINTS,
        ids=[qualname for _, qualname in _RESOLVING_ENTRY_POINTS],
    )
    def test_entry_point_has_no_backend_parameter(self, module, qualname):
        target = importlib.import_module(module)
        for part in qualname.split("."):
            target = getattr(target, part)
        assert "backend" not in inspect.signature(target).parameters

    def test_engine_exports_only_the_numpy_engines(self):
        engine = importlib.import_module("repro.engine")
        assert set(engine.__all__) == {
            "BatchResult",
            "run_batch",
            "run_deterministic_batch",
            "run_randomized_batch",
            "run_feedback_batch",
            "Campaign",
        }
        with pytest.raises(ImportError):
            importlib.import_module("repro.engine.backend")
