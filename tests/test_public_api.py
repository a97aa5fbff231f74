"""The public API surface: everything README promises is importable."""

import os
import subprocess
import sys

import pytest

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "name",
        [
            "run_simulation", "build_workload", "make_policy",
            "Simulator", "SimConfig", "SimulationResult", "Trace",
            "PrefetchPolicy", "DemandFetching", "FixedHorizon",
            "Aggressive", "ReverseAggressive", "Forestall",
            "HintQuality", "MultiProcessSimulator",
            "StaticAllocator", "CostBenefitAllocator",
            "POLICIES", "TABLE3", "WORKLOADS", "cache_blocks_for",
        ],
    )
    def test_symbol_exported(self, name):
        assert hasattr(repro, name)
        assert name in repro.__all__

    def test_all_symbols_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_policy_registry_complete(self):
        assert set(repro.POLICIES) == {
            "demand", "fixed-horizon", "aggressive", "reverse-aggressive",
            "forestall", "lru-demand", "seq-readahead", "stride-prefetch",
        }

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.core
        import repro.disk
        import repro.theory
        import repro.trace

        assert repro.analysis.miss_ratio_curve
        assert repro.core.Timeline
        assert repro.disk.ZonedGeometry
        assert repro.theory.optimal_elapsed
        assert repro.trace.trace_io.loads


    @staticmethod
    def loads(module, other):
        """Whether importing ``module`` in a fresh interpreter loads
        ``other``."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        probe = f"import sys, {module}; print({other!r} in sys.modules)"
        loaded = subprocess.run(
            [sys.executable, "-c", probe], check=True, capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=src),
        ).stdout.strip()
        return loaded == "True"

    def test_service_import_leaves_analysis_unloaded(self):
        # The server imports repro.obs for its telemetry; the experiments
        # and figures of repro.analysis load only where a report renders.
        assert not self.loads("repro.svc", "repro.analysis")

    def test_cli_import_leaves_numpy_unloaded(self):
        # The simulator is the standard library only: the CLI, and so the
        # engine, every sweep worker and `repro-sim serve`, never pays for
        # importing numpy.
        assert not self.loads("repro.cli", "numpy")


class TestRunSimulationContract:
    def test_returns_simulation_result(self):
        trace = repro.build_workload("ld", scale=0.05)
        result = repro.run_simulation(trace, num_disks=1, cache_blocks=64)
        assert isinstance(result, repro.SimulationResult)

    def test_config_and_cache_override_precedence(self):
        trace = repro.build_workload("ld", scale=0.05)
        config = repro.SimConfig(cache_blocks=999)
        result = repro.run_simulation(
            trace, num_disks=1, cache_blocks=64, config=config
        )
        # explicit cache_blocks wins over the config's value
        assert result.cache_blocks == 64

    def test_policy_kwargs_forwarded(self):
        trace = repro.build_workload("ld", scale=0.05)
        result = repro.run_simulation(
            trace, policy="fixed-horizon", num_disks=1, cache_blocks=64,
            horizon=7,
        )
        assert "H=7" in result.policy_name
