"""Tests of the top-level public API surface.

These are the guarantees a downstream user relies on: the documented
names import from ``repro`` directly, the quickstart in the package
docstring actually runs, and the error hierarchy has a single root.
"""

import pytest

import repro
from repro import errors


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_docstring_quickstart_runs(self):
        from repro import DynamicThrottlingPolicy, conventional_policy, i7_860, simulate
        from repro.workloads import streamcluster

        program = streamcluster()
        machine = i7_860()
        base = simulate(program, conventional_policy(4), machine)
        fast = simulate(program, DynamicThrottlingPolicy(4), machine)
        assert base.makespan / fast.makespan > 1.0


class TestErrorHierarchy:
    def test_single_root(self):
        subclasses = [
            errors.ConfigurationError,
            errors.SchedulingError,
            errors.SimulationError,
            errors.TaskGraphError,
            errors.WorkloadError,
            errors.ModelError,
            errors.MeasurementError,
        ]
        for cls in subclasses:
            assert issubclass(cls, errors.ReproError)

    def test_library_errors_are_catchable_at_the_root(self):
        from repro import AnalyticalModel

        with pytest.raises(errors.ReproError):
            AnalyticalModel(core_count=0)


class TestParameterChecks:
    """``check_int``/``check_number`` are the one numeric type check the
    policy registry, the sweep specs and the noise model share."""

    def test_check_int(self):
        assert errors.check_int(3, "x") == 3
        for bad in (True, 3.0, "3", None):
            with pytest.raises(errors.ConfigurationError, match="x must be an int"):
                errors.check_int(bad, "x")

    def test_check_number(self):
        assert errors.check_number(2, "x") == 2.0
        assert isinstance(errors.check_number(2, "x"), float)
        for bad in (True, "0.5", None):
            with pytest.raises(errors.ConfigurationError, match="x must be a number"):
                errors.check_number(bad, "x")
        for bad in (float("nan"), float("inf"), -10**400):
            with pytest.raises(errors.ConfigurationError, match="x must be finite"):
                errors.check_number(bad, "x")

    def test_past_float_range_reads_as_infinity_when_allowed(self):
        assert errors.check_number(10**400, "x", finite=False) == float("inf")
        assert errors.check_number(-10**400, "x", finite=False) == float("-inf")

    def test_layers_reject_alike(self):
        from repro.core.registry import build_policy
        from repro.runtime.parallel import build_workload_from_spec
        from repro.sim.noise import GaussianNoise

        rejections = [
            lambda: build_policy("online", 4, {"threshold": True}),
            lambda: build_workload_from_spec({"kind": "synthetic", "ratio": True}),
            lambda: GaussianNoise(sigma=True),
        ]
        for reject in rejections:
            with pytest.raises(
                errors.ConfigurationError, match="must be a number, got True"
            ):
                reject()


class TestSubpackageDocs:
    def test_every_public_module_has_a_docstring(self):
        import importlib
        import pkgutil

        packages = ["repro"]
        seen = []
        while packages:
            package_name = packages.pop()
            package = importlib.import_module(package_name)
            assert package.__doc__, package_name
            seen.append(package_name)
            if hasattr(package, "__path__"):
                for info in pkgutil.iter_modules(package.__path__):
                    packages.append(f"{package_name}.{info.name}")
        assert len(seen) > 30  # the whole tree was walked
