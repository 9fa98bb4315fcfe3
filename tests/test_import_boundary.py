"""Import boundaries, each checked in a fresh interpreter.

* Every layer imports first and alone.  The layers import one way,
  down the order RPR502 checks (``repro.lint.rules.api.LAYER_RANKS``),
  so none relies on ``repro/__init__.py`` having loaded another first.
* numpy loads with the first seeded noise stream, not with the
  package.  Noise-free work (Figure 13, the model checks,
  ``repro lint``) never needs numpy, so importing the package must not
  load it.

Each check runs in a fresh interpreter: this test process imported the
whole package, numpy included, long ago.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.lint.rules.api import LAYER_RANKS

PACKAGE = pathlib.Path(repro.__file__).resolve().parent
SRC = str(PACKAGE.parent)

#: Executor setup shared by the pool checks: records, each time a
#: worker pool is created, whether numpy was already loaded.
POOL_PROBE = """
import sys
from repro.runtime import parallel

loaded_at_pool_start = []
real_pool = parallel.ProcessPoolExecutor

def recording_pool(*args, **kwargs):
    loaded_at_pool_start.append("numpy" in sys.modules)
    return real_pool(*args, **kwargs)

parallel.ProcessPoolExecutor = recording_pool
points = [
    parallel.SweepPoint({"kind": "synthetic", "ratio": r, "pairs": 4}, seed=SEED)
    for r in (0.5, 1.0, 2.0)
]
results = parallel.SweepExecutor(jobs=2).run(points)
assert all(isinstance(r, parallel.PointResult) for r in results), results
print(loaded_at_pool_start, "numpy" in sys.modules)
"""


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter; its last line of output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_every_subpackage_and_top_module_has_a_rank():
    subpackages = {path.parent.name for path in PACKAGE.glob("*/__init__.py")}
    modules = {path.stem for path in PACKAGE.glob("[!_]*.py")}
    assert subpackages | modules == set(LAYER_RANKS)


@pytest.mark.parametrize("layer", sorted(LAYER_RANKS, key=LAYER_RANKS.get))
def test_layer_imports_first_and_alone(layer):
    # A bare root: a ``repro`` package whose ``__init__`` ran nothing.
    assert fresh(f"""
        import importlib, sys, types
        root = types.ModuleType("repro")
        root.__path__ = [{str(PACKAGE)!r}]
        sys.modules["repro"] = root
        importlib.import_module("repro.{layer}")
        print("imported")
    """) == "imported"


@pytest.mark.parametrize(
    "module", ["repro", "repro.cli", "repro.lint", "repro.runtime.parallel"]
)
def test_import_leaves_numpy_unloaded(module):
    assert fresh(f"""
        import importlib, sys
        importlib.import_module({module!r})
        print("numpy" in sys.modules)
    """) == "False"


def test_seeded_point_loads_numpy_and_an_unseeded_one_does_not():
    assert fresh("""
        import sys
        from repro.runtime.parallel import SweepPoint, run_point
        spec = {"kind": "synthetic", "ratio": 1.0, "pairs": 4}
        run_point(SweepPoint(spec))
        unseeded = "numpy" in sys.modules
        run_point(SweepPoint(spec, seed=1))
        print(unseeded, "numpy" in sys.modules)
    """) == "False True"


def test_noise_parameters_are_checked_before_numpy_loads():
    assert fresh("""
        import sys
        from repro.errors import ConfigurationError
        from repro.sim.noise import GaussianNoise
        rejected = 0
        for bad in ({"seed": -1}, {"seed": True}, {"sigma": float("nan")},
                    {"sigma": "0.1"}, {"overhead_seconds": None}):
            try:
                GaussianNoise(**bad)
            except ConfigurationError:
                rejected += 1
        print(rejected, "numpy" in sys.modules)
    """) == "5 False"


def test_seeded_pool_loads_numpy_in_the_parent_before_the_pool_starts():
    assert fresh(POOL_PROBE.replace("SEED", "1")) == "[True] True"


def test_unseeded_pool_never_loads_numpy():
    assert fresh(POOL_PROBE.replace("SEED", "None")) == "[False] False"
