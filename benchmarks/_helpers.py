"""Shared utilities for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it runs
the experiment (timed through pytest-benchmark with a single round —
the interesting output is the experimental result, not the harness's
wall-clock), prints the regenerated rows/series, and saves them under
``benchmarks/results/`` so ``EXPERIMENTS.md`` can reference stable
artifacts.
"""

from __future__ import annotations

import os
import pathlib
from typing import Callable

from repro.runtime.faults import FaultPlan
from repro.runtime.parallel import SweepExecutor

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_executor() -> SweepExecutor:
    """The sweep executor every grid benchmark runs its points on.

    ``REPRO_BENCH_JOBS`` sets the worker processes (default 1, the
    serial in-process path; results are identical either way, which
    the CI ``benchmarks`` job checks against the checked-in
    artifacts).  ``REPRO_BENCH_FAULTS`` injects deterministic chaos,
    e.g. ``seed=1,crash=0.2,error=0.1``; the retry budget
    (``REPRO_BENCH_RETRIES``, default 6) absorbs every injected fault,
    so the regenerated artifacts stay bit-identical to a fault-free
    run — the CI chaos job diffs them to prove it.
    """
    faults = os.environ.get("REPRO_BENCH_FAULTS")
    return SweepExecutor(
        jobs=int(os.environ.get("REPRO_BENCH_JOBS", "1")),
        retries=int(os.environ.get("REPRO_BENCH_RETRIES", "6")),
        fault_plan=FaultPlan.parse(faults) if faults else None,
    )


def save_artifact(name: str, text: str) -> None:
    """Persist one regenerated table/figure and echo it to stdout.

    The echo goes to the *real* stdout (``sys.__stdout__``) so the
    regenerated tables land in ``bench_output.txt`` even under
    pytest's output capture.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n[{name}] saved to {path}\n{text}")


def run_once(benchmark, experiment: Callable):
    """Run ``experiment`` exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations; repeating them only
    re-times identical work, so one round is both faster and honest.
    """
    return benchmark.pedantic(experiment, rounds=1, iterations=1)
