"""Tests for the media-decoder workloads."""

import pytest

from repro.core import DynamicThrottlingPolicy
from repro.errors import WorkloadError
from repro.runtime.monitor import measure_phase_ratios
from repro.sim.scheduler import conventional_policy
from repro.sim.simulator import simulate
from repro.workloads.media import (
    JPEG_STAGE_RATIOS,
    MPEG_STAGE_RATIOS,
    jpeg_decode,
    mpeg2_decode,
)
from repro.workloads.registry import build_workload


class TestStructure:
    def test_jpeg_phases_cycle_per_image(self):
        program = jpeg_decode(images=3, pairs_per_stage=4)
        assert len(program.phases) == 3 * len(JPEG_STAGE_RATIOS)
        assert program.phases[0].name == "ENTROPY-DECODE[0]"
        assert program.phases[4].name == "ENTROPY-DECODE[1]"

    def test_mpeg_phases_cycle_per_frame(self):
        program = mpeg2_decode(frames=2, pairs_per_stage=4)
        assert len(program.phases) == 2 * len(MPEG_STAGE_RATIOS)
        assert program.phases[-1].name == "DEBLOCK[1]"

    def test_registered_in_registry(self):
        assert build_workload("jpeg-decode").name == "jpeg-decode"
        assert build_workload("mpeg2-decode").name == "mpeg2-decode"

    def test_validation(self):
        with pytest.raises(WorkloadError):
            jpeg_decode(images=0)
        with pytest.raises(WorkloadError):
            jpeg_decode(pairs_per_stage=0)
        with pytest.raises(WorkloadError):
            mpeg2_decode(frames=0)
        with pytest.raises(WorkloadError):
            mpeg2_decode(pairs_per_stage=0)


class TestCalibration:
    def test_jpeg_stage_ratios_measured(self):
        program = jpeg_decode(images=1, pairs_per_stage=6)
        ratios = measure_phase_ratios(program)
        for stage, expected in JPEG_STAGE_RATIOS.items():
            assert ratios[f"{stage}[0]"] == pytest.approx(expected, rel=1e-4)

    def test_mpeg_stage_ratios_measured(self):
        program = mpeg2_decode(frames=1, pairs_per_stage=6)
        ratios = measure_phase_ratios(program)
        for stage, expected in MPEG_STAGE_RATIOS.items():
            assert ratios[f"{stage}[0]"] == pytest.approx(expected, rel=1e-4)


class TestThrottling:
    def test_dynamic_throttling_helps_the_decoders(self):
        for program in (jpeg_decode(), mpeg2_decode()):
            baseline = simulate(program, conventional_policy(4)).makespan
            throttled = simulate(
                program, DynamicThrottlingPolicy(context_count=4)
            ).makespan
            assert baseline / throttled > 1.0, program.name

    def test_periodic_phases_drive_repeated_adaptation(self):
        policy = DynamicThrottlingPolicy(context_count=4, window_pairs=8)
        simulate(mpeg2_decode(frames=4, pairs_per_stage=48), policy)
        # MOTION-COMP (0.60, IdleBound 2) alternates with compute-bound
        # stages (IdleBound 1) every frame: multiple selections happen.
        assert len(policy.selections) >= 3
        selected = {e.selected_mtl for e in policy.selections}
        assert selected <= {1, 2}
