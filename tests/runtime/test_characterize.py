"""Tests for workload characterisation reports."""

import pytest

from repro.runtime.characterize import characterize
from repro.sim.machine import i7_860
from repro.workloads import (
    SIFT_FUNCTION_RATIOS,
    dft,
    sift,
    streamcluster,
    synthetic_from_ratio,
)


class TestPhaseCharacters:
    def test_dft_character(self):
        character = characterize(dft())
        assert len(character.phases) == 1
        phase = character.phases[0]
        assert phase.ratio == pytest.approx(0.1277, rel=1e-3)
        assert phase.idle_bound == 1
        assert phase.predicted_mtl == 1
        assert phase.predicted_speedup > 1.0
        assert not character.is_phase_diverse

    def test_sift_is_phase_diverse(self):
        character = characterize(sift())
        assert character.is_phase_diverse
        by_name = {p.name: p for p in character.phases}
        assert by_name["ECONVOLVE"].predicted_mtl == 2
        assert by_name["ECONVOLVE2"].predicted_mtl == 1

    def test_ratios_match_table3(self):
        character = characterize(sift())
        for phase in character.phases:
            assert phase.ratio == pytest.approx(
                SIFT_FUNCTION_RATIOS[phase.name], rel=1e-3
            )

    def test_overall_ratio_is_pair_weighted(self):
        character = characterize(streamcluster())
        assert character.overall_ratio() == pytest.approx(0.3714, rel=1e-3)

    def test_machine_shifts_the_character(self):
        ratio = 0.5
        single = characterize(synthetic_from_ratio(ratio, pairs=8))
        dual = characterize(
            synthetic_from_ratio(ratio, pairs=8), machine=i7_860(channels=2)
        )
        assert dual.phases[0].ratio < single.phases[0].ratio
        assert dual.phases[0].predicted_speedup < single.phases[0].predicted_speedup


class TestProgramSpeedupPrediction:
    def test_prediction_is_a_ceiling_on_measured_speedup(self):
        from repro.core import DynamicThrottlingPolicy
        from repro.sim.scheduler import conventional_policy
        from repro.sim.simulator import simulate

        for program in (dft(), streamcluster(), sift()):
            character = characterize(program)
            predicted = character.predicted_program_speedup()
            baseline = simulate(program, conventional_policy(4)).makespan
            dynamic = simulate(
                program, DynamicThrottlingPolicy(context_count=4)
            ).makespan
            measured = baseline / dynamic
            # The prediction excludes monitoring and transients, so it
            # upper-bounds the measurement but stays within ~6 points.
            assert measured <= predicted + 0.01, program.name
            assert measured >= predicted - 0.06, program.name

    def test_single_phase_prediction_equals_phase_prediction(self):
        character = characterize(streamcluster())
        # All streamcluster phases share one ratio, so the program
        # composition degenerates to the per-phase value.
        assert character.predicted_program_speedup() == pytest.approx(
            character.phases[0].predicted_speedup, rel=1e-6
        )


class TestRender:
    def test_render_mentions_phases_and_verdict(self):
        text = characterize(sift()).render()
        assert "ECONVOLVE" in text
        assert "phase-diverse" in text
        assert "IdleBound" in text

    def test_uniform_verdict(self):
        text = characterize(dft()).render()
        assert "static MTL suffices" in text
