"""Tests for the raw task-graph entry point of the simulator."""

from repro.sim.machine import i7_860
from repro.sim.scheduler import FixedMtlPolicy
from repro.sim.simulator import Simulator
from repro.stream.graph import TaskGraph
from repro.stream.program import StreamProgram, build_phase
from repro.stream.task import compute_task, memory_task


class TestRunGraph:
    def test_equivalent_to_run_for_single_programs(self):
        program = StreamProgram("g", [build_phase("p", 0, 8, 2048, 5e-4)])
        simulator = Simulator(i7_860())
        via_program = simulator.run(program, FixedMtlPolicy(2))
        via_graph = simulator.run_graph(
            program.to_task_graph(), FixedMtlPolicy(2), "g"
        )
        assert via_graph.makespan == via_program.makespan
        assert via_graph.program_name == "g"

    def test_accepts_hand_built_graphs(self):
        # A diamond: two independent pairs feeding a final reduction
        # pair — a shape StreamProgram's phase model cannot express.
        tasks = [
            memory_task("Ma", requests=1024),
            compute_task("Ca", cpu_seconds=1e-4, depends_on=("Ma",)),
            memory_task("Mb", requests=1024),
            compute_task("Cb", cpu_seconds=1e-4, depends_on=("Mb",)),
            memory_task("Mr", requests=512, depends_on=("Ca", "Cb")),
            compute_task("Cr", cpu_seconds=2e-4, depends_on=("Mr",)),
        ]
        graph = TaskGraph(tasks)
        result = Simulator(i7_860()).run_graph(graph, FixedMtlPolicy(2), "diamond")
        assert result.task_count == 6
        result.verify(graph)  # Mr starts after both Ca and Cb end
