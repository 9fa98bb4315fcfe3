"""Golden task graphs: the graph every shipped workload builds, pinned.

Each digest covers every task's fields in topological order plus the
root order, so a change to how a program flattens into its graph
(barrier edges, task identity, enqueue order) must be deliberate.
"""

import hashlib
import json

import pytest

from repro.memory.cache import LastLevelCache
from repro.units import mebibytes
from repro.workloads import SyntheticWorkload, build_workload, workload_names


def _spill_program():
    # 2 MB tiles overflow an 8 MB LLC shared four ways, so every
    # compute task carries spilled off-chip requests.
    cache = LastLevelCache(capacity_bytes=mebibytes(8), sharers=4)
    return SyntheticWorkload(
        ratio=0.75, footprint_bytes=mebibytes(2), pairs=96, cache=cache
    ).build()


def _program(name):
    if name == "synthetic-2MB-spill":
        return _spill_program()
    return build_workload(name)


def graph_digest(graph):
    tasks = [
        [
            task.task_id,
            task.kind.value,
            repr(task.cpu_seconds),
            repr(task.memory_requests),
            task.footprint_bytes,
            task.pair_index,
            task.phase_index,
            list(task.depends_on),
        ]
        for task in graph.topological_order()
    ]
    roots = [task.task_id for task in graph if not task.depends_on]
    payload = json.dumps({"tasks": tasks, "roots": roots}, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


DIGESTS = {
    "SC_d128": "9e89d218e536933bcdbca9c9dea069912c8556065247debe713e4da8fb955792",
    "SC_d20": "67b9337b7cd763f1da5d80c793cc013323399ca168150ee16bb10e75e1c8775d",
    "SC_d32": "94075c6296b7712974a48119019a09cbec241130f57a1b7591b49e45398f5106",
    "SC_d36": "d1fa78275973eb6e4b6eda687761bb91183e44a7566296389e1a682a624932c5",
    "SC_d48": "149867b0f2551e57137a4dcf7e205a135e481fb65e7b7c39c7f69b1fc7e246f4",
    "SC_d72": "26cde07beac55d4caeabe0a5e8bb0aea3cf947c483645e152564b468afe039e7",
    "SIFT": "52a7c4c6050bb0048e7d69e2a81f1a095cd6064dbbea64c7e4c8dfa24436946d",
    "dft": "a8f6962a1dcba00d435bdb67530baec78e251d2dffa8a4c480997e9481d20d77",
    "jpeg-decode": "0cee9214ea3b06f15df6aa96b894968a35bb419ad996d1b733d2d7683e9cdd79",
    "mpeg2-decode": "6e2777cee5e2ea377915c014af28145fc58758a44635073b1b9919fe5dfca609",
    "synthetic-2MB-spill": "0deb1786371c07cb69f6437af1cfa38fa56945cd02e282605b553a500ce06242",
}


def test_every_registry_workload_is_pinned():
    assert set(workload_names()) | {"synthetic-2MB-spill"} == set(DIGESTS)


def test_spill_program_spills():
    graph = _spill_program().to_task_graph()
    assert all(task.memory_requests > 0 for task in graph if task.is_compute)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_graph_is_pinned(name):
    assert graph_digest(_program(name).to_task_graph()) == DIGESTS[name]


@pytest.mark.parametrize("name", ["SIFT", "synthetic-2MB-spill"])
def test_graph_is_built_once_and_shared(name):
    program = _program(name)
    graph = program.to_task_graph()
    assert program.to_task_graph() is graph
    for pair in program.phases[0].pairs:
        assert graph.task(pair.memory.task_id) is pair.memory
        assert graph.task(pair.compute.task_id) is pair.compute
