"""Cross-policy conformance: the contract every registered policy keeps.

One parametrized suite over :func:`repro.core.policy_names` — add a
policy to the registry and it is under contract here with no test
edits.  The contract:

* **determinism** — two fresh builds of the same spec produce
  bit-identical schedules (same records, same makespan);
* **no state leakage** — running one instance leaves nothing behind
  that changes what the next fresh instance computes;
* **MTL bounds** — every dispatched task sees an MTL in ``[1, n]``,
  and so does the policy's final :meth:`current_mtl`;
* **telemetry integrity** — ``stats_snapshot()`` maps stat names to
  floats (it is the ``policy_stats`` object of the point's telemetry
  record), and its stat *names* are identical across runs (structural
  stability, the property the executor relies on);
* **one selection record** — a selecting policy keeps each committed
  selection as a :class:`~repro.core.plugin.Selection`: the chosen MTL
  is one of its candidates and lies in ``[1, n]``, every candidate and
  measured MTL lies in ``[1, n]``, it committed within the run, and the
  ``selections`` counter equals the number recorded.
"""

import pytest

from repro.core import Selection, build_policy, policy_names
from repro.sim.machine import i7_860
from repro.sim.scheduler import ThrottlePolicyPlugin
from repro.sim.simulator import simulate
from repro.stream.program import StreamProgram, build_phase

N = 4
REQUESTS = 8192
L1 = i7_860().memory.request_latency(1.0)

#: Build-time params for registry entries with required parameters.
OVERRIDES = {"static": {"mtl": 2}}

#: Policies that commit MTL selections (each keeps ``selections``).
SELECTING = ("adaptive-window", "dynamic", "mise", "online", "qos")


def fresh_policy(name):
    return build_policy(name, N, OVERRIDES.get(name, {}))


def contract_workload() -> StreamProgram:
    """Two phases across the ratio boundary, long enough that every
    windowed policy completes at least one selection."""
    phases = [
        build_phase(f"phase{i}", i, 120, REQUESTS, REQUESTS * L1 / ratio)
        for i, ratio in enumerate((0.25, 1.5))
    ]
    return StreamProgram("contract", phases)


def schedule_digest(result):
    return tuple(
        (
            r.task_id, r.kind.name, r.context_id, r.core_id, r.start, r.end,
            r.mtl_at_dispatch, r.phase_index, r.pair_index, r.probe,
        )
        for r in result.records
    )


def run_fresh(name):
    policy = fresh_policy(name)
    result = simulate(contract_workload(), policy)
    return policy, result


@pytest.mark.parametrize("name", policy_names())
class TestPolicyContract:
    def test_is_a_plugin(self, name):
        assert isinstance(fresh_policy(name), ThrottlePolicyPlugin)

    def test_deterministic_across_fresh_runs(self, name):
        _, first = run_fresh(name)
        _, second = run_fresh(name)
        assert first.makespan == second.makespan
        assert schedule_digest(first) == schedule_digest(second)

    def test_no_state_leakage(self, name):
        _, before = run_fresh(name)
        # Exercise an instance twice — whatever it accumulates must
        # stay inside the instance, not in class or module state.
        used = fresh_policy(name)
        simulate(contract_workload(), used)
        simulate(contract_workload(), used)
        _, after = run_fresh(name)
        assert before.makespan == after.makespan
        assert schedule_digest(before) == schedule_digest(after)

    def test_mtl_stays_in_bounds(self, name):
        policy, result = run_fresh(name)
        assert 1 <= policy.current_mtl() <= N
        # Each record ran under an MTL in force, and each lies in [1, N].
        result.verify(contract_workload().to_task_graph())

    def test_stats_snapshot_is_stable_and_valid(self, name):
        first_policy, _ = run_fresh(name)
        second_policy, _ = run_fresh(name)
        snapshot = first_policy.stats_snapshot()
        # Base stats present, names sorted, structurally stable.
        for stat in ("windows_closed", "phase_changes", "selections"):
            assert stat in snapshot, stat
        assert list(snapshot) == sorted(snapshot)
        assert list(snapshot) == list(second_policy.stats_snapshot())
        assert snapshot == second_policy.stats_snapshot()
        assert all(type(value) is float for value in snapshot.values())

    def test_selections_are_one_record_within_the_run(self, name):
        policy, result = run_fresh(name)
        recorded = getattr(policy, "selections", [])
        if name in SELECTING:
            assert recorded, "the contract workload must exercise a selection"
        for selection in recorded:
            assert isinstance(selection, Selection)
            assert 1 <= selection.selected_mtl <= N
            assert selection.selected_mtl in selection.candidates
            assert all(1 <= k <= N for k in selection.candidates)
            assert all(1 <= k <= N for k in selection.measured)
            assert 0.0 <= selection.time <= result.makespan

    def test_selections_stat_counts_recorded_selections(self, name):
        policy, _ = run_fresh(name)
        recorded = getattr(policy, "selections", [])
        assert policy.stats_snapshot()["selections"] == len(recorded)


class TestRegistryShape:
    def test_the_eight_registered_policies(self):
        assert policy_names() == [
            "activation-budget",
            "adaptive-window",
            "conventional",
            "dynamic",
            "mise",
            "online",
            "qos",
            "static",
        ]
