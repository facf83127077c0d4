"""Engine fundamentals: completion, accounting, determinism, guards."""

import pytest

from repro.core.engine import Simulation, simulate
from repro.core.taxonomy import (
    EVALUATED_SCHEMES,
    MULTI_T_MV_EAGER,
    MULTI_T_MV_LAZY,
    MergePolicy,
    SINGLE_T_EAGER,
    Scheme,
    TaskPolicy,
)
from repro.errors import ConfigurationError, SimulationError
from repro.processor.processor import CycleCategory
from repro.tls.task import TaskState
from tests.conftest import WORD_A, WORD_B, compute, make_task, make_workload, read, write


class TestSingleTask:
    def test_compute_only_timing(self, tiny_machine, fast_costs):
        machine = tiny_machine.with_costs(fast_costs)
        workload = make_workload("one", make_task(0, compute(100)))
        result = simulate(machine, SINGLE_T_EAGER, workload)
        # 100 instructions at IPC 1, then a commit holding only the token.
        assert result.total_cycles == pytest.approx(100 + 5)
        assert result.busy_cycles == pytest.approx(100)

    def test_eager_commit_charges_writebacks(self, tiny_machine, fast_costs):
        machine = tiny_machine.with_costs(fast_costs)
        workload = make_workload("w", make_task(0, write(WORD_A)))
        eager = simulate(machine, MULTI_T_MV_EAGER, workload)
        lazy = simulate(machine, MULTI_T_MV_LAZY, workload)
        # One dirty line: eager holds the token 10 cycles longer; lazy pays
        # the final merge (2/line) instead.
        assert eager.token_hold_cycles == pytest.approx(5 + 10)
        assert lazy.token_hold_cycles == pytest.approx(5)
        assert (eager.total_cycles - lazy.total_cycles) == pytest.approx(8)

    def test_singlet_commit_factor_applies(self, tiny_machine, fast_costs):
        machine = tiny_machine.with_costs(fast_costs)
        workload = make_workload("w", make_task(0, write(WORD_A)))
        result = simulate(machine, SINGLE_T_EAGER, workload)
        expected = 5 + 10 * fast_costs.singlet_commit_factor
        assert result.token_hold_cycles == pytest.approx(expected)

    def test_empty_ops_task_commits(self, tiny_machine):
        workload = make_workload("empty", make_task(0))
        result = simulate(tiny_machine, MULTI_T_MV_EAGER, workload)
        assert result.n_tasks == 1
        assert result.total_cycles > 0


class TestForwarding:
    def test_reader_receives_predecessor_version(self, tiny_machine):
        """T1 reads a word T0 wrote much earlier: version 0 is forwarded."""
        workload = make_workload(
            "fwd",
            make_task(0, write(WORD_A), compute(50)),
            make_task(1, compute(20_000), read(WORD_A)),
        )
        result = simulate(tiny_machine, MULTI_T_MV_EAGER, workload,
                          record_reads=True)
        assert result.observed_reads[(1, WORD_A)] == 0
        assert result.violation_events == 0

    def test_successor_version_invisible_to_predecessor(self, tiny_machine):
        """T0 reads a word only T1 writes: T0 must see architectural data."""
        workload = make_workload(
            "inv",
            make_task(0, compute(30_000), read(WORD_A)),
            make_task(1, write(WORD_A), compute(10)),
        )
        result = simulate(tiny_machine, MULTI_T_MV_EAGER, workload,
                          record_reads=True)
        assert result.observed_reads[(0, WORD_A)] == -1
        assert result.violation_events == 0
        assert result.memory_image[WORD_A] == 1


class TestAccounting:
    @pytest.mark.parametrize("scheme", EVALUATED_SCHEMES,
                             ids=lambda s: s.name)
    def test_categories_sum_to_total_per_proc(self, quad_machine, scheme):
        workload = make_workload(
            "acct",
            *[make_task(i, compute(500 + 100 * i), write(WORD_A + 16 * i),
                        read(WORD_A + 16 * i))
              for i in range(8)],
        )
        sim = Simulation(quad_machine, scheme, workload)
        result = sim.run()
        for proc in sim.procs:
            assert proc.account.total() == pytest.approx(
                result.total_cycles, rel=1e-9)

    def test_busy_covers_all_instructions(self, quad_machine):
        instr = [700, 900, 1100, 1300]
        workload = make_workload(
            "busy", *[make_task(i, compute(n)) for i, n in enumerate(instr)])
        result = simulate(quad_machine, MULTI_T_MV_EAGER, workload)
        expected = sum(instr) / quad_machine.costs.ipc
        assert result.busy_cycles == pytest.approx(expected)


class TestDeterminism:
    def test_same_input_same_result(self, quad_machine):
        workload = make_workload(
            "det",
            *[make_task(i, compute(1000), write(WORD_A + i), read(WORD_A + i))
              for i in range(6)],
        )
        first = simulate(quad_machine, MULTI_T_MV_LAZY, workload)
        second = simulate(quad_machine, MULTI_T_MV_LAZY, workload)
        assert first.total_cycles == second.total_cycles
        assert first.memory_image == second.memory_image
        assert first.cycles_by_category == second.cycles_by_category


class TestGuards:
    def test_shaded_scheme_rejected(self, tiny_machine):
        shaded = Scheme(TaskPolicy.SINGLE_T, MergePolicy.FMM)
        workload = make_workload("s", make_task(0, compute(10)))
        with pytest.raises(ConfigurationError, match="shaded"):
            simulate(tiny_machine, shaded, workload)

    def test_shaded_scheme_allowed_explicitly(self, tiny_machine):
        shaded = Scheme(TaskPolicy.SINGLE_T, MergePolicy.FMM)
        workload = make_workload("s", make_task(0, write(WORD_A)))
        result = simulate(tiny_machine, shaded, workload,
                          allow_shaded=True)
        assert result.memory_image == workload.sequential_image()

    def test_max_events_guard(self, tiny_machine):
        workload = make_workload(
            "big", *[make_task(i, *([read(WORD_A)] * 10)) for i in range(4)])
        with pytest.raises(SimulationError, match="events"):
            simulate(tiny_machine, MULTI_T_MV_EAGER, workload, max_events=5)

    def test_all_tasks_committed_at_end(self, quad_machine):
        workload = make_workload(
            "c", *[make_task(i, compute(100)) for i in range(10)])
        sim = Simulation(quad_machine, MULTI_T_MV_EAGER, workload)
        sim.run()
        assert all(r.state is TaskState.COMMITTED for r in sim.runs.values())
        assert sim.commit.all_committed


class TestOccupancyStats:
    def test_spec_task_average_bounded(self, quad_machine):
        workload = make_workload(
            "occ", *[make_task(i, compute(2000)) for i in range(12)])
        result = simulate(quad_machine, MULTI_T_MV_EAGER, workload)
        assert 0 < result.avg_spec_tasks_in_system <= 12
        assert result.avg_spec_tasks_per_proc == pytest.approx(
            result.avg_spec_tasks_in_system / 4)

    def test_footprint_stats(self, tiny_machine):
        from repro.core.config import WORD_BYTES

        workload = make_workload(
            "fp",
            make_task(0, write(WORD_A), write(WORD_B)),
            make_task(1, write(WORD_A)),
        )
        result = simulate(tiny_machine, MULTI_T_MV_EAGER, workload)
        assert result.avg_written_footprint_bytes == pytest.approx(
            1.5 * WORD_BYTES)
