"""Violation detection, squash cascades, and recovery under AMM and FMM."""

import pytest

from repro.core.engine import Simulation, simulate
from repro.core.taxonomy import (
    EVALUATED_SCHEMES,
    MULTI_T_MV_EAGER,
    MULTI_T_MV_FMM,
    MULTI_T_MV_LAZY,
    SINGLE_T_EAGER,
)
from repro.processor.processor import CycleCategory
from repro.workloads.base import DEP_BASE
from tests.conftest import compute, make_task, make_workload, read, write

W = DEP_BASE


def violation_workload(extra_tasks: int = 0):
    """T0 writes W late; T1 reads W early -> out-of-order RAW at runtime."""
    tasks = [
        make_task(0, compute(40_000), write(W), compute(100)),
        make_task(1, compute(200), read(W), compute(30_000)),
    ]
    for tid in range(2, 2 + extra_tasks):
        tasks.append(make_task(tid, compute(15_000)))
    return make_workload("violation", *tasks)


class TestViolationDetection:
    @pytest.mark.parametrize("scheme", EVALUATED_SCHEMES,
                             ids=lambda s: s.name)
    def test_squash_and_reexecution_restore_semantics(self, tiny_machine,
                                                      scheme):
        workload = violation_workload()
        result = simulate(tiny_machine, scheme, workload, record_reads=True)
        assert result.violation_events >= 1
        assert result.squashed_executions >= 1
        # The re-executed read must observe T0's version.
        assert result.observed_reads[(1, W)] == 0
        assert result.memory_image == workload.sequential_image()

    def test_no_violation_when_spaced_out(self, tiny_machine):
        """If the reader starts after the writer finished, no squash."""
        workload = make_workload(
            "spaced",
            make_task(0, write(W), compute(100)),
            make_task(1, compute(60_000), read(W)),
        )
        result = simulate(tiny_machine, MULTI_T_MV_EAGER, workload)
        assert result.violation_events == 0

    def test_wasted_busy_counted(self, tiny_machine):
        result = simulate(tiny_machine, MULTI_T_MV_EAGER,
                          violation_workload())
        assert result.wasted_busy_cycles > 0

    def test_squash_task_timing_counts_attempts(self, tiny_machine):
        result = simulate(tiny_machine, MULTI_T_MV_EAGER,
                          violation_workload())
        squashed = [t for t in result.task_timings if t.squashes > 0]
        assert squashed and squashed[0].task_id == 1


class TestCascade:
    def test_successors_squashed(self, quad_machine):
        """Started tasks after the violated reader are squashed too."""
        workload = violation_workload(extra_tasks=2)
        result = simulate(quad_machine, MULTI_T_MV_EAGER, workload)
        assert result.squashed_executions >= 2
        assert result.memory_image == workload.sequential_image()

    def test_unstarted_tasks_unaffected(self, tiny_machine):
        """Tasks not yet started are not counted as squashed executions."""
        workload = violation_workload(extra_tasks=6)
        result = simulate(tiny_machine, MULTI_T_MV_EAGER, workload)
        # Two processors: at most 2 extra tasks could have started when the
        # violation (early in the run) fires.
        assert result.squashed_executions <= 3


class TestRecoveryCosts:
    def test_fmm_recovery_slower_than_amm(self, tiny_machine):
        """Section 3.3.4: AMM recovers by invalidation, FMM replays logs."""
        # Give the squashed reader a written footprint so FMM has log
        # entries to restore.
        def workload():
            return make_workload(
                "recover",
                make_task(0, compute(40_000), write(W), compute(100)),
                make_task(1, compute(200), read(W),
                          *[write(W + 64 + j * 16) for j in range(20)],
                          compute(30_000)),
            )
        amm = simulate(tiny_machine, MULTI_T_MV_LAZY, workload())
        fmm = simulate(tiny_machine, MULTI_T_MV_FMM, workload())
        amm_rec = amm.cycles_by_category[CycleCategory.RECOVERY]
        fmm_rec = fmm.cycles_by_category[CycleCategory.RECOVERY]
        assert fmm_rec > amm_rec

    def test_fmm_restores_memory_image(self, tiny_machine):
        """A squashed task's versions displaced to memory are rolled back."""
        workload = make_workload(
            "rollback",
            make_task(0, write(W + 100), compute(40_000), write(W),
                      compute(100)),
            make_task(1, compute(200), read(W), write(W + 100),
                      compute(30_000)),
        )
        result = simulate(tiny_machine, MULTI_T_MV_FMM, workload)
        assert result.memory_image == workload.sequential_image()
        assert result.memory_image[W + 100] == 1


class TestSquashInteractions:
    def test_singlet_parked_task_squashed(self, quad_machine):
        """A SingleT processor waiting to commit a squashed task recovers."""
        workload = make_workload(
            "parked",
            make_task(0, compute(50_000), write(W), compute(100)),
            make_task(1, compute(300), read(W), compute(500)),
            make_task(2, compute(400)),
            make_task(3, compute(400)),
        )
        result = simulate(quad_machine, SINGLE_T_EAGER, workload)
        assert result.violation_events >= 1
        assert result.memory_image == workload.sequential_image()

    def test_repeated_violations_converge(self, tiny_machine):
        """Chained dependences squash repeatedly but always converge."""
        workload = make_workload(
            "chain",
            make_task(0, compute(30_000), write(W)),
            make_task(1, read(W), compute(25_000), write(W + 1)),
            make_task(2, read(W + 1), compute(20_000), write(W + 2)),
            make_task(3, read(W + 2), compute(100)),
        )
        result = simulate(tiny_machine, MULTI_T_MV_EAGER, workload,
                          record_reads=True)
        assert result.violation_events >= 1
        assert result.observed_reads[(1, W)] == 0
        assert result.observed_reads[(2, W + 1)] == 1
        assert result.observed_reads[(3, W + 2)] == 2

    def test_squashed_tasks_rerun_and_commit(self, quad_machine):
        from repro.tls.task import TaskState

        workload = violation_workload(extra_tasks=4)
        sim = Simulation(quad_machine, MULTI_T_MV_EAGER, workload)
        sim.run()
        assert all(r.state is TaskState.COMMITTED
                   for r in sim.runs.values())


class TestSingleTRecoveryReclaim:
    def test_parked_singlet_proc_reclaims_after_squash(self, tiny_machine):
        """A SingleT processor whose parked speculative task was squashed
        must return to the scheduler pool instead of idling to the end
        (regression: the squash teardown dropped the task from residency
        before the parked processor was examined)."""
        workload = make_workload(
            "reclaim",
            make_task(0, compute(60_000), write(W), compute(100)),
            make_task(1, compute(300), read(W), compute(2_000)),
            make_task(2, compute(2_000)),
            make_task(3, compute(2_000)),
        )
        result = simulate(tiny_machine, SINGLE_T_EAGER, workload)
        assert result.violation_events >= 1
        # The second processor re-executes the squashed task (or at least
        # some task) after recovery rather than stalling forever.
        procs_used = {t.proc_id for t in result.task_timings}
        assert procs_used == {0, 1}
        assert result.memory_image == workload.sequential_image()
