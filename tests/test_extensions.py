"""Tests for the extension features beyond the paper's base protocol.

Covers: multi-invocation and rechunked workloads, memory-bank contention,
the ORB eager-commit variant (Section 4.1 footnote), High-Level Access
Patterns (the [16] support the paper's base protocol excludes), the
whole-application speedup estimate (Section 4.2), and the seed-sweep
statistics utilities.
"""

from dataclasses import replace

import pytest

from repro.analysis.application import (
    application_speedup,
    overall_speedup,
)
from repro.analysis.stats import (
    SampleStats,
    metric_over_seeds,
    reduction_over_seeds,
    seed_sweep,
)
from repro.core.config import NUMA_16, scaled_machine
from repro.core.engine import Simulation, simulate
from repro.core.taxonomy import (
    MULTI_T_MV_EAGER,
    MULTI_T_MV_LAZY,
    SINGLE_T_EAGER,
)
from repro.errors import ConfigurationError, WorkloadError
from repro.workloads.apps import APPLICATIONS, generate_workload
from repro.workloads.base import PRIV_BASE
from tests.conftest import compute, make_task, make_workload, read, write


class TestInvocations:
    def test_invocations_concatenate_tasks(self):
        one = APPLICATIONS["Tree"].generate(scale=0.1)
        three = APPLICATIONS["Tree"].generate(scale=0.1, invocations=3)
        assert three.n_tasks == 3 * one.n_tasks
        # Later invocations repeat the same loop body (same footprint).
        assert (three.written_footprint_lines()
                == pytest.approx(one.written_footprint_lines()))

    def test_multi_invocation_semantics(self, quad_machine):
        workload = APPLICATIONS["Apsi"].generate(scale=0.08, invocations=2)
        result = simulate(quad_machine, MULTI_T_MV_LAZY, workload)
        assert result.memory_image == workload.sequential_image()

    def test_invocations_compose_linearly(self):
        """Two invocations cost ~2x one: no pathological interaction
        between the speculative state of consecutive invocations."""
        one = APPLICATIONS["Bdna"].generate(scale=0.1)
        two = APPLICATIONS["Bdna"].generate(scale=0.1, invocations=2)
        t1 = simulate(NUMA_16, MULTI_T_MV_LAZY, one).total_cycles
        t2 = simulate(NUMA_16, MULTI_T_MV_LAZY, two).total_cycles
        assert 1.7 * t1 < t2 < 2.15 * t1

    def test_invalid_invocations(self):
        with pytest.raises(WorkloadError):
            APPLICATIONS["Tree"].generate(invocations=0)


class TestRechunking:
    def test_chunking_scales_task_shape(self):
        base = APPLICATIONS["Bdna"].generate(scale=0.2)
        chunked = APPLICATIONS["Bdna"].generate(scale=0.2,
                                                iterations_per_task=2.0)
        assert chunked.n_tasks <= base.n_tasks
        assert chunked.mean_instructions() > 1.5 * base.mean_instructions()
        assert (chunked.written_footprint_lines()
                > 1.5 * base.written_footprint_lines())

    def test_chunked_workload_still_correct(self, quad_machine):
        workload = APPLICATIONS["Euler"].generate(scale=0.2,
                                                  iterations_per_task=4.0)
        result = simulate(quad_machine, MULTI_T_MV_EAGER, workload)
        assert result.memory_image == workload.sequential_image()

    def test_invalid_chunking(self):
        with pytest.raises(WorkloadError):
            APPLICATIONS["Tree"].generate(iterations_per_task=0)


class TestContentionModel:
    def contended_workload(self):
        # Every task reads words homed on the same node (line 0 mod 16).
        tasks = []
        for tid in range(8):
            ops = [compute(100)]
            for j in range(10):
                ops.append(read((j * 16 * 16)))  # lines 0, 16, 32, ...: home 0
            ops.append(compute(5_000))
            tasks.append(make_task(tid, *ops))
        return make_workload("hotspot", *tasks)

    def test_bank_queuing_adds_latency(self, quad_machine):
        workload = self.contended_workload()
        free = simulate(quad_machine, MULTI_T_MV_EAGER, workload)
        contended_machine = quad_machine.with_costs(
            replace(quad_machine.costs, memory_bank_service=40))
        contended = simulate(contended_machine, MULTI_T_MV_EAGER, workload)
        assert contended.total_cycles > free.total_cycles

    def test_zero_service_is_noop(self, quad_machine):
        workload = self.contended_workload()
        base = simulate(quad_machine, MULTI_T_MV_EAGER, workload)
        explicit = quad_machine.with_costs(
            replace(quad_machine.costs, memory_bank_service=0))
        again = simulate(explicit, MULTI_T_MV_EAGER, workload)
        assert base.total_cycles == again.total_cycles

    def test_semantics_hold_under_contention(self, quad_machine):
        machine = quad_machine.with_costs(
            replace(quad_machine.costs, memory_bank_service=25))
        workload = generate_workload("Euler", scale=0.1)
        result = simulate(machine, MULTI_T_MV_LAZY, workload)
        assert result.memory_image == workload.sequential_image()


class TestORBCommit:
    def test_orb_cheapens_eager_commit(self, quad_machine):
        workload = generate_workload("Apsi", scale=0.15)
        writeback = simulate(quad_machine, MULTI_T_MV_EAGER, workload)
        orb_machine = quad_machine.with_costs(
            replace(quad_machine.costs, eager_commit_mode="orb"))
        orb = simulate(orb_machine, MULTI_T_MV_EAGER, workload)
        assert orb.token_hold_cycles < writeback.token_hold_cycles
        assert orb.memory_image == workload.sequential_image()

    def test_orb_mode_validated(self):
        from repro.core.config import CostModel

        with pytest.raises(ConfigurationError):
            CostModel(eager_commit_mode="teleport")

    def test_orb_only_affects_eager(self, quad_machine):
        workload = generate_workload("Apsi", scale=0.15)
        orb_machine = quad_machine.with_costs(
            replace(quad_machine.costs, eager_commit_mode="orb"))
        lazy_base = simulate(quad_machine, MULTI_T_MV_LAZY, workload)
        lazy_orb = simulate(orb_machine, MULTI_T_MV_LAZY, workload)
        assert lazy_orb.total_cycles == lazy_base.total_cycles


class TestHighLevelPatterns:
    def test_hlap_speeds_privatization_writes(self, quad_machine):
        workload = generate_workload("Bdna", scale=0.15)
        base = Simulation(quad_machine, MULTI_T_MV_LAZY, workload).run()
        hlap = Simulation(quad_machine, MULTI_T_MV_LAZY, workload,
                          high_level_patterns=True).run()
        assert hlap.total_cycles < base.total_cycles
        assert hlap.memory_image == workload.sequential_image()

    def test_hlap_neutral_without_privatization(self, quad_machine):
        workload = generate_workload("Euler", scale=0.15)
        base = Simulation(quad_machine, MULTI_T_MV_LAZY, workload).run()
        hlap = Simulation(quad_machine, MULTI_T_MV_LAZY, workload,
                          high_level_patterns=True).run()
        assert hlap.total_cycles == pytest.approx(base.total_cycles,
                                                  rel=0.02)

    def test_hlap_preserves_violation_detection(self, tiny_machine):
        """HLAP skips the stale-data fetch, not the dependence tracking:
        a genuine cross-task RAW through the priv region still squashes."""
        x = PRIV_BASE
        workload = make_workload(
            "priv-dep",
            make_task(0, compute(40_000), write(x), compute(100)),
            make_task(1, compute(200), read(x), compute(20_000)),
        )
        result = Simulation(tiny_machine, MULTI_T_MV_EAGER, workload,
                            high_level_patterns=True,
                            record_reads=True).run()
        assert result.violation_events >= 1
        assert result.observed_reads[(1, x)] == 0


class TestApplicationSpeedup:
    def test_amdahl_bounds(self):
        assert overall_speedup(8.0, 1.0) == pytest.approx(8.0)
        assert overall_speedup(8.0, 0.0) == pytest.approx(1.0)
        # 50% at 8x, rest sequential: 1/(0.5/8+0.5) = 1.78.
        assert overall_speedup(8.0, 0.5) == pytest.approx(1.0 / (0.5 / 8 + 0.5))

    def test_rest_parallel_upper_bound(self):
        assert (overall_speedup(8.0, 0.5, rest_speedup=16.0)
                > overall_speedup(8.0, 0.5, rest_speedup=1.0))

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            overall_speedup(8.0, 1.5)
        with pytest.raises(ConfigurationError):
            overall_speedup(-1.0, 0.5)

    def test_measured_application_speedup(self):
        machine = scaled_machine(NUMA_16, 4)
        summary = application_speedup(machine, MULTI_T_MV_LAZY, "Tree",
                                      scale=0.1)
        assert summary.loop_speedup > 1.0
        assert (1.0 <= summary.overall_rest_sequential
                <= summary.loop_speedup)
        assert (summary.overall_rest_sequential
                <= summary.overall_rest_parallel)
        # Tree's loops are 92.2% of Tseq, so the overall estimate stays
        # close to the loop speedup.
        assert summary.loop_fraction == pytest.approx(0.922)


class TestSeedStats:
    def test_sample_stats(self):
        stats = SampleStats((1.0, 2.0, 3.0))
        assert stats.mean == 2.0
        assert stats.std == pytest.approx(1.0)
        assert stats.minimum == 1.0 and stats.maximum == 3.0
        assert stats.all_positive()

    def test_single_value_std_zero(self):
        assert SampleStats((5.0,)).std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            SampleStats(())

    def test_seed_sweep_distinct_workloads(self):
        machine = scaled_machine(NUMA_16, 4)
        results = seed_sweep(machine, MULTI_T_MV_EAGER, "Track",
                             seeds=(0, 1, 2), scale=0.08)
        totals = {r.total_cycles for r in results}
        assert len(totals) == 3  # different streams, different times

    def test_headline_direction_robust_across_seeds(self):
        """MultiT&MV beats SingleT Eager on Tree for every seed."""
        machine = scaled_machine(NUMA_16, 8)
        stats = reduction_over_seeds(
            machine, MULTI_T_MV_EAGER, SINGLE_T_EAGER, "Tree",
            seeds=(0, 1, 2), scale=0.15)
        assert stats.all_positive()
        assert stats.mean > 0.1

    def test_metric_over_seeds(self):
        machine = scaled_machine(NUMA_16, 4)
        results = seed_sweep(machine, MULTI_T_MV_EAGER, "Tree",
                             seeds=(0, 1), scale=0.08)
        stats = metric_over_seeds(results, lambda r: r.busy_fraction())
        assert 0 < stats.mean < 1
