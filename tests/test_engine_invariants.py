"""Property-based correctness invariants on the full engine.

For *any* workload, machine size, and buffering scheme:

1. the final main-memory image equals the sequential last-writer image;
2. every committed task's first read of each word observed exactly the
   version sequential execution would provide;
3. every task commits, and commits happen in task order;
4. per-processor cycle accounting is conserved (categories sum to the
   total execution time).

Hypothesis drives randomized op streams, including ones that provoke
out-of-order RAW violations and squash cascades.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.core.config import NUMA_16, CMP_8, scaled_machine
from repro.core.engine import Simulation
from repro.core.taxonomy import EVALUATED_SCHEMES
from repro.tls.task import OP_COMPUTE, OP_READ, OP_WRITE, TaskSpec
from repro.workloads.base import Workload

#: A small word pool guarantees cross-task sharing and conflicts.
WORD_POOL = [0, 1, 15, 16, 17, 64, 100, 1000]


@st.composite
def workloads(draw) -> Workload:
    n_tasks = draw(st.integers(2, 8))
    tasks = []
    for tid in range(n_tasks):
        n_ops = draw(st.integers(1, 10))
        ops = []
        for _ in range(n_ops):
            kind = draw(st.sampled_from([OP_COMPUTE, OP_READ, OP_WRITE]))
            if kind == OP_COMPUTE:
                ops.append((OP_COMPUTE, draw(st.integers(1, 4000))))
            else:
                ops.append((kind, draw(st.sampled_from(WORD_POOL))))
        tasks.append(TaskSpec(task_id=tid, ops=tuple(ops)))
    return Workload(name="random", tasks=tuple(tasks))


_MACHINES = [
    scaled_machine(NUMA_16, 2),
    scaled_machine(NUMA_16, 4),
    scaled_machine(CMP_8, 3),
]


def check_invariants(machine, scheme, workload):
    sim = Simulation(machine, scheme, workload, record_reads=True)
    result = sim.run()

    # (1) Memory image equals sequential execution.
    assert result.memory_image == workload.sequential_image()

    # (2) Committed reads observed sequential semantics.
    expected_reads = workload.sequential_reads()
    for key, producer in expected_reads.items():
        assert result.observed_reads[key] == producer, (
            f"{scheme.name}: read {key} saw {result.observed_reads[key]}, "
            f"sequential expects {producer}"
        )

    # (3) All tasks committed, in order.
    committed = [tid for tid, _s, _e in result.commit_wavefront]
    assert committed == sorted(committed) == list(range(workload.n_tasks))

    # (4) Accounting conservation.
    for proc in sim.procs:
        assert proc.account.total() == pytest.approx(result.total_cycles,
                                                     rel=1e-9, abs=1e-6)
    return result


@pytest.mark.parametrize("scheme", EVALUATED_SCHEMES, ids=lambda s: s.name)
@given(workload=workloads(), machine_idx=st.integers(0, len(_MACHINES) - 1))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_engine_preserves_sequential_semantics(scheme, workload, machine_idx):
    check_invariants(_MACHINES[machine_idx], scheme, workload)


@given(workload=workloads())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_all_schemes_agree_on_final_state(workload):
    """Every scheme must compute the same final memory image."""
    machine = _MACHINES[1]
    images = set()
    for scheme in EVALUATED_SCHEMES:
        result = Simulation(machine, scheme, workload).run()
        images.add(tuple(sorted(result.memory_image.items())))
    assert len(images) == 1


@given(workload=workloads(), seed=st.integers(0, 3))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_single_processor_matches_any_processor_count(workload, seed):
    """Even on one processor (pure pipelining), semantics hold."""
    machine = scaled_machine(NUMA_16, 1)
    from repro.core.taxonomy import MULTI_T_MV_LAZY

    result = check_invariants(machine, MULTI_T_MV_LAZY, workload)
    assert result.violation_events == 0  # no concurrency, no violations
