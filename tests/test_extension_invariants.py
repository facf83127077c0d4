"""Sequential-semantics invariants with every extension feature enabled.

The extensions (HLAP, line-granularity detection, ORB commits, bank
contention) change timing and squash behaviour but must never change the
computed result. Hypothesis re-checks the core invariants with each
feature switched on.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import NUMA_16, scaled_machine
from repro.core.engine import Simulation
from repro.core.taxonomy import (
    MULTI_T_MV_EAGER,
    MULTI_T_MV_FMM,
    MULTI_T_MV_LAZY,
)
from tests.test_engine_invariants import workloads

_BASE_MACHINE = scaled_machine(NUMA_16, 3)
_CONTENDED = _BASE_MACHINE.with_costs(
    replace(_BASE_MACHINE.costs, memory_bank_service=30))
_ORB = _BASE_MACHINE.with_costs(
    replace(_BASE_MACHINE.costs, eager_commit_mode="orb"))

_VARIANTS = [
    ("hlap", _BASE_MACHINE, MULTI_T_MV_LAZY,
     {"high_level_patterns": True}),
    ("line-granularity", _BASE_MACHINE, MULTI_T_MV_EAGER,
     {"violation_granularity": "line"}),
    ("line-granularity-fmm", _BASE_MACHINE, MULTI_T_MV_FMM,
     {"violation_granularity": "line"}),
    ("contention", _CONTENDED, MULTI_T_MV_LAZY, {}),
    ("orb", _ORB, MULTI_T_MV_EAGER, {}),
]


@pytest.mark.parametrize("name,machine,scheme,kwargs", _VARIANTS,
                         ids=[v[0] for v in _VARIANTS])
@given(workload=workloads())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_extensions_preserve_sequential_semantics(name, machine, scheme,
                                                  kwargs, workload):
    sim = Simulation(machine, scheme, workload, record_reads=True, **kwargs)
    result = sim.run()
    assert result.memory_image == workload.sequential_image()
    expected = workload.sequential_reads()
    for key, producer in expected.items():
        assert result.observed_reads[key] == producer
    committed = [tid for tid, _s, _e in result.commit_wavefront]
    assert committed == list(range(workload.n_tasks))
    for proc in sim.procs:
        assert proc.account.total() == pytest.approx(result.total_cycles,
                                                     rel=1e-9, abs=1e-6)


@given(workload=workloads(), service=st.sampled_from([0, 10, 50]))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_contention_never_speeds_up_single_stream(workload, service):
    """On one processor (no concurrency) bank queuing adds zero wait."""
    machine = scaled_machine(NUMA_16, 1).with_costs(
        replace(NUMA_16.costs, memory_bank_service=service))
    baseline = scaled_machine(NUMA_16, 1)
    contended = Simulation(machine, MULTI_T_MV_LAZY, workload).run()
    free = Simulation(baseline, MULTI_T_MV_LAZY, workload).run()
    assert contended.total_cycles == pytest.approx(free.total_cycles)
