#!/usr/bin/env python3
"""Building a custom speculative loop and watching the mechanisms fire.

Constructs, by hand, the two patterns the paper's analysis revolves around:

1. the **mostly-privatization** loop of Figure 1-(b) — every task writes
   ``work(k)`` before reading it, so each task creates a new version of the
   same variable; MultiT&SV stalls, MultiT&MV does not;
2. a **cross-task dependence** — a late write in task 0 feeding an early
   read in task 1, which manifests as an out-of-order RAW, a squash, and a
   re-execution.

Run:  python examples/custom_workload.py
"""

from repro import (
    MULTI_T_MV_EAGER,
    MULTI_T_SV_EAGER,
    NUMA_16,
    Workload,
    simulate,
)
from repro.core.config import scaled_machine
from repro.processor.processor import CycleCategory
from repro.tls.task import OP_COMPUTE, OP_READ, OP_WRITE, TaskSpec
from repro.workloads.base import DEP_BASE, PRIV_BASE


def privatization_loop(n_tasks: int = 8, work_elements: int = 6) -> Workload:
    """Speculative_Parallel do i: work(k) written then read by every task."""
    tasks = []
    for i in range(n_tasks):
        ops = [(OP_COMPUTE, 2_000)]
        for k in range(work_elements):
            ops.append((OP_WRITE, PRIV_BASE + k * 16))   # work(k) = ...
            ops.append((OP_COMPUTE, 500))
        for k in range(work_elements):
            ops.append((OP_READ, PRIV_BASE + k * 16))    # ... = work(k)
            ops.append((OP_COMPUTE, 500))
        tasks.append(TaskSpec(task_id=i, ops=tuple(ops)))
    return Workload(name="work-array", tasks=tuple(tasks))


def dependence_loop() -> Workload:
    """Task 0 produces a value late; task 1 consumes it early."""
    tasks = [
        TaskSpec(0, ((OP_COMPUTE, 40_000), (OP_WRITE, DEP_BASE),
                     (OP_COMPUTE, 500))),
        TaskSpec(1, ((OP_COMPUTE, 500), (OP_READ, DEP_BASE),
                     (OP_COMPUTE, 20_000))),
        TaskSpec(2, ((OP_COMPUTE, 15_000),)),
    ]
    return Workload(name="dependence", tasks=tuple(tasks))


def main() -> None:
    machine = scaled_machine(NUMA_16, 4)

    print("=== Mostly-privatization loop (Figure 1-(b) pattern) ===")
    workload = privatization_loop()
    workload.validate_read_your_writes()
    for scheme in (MULTI_T_SV_EAGER, MULTI_T_MV_EAGER):
        result = simulate(machine, scheme, workload)
        sv_stall = result.cycles_by_category[CycleCategory.SV_STALL]
        print(f"{scheme.name:22} {result.total_cycles:>10,.0f} cycles | "
              f"version-conflict stall {sv_stall:>9,.0f} cycles")
    print("MultiT&SV serializes on the second local version of work(k); "
          "MultiT&MV buffers multiple versions per line and never stalls.\n")

    print("=== Cross-task dependence (out-of-order RAW) ===")
    workload = dependence_loop()
    result = simulate(machine, MULTI_T_MV_EAGER, workload, record_reads=True)
    print(f"violations detected : {result.violation_events}")
    print(f"task executions squashed: {result.squashed_executions}")
    print(f"wasted busy cycles  : {result.wasted_busy_cycles:,.0f}")
    print(f"read finally observed version: "
          f"{result.observed_reads[(1, DEP_BASE)]} (task 0's write)")
    assert result.memory_image == workload.sequential_image()
    print("After the squash and re-execution, memory matches sequential "
          "execution exactly.")


if __name__ == "__main__":
    main()
