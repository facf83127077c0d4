"""Simulation results and aggregate statistics.

:class:`SimulationResult` is what :func:`repro.core.engine.simulate`
returns: total execution time of the non-analyzable (speculative) section,
the per-category cycle breakdown the paper's stacked bars need, squash and
commit statistics, the Figure 1 occupancy/footprint characterization, and
the final memory image for correctness checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.taxonomy import Scheme
from repro.processor.processor import CycleCategory


@dataclass
class TrafficStats:
    """Protocol message counts of one run (network/memory traffic).

    Counts are events, not bytes: a remote-cache fetch is one
    request/response pair, a line write-back one data message, a VCL merge
    one combining transaction. Token passes equal the number of commits.
    """

    remote_cache_fetches: int = 0
    memory_fetches: int = 0
    line_writebacks: int = 0
    vcl_merges: int = 0
    overflow_spills: int = 0
    overflow_fetches: int = 0

    def total_messages(self) -> int:
        """Sum of all message counters."""
        return (self.remote_cache_fetches + self.memory_fetches
                + self.line_writebacks + self.vcl_merges
                + self.overflow_spills + self.overflow_fetches)


@dataclass(frozen=True)
class TaskTiming:
    """Per-task timing sample (wall-clock points of the final execution)."""

    task_id: int
    proc_id: int
    start_time: float
    finish_time: float
    commit_start: float
    commit_end: float
    squashes: int

    @property
    def execution_cycles(self) -> float:
        return max(0.0, self.finish_time - self.start_time)

    @property
    def commit_cycles(self) -> float:
        return max(0.0, self.commit_end - self.commit_start)


@dataclass
class SimulationResult:
    """Outcome of simulating one workload on one machine under one scheme."""

    scheme: Scheme
    machine_name: str
    workload_name: str
    n_procs: int
    n_tasks: int
    #: Wall-clock cycles of the speculative section, including the lazy
    #: final merge when applicable.
    total_cycles: float
    #: Sum over processors of cycles per category (each processor's
    #: categories sum to ``total_cycles``).
    cycles_by_category: dict[CycleCategory, float]
    #: Number of squash (violation recovery) events and squashed task
    #: executions.
    violation_events: int
    squashed_executions: int
    #: Commit wavefront: (task_id, start, end) per commit.
    commit_wavefront: list[tuple[int, float, float]]
    #: Cycles the commit token was held in total.
    token_hold_cycles: float
    #: Per-task execution/commit samples (for the commit/exec ratio).
    task_timings: list[TaskTiming]
    #: Time-weighted average number of speculative tasks in the system.
    avg_spec_tasks_in_system: float
    #: Mean written footprint per task, bytes and privatized fraction.
    avg_written_footprint_bytes: float
    priv_footprint_fraction: float
    #: Final word -> producer image of main memory after all merges.
    memory_image: dict[int, int] = field(default_factory=dict)
    #: (reader task, word) -> producer observed at the committed attempt's
    #: first read. Sequential semantics require this to equal the last
    #: program-order writer before the read (see Workload.sequential_reads).
    #: Empty unless the run recorded reads (``record_reads=True``).
    observed_reads: dict[tuple[int, int], int] = field(default_factory=dict)
    #: Peak lines resident in any overflow area / undo log.
    peak_overflow_lines: int = 0
    peak_undolog_entries: int = 0
    #: Total busy cycles wasted in squashed (re-executed) attempts.
    wasted_busy_cycles: float = 0.0
    #: L2 statistics aggregated over processors.
    l2_hit_rate: float = 0.0
    l2_speculative_displacements: int = 0
    #: Protocol message counts (see :class:`TrafficStats`).
    traffic: TrafficStats = field(default_factory=TrafficStats)
    #: Engine self-reported throughput: discrete events processed and the
    #: host wall-clock seconds the run took. ``wall_clock_seconds`` is a
    #: measurement of the *host*, not of the simulated machine — it varies
    #: run to run, so it is set on live results only and excluded from the
    #: stored and canonical forms (see
    #: :func:`repro.analysis.serialization.canonical_result_bytes`).
    events_processed: int = 0
    wall_clock_seconds: float = 0.0
    #: Observability attachments, populated only when the run carried a
    #: :class:`repro.obs.MetricsHook` / :class:`~repro.core.trace.\
    #: TraceRecorder`. Both are excluded from comparison and from every
    #: serialized form (see :mod:`repro.analysis.serialization`), so
    #: instrumented runs share cache keys semantics and canonical bytes
    #: with plain ones.
    metrics: "object | None" = field(default=None, compare=False, repr=False)
    trace: "object | None" = field(default=None, compare=False, repr=False)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def avg_spec_tasks_per_proc(self) -> float:
        return self.avg_spec_tasks_in_system / self.n_procs

    @property
    def busy_cycles(self) -> float:
        return self.cycles_by_category[CycleCategory.BUSY]

    @property
    def stall_cycles(self) -> float:
        return sum(v for c, v in self.cycles_by_category.items()
                   if c is not CycleCategory.BUSY)

    def busy_fraction(self) -> float:
        """Busy share of all processor cycles (the bars' Busy segment)."""
        total = self.busy_cycles + self.stall_cycles
        return self.busy_cycles / total if total else 0.0

    def commit_exec_ratio(self) -> float:
        """Mean ratio of task commit duration to task execution duration.

        The paper's Table 3 Commit/Execution Ratio, measured the same way:
        under a scheme where tasks do not stall (MultiT&MV Eager), the mean
        over committed tasks of commit time divided by execution time.
        """
        ratios = [t.commit_cycles / t.execution_cycles
                  for t in self.task_timings if t.execution_cycles > 0]
        return sum(ratios) / len(ratios) if ratios else 0.0

    def speedup_over(self, sequential_cycles: float) -> float:
        """Speedup of this run relative to ``baseline_cycles``."""
        if self.total_cycles <= 0:
            return 0.0
        return sequential_cycles / self.total_cycles

    def normalized_to(self, reference: "SimulationResult") -> float:
        """Execution time normalized to a reference run (Figure 9 bars)."""
        return self.total_cycles / reference.total_cycles

    def events_per_second(self) -> float:
        """Host-side engine throughput of the run (0 when not measured)."""
        if self.wall_clock_seconds <= 0:
            return 0.0
        return self.events_processed / self.wall_clock_seconds

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.workload_name:>8} | {self.scheme.name:<22} | "
            f"{self.total_cycles:>12.0f} cyc | busy {self.busy_fraction():5.1%} | "
            f"squash events {self.violation_events}"
        )
