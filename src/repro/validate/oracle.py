"""Differential conformance oracle across taxonomy points.

The paper's premise is that every taxonomy point buffers speculative
state differently but implements identical *architectural semantics*
(Section 3): the buffering scheme may change timing, never outcomes.
:func:`run_conformance` turns that premise into an executable oracle. It
runs the same (workload, seed) under every scheme — fanned out through
the :class:`~repro.runner.SweepRunner`, optionally with the runtime
:class:`~repro.validate.invariants.InvariantChecker` attached to each
run — and asserts the facts that must be timing-independent:

* **Final memory state** — every scheme's final word -> producer image
  equals the sequential last-writer image (and therefore every other
  scheme's).
* **Committed dataflow** — the version each committed task consumed at
  its first read of each word equals the sequential producer, under
  every scheme: squashes may reorder attempts, but committed reads must
  observe sequential semantics. The read map is opt-in, so the oracle's
  jobs set ``record_reads``; a run without it fails this check.
* **Violation facts** — a workload with no potential out-of-order RAW
  (no task reads a word that any earlier task writes, before writing it
  itself) must report *zero* violations under every scheme; when
  potential victims exist, the earliest task any scheme ever squashes
  must be one of them (later squashes are timing-dependent cascade
  members and are reported, not asserted).

Divergences are collected, not raised, so one report covers the whole
grid; ``repro-tls validate`` renders it and exits non-zero when any
check failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.config import MachineConfig
from repro.core.taxonomy import EVALUATED_SCHEMES, Scheme
from repro.errors import ReproError
from repro.runner import SimJob, SweepRunner, WorkloadSpec
from repro.tls.task import OP_READ, OP_WRITE
from repro.workloads.base import Workload


@dataclass(frozen=True)
class Divergence:
    """One failed conformance check."""

    workload: str
    check: str  # "memory-image" | "dataflow" | "violations" | "invariants"
    scheme: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.workload} / {self.scheme}] {self.check}: {self.detail}"


@dataclass(frozen=True)
class SchemeOutcome:
    """Per-(workload, scheme) summary shown in the conformance report."""

    workload: str
    scheme: str
    total_cycles: float
    events_processed: int
    violation_events: int
    squashed_executions: int
    squashed_tasks: tuple[int, ...]


@dataclass
class ConformanceReport:
    """Outcome of one :func:`run_conformance` sweep."""

    machine: str
    workloads: list[str]
    schemes: list[str]
    invariants_checked: bool
    outcomes: list[SchemeOutcome] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.divergences


def potential_raw_victims(workload: Workload) -> set[int]:
    """Tasks that *could* suffer an out-of-order RAW under some timing.

    Task U is a potential victim iff there is a word U reads before
    writing it (in U's program order — reading after its own write always
    hits U's own version) that some earlier task writes. If this set is
    empty, no interleaving of any scheme can produce a violation, so the
    oracle demands zero violations everywhere; if it is non-empty, the
    earliest squashed task must belong to it (squash cascades only add
    *later* tasks).
    """
    first_writer: dict[int, int] = {}
    victims: set[int] = set()
    for task in workload.tasks:
        written: set[int] = set()
        for kind, value in task.ops:
            if kind == OP_WRITE:
                written.add(value)
                first_writer.setdefault(value, task.task_id)
            elif kind == OP_READ and value not in written:
                writer = first_writer.get(value)
                if writer is not None and writer < task.task_id:
                    victims.add(task.task_id)
    return victims


def _squashed_tasks(result) -> tuple[int, ...]:
    return tuple(sorted(t.task_id for t in result.task_timings
                        if t.squashes > 0))


def run_conformance(
    machine: MachineConfig,
    specs: Sequence[WorkloadSpec],
    schemes: Sequence[Scheme] = EVALUATED_SCHEMES,
    *,
    runner: SweepRunner | None = None,
    check_invariants: bool = True,
) -> ConformanceReport:
    """Run every workload under every scheme and check equivalence.

    ``runner`` defaults to a cache-less :class:`SweepRunner` (a cached
    result would replay a *previous* engine's behaviour, which is exactly
    what the oracle must not trust); pass a cache-backed one explicitly
    to trade re-verification for speed.
    """
    if runner is None:
        runner = SweepRunner(cache=None)
    report = ConformanceReport(
        machine=machine.name,
        workloads=[s.app for s in specs],
        schemes=[s.name for s in schemes],
        invariants_checked=check_invariants,
    )

    for spec in specs:
        workload = spec.generate()
        jobs = [
            SimJob(machine=machine, workload=spec, scheme=scheme,
                   check_invariants=check_invariants, record_reads=True)
            for scheme in schemes
        ]
        try:
            results = runner.run_many(jobs)
        except ReproError as exc:
            # An InvariantViolation (or any protocol error) aborts the
            # whole batch; record it against the workload and move on.
            report.divergences.append(Divergence(
                workload=spec.app, check="invariants", scheme="*",
                detail=str(exc),
            ))
            continue

        expected_image = workload.sequential_image()
        expected_reads = workload.sequential_reads()
        victims = potential_raw_victims(workload)

        for scheme, result in zip(schemes, results):
            report.outcomes.append(SchemeOutcome(
                workload=spec.app,
                scheme=scheme.name,
                total_cycles=result.total_cycles,
                events_processed=result.events_processed,
                violation_events=result.violation_events,
                squashed_executions=result.squashed_executions,
                squashed_tasks=_squashed_tasks(result),
            ))

            if result.memory_image != expected_image:
                diff = {
                    w: (result.memory_image.get(w), expected_image.get(w))
                    for w in set(result.memory_image) | set(expected_image)
                    if result.memory_image.get(w) != expected_image.get(w)
                }
                sample = dict(sorted(diff.items())[:5])
                report.divergences.append(Divergence(
                    workload=spec.app, check="memory-image",
                    scheme=scheme.name,
                    detail=f"{len(diff)} words differ from the sequential "
                           f"last-writer image (got, expected): {sample}",
                ))

            if result.observed_reads != expected_reads:
                diff_keys = [
                    k for k in set(result.observed_reads) | set(expected_reads)
                    if result.observed_reads.get(k) != expected_reads.get(k)
                ]
                sample = {
                    k: (result.observed_reads.get(k), expected_reads.get(k))
                    for k in sorted(diff_keys)[:5]
                }
                report.divergences.append(Divergence(
                    workload=spec.app, check="dataflow", scheme=scheme.name,
                    detail=f"{len(diff_keys)} committed reads consumed a "
                           f"non-sequential version (got, expected): "
                           f"{sample}",
                ))

            squashed = _squashed_tasks(result)
            if not victims and (result.violation_events or squashed):
                report.divergences.append(Divergence(
                    workload=spec.app, check="violations", scheme=scheme.name,
                    detail=f"workload has no potential out-of-order RAW, yet "
                           f"{result.violation_events} violation events "
                           f"squashed tasks {list(squashed)[:8]}",
                ))
            elif squashed and min(squashed) not in victims:
                report.divergences.append(Divergence(
                    workload=spec.app, check="violations", scheme=scheme.name,
                    detail=f"earliest squashed task {min(squashed)} is not a "
                           f"potential RAW victim "
                           f"(victims={sorted(victims)[:8]})",
                ))
    return report


def render_conformance_report(report: ConformanceReport) -> str:
    """Human-readable conformance report for the CLI / CI log."""
    lines = [
        f"conformance oracle on {report.machine}: "
        f"{len(report.workloads)} workload(s) x "
        f"{len(report.schemes)} scheme(s)"
        + (", runtime invariants checked" if report.invariants_checked
           else ""),
    ]
    width = max((len(s) for s in report.schemes), default=10)
    for workload in report.workloads:
        rows = [o for o in report.outcomes if o.workload == workload]
        if not rows:
            lines.append(f"  {workload}: aborted (see divergences)")
            continue
        lines.append(f"  {workload}:")
        for o in rows:
            lines.append(
                f"    {o.scheme:<{width}}  {o.total_cycles:>12,.0f} cyc  "
                f"{o.events_processed:>8,} ev  "
                f"{o.violation_events:>3} viol  "
                f"{o.squashed_executions:>3} squashes"
            )
    if report.divergences:
        lines.append(f"FAIL: {len(report.divergences)} divergence(s)")
        for divergence in report.divergences:
            lines.append(f"  - {divergence}")
    else:
        lines.append(
            "PASS: identical final memory state, sequential committed "
            "dataflow, and timing-independent violation facts across all "
            "schemes"
        )
    return "\n".join(lines)
