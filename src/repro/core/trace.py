"""Structured event tracing for simulation runs.

A :class:`TraceRecorder` passed to :class:`~repro.core.engine.Simulation`
captures the protocol-level events of a run — task starts and completions,
commit-token holds, violations, squashes, stall transitions — as an ordered
list of typed records. The trace powers debugging, the timeline renderings,
and a family of tests that assert protocol-order invariants ("a task
commits only after it finished", "commits are totally ordered", "every
squashed attempt is eventually re-executed").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator


class TraceEvent(enum.Enum):
    """Protocol-level event kinds emitted by the engine."""

    TASK_START = "task-start"
    TASK_DONE = "task-done"
    COMMIT_BEGIN = "commit-begin"
    COMMIT_DONE = "commit-done"
    VIOLATION = "violation"
    TASK_SQUASHED = "task-squashed"
    SV_STALL = "sv-stall"
    SV_RESUME = "sv-resume"
    OVERFLOW_SPILL = "overflow-spill"
    UNDOLOG_APPEND = "undolog-append"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TraceRecord:
    """One traced event: what, when, which task, where."""

    event: TraceEvent
    time: float
    task_id: int
    proc_id: int | None = None
    #: Event-specific detail (e.g. the blocking task of an SV stall, the
    #: first victim of a violation).
    detail: int | None = None


class TraceRecorder:
    """Accumulates :class:`TraceRecord` entries in emission order."""

    def __init__(self) -> None:
        self._records: list[TraceRecord] = []

    def emit(self, event: TraceEvent, time: float, task_id: int,
             proc_id: int | None = None, detail: int | None = None) -> None:
        """Append one record (no-op cost when no recorder is attached)."""
        self._records.append(TraceRecord(event, time, task_id, proc_id,
                                         detail))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def records(self, event: TraceEvent | None = None,
                task_id: int | None = None) -> list[TraceRecord]:
        """Records filtered by kind and/or task."""
        return [
            r for r in self._records
            if (event is None or r.event is event)
            and (task_id is None or r.task_id == task_id)
        ]

    def count(self, event: TraceEvent) -> int:
        """Number of recorded events of ``kind``."""
        return sum(1 for r in self._records if r.event is event)

    def commit_order(self) -> list[int]:
        """Task IDs in the order their commits completed."""
        return [r.task_id for r in self._records
                if r.event is TraceEvent.COMMIT_DONE]

    def attempts(self, task_id: int) -> int:
        """Number of execution attempts of a task (1 + squashes)."""
        return sum(1 for r in self._records
                   if r.event is TraceEvent.TASK_START
                   and r.task_id == task_id)

    def verify_protocol_order(self) -> None:
        """Assert the fundamental ordering invariants of the protocol.

        Raises :class:`AssertionError` on the first inconsistency; intended
        for tests and debugging, not hot paths.
        """
        commits = self.commit_order()
        assert commits == sorted(commits), "commits out of task order"
        assert len(commits) == len(set(commits)), "task committed twice"
        done_times: dict[int, float] = {}
        for record in self._records:
            if record.event is TraceEvent.TASK_DONE:
                done_times[record.task_id] = record.time
            elif record.event is TraceEvent.TASK_SQUASHED:
                done_times.pop(record.task_id, None)
            elif record.event is TraceEvent.COMMIT_BEGIN:
                assert record.task_id in done_times, (
                    f"task {record.task_id} commits before finishing"
                )

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)
