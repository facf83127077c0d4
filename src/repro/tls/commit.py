"""Commit token and commit-wavefront tracking.

Tasks commit in strict sequential order by passing a commit token. The
controller tracks which task must commit next, whether a commit (token hold)
is in flight, and the cumulative token-hold time — the *commit wavefront*
whose position relative to the execution wavefront explains the Eager/Lazy
differences (Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProtocolError


@dataclass
class CommitStats:
    """Commit-token timing: the result's ``token_hold_cycles`` and
    ``commit_wavefront``."""
    #: Total cycles the token was held (sum of commit durations).
    token_hold_cycles: float = 0.0
    #: (task_id, start, end) per commit, for wavefront plots (Figure 6).
    wavefront: list[tuple[int, float, float]] = field(default_factory=list)


class CommitController:
    """Serializes commits in task-ID order."""

    def __init__(self, n_tasks: int) -> None:
        self.n_tasks = n_tasks
        self.next_to_commit = 0
        self._in_flight: int | None = None
        self.stats = CommitStats()

    @property
    def token_free(self) -> bool:
        return self._in_flight is None

    @property
    def in_flight(self) -> int | None:
        """Task currently holding the commit token (invariant checks)."""
        return self._in_flight

    def can_commit(self, task_id: int) -> bool:
        """True when ``task_id`` is next in order and the token is free."""
        return self.token_free and task_id == self.next_to_commit

    def begin_commit(self, task_id: int, now: float) -> None:
        """Take the token for ``task_id``."""
        if not self.can_commit(task_id):
            raise ProtocolError(
                f"task {task_id} cannot commit now (next={self.next_to_commit}, "
                f"in_flight={self._in_flight})"
            )
        self._in_flight = task_id

    def finish_commit(self, task_id: int, start: float, end: float) -> None:
        """Release the token and advance the commit wavefront."""
        if self._in_flight != task_id:
            raise ProtocolError(
                f"finishing commit of task {task_id} but "
                f"{self._in_flight} is in flight"
            )
        self._in_flight = None
        self.next_to_commit += 1
        self.stats.token_hold_cycles += end - start
        self.stats.wavefront.append((task_id, start, end))

    @property
    def all_committed(self) -> bool:
        return self.next_to_commit >= self.n_tasks
