"""Per-processor undo log implementing the Memory-System History Buffer.

Under FMM, before a task creates its own version of a line, the previous
version (from an earlier local task, or the architectural/future state
fetched from memory) is saved here. Each entry is tagged with the
*producer* task ID of the saved version and the *overwriting* task ID
(Figure 7-(c)); both are needed to reconstruct the total version order of a
variable across the distributed MHB during recovery.

Entries are appended sequentially (the log is a sequentially-accessed
structure, per Section 3.3.4), freed in bulk when the overwriting task
commits, and replayed in strict reverse task order on a squash.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtocolError


@dataclass(frozen=True)
class LogEntry:
    """One saved (pre-overwrite) line version.

    ``words`` maps each word address of the saved version to the producer
    task that wrote it (``ARCH_TASK_ID`` for words never written in the
    speculative section). Restoring the entry rewrites exactly these words.
    """

    line_addr: int
    producer_task: int
    overwriting_task: int
    words: tuple[tuple[int, int], ...]

    def words_dict(self) -> dict[int, int]:
        """The saved words as a plain address->value dict."""
        return dict(self.words)


class UndoLog:
    """The MHB of one processor (hardware ULOG or the software FMM.Sw log)."""

    def __init__(self, proc_id: int) -> None:
        self.proc_id = proc_id
        self._entries: list[LogEntry] = []
        #: (overwriting_task, line_addr) pairs already logged, to enforce
        #: the one-entry-per-first-write rule.
        self._logged: set[tuple[int, int]] = set()
        #: Most entries ever live at once; the result reports the maximum
        #: over processors as ``peak_undolog_entries``.
        self.peak_entries = 0

    def needs_entry(self, overwriting_task: int, line_addr: int) -> bool:
        """True if ``overwriting_task`` has not yet logged ``line_addr``."""
        return (overwriting_task, line_addr) not in self._logged

    def append(self, entry: LogEntry) -> None:
        """Log the overwritten version of a line before memory is updated."""
        key = (entry.overwriting_task, entry.line_addr)
        if key in self._logged:
            raise ProtocolError(
                f"proc {self.proc_id}: duplicate log entry for task "
                f"{entry.overwriting_task} line {entry.line_addr:#x}"
            )
        if entry.producer_task >= entry.overwriting_task:
            raise ProtocolError(
                f"proc {self.proc_id}: log entry saves version "
                f"{entry.producer_task} overwritten by non-later task "
                f"{entry.overwriting_task}"
            )
        self._logged.add(key)
        self._entries.append(entry)
        self.peak_entries = max(self.peak_entries, len(self._entries))

    def free_task(self, committed_task: int) -> int:
        """Free all entries created by ``committed_task`` (commit-time).

        Returns the number of entries freed.
        """
        keep = [e for e in self._entries if e.overwriting_task != committed_task]
        freed = len(self._entries) - len(keep)
        self._entries = keep
        self._logged = {k for k in self._logged if k[0] != committed_task}
        return freed

    def pop_entries_of(self, squashed_task: int) -> list[LogEntry]:
        """Remove and return ``squashed_task``'s entries, newest first.

        The engine replays the returned entries (across all processors, in
        strict reverse task order) to revert the future state to the point
        before the squashed task ran.
        """
        mine = [e for e in self._entries if e.overwriting_task == squashed_task]
        if mine:
            self._entries = [e for e in self._entries
                             if e.overwriting_task != squashed_task]
            self._logged = {k for k in self._logged if k[0] != squashed_task}
        return list(reversed(mine))

    def entries(self) -> tuple[LogEntry, ...]:
        """All live entries in append order (read-only snapshot)."""
        return tuple(self._entries)

    def entries_of(self, task_id: int) -> list[LogEntry]:
        """Live log entries belonging to ``task_id``, oldest first."""
        return [e for e in self._entries if e.overwriting_task == task_id]

    def __len__(self) -> int:
        return len(self._entries)
