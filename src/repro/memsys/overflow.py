"""Per-processor overflow memory area for AMM schemes.

Under AMM, a speculative dirty line displaced from the L2 cannot be written
to main memory (it would corrupt the architectural state), so — following
Prvulovic01, which the paper's base protocol adopts — it overflows into a
special per-processor memory area. Versions living there remain part of the
distributed MROB: they must eventually be accessed again, at the latest when
their task commits (Eager) or when they are merged on demand (Lazy), and
every such access pays memory-class latency plus a penalty.

This is the mechanism that makes AMM lose to FMM on P3m in Figure 10: under
FMM the *old* versions retire into the MHB and are "hopefully never accessed
again", while under AMM every overflowed version is on the program's path.
"""

from __future__ import annotations


class OverflowArea:
    """Holds displaced speculative (and lazily-committed) line versions."""

    def __init__(self, proc_id: int) -> None:
        self.proc_id = proc_id
        self._lines: dict[tuple[int, int], bool] = {}
        #: Most versions ever resident at once; the result reports the
        #: maximum over processors as ``peak_overflow_lines``.
        self.peak_lines = 0

    def spill(self, line_addr: int, task_id: int, committed: bool) -> None:
        """Accept a displaced dirty version of (``line_addr``, ``task_id``)."""
        self._lines[(line_addr, task_id)] = committed
        self.peak_lines = max(self.peak_lines, len(self._lines))

    def holds(self, line_addr: int, task_id: int) -> bool:
        return (line_addr, task_id) in self._lines

    def fetch(self, line_addr: int, task_id: int) -> bool:
        """Remove and return whether the version was present (refetch)."""
        return self._lines.pop((line_addr, task_id), None) is not None

    def mark_committed(self, task_id: int) -> int:
        """Flip all of ``task_id``'s overflowed versions to committed."""
        flipped = 0
        for key in self._lines:
            if key[1] == task_id and not self._lines[key]:
                self._lines[key] = True
                flipped += 1
        return flipped

    def lines_of_task(self, task_id: int) -> list[int]:
        """Line addresses of all of ``task_id``'s overflowed versions."""
        return [line for (line, task) in self._lines if task == task_id]

    def drain_task(self, task_id: int) -> list[int]:
        """Remove and return line addresses of all of ``task_id``'s versions.

        Used by the Eager AMM commit merge (every overflowed line must be
        written back) and by AMM squash recovery (versions are discarded).
        """
        keys = [k for k in self._lines if k[1] == task_id]
        for key in keys:
            del self._lines[key]
        return [line for line, _task in keys]

    def items(self) -> list[tuple[int, int, bool]]:
        """Every resident version as ``(line, task, committed)`` triples
        (read-only snapshot for the invariant checker)."""
        return [(line, task, committed)
                for (line, task), committed in self._lines.items()]

    def committed_lines(self) -> list[tuple[int, int]]:
        """(line, task) pairs still awaiting a lazy merge."""
        return [k for k, committed in self._lines.items() if committed]

    def discard(self, line_addr: int, task_id: int) -> None:
        self._lines.pop((line_addr, task_id), None)

    def __len__(self) -> int:
        return len(self._lines)
