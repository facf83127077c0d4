"""Main memory with optional Memory Task-ID (MTID) tags.

Memory stores, per word, the producer task of the version it currently
holds (:data:`~repro.memsys.cache.ARCH_TASK_ID` before the speculative
section writes it). Under FMM — where even uncommitted versions may be
written back — the MTID support compares the producer ID of an incoming
write-back against the resident one and discards stale write-backs, so
memory always keeps the latest future state (Section 3.3.4). Under Lazy
AMM the same in-order guarantee is provided by the VCL, which the engine
models by routing write-backs through :meth:`writeback_words` as well; the
check is then merely an assertion that the VCL picked the right version.

The word-level producer map doubles as the simulator's value model: the
"value" of a word is the ID of the task that produced it, which lets the
test suite compare the final image against sequential execution exactly.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.memsys.cache import ARCH_TASK_ID


class MainMemory:
    """The machine's coherent main-memory image at word granularity."""

    def __init__(self, mtid_enabled: bool = False) -> None:
        self.mtid_enabled = mtid_enabled
        self._words: dict[int, int] = {}

    def producer_of(self, word_addr: int) -> int:
        """Producer task ID of the version memory holds for ``word_addr``."""
        return self._words.get(word_addr, ARCH_TASK_ID)

    def writeback_words(self, words: Mapping[int, int]) -> int:
        """Merge ``{word_addr: producer_task}`` into memory, newest wins.

        Returns the number of words actually updated. A word whose incoming
        producer is not newer than the resident one is discarded — this is
        the MTID rejection under FMM, and a no-op consistency check for the
        VCL-ordered write-backs of Lazy AMM.
        """
        updated = 0
        for word_addr, producer in words.items():
            if producer > self._words.get(word_addr, ARCH_TASK_ID):
                self._words[word_addr] = producer
                updated += 1
        return updated

    def restore_words(self, words: Mapping[int, int]) -> None:
        """Forcibly restore ``{word_addr: producer}`` (FMM undo-log replay).

        Unlike :meth:`writeback_words` this moves memory *backwards*: it is
        only legal during recovery, replaying MHB entries in strict reverse
        task order.
        """
        for word_addr, producer in words.items():
            if producer == ARCH_TASK_ID:
                self._words.pop(word_addr, None)
            else:
                self._words[word_addr] = producer

    def items(self):
        """Read-only view of the word -> producer map.

        Unlike :meth:`image` this does not copy, so the invariant checker
        can sweep memory after every event without allocation.
        """
        return self._words.items()

    def image(self) -> dict[int, int]:
        """A copy of the full word → producer image (for invariant checks)."""
        return dict(self._words)

    def written_words(self) -> Iterable[int]:
        return self._words.keys()
