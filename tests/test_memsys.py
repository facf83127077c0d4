"""Unit tests for main memory (MTID), overflow area, undo log, addressing."""

import pytest

from repro.errors import ProtocolError
from repro.memsys.address import line_of, word_in_line, words_of_line
from repro.memsys.cache import ARCH_TASK_ID
from repro.memsys.mainmem import MainMemory
from repro.memsys.overflow import OverflowArea
from repro.memsys.undolog import LogEntry, UndoLog


class TestAddress:
    def test_line_of(self):
        assert line_of(0) == 0
        assert line_of(15) == 0
        assert line_of(16) == 1

    def test_word_in_line(self):
        assert word_in_line(17) == 1

    def test_words_of_line_round_trip(self):
        words = list(words_of_line(3))
        assert len(words) == 16
        assert all(line_of(w) == 3 for w in words)
        assert [word_in_line(w) for w in words] == list(range(16))


class TestMainMemoryMTID:
    def test_in_order_writebacks_accepted(self):
        mem = MainMemory(mtid_enabled=True)
        assert mem.writeback_words({100: 1}) == 1
        assert mem.writeback_words({100: 3}) == 1
        assert mem.producer_of(100) == 3

    def test_stale_writeback_rejected(self):
        """MTID discards a write-back older than the resident version."""
        mem = MainMemory(mtid_enabled=True)
        mem.writeback_words({100: 5})
        assert mem.writeback_words({100: 2}) == 0
        assert mem.producer_of(100) == 5

    def test_equal_producer_rejected(self):
        mem = MainMemory()
        mem.writeback_words({100: 5})
        assert mem.writeback_words({100: 5}) == 0

    def test_partial_line_merge(self):
        mem = MainMemory()
        mem.writeback_words({100: 5, 101: 5})
        updated = mem.writeback_words({100: 7, 101: 3})
        assert updated == 1
        assert mem.producer_of(100) == 7
        assert mem.producer_of(101) == 5

    def test_restore_moves_backwards(self):
        mem = MainMemory(mtid_enabled=True)
        mem.writeback_words({100: 9})
        mem.restore_words({100: 4})
        assert mem.producer_of(100) == 4

    def test_restore_to_arch_clears(self):
        mem = MainMemory()
        mem.writeback_words({100: 9})
        mem.restore_words({100: ARCH_TASK_ID})
        assert mem.producer_of(100) == ARCH_TASK_ID
        assert 100 not in mem.image()

    def test_unwritten_word_is_arch(self):
        assert MainMemory().producer_of(12345) == ARCH_TASK_ID


class TestOverflowArea:
    def test_spill_fetch_cycle(self):
        overflow = OverflowArea(proc_id=0)
        overflow.spill(0x100, 3, committed=False)
        assert overflow.holds(0x100, 3)
        assert overflow.fetch(0x100, 3)
        assert not overflow.holds(0x100, 3)
        assert not overflow.fetch(0x100, 3)

    def test_drain_task(self):
        overflow = OverflowArea(0)
        overflow.spill(0x100, 3, committed=False)
        overflow.spill(0x200, 3, committed=False)
        overflow.spill(0x100, 4, committed=False)
        assert sorted(overflow.drain_task(3)) == [0x100, 0x200]
        assert len(overflow) == 1

    def test_mark_committed_and_committed_lines(self):
        overflow = OverflowArea(0)
        overflow.spill(0x100, 3, committed=False)
        overflow.spill(0x200, 4, committed=False)
        assert overflow.mark_committed(3) == 1
        assert overflow.committed_lines() == [(0x100, 3)]

    def test_lines_of_task(self):
        overflow = OverflowArea(0)
        overflow.spill(0x100, 3, committed=False)
        overflow.spill(0x300, 3, committed=True)
        assert sorted(overflow.lines_of_task(3)) == [0x100, 0x300]

    def test_peak_tracked(self):
        overflow = OverflowArea(0)
        for i in range(5):
            overflow.spill(i, 1, committed=False)
        overflow.fetch(0, 1)
        assert overflow.peak_lines == 5


class TestUndoLog:
    def entry(self, line=0x100, producer=1, overwriter=2):
        return LogEntry(line_addr=line, producer_task=producer,
                        overwriting_task=overwriter,
                        words=((line * 16, producer),))

    def test_append_and_needs(self):
        log = UndoLog(0)
        assert log.needs_entry(2, 0x100)
        log.append(self.entry())
        assert not log.needs_entry(2, 0x100)
        assert log.needs_entry(3, 0x100)
        assert len(log) == 1

    def test_duplicate_rejected(self):
        log = UndoLog(0)
        log.append(self.entry())
        with pytest.raises(ProtocolError, match="duplicate"):
            log.append(self.entry())

    def test_ordering_enforced(self):
        """A saved version must be older than its overwriter."""
        log = UndoLog(0)
        with pytest.raises(ProtocolError):
            log.append(self.entry(producer=5, overwriter=5))

    def test_free_task(self):
        log = UndoLog(0)
        log.append(self.entry(line=0x100, overwriter=2))
        log.append(self.entry(line=0x200, overwriter=2))
        log.append(self.entry(line=0x100, overwriter=3, producer=2))
        assert log.free_task(2) == 2
        assert len(log) == 1
        # Freed keys can be logged again (next speculative section).
        assert log.needs_entry(2, 0x100)

    def test_pop_entries_newest_first(self):
        log = UndoLog(0)
        first = self.entry(line=0x100, overwriter=2)
        second = self.entry(line=0x200, overwriter=2)
        log.append(first)
        log.append(second)
        popped = log.pop_entries_of(2)
        assert popped == [second, first]
        assert len(log) == 0
        assert log.pop_entries_of(2) == []

    def test_arch_producer_allowed(self):
        log = UndoLog(0)
        log.append(LogEntry(0x100, -1, 0, words=((0, -1),)))
        assert len(log.entries_of(0)) == 1

    def test_words_dict(self):
        entry = self.entry()
        assert entry.words_dict() == {0x100 * 16: 1}
