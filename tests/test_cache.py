"""Unit tests for the version cache (CTID-tagged, multi-version sets)."""

import pytest

from repro.core.config import CacheGeometry
from repro.errors import SimulationError
from repro.memsys.cache import ARCH_TASK_ID, CacheLine, VersionCache


@pytest.fixture
def cache() -> VersionCache:
    # 4 sets x 2 ways.
    return VersionCache(CacheGeometry(size_bytes=512, assoc=2), name="t")


def line(addr: int, task: int, dirty=False, committed=False) -> CacheLine:
    return CacheLine(addr, task, dirty=dirty, committed=committed)


class TestLookup:
    def test_find_exact_version(self, cache):
        cache.insert(line(0x100, 3, dirty=True), now=1)
        assert cache.find(0x100, 3) is not None
        assert cache.find(0x100, 4) is None
        assert cache.find(0x104, 3) is None

    def test_multi_version_same_set(self, cache):
        """Two versions of the same line occupy two ways of one set."""
        cache.insert(line(0x100, 1, dirty=True), now=1)
        cache.insert(line(0x100, 2, dirty=True), now=2)
        entries = cache.entries(0x100)
        assert {e.task_id for e in entries} == {1, 2}
        assert len(cache) == 2

    def test_find_speculative_excludes_committed_and_arch(self, cache):
        cache.insert(line(0x100, 1, dirty=True), now=1)
        cache.insert(line(0x100, 2, dirty=True, committed=True), now=2)
        spec = cache.find_speculative(0x100)
        assert [e.task_id for e in spec] == [1]
        cache.insert(line(0x200, ARCH_TASK_ID), now=3)
        assert cache.find_speculative(0x200) == []

    def test_touch_counts_hit(self, cache):
        entry = line(0x100, 1)
        cache.insert(entry, now=1)
        cache.touch(entry, now=5)
        assert entry.last_touch == 5


class TestReplacement:
    def test_lru_victim(self, cache):
        # Same set: line addresses differing by n_sets (4).
        cache.insert(line(0, 1), now=1)
        cache.insert(line(4, 1), now=2)
        victim = cache.insert(line(8, 1), now=3)
        assert victim is not None and victim.line_addr == 0

    def test_touch_protects_from_eviction(self, cache):
        first = line(0, 1)
        cache.insert(first, now=1)
        cache.insert(line(4, 1), now=2)
        cache.touch(first, now=3)
        victim = cache.insert(line(8, 1), now=4)
        assert victim.line_addr == 4

    def test_same_version_overwrites_in_place(self, cache):
        cache.insert(line(0x100, 1, dirty=False), now=1)
        victim = cache.insert(line(0x100, 1, dirty=True), now=2)
        assert victim is None
        assert len(cache.entries(0x100)) == 1
        assert cache.find(0x100, 1).dirty

    def test_victim_filter(self, cache):
        pinned = line(0, 1, dirty=True)
        cache.insert(pinned, now=5)
        cache.insert(line(4, 1), now=1)
        victim = cache.insert(line(8, 1), now=6,
                              victim_filter=lambda e: not e.dirty)
        assert victim.line_addr == 4  # dirty line skipped despite older LRU

    def test_all_pinned_raises(self, cache):
        cache.insert(line(0, 1), now=1)
        cache.insert(line(4, 1), now=2)
        with pytest.raises(SimulationError, match="no evictable"):
            cache.insert(line(8, 1), now=3, victim_filter=lambda e: False)

    def test_displacement_stats(self, cache):
        cache.insert(line(0, 1, dirty=True), now=1)
        cache.insert(line(4, 2, dirty=True, committed=True), now=2)
        spec = cache.insert(line(8, 3), now=3)        # evicts speculative dirty
        committed = cache.insert(line(12, 3), now=4)  # evicts committed dirty
        assert (spec.line_addr, spec.task_id) == (0, 1)
        assert (committed.line_addr, committed.task_id) == (4, 2)
        assert cache.stats.speculative_displacements == 1


class TestBulkOperations:
    def test_invalidate_task(self, cache):
        cache.insert(line(0x100, 1, dirty=True), now=1)   # set 0
        cache.insert(line(0x101, 1, dirty=True), now=2)   # set 1
        cache.insert(line(0x100, 2, dirty=True), now=3)   # set 0, 2nd way
        assert cache.invalidate_task(1) == 2
        assert cache.find(0x100, 1) is None
        assert cache.find(0x100, 2) is not None
        assert len(cache) == 1

    def test_mark_committed(self, cache):
        cache.insert(line(0x100, 1, dirty=True), now=1)
        cache.insert(line(0x200, 1, dirty=True), now=2)
        marked = cache.mark_committed(1)
        assert len(marked) == 2
        assert all(e.committed for e in cache.entries(0x100))
        # Idempotent: a second call finds nothing uncommitted.
        assert cache.mark_committed(1) == []

    def test_drain_task_clean(self, cache):
        cache.insert(line(0x100, 1, dirty=True), now=1)
        drained = cache.drain_task(1, clean=True)
        assert len(drained) == 1
        entry = cache.find(0x100, 1)
        assert entry is not None and not entry.dirty and entry.committed

    def test_drain_task_remove(self, cache):
        cache.insert(line(0x100, 1, dirty=True), now=1)
        cache.insert(line(0x200, 1, dirty=False), now=2)
        drained = cache.drain_task(1, clean=False)
        assert [e.line_addr for e in drained] == [0x100]
        assert cache.find(0x100, 1) is None
        # Clean lines are untouched by drain.
        assert cache.find(0x200, 1) is not None

    def test_committed_dirty(self, cache):
        cache.insert(line(0x100, 1, dirty=True, committed=True), now=1)
        cache.insert(line(0x200, 2, dirty=True, committed=False), now=2)
        assert [e.line_addr for e in cache.committed_dirty()] == [0x100]

    def test_remove_nonresident_raises(self, cache):
        with pytest.raises(SimulationError):
            cache.remove(line(0x100, 1))

    def test_iteration_and_len(self, cache):
        for i in range(3):
            cache.insert(line(i, 0), now=i)
        assert len(list(iter(cache))) == len(cache) == 3
