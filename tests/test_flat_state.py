"""Lock-step tests for the engine-core v3 flat state columns.

Two pillars of the v3 layout are exercised here against plain
dict-based references implementing the v2 semantics:

* :class:`repro.memsys.cache.VersionCache` — the fused hot-path
  :meth:`~repro.memsys.cache.VersionCache.install` must be
  operation-for-operation equivalent to constructing a
  :class:`~repro.memsys.cache.CacheLine` and calling :meth:`insert`
  (same flag merging, LRU victim, statistics), and the slot columns
  (``_dirty`` / ``_committed`` / ``_touch`` / ``_key_slot`` /
  ``_view``) must stay consistent with the view objects after any
  operation stream.
* :class:`repro.tls.versions.VersionDirectory` — the interned rows
  (``_row`` / ``_producers`` / ``_readers`` / ``_words``) must answer
  every protocol query exactly like an unoptimized per-word
  two-dict reference.

The engine's batched drain loop binds these columns directly in its
inlined fast paths, so a divergence here is a bit-identity bug even if
the public API still looks healthy.
"""

from bisect import bisect_right, insort

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CacheGeometry
from repro.memsys.cache import ARCH_TASK_ID, KEY_BIAS, KEY_SHIFT, CacheLine, VersionCache
from repro.tls.versions import VersionDirectory

N_SETS = 4
ASSOC = 2
GEOMETRY = CacheGeometry(size_bytes=N_SETS * ASSOC * 64, assoc=ASSOC)

LINES = [0, 1, 2, 3, 4, 5, 8, 12]
TASKS = [ARCH_TASK_ID, 0, 1, 2, 3]


# ----------------------------------------------------------------------
# Cache: fused install() vs reference insert(CacheLine(...))
# ----------------------------------------------------------------------

CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("install"), st.sampled_from(LINES),
                  st.sampled_from(TASKS), st.booleans(), st.booleans()),
        st.tuples(st.just("find"), st.sampled_from(LINES),
                  st.sampled_from(TASKS)),
        st.tuples(st.just("mark_committed"), st.sampled_from(TASKS)),
        st.tuples(st.just("drain_clean"), st.sampled_from(TASKS)),
        st.tuples(st.just("invalidate"), st.sampled_from(TASKS)),
    ),
    min_size=0, max_size=60,
)


def _snapshot(cache):
    """Observable state: every resident (line, task) with its flags."""
    return sorted(
        (e.line_addr, e.task_id, e.dirty, e.committed, e.last_touch)
        for e in cache
    )


def _stats_tuple(cache):
    s = cache.stats
    return (s.hits, s.misses, s.speculative_displacements)


def _check_columns(cache):
    """The slot columns and the view objects must agree everywhere."""
    seen_slots = set()
    for entry in cache:
        slot = entry._slot
        assert entry._cache is cache
        assert slot not in seen_slots
        seen_slots.add(slot)
        key = (entry.line_addr << KEY_SHIFT) + entry.task_id + KEY_BIAS
        assert cache._key_slot[key] == slot
        assert cache._view[slot] is entry
        assert entry.dirty == bool(cache._dirty[slot])
        assert entry.committed == bool(cache._committed[slot])
        assert entry.last_touch == cache._touch[slot]
    assert len(seen_slots) == len(cache) == cache._resident
    assert len(cache._key_slot) == len(cache)
    free = set(cache._free)
    assert not (free & seen_slots)
    for slot in free:
        assert cache._view[slot] is None


@settings(max_examples=150, deadline=None)
@given(CACHE_OPS)
def test_install_lockstep_with_insert(ops):
    fused = VersionCache(GEOMETRY, name="fused")
    reference = VersionCache(GEOMETRY, name="reference")
    clock = 0.0
    for op in ops:
        clock += 1.0
        if op[0] == "install":
            _tag, line, task, dirty, committed = op
            victim_a = fused.install(line, task, dirty=dirty,
                                     committed=committed, now=clock)
            victim_b = reference.insert(
                CacheLine(line, task, dirty=dirty, committed=committed),
                clock)
            assert (victim_a is None) == (victim_b is None)
            if victim_a is not None:
                assert (victim_a.line_addr, victim_a.task_id,
                        victim_a.dirty, victim_a.committed,
                        victim_a.last_touch) == (
                    victim_b.line_addr, victim_b.task_id,
                    victim_b.dirty, victim_b.committed,
                    victim_b.last_touch)
        elif op[0] == "find":
            _tag, line, task = op
            hit_a = fused.find(line, task)
            hit_b = reference.find(line, task)
            assert (hit_a is None) == (hit_b is None)
            if hit_a is not None:
                fused.touch(hit_a, clock)
                reference.touch(hit_b, clock)
        elif op[0] == "mark_committed":
            marked_a = fused.mark_committed(op[1])
            marked_b = reference.mark_committed(op[1])
            assert len(marked_a) == len(marked_b)
        elif op[0] == "drain_clean":
            drained_a = fused.drain_task(op[1], clean=True)
            drained_b = reference.drain_task(op[1], clean=True)
            assert len(drained_a) == len(drained_b)
        else:  # invalidate
            assert (fused.invalidate_task(op[1])
                    == reference.invalidate_task(op[1]))
        assert _snapshot(fused) == _snapshot(reference)
        assert _stats_tuple(fused) == _stats_tuple(reference)
        for line in LINES:
            assert fused.version_count(line) == reference.version_count(line)
        _check_columns(fused)
        _check_columns(reference)


@settings(max_examples=100, deadline=None)
@given(CACHE_OPS)
def test_find_returns_interned_identity(ops):
    """find() must return the same view object until removal."""
    cache = VersionCache(GEOMETRY)
    clock = 0.0
    for op in ops:
        clock += 1.0
        if op[0] == "install":
            _tag, line, task, dirty, committed = op
            before = cache.find(line, task)
            cache.install(line, task, dirty=dirty, committed=committed,
                          now=clock)
            after = cache.find(line, task)
            assert after is not None
            if before is not None:
                # Re-installing an existing version keeps the object.
                assert after is before
                assert before._cache is cache
        elif op[0] == "invalidate":
            dropped = cache.lines_of_task(op[1])
            cache.invalidate_task(op[1])
            for entry in dropped:
                # Detached snapshots: stable values, no cache binding.
                assert entry._cache is None
                assert cache.find(entry.line_addr, entry.task_id) is not entry


# ----------------------------------------------------------------------
# Directory: interned rows vs per-word two-dict reference
# ----------------------------------------------------------------------

class ReferenceDirectory:
    """v2-semantics reference: two independent per-word dicts."""

    def __init__(self):
        self.producers = {}
        self.readers = {}
        self.reads = 0
        self.writes = 0
        self.forwarded_reads = 0

    def version_for_read(self, word, reader):
        producers = self.producers.get(word, [])
        idx = bisect_right(producers, reader)
        return producers[idx - 1] if idx else ARCH_TASK_ID

    def record_read(self, word, reader, seen):
        self.reads += 1
        if seen == reader:
            return
        if seen != ARCH_TASK_ID:
            self.forwarded_reads += 1
        readers = self.readers.setdefault(word, {})
        previous = readers.get(reader)
        if previous is None or seen < previous:
            readers[reader] = seen

    def record_write(self, word, producer):
        self.writes += 1
        producers = self.producers.setdefault(word, [])
        idx = bisect_right(producers, producer)
        if idx == 0 or producers[idx - 1] != producer:
            insort(producers, producer)
        return sorted(
            reader for reader, seen in self.readers.get(word, {}).items()
            if reader > producer and seen < producer
        )

    def purge_task(self, task, written, read):
        for word in written:
            producers = self.producers.get(word)
            if producers:
                idx = bisect_right(producers, task)
                if idx and producers[idx - 1] == task:
                    producers.pop(idx - 1)
        for word in read:
            self.readers.get(word, {}).pop(task, None)

    def forget_reader(self, task):
        for readers in self.readers.values():
            readers.pop(task, None)

    def final_image(self):
        return {word: producers[-1]
                for word, producers in self.producers.items() if producers}

    def words_written(self):
        return {word for word, producers in self.producers.items()
                if producers}


WORDS = list(range(8))
DIR_TASKS = list(range(5))

DIR_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.sampled_from(WORDS),
                  st.sampled_from(DIR_TASKS)),
        st.tuples(st.just("write"), st.sampled_from(WORDS),
                  st.sampled_from(DIR_TASKS)),
        st.tuples(st.just("purge"), st.sampled_from(DIR_TASKS)),
        st.tuples(st.just("forget"), st.sampled_from(DIR_TASKS)),
    ),
    min_size=0, max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(DIR_OPS)
def test_directory_rows_lockstep_with_reference(ops):
    directory = VersionDirectory()
    reference = ReferenceDirectory()
    for op in ops:
        if op[0] == "read":
            _tag, word, reader = op
            version = directory.version_for_read(word, reader)
            assert version == reference.version_for_read(word, reader)
            directory.record_read(word, reader, version)
            reference.record_read(word, reader, version)
        elif op[0] == "write":
            _tag, word, producer = op
            assert (directory.record_write(word, producer)
                    == reference.record_write(word, producer))
        elif op[0] == "purge":
            task = op[1]
            written = reference.words_written()
            read = set(WORDS)
            directory.purge_task(task, written, read)
            reference.purge_task(task, written, read)
        else:  # forget
            directory.forget_reader(op[1])
            reference.forget_reader(op[1])
        stats = directory.stats
        assert (stats.reads, stats.writes, stats.forwarded_reads) == (
            reference.reads, reference.writes, reference.forwarded_reads)
        for word in WORDS:
            assert (directory.producers_of(word)
                    == reference.producers.get(word, []))
            for bound in DIR_TASKS:
                assert (directory.latest_version_at_most(word, bound)
                        == reference.version_for_read(word, bound))
        assert directory.final_image() == reference.final_image()
        assert directory.words_written() == reference.words_written()
        # Row-column consistency: _row and _words are exact inverses.
        for word, row in directory._row.items():
            assert directory._words[row] == word
        assert len(directory._producers) == len(directory._words)
        assert len(directory._readers) == len(directory._words)
