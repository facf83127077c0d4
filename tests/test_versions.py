"""Unit and property tests for the version directory and violation rules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys.cache import ARCH_TASK_ID
from repro.tls.versions import VersionDirectory


class TestVersionSelection:
    def test_no_version_is_arch(self):
        directory = VersionDirectory()
        assert directory.version_for_read(100, 5) == ARCH_TASK_ID

    def test_latest_not_exceeding_reader(self):
        directory = VersionDirectory()
        for producer in (2, 5, 9):
            directory.record_write(100, producer)
        assert directory.version_for_read(100, 1) == ARCH_TASK_ID
        assert directory.version_for_read(100, 2) == 2
        assert directory.version_for_read(100, 7) == 5
        assert directory.version_for_read(100, 9) == 9
        assert directory.version_for_read(100, 50) == 9

    def test_own_version_readable(self):
        directory = VersionDirectory()
        directory.record_write(100, 4)
        assert directory.version_for_read(100, 4) == 4

    def test_duplicate_write_single_version(self):
        directory = VersionDirectory()
        directory.record_write(100, 4)
        directory.record_write(100, 4)
        assert directory.producers_of(100) == [4]


class TestViolationDetection:
    def test_out_of_order_raw_detected(self):
        """Reader 5 consumed version 1; write by 3 (1 < 3 < 5) violates."""
        directory = VersionDirectory()
        directory.record_write(100, 1)
        directory.record_read(100, 5, 1)
        assert directory.record_write(100, 3) == [5]

    def test_in_order_read_safe(self):
        """Reader 5 consumed version 3; a later write by 2 is older."""
        directory = VersionDirectory()
        directory.record_write(100, 3)
        directory.record_read(100, 5, 3)
        assert directory.record_write(100, 2) == []

    def test_write_by_successor_never_violates(self):
        directory = VersionDirectory()
        directory.record_read(100, 5, ARCH_TASK_ID)
        assert directory.record_write(100, 7) == []

    def test_arch_read_violated_by_any_predecessor_write(self):
        directory = VersionDirectory()
        directory.record_read(100, 5, ARCH_TASK_ID)
        assert directory.record_write(100, 2) == [5]

    def test_own_read_never_recorded(self):
        directory = VersionDirectory()
        directory.record_write(100, 5)
        directory.record_read(100, 5, 5)
        assert directory.record_write(100, 3) == []

    def test_multiple_violated_readers_sorted(self):
        directory = VersionDirectory()
        for reader in (9, 6, 7):
            directory.record_read(100, reader, ARCH_TASK_ID)
        assert directory.record_write(100, 4) == [6, 7, 9]

    def test_min_version_seen_kept(self):
        """Re-reads keep the *oldest* consumed version for safety."""
        directory = VersionDirectory()
        directory.record_read(100, 5, 2)
        directory.record_read(100, 5, 4)
        # Write by 3: reader saw version 2 first, so it is violated.
        assert directory.record_write(100, 3) == [5]

    def test_different_word_no_violation(self):
        """Word granularity: writes to other words never squash."""
        directory = VersionDirectory()
        directory.record_read(100, 5, ARCH_TASK_ID)
        assert directory.record_write(101, 2) == []


class TestBookkeeping:
    def test_purge_task_removes_versions_and_reads(self):
        directory = VersionDirectory()
        directory.record_write(100, 3)
        directory.record_read(200, 3, ARCH_TASK_ID)
        directory.purge_task(3, written={100}, read={200})
        assert directory.version_for_read(100, 9) == ARCH_TASK_ID
        # Reader record gone: a predecessor write no longer violates.
        assert directory.record_write(200, 1) == []

    def test_purge_tasks_full_sweep(self):
        directory = VersionDirectory()
        directory.record_write(100, 3)
        directory.record_write(100, 4)
        directory.purge_tasks({3})
        assert directory.producers_of(100) == [4]

    def test_forget_reader_targeted(self):
        directory = VersionDirectory()
        directory.record_read(100, 5, ARCH_TASK_ID)
        directory.forget_reader(5, read={100})
        assert directory.record_write(100, 2) == []

    def test_forget_reader_full(self):
        directory = VersionDirectory()
        directory.record_read(100, 5, ARCH_TASK_ID)
        directory.forget_reader(5)
        assert directory.record_write(100, 2) == []

    def test_final_image(self):
        directory = VersionDirectory()
        directory.record_write(100, 3)
        directory.record_write(100, 7)
        directory.record_write(200, 1)
        assert directory.final_image() == {100: 7, 200: 1}

    def test_has_version(self):
        directory = VersionDirectory()
        directory.record_write(100, 3)
        assert directory.has_version(100, 3)
        assert not directory.has_version(100, 2)

    def test_forwarded_read_stat(self):
        directory = VersionDirectory()
        directory.record_write(100, 1)
        directory.record_read(100, 5, 1)
        directory.record_read(200, 5, ARCH_TASK_ID)
        assert directory.stats.forwarded_reads == 1


class TestProperties:
    """Hypothesis property tests on version ordering invariants."""

    @given(writes=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 30)),
                           max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_read_version_is_max_producer_at_most_reader(self, writes):
        directory = VersionDirectory()
        model: dict[int, set[int]] = {}
        for word, producer in writes:
            directory.record_write(word, producer)
            model.setdefault(word, set()).add(producer)
        for word in model:
            for reader in range(0, 32):
                expected = max(
                    (p for p in model[word] if p <= reader),
                    default=ARCH_TASK_ID,
                )
                assert directory.version_for_read(word, reader) == expected

    @given(
        producers=st.sets(st.integers(0, 20), min_size=1, max_size=10),
        reader=st.integers(0, 25),
    )
    @settings(max_examples=60, deadline=None)
    def test_violation_iff_intervening_write(self, producers, reader):
        """A later write violates exactly when it lands between the version
        the reader consumed and the reader itself."""
        directory = VersionDirectory()
        for producer in producers:
            directory.record_write(100, producer)
        seen = directory.version_for_read(100, reader)
        directory.record_read(100, reader, seen)
        for writer in range(0, 26):
            fresh = VersionDirectory()
            fresh.record_read(100, reader, seen)
            violated = fresh.record_write(100, writer)
            should = seen < writer < reader
            assert (reader in violated) == should

    @given(ops=st.lists(
        st.tuples(st.sampled_from(["w", "purge"]), st.integers(0, 6),
                  st.integers(0, 5)),
        max_size=30,
    ))
    @settings(max_examples=60, deadline=None)
    def test_purge_matches_model(self, ops):
        directory = VersionDirectory()
        model: dict[int, set[int]] = {}
        for op, task, word in ops:
            if op == "w":
                directory.record_write(word, task)
                model.setdefault(word, set()).add(task)
            else:
                directory.purge_task(task, written={word}, read=set())
                model.get(word, set()).discard(task)
        for word, tasks in model.items():
            assert directory.producers_of(word) == sorted(tasks)
