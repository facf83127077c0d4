"""Discrete-event simulation engine for TLS buffering schemes.

One :class:`Simulation` executes one workload on one machine under one
buffering scheme and produces a :class:`~repro.core.results.SimulationResult`.
The engine implements the behaviours Section 3.3 of the paper attributes to
each taxonomy point:

* **SingleT** — a processor that finishes a speculative task parks until the
  task commits, then claims the next task.
* **MultiT&SV** — a processor parks when a task is about to create a second
  local speculative version of a line, resuming when the first version's
  task becomes non-speculative.
* **MultiT&MV** — no version-support stalls; external reads pay CRL
  selection occupancy when several same-address versions are resident.
* **Eager AMM** — the commit token is held while all of the committing
  task's dirty lines (cache and overflow area) are written back to memory.
* **Lazy AMM** — commit passes the token after a constant latency;
  committed versions merge on displacement / external request through the
  VCL and in a parallel final-merge phase at the end of the loop.
* **FMM** — commit passes the token after a constant latency; overwritten
  versions are saved to the per-processor undo log (MHB) on a task's first
  write to a line; dirty lines displace freely to memory under MTID
  protection; squash recovery replays the MHB in strict reverse task order
  through (simulated) software handlers.

The engine processes one event per memory operation, so the global time
ordering of reads and writes across processors — which determines
violations — is preserved to memory-latency resolution.
"""

from __future__ import annotations

import time
from bisect import bisect_right, insort
from typing import Callable

from repro.core.config import MachineConfig
from repro.core.events import BucketQueue
from repro.core.results import SimulationResult, TaskTiming, TrafficStats
from repro.core.taxonomy import MergePolicy, Scheme, TaskPolicy
from repro.errors import ConfigurationError, SimulationError
from repro.memsys.address import WORDS_PER_LINE, line_of, words_of_line
from repro.memsys.cache import ARCH_TASK_ID, KEY_BIAS, KEY_SHIFT, CacheLine
from repro.memsys.mainmem import MainMemory
from repro.memsys.undolog import LogEntry
from repro.processor.processor import CycleCategory, Processor
from repro.tls.commit import CommitController
from repro.tls.scheduler import TaskScheduler
from repro.tls.task import (
    STEP_BUSY,
    STEP_READ,
    STEP_WRITE,
    TaskRun,
    TaskState,
    compile_steps,
)
from repro.core.hooks import SimulationHook
from repro.core.trace import TraceEvent, TraceRecorder
from repro.tls.versions import VersionDirectory
from repro.workloads.base import Workload

_MAX_EVENTS_DEFAULT = 50_000_000

#: Shift equivalents used by the batched drain loop's inlined fast paths:
#: ``line_of(word) == word >> _LINE_SHIFT`` for the power-of-two line size,
#: and the packed cache residency key from :mod:`repro.memsys.cache`.
_LINE_SHIFT = WORDS_PER_LINE.bit_length() - 1
assert 1 << _LINE_SHIFT == WORDS_PER_LINE
_KEY_SHIFT = KEY_SHIFT
assert KEY_BIAS == 2  # the inline fast paths hard-code the +2 bias

#: Version tag of the engine's timing model and result format. Bump
#: whenever a change alters simulated timing, statistics, or what a result
#: carries: the on-disk result cache (:mod:`repro.runner.cache`) keys every
#: entry on this tag, so stale results from an older engine are never
#: replayed as current ones. Since "3", a result carries the
#: read->producer map only when the run recorded it (``record_reads``).
ENGINE_VERSION = "3"


class Simulation:
    """One end-to-end run of a workload under a buffering scheme."""

    def __init__(
        self,
        machine: MachineConfig,
        scheme: Scheme,
        workload: Workload,
        *,
        allow_shaded: bool = False,
        high_level_patterns: bool = False,
        violation_granularity: str = "word",
        trace: "TraceRecorder | None" = None,
        hook: "SimulationHook | None" = None,
        record_reads: bool = False,
        max_events: int = _MAX_EVENTS_DEFAULT,
    ) -> None:
        if scheme.is_shaded and not allow_shaded:
            raise ConfigurationError(
                f"{scheme.name} is a shaded (uninteresting) taxonomy point; "
                "pass allow_shaded=True to simulate it anyway"
            )
        self.machine = machine
        self.scheme = scheme
        self.workload = workload
        self.costs = machine.costs
        self.max_events = max_events
        #: [16]'s High-Level Access Patterns support (excluded from the
        #: paper's base protocol; reproduced here as an optional
        #: extension): writes to declared mostly-private data allocate
        #: their line locally without fetching the previous version.
        self.high_level_patterns = high_level_patterns
        #: Optional structured event trace (see repro.core.trace).
        self.trace = trace
        #: Optional observation hook (see repro.core.hooks). ``None`` keeps
        #: the event loop free of any per-event work beyond one branch.
        self.hook = hook
        #: Fill each task's read -> producer map (``result.observed_reads``)
        #: for the sequential-semantics checks. Off by default: the map is
        #: large and only the conformance oracle and tests read it.
        self.record_reads = record_reads
        if violation_granularity not in ("word", "line"):
            raise ConfigurationError(
                f"violation_granularity must be 'word' or 'line', got "
                f"{violation_granularity!r}")
        #: "word" is the paper's base protocol ("squashes only on
        #: out-of-order RAWs to the same word"); "line" models the
        #: conservative designs that track at cache-line granularity and
        #: therefore also squash on false sharing.
        self.violation_granularity = violation_granularity

        self.procs = [Processor(p, machine) for p in range(machine.n_procs)]
        self.runs: dict[int, TaskRun] = {
            t.task_id: TaskRun(spec=t) for t in workload.tasks
        }
        self.scheduler = TaskScheduler(self.runs)
        self.commit = CommitController(len(workload.tasks))
        self.directory = VersionDirectory()
        self.memory = MainMemory(
            mtid_enabled=scheme.merge_policy is MergePolicy.FMM
        )

        # Event queue: (time, seq, bound method, args). The callback is
        # stored unwrapped with its arguments so the hot loop never
        # allocates a closure per event; the calendar buckets keep each
        # push/pop from ordering against every other pending event.
        self._events = BucketQueue()
        self._seq = 0
        self._events_processed = 0
        self._wall_clock_seconds = 0.0
        self.now = 0.0
        self._finished = False
        self.total_cycles = 0.0

        # Per-home-node memory bank occupancy (contention model).
        self._bank_free = [0.0] * machine.n_procs
        self._n_procs = machine.n_procs
        # Precomputed node-to-node latency tables: the mesh hop computation
        # costs a topology lookup plus coordinate math per access, and the
        # hot fetch paths ask for the same (requester, node) pairs millions
        # of times per run.
        n = machine.n_procs
        self._mem_lat = [
            [float(machine.memory_latency(r, h)) for h in range(n)]
            for r in range(n)
        ]
        self._remote_lat = [
            [float(machine.remote_cache_latency(r, o)) for o in range(n)]
            for r in range(n)
        ]
        # CMP shared L3: lines that have been brought on-package.
        self._l3_lines: set[int] | None = (
            set() if machine.lat_l3 is not None else None
        )
        # Pre-bound dispatch state (engine-core v2): the per-op handlers
        # branch on the scheme's taxonomy point and the machine's latency
        # constants millions of times per run, so enum comparisons and
        # attribute chains are resolved once here and the hot paths read
        # plain local/instance values.
        self._is_fmm = scheme.merge_policy is MergePolicy.FMM
        self._is_lazy = scheme.merge_policy is MergePolicy.LAZY_AMM
        self._is_eager = scheme.merge_policy is MergePolicy.EAGER_AMM
        self._is_single_t = scheme.task_policy is TaskPolicy.SINGLE_T
        self._is_sv = scheme.task_policy is TaskPolicy.MULTI_T_SV
        self._is_mv = scheme.task_policy is TaskPolicy.MULTI_T_MV
        self._line_gran = violation_granularity == "line"
        self._lat_l1f = float(machine.lat_l1)
        self._lat_l2f = float(machine.lat_l2)
        self._ipc = self.costs.ipc
        self._overflow_pen = self.costs.overflow_penalty
        self._crl_select = self.costs.crl_select
        self._vcl_combine = self.costs.vcl_combine
        self._ov_cap = self.costs.overflow_capacity_lines
        self._ov_excess = float(self.costs.overflow_excess_penalty)
        self._bank_service = self.costs.memory_bank_service
        # Procs with no runnable work, waiting for squash re-enqueues.
        self._idle_procs: set[int] = set()
        # In-flight op accounting (engine-core v3): flat per-processor
        # columns indexed by proc id, for exact attribution if the op is
        # aborted by a squash. A column set replaces the old proc->tuple
        # dict: the drain loop writes three floats and a flag instead of
        # hashing the proc id and allocating a tuple per event.
        self._inflight_start = [0.0] * n
        self._inflight_busy = [0.0] * n
        self._inflight_mem = [0.0] * n
        self._inflight_live = bytearray(n)
        # Compiled step columns (engine-core v3): each task's op list is
        # flattened once into parallel (kind, word, busy) arrays — see
        # repro.tls.task.compile_steps — so the hot loop advances a
        # cursor through flat columns instead of re-scanning and
        # re-coalescing the op tuples on every event.
        ipc = self.costs.ipc
        for run in self.runs.values():
            run.step_kind, run.step_word, run.step_busy = compile_steps(
                run.spec, ipc)

        # Statistics.
        self.traffic = TrafficStats()
        self._violation_events = 0
        self._squashed_executions = 0
        self._wasted_busy = 0.0
        self._spec_task_integral = 0.0
        self._spec_task_count = 0
        self._spec_task_last_t = 0.0
        self._footprint_bytes: list[int] = []
        self._footprint_priv_words = 0
        self._footprint_total_words = 0

    @property
    def finished(self) -> bool:
        """True once the last task committed and accounting was closed."""
        return self._finished

    # ==================================================================
    # Event queue plumbing
    # ==================================================================
    def _schedule(self, when: float, fn: Callable[..., None],
                  args: tuple = ()) -> None:
        """Queue ``fn(*args, when)`` to run at simulated time ``when``."""
        if when < self.now - 1e-9:
            raise SimulationError(f"scheduling into the past: {when} < {self.now}")
        self._seq += 1
        self._events.push((when, self._seq, fn, args))

    def run(self) -> SimulationResult:
        """Execute the workload to completion and return the result.

        The event loop comes in two compiled-in variants — with and
        without an observation hook — selected once here, so an
        unobserved run's dispatch path carries no per-event hook test at
        all (attaching a hook swaps the dispatch loop rather than
        flipping a flag the loop would have to re-check).
        """
        started = time.perf_counter()
        for proc in self.procs:
            self._claim(proc, 0.0)
        hook = self.hook
        if hook is not None:
            hook.on_start(self)
        try:
            if hook is not None:
                self._drain_events_hooked(hook)
            else:
                self._drain_events()
        finally:
            self._wall_clock_seconds = time.perf_counter() - started
        result = self._build_result()
        if hook is not None:
            hook.on_finish(self, result)
        return result

    def _drain_events(self) -> None:
        """Hot batched dispatch loop (no hook attached) — engine-core v3.

        Structure: :meth:`BucketQueue.pop_batch
        <repro.core.events.BucketQueue.pop_batch>` hands over every
        event sharing the minimum timestamp in exact ``(when, seq)``
        order, so the clock write, queue probes, and policy flags are
        paid once per batch instead of once per event. Within the batch,
        the overwhelmingly common event — an op completion whose next
        step is a busy burst, an L1-resident read, or an L1-resident
        write — is executed inline against the flat state columns
        (compiled task steps, interned cache slots, interned directory
        rows, flat in-flight/accounting columns); every other case falls
        back to the same :meth:`_advance` / :meth:`_task_done` methods
        the hooked loop uses, so there is exactly one implementation of
        the protocol's hard cases. Op completions travel with
        ``fn=None`` (see :meth:`_schedule_op_done`); the inline path and
        :meth:`_op_done` are mutation-for-mutation identical, which is
        what keeps this rewrite bit-identical with no ENGINE_VERSION
        bump.
        """
        # Bind everything the loop touches to locals once.
        events = self._events
        pop_batch = events.pop_batch
        push = events.push
        max_events = self.max_events
        processed = self._events_processed
        procs = self.procs
        directory = self.directory
        dir_rows = directory._row
        dir_producers = directory._producers
        dir_readers = directory._readers
        dir_words = directory._words
        dstats = directory.stats
        l1_keys = [p.l1._key_slot for p in procs]
        l1_touch = [p.l1._touch for p in procs]
        l1_dirty = [p.l1._dirty for p in procs]
        l1_stats = [p.l1.stats for p in procs]
        accounts = [p.account._cycles for p in procs]
        inflight_start = self._inflight_start
        inflight_busy = self._inflight_busy
        inflight_mem = self._inflight_mem
        inflight_live = self._inflight_live
        lat_l1 = self._lat_l1f
        is_sv = self._is_sv
        record_reads = self.record_reads
        # The inline read/write paths implement word-granularity
        # violation tracking only; the conservative line-granularity
        # mode takes the method path for every memory op.
        fast_rw = not self._line_gran
        try:
            while not self._finished:
                if not events:
                    raise SimulationError(
                        f"event queue empty before completion "
                        f"(committed {self.commit.next_to_commit}/"
                        f"{self.commit.n_tasks})"
                    )
                batch = pop_batch()
                when = batch[0][0]
                self.now = when
                for event in batch:
                    processed += 1
                    if processed > max_events:
                        raise SimulationError(
                            f"exceeded {self.max_events} events; "
                            f"likely livelock"
                        )
                    fn = event[2]
                    if fn is not None:
                        fn(*event[3], when)
                        if self._finished:
                            break
                        continue
                    # ---- op completion (inlined _op_done) ----
                    proc, epoch, run, attempt, busy, mem = event[3]
                    if proc.epoch != epoch or run.attempt != attempt:
                        continue  # aborted by a squash
                    pid = proc.proc_id
                    inflight_live[pid] = False
                    account = accounts[pid]
                    account[0] += busy   # CycleCategory.BUSY
                    account[1] += mem    # CycleCategory.MEMORY
                    run.attempt_busy += busy
                    # ---- advance (inlined) ----
                    kinds = run.step_kind
                    i = run.op_index
                    if i == len(kinds):
                        self._task_done(proc, run, when)
                        if self._finished:
                            break
                        continue
                    kind = kinds[i]
                    if kind == STEP_BUSY:
                        step_busy = run.step_busy[i]
                        run.op_index = i + 1
                        inflight_start[pid] = when
                        inflight_busy[pid] = step_busy
                        inflight_mem[pid] = 0.0
                        inflight_live[pid] = True
                        seq = self._seq + 1
                        self._seq = seq
                        push((when + step_busy, seq, None,
                              (proc, epoch, run, attempt, step_busy, 0.0)))
                        continue
                    if fast_rw:
                        word = run.step_word[i]
                        tid = run.spec.task_id
                        if kind == STEP_READ:
                            # version_for_read against the interned rows.
                            row = dir_rows.get(word)
                            if row is None:
                                producer = ARCH_TASK_ID
                            else:
                                producers = dir_producers[row]
                                idx = (bisect_right(producers, tid)
                                       if producers else 0)
                                producer = (producers[idx - 1] if idx
                                            else ARCH_TASK_ID)
                            line = word >> _LINE_SHIFT
                            slot = l1_keys[pid].get(
                                (line << _KEY_SHIFT) + producer + 2)
                            if slot is not None:
                                # L1 hit on the exact version: touch,
                                # record the read, complete at L1 latency.
                                l1_touch[pid][slot] = when
                                l1_stats[pid].hits += 1
                                dstats.reads += 1
                                if producer != tid:
                                    if producer != ARCH_TASK_ID:
                                        dstats.forwarded_reads += 1
                                    if row is None:
                                        row = len(dir_words)
                                        dir_rows[word] = row
                                        dir_producers.append([])
                                        dir_readers.append({tid: producer})
                                        dir_words.append(word)
                                    else:
                                        readers = dir_readers[row]
                                        previous = readers.get(tid)
                                        if (previous is None
                                                or producer < previous):
                                            readers[tid] = producer
                                    run.read_words.add(word)
                                if record_reads:
                                    observed = run.observed_reads
                                    if word not in observed:
                                        observed[word] = producer
                                run.op_index = i + 1
                                inflight_start[pid] = when
                                inflight_busy[pid] = 0.0
                                inflight_mem[pid] = lat_l1
                                inflight_live[pid] = True
                                seq = self._seq + 1
                                self._seq = seq
                                push((when + lat_l1, seq, None,
                                      (proc, epoch, run, attempt,
                                       0.0, lat_l1)))
                                continue
                        elif not is_sv:
                            # Write hitting the task's own L1 version.
                            line = word >> _LINE_SHIFT
                            slot = l1_keys[pid].get(
                                (line << _KEY_SHIFT) + tid + 2)
                            if slot is not None:
                                l1_touch[pid][slot] = when
                                l1_stats[pid].hits += 1
                                l1_dirty[pid][slot] = 1
                                words = run.words_by_line.get(line)
                                if words is None:
                                    run.words_by_line[line] = {word}
                                else:
                                    words.add(word)
                                # record_write against the interned rows.
                                dstats.writes += 1
                                row = dir_rows.get(word)
                                if row is None:
                                    dir_rows[word] = len(dir_words)
                                    dir_producers.append([tid])
                                    dir_readers.append({})
                                    dir_words.append(word)
                                else:
                                    producers = dir_producers[row]
                                    idx = bisect_right(producers, tid)
                                    if idx == 0 or producers[idx - 1] != tid:
                                        insort(producers, tid)
                                    readers = dir_readers[row]
                                    if readers:
                                        violated = [
                                            reader
                                            for reader, seen
                                            in readers.items()
                                            if reader > tid and seen < tid
                                        ]
                                        if violated:
                                            dstats.violations += 1
                                            self._squash(min(violated), when)
                                run.op_index = i + 1
                                inflight_start[pid] = when
                                inflight_busy[pid] = 0.0
                                inflight_mem[pid] = lat_l1
                                inflight_live[pid] = True
                                seq = self._seq + 1
                                self._seq = seq
                                push((when + lat_l1, seq, None,
                                      (proc, epoch, run, attempt,
                                       0.0, lat_l1)))
                                continue
                    # Anything else — L1 miss, SV write, line-granularity
                    # mode, FMM first write, overflow refetch — takes the
                    # reference method path from the current step.
                    self._advance(proc, when)
                    if self._finished:
                        break
        finally:
            self._events_processed = processed

    def _drain_events_hooked(self, hook: "SimulationHook") -> None:
        """Batched dispatch loop variant with an observation hook.

        Identical semantics to :meth:`_drain_events`, with two
        differences: every event goes through the reference methods
        (no inline fast path — observed runs are not the hot path), and
        ``after_event`` fires after each event, including the one that
        finishes the simulation.
        """
        events = self._events
        pop_batch = events.pop_batch
        max_events = self.max_events
        processed = self._events_processed
        after_event = hook.after_event
        op_done = self._op_done
        try:
            while not self._finished:
                if not events:
                    raise SimulationError(
                        f"event queue empty before completion "
                        f"(committed {self.commit.next_to_commit}/"
                        f"{self.commit.n_tasks})"
                    )
                batch = pop_batch()
                when = batch[0][0]
                self.now = when
                for event in batch:
                    processed += 1
                    if processed > max_events:
                        raise SimulationError(
                            f"exceeded {self.max_events} events; "
                            f"likely livelock"
                        )
                    fn = event[2]
                    if fn is None:
                        op_done(*event[3], when)
                    else:
                        fn(*event[3], when)
                    after_event(self, when)
                    if self._finished:
                        break
        finally:
            self._events_processed = processed

    # ==================================================================
    # Task claiming and op processing
    # ==================================================================
    def _claim(self, proc: Processor, now: float) -> None:
        """Give ``proc`` its next task, or park it idle."""
        if proc.current is not None:
            raise SimulationError(f"P{proc.proc_id} claiming while running")
        run = self.scheduler.claim()
        if run is None:
            self._idle_procs.add(proc.proc_id)
            proc.park(now, CycleCategory.IDLE)
            return
        run.begin_attempt(proc.proc_id, now)
        proc.current = run
        proc.resident[run.task_id] = run
        self._spec_count_change(+1, now)
        if self.trace is not None:
            self.trace.emit(TraceEvent.TASK_START, now, run.task_id,
                            proc.proc_id)
        self._advance(proc, now)

    def _advance(self, proc: Processor, now: float) -> None:
        """Process the current task's next step, or complete the task.

        Reference implementation of one advance: the batched drain loops
        inline the common cases (busy burst, L1-resident read/write) and
        fall back here for everything else. Steps come from the compiled
        flat columns (:func:`~repro.tls.task.compile_steps`): compute
        instructions are already coalesced into single busy bursts that
        complete in one event, and memory operations are performed with
        no pending busy time, so violation interleavings and stall starts
        are observed at their true simulated times.
        """
        run = proc.current
        if run is None:
            raise SimulationError(f"P{proc.proc_id} advancing without a task")
        kinds = run.step_kind
        i = run.op_index
        if i == len(kinds):
            self._task_done(proc, run, now)
            return
        kind = kinds[i]
        if kind == STEP_BUSY:
            run.op_index = i + 1
            self._schedule_op_done(proc, run, now, busy=run.step_busy[i],
                                   mem=0.0)
            return
        word = run.step_word[i]
        if kind == STEP_WRITE and self._is_sv:
            blocker = self._sv_blocker(proc, run, word)
            if blocker is not None:
                run.state = TaskState.SV_STALLED
                proc.park(now, CycleCategory.SV_STALL, sv_blocker=blocker)
                if self.trace is not None:
                    self.trace.emit(TraceEvent.SV_STALL, now, run.task_id,
                                    proc.proc_id, detail=blocker)
                return
        if kind == STEP_READ:
            latency, extra_busy = self._do_read(proc, run, word, now)
        else:
            latency, extra_busy = self._do_write(proc, run, word, now)
        run.op_index = i + 1
        self._schedule_op_done(proc, run, now, busy=extra_busy, mem=latency)

    def _schedule_op_done(self, proc: Processor, run: TaskRun, now: float,
                          *, busy: float, mem: float) -> None:
        pid = proc.proc_id
        self._inflight_start[pid] = now
        self._inflight_busy[pid] = busy
        self._inflight_mem[pid] = mem
        self._inflight_live[pid] = 1
        # Direct push: durations are non-negative by construction, so the
        # scheduling-into-the-past check of _schedule is redundant here.
        # Op completions are marked with fn=None instead of a bound method:
        # the drain loops recognize the marker and run the completion
        # inline (or via _op_done on the hooked path).
        self._seq += 1
        self._events.push((
            now + busy + mem, self._seq, None,
            (proc, proc.epoch, run, run.attempt, busy, mem),
        ))

    def _op_done(
        self,
        proc: Processor,
        epoch: int,
        run: TaskRun,
        attempt: int,
        busy: float,
        mem: float,
        now: float,
    ) -> None:
        if proc.epoch != epoch or run.attempt != attempt:
            return  # aborted by a squash; accounting handled there
        self._inflight_live[proc.proc_id] = 0
        proc.account.add_op(busy, mem)
        run.attempt_busy += busy
        self._advance(proc, now)

    def _task_done(self, proc: Processor, run: TaskRun, now: float) -> None:
        run.state = TaskState.DONE
        run.finish_time = now
        if self.trace is not None:
            self.trace.emit(TraceEvent.TASK_DONE, now, run.task_id,
                            proc.proc_id)
        self._drain_l1_to_l2(proc, run, now)
        self._record_footprint(run)
        proc.current = None
        if self.scheme.task_policy is TaskPolicy.SINGLE_T:
            proc.park(now, CycleCategory.COMMIT_STALL)
        else:
            self._claim(proc, now)
        self._try_commit(now)

    def _drain_l1_to_l2(self, proc: Processor, run: TaskRun, now: float) -> None:
        """Move the finished task's dirty L1 lines into the L2.

        Models the L1-table traversal of Section 4.1 (its time is "largely
        negligible", so no cycles are charged).
        """
        l1 = proc.l1
        dirty_col = l1._dirty
        committed_col = l1._committed
        for entry in l1.lines_of_task(run.task_id):
            slot = entry._slot
            if dirty_col[slot]:
                committed = bool(committed_col[slot])
                l1.remove(entry)
                victim = proc.l2.install(entry.line_addr, entry.task_id,
                                         dirty=True, committed=committed,
                                         now=now)
                if victim is not None:
                    self._dispose_victim(proc, victim, now)

    # ==================================================================
    # Memory operations
    # ==================================================================
    def _do_read(
        self, proc: Processor, run: TaskRun, word: int, now: float
    ) -> tuple[float, float]:
        producer = self.directory.version_for_read(word, run.task_id)
        latency = self._fetch_latency(proc, line_of(word), producer, now)
        if producer == run.task_id and self._line_gran:
            # Line-granularity hardware sets a per-line read bit even when
            # the task only consumes its own word: the rest of the line
            # copy dates from before this task's version, so an
            # out-of-order write to the line must squash conservatively.
            base = self.directory.latest_version_below(word, run.task_id)
            self.directory.record_read(word, run.task_id, base)
            run.read_words.add(word)
        else:
            self.directory.record_read(word, run.task_id, producer)
            if producer != run.task_id:
                run.read_words.add(word)
        if self.record_reads and word not in run.observed_reads:
            run.observed_reads[word] = producer
        return latency, 0.0

    def _do_write(
        self, proc: Processor, run: TaskRun, word: int, now: float
    ) -> tuple[float, float]:
        line = word >> _LINE_SHIFT
        tid = run.task_id
        extra_busy = 0.0

        # Locate / allocate the task's own version of the line (probing
        # the packed residency key directly; the task's own lookup does
        # not record misses, matching find()'s purity).
        l1 = proc.l1
        key = (line << _KEY_SHIFT) + tid + 2
        slot = l1._key_slot.get(key)
        l2_slot = None if slot is not None else proc.l2._key_slot.get(key)
        if slot is not None:
            l1._touch[slot] = now
            l1.stats.hits += 1
            l1._dirty[slot] = 1
            latency = self._lat_l1f
        elif l2_slot is not None:
            l2 = proc.l2
            l2._touch[l2_slot] = now
            l2.stats.hits += 1
            l2._dirty[l2_slot] = 1
            self._install(l1, proc, line, tid, dirty=True,
                          committed=False, now=now)
            latency = self._lat_l2f
        elif proc.overflow.holds(line, tid):
            # Refetch the task's own overflowed version (the excess
            # penalty is judged on occupancy before the version is
            # removed from the area).
            excess = self._overflow_excess_penalty(proc)
            proc.overflow.fetch(line, tid)
            home = self.machine.home_node(line)
            latency = (self._mem_lat[proc.proc_id][home]
                       + self._overflow_pen + excess)
            self._install_both(proc, line, tid, dirty=True, now=now)
        else:
            # First write (or version displaced to memory under FMM):
            # write-allocate, fetching the previous version of the word.
            if self.high_level_patterns and self.workload.is_priv(word):
                # HLAP: the compiler declared this data mostly-private and
                # fully overwritten, so the line is allocated locally
                # without fetching the stale previous version.
                latency = self._lat_l2f
            else:
                prev = self.directory.latest_version_at_most(word, tid)
                latency = self._fetch_latency(proc, line, prev, now,
                                              install_copy=False)
            if self._is_fmm:
                extra_busy += self._fmm_log_overwrite(proc, run, line, now)
            self._install_both(proc, line, tid, dirty=True, now=now)

        words = run.words_by_line.get(line)
        if words is None:
            run.words_by_line[line] = {word}
        else:
            words.add(word)
        violated = self.directory.record_write(word, tid)
        if self._line_gran:
            # Conservative line-granularity detection: readers of *any*
            # word in the written line are (falsely) violated too.
            for other in words_of_line(line):
                if other != word:
                    violated = sorted(set(violated).union(
                        self.directory.violated_readers(other, tid)))
        if violated:
            self._squash(violated[0], now)
        return latency, extra_busy

    def _fmm_log_overwrite(
        self, proc: Processor, run: TaskRun, line: int, now: float
    ) -> float:
        """Save the pre-overwrite version of ``line`` into the MHB.

        Returns extra busy cycles (software logging executes instructions;
        hardware ULOG insertion is charged as a small fixed cost).
        Under FMM only the newest version of a line lives in a processor's
        cache: older local versions are dropped once their contents are
        safely in the log (and reachable in memory through MTID ordering).
        """
        tid = run.task_id
        if not proc.undolog.needs_entry(tid, line):
            return 0.0
        # Per-word previous-version probes against the directory's
        # interned rows (inline latest_version_at_most: one line is
        # WORDS_PER_LINE probes, several thousand lines get logged per
        # FMM run). The words iterate in ascending address order, so the
        # collected pairs are already sorted.
        rows = self.directory._row
        all_producers = self.directory._producers
        words: list[tuple[int, int]] = []
        saved_producer = ARCH_TASK_ID
        start = line << _LINE_SHIFT
        for w in range(start, start + WORDS_PER_LINE):
            row = rows.get(w)
            if row is None:
                prev = ARCH_TASK_ID
            else:
                producers = all_producers[row]
                idx = bisect_right(producers, tid) if producers else 0
                prev = producers[idx - 1] if idx else ARCH_TASK_ID
            if prev == tid:
                # The word was written by tid itself in an earlier attempt
                # epoch; cannot happen for a first write in this attempt.
                raise SimulationError(
                    f"task {tid} logging a line it already owns: {line:#x}"
                )
            words.append((w, prev))
            if prev > saved_producer:
                saved_producer = prev
        proc.undolog.append(LogEntry(
            line_addr=line,
            producer_task=saved_producer if saved_producer < tid else ARCH_TASK_ID,
            overwriting_task=tid,
            words=tuple(words),
        ))
        if self.trace is not None:
            self.trace.emit(TraceEvent.UNDOLOG_APPEND, now, tid,
                            proc.proc_id, detail=line)
        # Drop older local versions of the line: their state is recoverable
        # from the MHB, and memory keeps the latest future state via MTID.
        for cache in (proc.l1, proc.l2):
            for entry in list(cache.entries(line)):
                if entry.task_id != tid:
                    if entry.dirty:
                        self._writeback_entry_to_memory(entry)
                    cache.remove(entry)
        if self.scheme.software_log:
            return self.costs.swlog_instructions / self.costs.ipc
        return float(self.costs.ulog_insert)

    # ------------------------------------------------------------------
    # Version location and latency
    # ------------------------------------------------------------------
    def _fetch_latency(
        self,
        proc: Processor,
        line: int,
        producer: int,
        now: float,
        install_copy: bool = True,
    ) -> float:
        """Round-trip latency to obtain version ``producer`` of ``line``."""
        l1 = proc.l1
        key = (line << _KEY_SHIFT) + producer + 2
        slot = l1._key_slot.get(key)
        if slot is not None:
            l1._touch[slot] = now
            l1.stats.hits += 1
            return self._lat_l1f
        l1.stats.misses += 1
        l2 = proc.l2
        slot = l2._key_slot.get(key)
        if slot is not None:
            l2._touch[slot] = now
            l2.stats.hits += 1
            if install_copy:
                self._install(l1, proc, line, producer, dirty=False,
                              committed=bool(l2._committed[slot]), now=now)
            return self._lat_l2f
        l2.stats.misses += 1
        latency, cacheable = self._global_fetch(proc, line, producer)
        if install_copy and cacheable:
            self._install_both(proc, line, producer, dirty=False, now=now,
                               committed=True)
        return latency

    def _global_fetch(
        self, proc: Processor, line: int, producer: int
    ) -> tuple[float, bool]:
        """Latency to fetch (line, producer) from outside the local caches.

        Returns ``(latency, cacheable)``: copies of *speculative* remote
        versions are not installed locally (the producer may still extend
        them word by word), so they are re-fetched on every access —
        matching the conservative forwarding of the base protocol.
        Architectural and committed data is immutable and cacheable.
        """
        if producer == ARCH_TASK_ID:
            return self._arch_fetch_latency(proc, line), True

        owner_run = self.runs[producer]
        committed = owner_run.state is TaskState.COMMITTED
        owner_id = owner_run.proc_id
        if owner_id is not None:
            owner = self.procs[owner_id]
            entry = owner.l2.find(line, producer) or owner.l1.find(line, producer)
            if entry is not None:
                lat = self._remote_lat[proc.proc_id][owner_id]
                self.traffic.remote_cache_fetches += 1
                if self._is_mv and owner.l2.version_count(line) > 1:
                    lat += self._crl_select
                if entry.committed and self._is_lazy:
                    lat += self._vcl_combine
                return lat, committed
            if owner.overflow.holds(line, producer):
                lat = (self._mem_lat[proc.proc_id][owner_id]
                       + self._overflow_pen
                       + self._overflow_excess_penalty(owner))
                self.traffic.overflow_fetches += 1
                return lat, committed
        # Fallback: the version has been merged into (or displaced to)
        # main memory.
        return self._arch_fetch_latency(proc, line), committed

    def _arch_fetch_latency(self, proc: Processor, line: int) -> float:
        """Latency of a fetch served by main memory (or the CMP's L3)."""
        self.traffic.memory_fetches += 1
        home = line % self._n_procs
        if self._l3_lines is not None:
            if line in self._l3_lines:
                return float(self.machine.lat_l3 or 0) + self._bank_wait(home)
            self._l3_lines.add(line)
            return self._mem_lat[proc.proc_id][0] + self._bank_wait(home)
        return self._mem_lat[proc.proc_id][home] + self._bank_wait(home)

    def _bank_wait(self, home: int) -> float:
        """Queuing delay at the home node's memory/directory bank.

        With a non-zero ``memory_bank_service``, each access occupies the
        bank for that many cycles; concurrent requests to the same bank
        serialize and the requester pays the wait.
        """
        service = self._bank_service
        if not service:
            return 0.0
        start = max(self.now, self._bank_free[home])
        self._bank_free[home] = start + service
        return start - self.now

    # ------------------------------------------------------------------
    # Cache installation and displacement
    # ------------------------------------------------------------------
    def _install_both(self, proc: Processor, line: int, task_id: int, *,
                      dirty: bool, now: float, committed: bool = False) -> None:
        self._install(proc.l2, proc, line, task_id, dirty=dirty,
                      committed=committed, now=now)
        self._install(proc.l1, proc, line, task_id, dirty=dirty,
                      committed=committed, now=now)

    def _install(self, cache, proc: Processor, line: int, task_id: int, *,
                 dirty: bool, committed: bool, now: float) -> None:
        victim = cache.install(line, task_id, dirty=dirty,
                               committed=committed, now=now)
        if victim is None:
            return
        if cache is proc.l1:
            if victim.dirty:
                inner = proc.l2.install(victim.line_addr, victim.task_id,
                                        dirty=True, committed=victim.committed,
                                        now=now)
                if inner is not None:
                    self._dispose_victim(proc, inner, now)
            return
        self._dispose_victim(proc, victim, now)

    def _dispose_victim(self, proc: Processor, victim: CacheLine,
                        now: float) -> None:
        """Handle a dirty line displaced from the L2, per merge policy."""
        if not victim.dirty:
            return
        if self.scheme.merge_policy is MergePolicy.FMM:
            # Free displacement to memory; MTID rejects stale versions.
            self._writeback_entry_to_memory(victim)
            return
        if victim.committed:
            # Lazy AMM: VCL finds the latest committed version, writes it
            # back and invalidates the other committed copies. The victim
            # itself is already out of the cache, so its words are merged
            # explicitly.
            self._vcl_merge_line(victim.line_addr, now, extra_victim=victim)
            return
        # Speculative dirty line under AMM: overflow area.
        self.traffic.overflow_spills += 1
        proc.overflow.spill(victim.line_addr, victim.task_id, committed=False)
        if self.trace is not None:
            self.trace.emit(TraceEvent.OVERFLOW_SPILL, now, victim.task_id,
                            proc.proc_id, detail=victim.line_addr)

    def _overflow_excess_penalty(self, proc: Processor) -> float:
        """Extra cycles per overflow access while the area is over capacity.

        The paper sizes the per-processor overflow area for any working
        set; with a finite :attr:`~repro.core.config.CostModel.\
        overflow_capacity_lines` (the exploration's overflow axis),
        versions beyond the reservation live in pageable memory and each
        access to the overloaded area pays this penalty. Zero when the
        capacity is unbounded (the default), keeping base timing intact.
        """
        cap = self._ov_cap
        if cap is not None and len(proc.overflow) > cap:
            return self._ov_excess
        return 0.0

    def _overflow_excess_lines(self, proc: Processor, drained: int) -> int:
        """How many of ``drained`` overflow lines sit beyond capacity."""
        cap = self._ov_cap
        if cap is None:
            return 0
        return min(drained, max(0, len(proc.overflow) - cap))

    def _writeback_entry_to_memory(self, entry: CacheLine) -> None:
        run = self.runs.get(entry.task_id)
        if run is None:
            return
        words = run.words_by_line.get(entry.line_addr)
        if not words:
            return
        self.traffic.line_writebacks += 1
        self.memory.writeback_words({w: entry.task_id for w in words})
        if self._l3_lines is not None:
            self._l3_lines.add(entry.line_addr)

    def _vcl_merge_line(self, line: int, now: float,
                        extra_victim: CacheLine | None = None) -> None:
        """Version Combining Logic: merge a line's committed versions.

        Identifies the latest committed version of the line across all
        caches and overflow areas, writes it (and by producer-compare, the
        surviving words of older versions) back to memory, and invalidates
        every committed copy. ``extra_victim`` is a just-displaced entry
        that is no longer resident but whose words must participate.
        """
        words: dict[int, int] = {}
        if extra_victim is not None and extra_victim.dirty:
            run = self.runs.get(extra_victim.task_id)
            if run is not None:
                for w in run.words_by_line.get(line, ()):
                    words[w] = extra_victim.task_id
        for other in self.procs:
            for cache in (other.l1, other.l2):
                for entry in list(cache.entries(line)):
                    if entry.committed:
                        if entry.dirty:
                            run = self.runs.get(entry.task_id)
                            if run is not None:
                                for w in run.words_by_line.get(line, ()):
                                    if words.get(w, ARCH_TASK_ID) < entry.task_id:
                                        words[w] = entry.task_id
                        cache.remove(entry)
            for ov_line, ov_task in list(other.overflow.committed_lines()):
                if ov_line == line:
                    run = self.runs.get(ov_task)
                    if run is not None:
                        for w in run.words_by_line.get(line, ()):
                            if words.get(w, ARCH_TASK_ID) < ov_task:
                                words[w] = ov_task
                    other.overflow.discard(ov_line, ov_task)
        if words:
            self.traffic.vcl_merges += 1
            self.memory.writeback_words(words)
            if self._l3_lines is not None:
                self._l3_lines.add(line)

    # ==================================================================
    # MultiT&SV version-conflict stalls
    # ==================================================================
    def _sv_conflict(self, proc: Processor, run: TaskRun, word: int) -> bool:
        if self.scheme.task_policy is not TaskPolicy.MULTI_T_SV:
            return False
        return self._sv_blocker(proc, run, word) is not None

    def _sv_blocker(self, proc: Processor, run: TaskRun,
                    word: int) -> int | None:
        """Earliest local task holding a *dirty* speculative version of the
        line that ``run`` is about to write. Clean copies of remote
        versions do not block (they are not locally-created versions)."""
        line = line_of(word)
        blockers: list[int] = []
        for cache in (proc.l1, proc.l2):
            for entry in cache.find_speculative(line):
                if entry.dirty and entry.task_id != run.task_id:
                    blockers.append(entry.task_id)
        for other_id in list(proc.resident):
            if other_id != run.task_id:
                other = self.runs[other_id]
                if (other.state is not TaskState.COMMITTED
                        and proc.overflow.holds(line, other_id)):
                    blockers.append(other_id)
        return min(blockers) if blockers else None

    def _wake_sv_waiters(self, task_id: int, now: float) -> None:
        """Resume processors whose SV blocker just committed or squashed."""
        for proc in self.procs:
            if proc.parked and proc.sv_blocker == task_id:
                proc.unpark(now)
                run = proc.current
                if run is None:
                    raise SimulationError(
                        f"P{proc.proc_id} SV-parked without a task"
                    )
                run.state = TaskState.RUNNING
                if self.trace is not None:
                    self.trace.emit(TraceEvent.SV_RESUME, now, run.task_id,
                                    proc.proc_id, detail=task_id)
                self._advance(proc, now)

    # ==================================================================
    # Commit
    # ==================================================================
    def _try_commit(self, now: float) -> None:
        if self._finished or not self.commit.token_free:
            return
        nxt = self.commit.next_to_commit
        if nxt >= self.commit.n_tasks:
            return
        run = self.runs[nxt]
        if run.state is not TaskState.DONE:
            return
        self.commit.begin_commit(nxt, now)
        run.commit_start = now
        if self.trace is not None:
            self.trace.emit(TraceEvent.COMMIT_BEGIN, now, nxt, run.proc_id)
        duration = float(self.costs.token_pass)
        if self.scheme.merge_policy is MergePolicy.EAGER_AMM:
            duration += self._eager_merge_cost(run)
        self._schedule(now + duration, self._commit_done, (run, now))

    def _eager_merge_cost(self, run: TaskRun) -> float:
        proc = self.procs[run.proc_id]
        cached = sum(
            1 for e in proc.l2.lines_of_task(run.task_id) if e.dirty
        )
        overflowed = len(proc.overflow.lines_of_task(run.task_id))
        if self.costs.eager_commit_mode == "orb":
            # ORB commit: one ownership request per modified line instead
            # of a data write-back (the Section 4.1 footnote notes that
            # for numerical codes the ORB holds essentially the whole
            # written footprint, so the line count is unchanged).
            per_line = self.costs.orb_request_per_line
            cost = (cached + overflowed) * per_line + overflowed * (
                self.costs.overflow_penalty)
        else:
            cost = (
                cached * self.costs.commit_writeback_per_line
                + overflowed * (self.costs.commit_writeback_per_line
                                + self.costs.overflow_penalty)
            )
        cost += (self._overflow_excess_lines(proc, overflowed)
                 * self.costs.overflow_excess_penalty)
        if self.scheme.task_policy is TaskPolicy.SINGLE_T:
            # The processor itself performs the merge with plain
            # loads/stores; MultiT schemes use background merge hardware.
            cost *= self.costs.singlet_commit_factor
        return cost

    def _commit_done(self, run: TaskRun, start: float, now: float) -> None:
        tid = run.task_id
        proc = self.procs[run.proc_id]
        policy = self.scheme.merge_policy
        if policy is MergePolicy.EAGER_AMM:
            for entry in proc.l2.drain_task(tid, clean=True):
                self._writeback_entry_to_memory(entry)
            for line in proc.overflow.drain_task(tid):
                words = run.words_by_line.get(line)
                if words:
                    self.memory.writeback_words({w: tid for w in words})
                    if self._l3_lines is not None:
                        self._l3_lines.add(line)
            proc.l1.mark_committed(tid)
            for entry in proc.l1.lines_of_task(tid):
                entry.dirty = False
        elif policy is MergePolicy.LAZY_AMM:
            proc.l1.mark_committed(tid)
            proc.l2.mark_committed(tid)
            proc.overflow.mark_committed(tid)
        else:  # FMM
            proc.l1.mark_committed(tid)
            proc.l2.mark_committed(tid)
            proc.undolog.free_task(tid)

        run.state = TaskState.COMMITTED
        run.commit_time = now
        self.commit.finish_commit(tid, start, now)
        if self.trace is not None:
            self.trace.emit(TraceEvent.COMMIT_DONE, now, tid, run.proc_id)
        self.directory.forget_reader(tid, run.read_words)
        proc.drop_resident(tid)
        self._spec_count_change(-1, now)

        if (self.scheme.task_policy is TaskPolicy.SINGLE_T
                and proc.parked
                and proc.parked_category is CycleCategory.COMMIT_STALL):
            proc.unpark(now)
            self._claim(proc, now)
        self._wake_sv_waiters(tid, now)

        if self.commit.all_committed:
            self._finish(now)
        else:
            self._try_commit(now)

    # ==================================================================
    # Squash and recovery
    # ==================================================================
    def _squash(self, first_victim: int, now: float) -> None:
        victims = [
            r for r in self.runs.values()
            if r.task_id >= first_victim
            and r.state in (TaskState.RUNNING, TaskState.SV_STALLED,
                            TaskState.DONE)
        ]
        if not victims:
            return
        self._violation_events += 1
        victim_ids = {v.task_id for v in victims}
        if self.trace is not None:
            self.trace.emit(TraceEvent.VIOLATION, now, first_victim)
            for victim in victims:
                self.trace.emit(TraceEvent.TASK_SQUASHED, now,
                                victim.task_id, victim.proc_id)

        recovery = float(self.costs.squash_fixed)
        if self.scheme.merge_policy is MergePolicy.FMM:
            recovery += self._fmm_recover(victims, victim_ids)
        else:
            recovery += self._amm_recover(victims)

        # Tear down execution state of every victim.
        for victim in sorted(victims, key=lambda r: -r.task_id):
            self._squashed_executions += 1
            self._wasted_busy += victim.attempt_busy
            written = {w for ws in victim.words_by_line.values() for w in ws}
            self.directory.purge_task(victim.task_id, written,
                                      victim.read_words)
            if victim.proc_id is not None:
                self.procs[victim.proc_id].drop_resident(victim.task_id)
            victim.squash()
            self.scheduler.release(victim.task_id)
            self._spec_count_change(-1, now)

        resume_at = now + recovery
        for proc in self.procs:
            self._abort_proc_if_needed(proc, victim_ids, now, resume_at)
        # Idle processors wait out the recovery before picking up the
        # re-enqueued work; that wait is recovery time, not idleness.
        for proc_id in list(self._idle_procs):
            proc = self.procs[proc_id]
            if proc.parked and proc.parked_category is CycleCategory.IDLE:
                self._idle_procs.discard(proc_id)
                proc.unpark(now)
                proc.park(now, CycleCategory.RECOVERY)
                self._schedule(resume_at, self._resume_after_recovery, (proc,))
        self._schedule(resume_at, self._wake_idle)

    def _amm_recover(self, victims: list[TaskRun]) -> float:
        """Invalidate squashed versions from the MROB; returns cycles."""
        invalidated = 0
        for victim in victims:
            tid = victim.task_id
            for proc in self.procs:
                invalidated += proc.l1.invalidate_task(tid)
                invalidated += proc.l2.invalidate_task(tid)
                invalidated += len(proc.overflow.drain_task(tid))
        return invalidated * self.costs.amm_invalidate_per_line

    def _fmm_recover(self, victims: list[TaskRun],
                     victim_ids: set[int]) -> float:
        """Replay the distributed MHB in strict reverse task order.

        Restores the future memory state and invalidates squashed versions;
        returns the (software-handler) recovery cycles.
        """
        entries_restored = 0
        for victim in sorted(victims, key=lambda r: -r.task_id):
            tid = victim.task_id
            for proc in self.procs:
                for entry in proc.undolog.pop_entries_of(tid):
                    entries_restored += 1
                    restore = {}
                    for word, saved in entry.words_dict().items():
                        current = self.memory.producer_of(word)
                        if current > saved and (
                                current == tid or current in victim_ids):
                            restore[word] = saved
                    if restore:
                        self.memory.restore_words(restore)
            for proc in self.procs:
                proc.l1.invalidate_task(tid)
                proc.l2.invalidate_task(tid)
        per_entry = (
            self.costs.fmm_recovery_instructions_per_entry / self.costs.ipc
            + self.costs.commit_writeback_per_line
        )
        return entries_restored * per_entry

    def _abort_proc_if_needed(self, proc: Processor, victim_ids: set[int],
                              now: float, resume_at: float) -> None:
        current = proc.current
        if current is not None and current.task_id in victim_ids:
            # Charge the partially-executed in-flight op exactly.
            pid = proc.proc_id
            live = self._inflight_live[pid]
            self._inflight_live[pid] = 0
            if proc.parked:
                # SV-stalled on a squashed task: close the stall interval.
                proc.unpark(now)
            elif live:
                start = self._inflight_start[pid]
                busy = self._inflight_busy[pid]
                elapsed = max(0.0, now - start)
                busy_part = min(busy, elapsed)
                proc.account.add(CycleCategory.BUSY, busy_part)
                proc.account.add(CycleCategory.MEMORY,
                                 max(0.0, elapsed - busy_part))
                current.attempt_busy += busy_part
            proc.current = None
            proc.epoch += 1
            proc.park(now, CycleCategory.RECOVERY)
            self._schedule(resume_at, self._resume_after_recovery, (proc,))
            return
        if proc.parked and proc.parked_category is CycleCategory.COMMIT_STALL:
            # SingleT waiter whose done (speculative) task was squashed:
            # the squash teardown already removed it from the residency
            # map, so the processor waits on nothing — recover and reclaim.
            if not proc.speculative_resident():
                proc.unpark(now)
                proc.epoch += 1
                proc.park(now, CycleCategory.RECOVERY)
                self._schedule(resume_at, self._resume_after_recovery, (proc,))
            return
        if (proc.parked and proc.parked_category is CycleCategory.SV_STALL
                and proc.sv_blocker in victim_ids):
            # Blocker vanished; its version is gone, so the write proceeds
            # once recovery completes.
            proc.unpark(now)
            run = proc.current
            proc.park(now, CycleCategory.RECOVERY)
            self._schedule(resume_at, self._resume_sv_after_recovery,
                           (proc, run))

    def _resume_after_recovery(self, proc: Processor, now: float) -> None:
        if proc.parked and proc.parked_category is CycleCategory.RECOVERY:
            proc.unpark(now)
            if proc.current is None:
                self._claim(proc, now)

    def _resume_sv_after_recovery(self, proc: Processor, run: TaskRun,
                                  now: float) -> None:
        if (proc.parked and proc.parked_category is CycleCategory.RECOVERY
                and proc.current is run
                and run.state is TaskState.SV_STALLED):
            proc.unpark(now)
            run.state = TaskState.RUNNING
            self._advance(proc, now)

    def _wake_idle(self, now: float) -> None:
        if self._finished:
            return
        for proc_id in list(self._idle_procs):
            if not self.scheduler.has_pending():
                break
            proc = self.procs[proc_id]
            if proc.parked and proc.parked_category is CycleCategory.IDLE:
                self._idle_procs.discard(proc_id)
                proc.unpark(now)
                self._claim(proc, now)

    # ==================================================================
    # Completion
    # ==================================================================
    def _finish(self, now: float) -> None:
        end = now
        if self.scheme.merge_policy is MergePolicy.LAZY_AMM:
            end += self._final_merge(now)
        self._flush_remaining_dirty()
        self._finished = True
        self.total_cycles = end
        # Close every processor's accounting at the loop end.
        for proc in self.procs:
            if proc.parked:
                proc.unpark(end)
            total = proc.account.total()
            if total < end - 1e-6:
                proc.account.add(CycleCategory.IDLE, end - total)

    def _final_merge(self, now: float) -> float:
        """Lazy AMM end-of-loop merge of versions still in caches.

        Processors merge their remaining committed dirty lines in parallel
        (the diamonds of Figure 6-(b)); the loop ends when the slowest
        processor finishes.
        """
        longest = 0.0
        for proc in self.procs:
            lines = {(e.line_addr, e.task_id)
                     for e in proc.l2.committed_dirty()}
            lines |= {(e.line_addr, e.task_id)
                      for e in proc.l1.committed_dirty()}
            cost = len(lines) * self.costs.final_merge_per_line
            overflow_lines = proc.overflow.committed_lines()
            cost += len(overflow_lines) * (
                self.costs.final_merge_per_line
                + self.costs.overflow_penalty
            )
            cost += (self._overflow_excess_lines(proc, len(overflow_lines))
                     * self.costs.overflow_excess_penalty)
            longest = max(longest, float(cost))
        return longest

    def _flush_remaining_dirty(self) -> None:
        """Push all remaining committed dirty state to memory (zero cost).

        After the lazy final merge (or under FMM, where memory already
        tracks the future state modulo cache-resident lines), this makes
        the memory image complete so the correctness invariants can compare
        it against sequential execution.
        """
        for proc in self.procs:
            for cache in (proc.l1, proc.l2):
                for entry in list(cache):
                    if entry.dirty:
                        self._writeback_entry_to_memory(entry)
                        entry.dirty = False
            for line, task in list(proc.overflow.committed_lines()):
                run = self.runs.get(task)
                if run is not None:
                    words = run.words_by_line.get(line)
                    if words:
                        self.memory.writeback_words({w: task for w in words})
                proc.overflow.discard(line, task)

    # ==================================================================
    # Statistics
    # ==================================================================
    def _spec_count_change(self, delta: int, now: float) -> None:
        self._spec_task_integral += self._spec_task_count * (
            now - self._spec_task_last_t
        )
        self._spec_task_last_t = now
        self._spec_task_count += delta
        if self._spec_task_count < 0:
            raise SimulationError("negative speculative task count")

    def _record_footprint(self, run: TaskRun) -> None:
        words = {w for ws in run.words_by_line.values() for w in ws}
        from repro.core.config import WORD_BYTES

        self._footprint_bytes.append(len(words) * WORD_BYTES)
        self._footprint_total_words += len(words)
        self._footprint_priv_words += sum(
            1 for w in words if self.workload.is_priv(w)
        )

    def _build_result(self) -> SimulationResult:
        by_cat = {c: 0.0 for c in CycleCategory}
        for proc in self.procs:
            for cat, cycles in proc.account.by_category.items():
                by_cat[cat] += cycles
        timings = [
            TaskTiming(
                task_id=r.task_id,
                proc_id=r.proc_id if r.proc_id is not None else -1,
                start_time=r.start_time,
                finish_time=r.finish_time,
                commit_start=r.commit_start,
                commit_end=r.commit_time,
                squashes=r.squashes,
            )
            for r in self.runs.values()
        ]
        avg_in_system = (
            self._spec_task_integral / self.total_cycles
            if self.total_cycles else 0.0
        )
        n_foot = len(self._footprint_bytes)
        l2_acc = sum(p.l2.stats.accesses for p in self.procs)
        l2_hits = sum(p.l2.stats.hits for p in self.procs)
        return SimulationResult(
            scheme=self.scheme,
            machine_name=self.machine.name,
            workload_name=self.workload.name,
            n_procs=self.machine.n_procs,
            n_tasks=len(self.runs),
            total_cycles=self.total_cycles,
            cycles_by_category=by_cat,
            violation_events=self._violation_events,
            squashed_executions=self._squashed_executions,
            commit_wavefront=list(self.commit.stats.wavefront),
            token_hold_cycles=self.commit.stats.token_hold_cycles,
            task_timings=timings,
            avg_spec_tasks_in_system=avg_in_system,
            avg_written_footprint_bytes=(
                sum(self._footprint_bytes) / n_foot if n_foot else 0.0
            ),
            priv_footprint_fraction=(
                self._footprint_priv_words / self._footprint_total_words
                if self._footprint_total_words else 0.0
            ),
            memory_image=self.memory.image(),
            peak_overflow_lines=max(
                (p.overflow.stats.peak_lines for p in self.procs), default=0
            ),
            peak_undolog_entries=max(
                (p.undolog.stats.peak_entries for p in self.procs), default=0
            ),
            observed_reads={
                (r.task_id, word): producer
                for r in self.runs.values()
                for word, producer in r.observed_reads.items()
            },
            wasted_busy_cycles=self._wasted_busy,
            l2_hit_rate=l2_hits / l2_acc if l2_acc else 0.0,
            l2_speculative_displacements=sum(
                p.l2.stats.speculative_displacements for p in self.procs
            ),
            traffic=self.traffic,
            events_processed=self._events_processed,
            wall_clock_seconds=self._wall_clock_seconds,
        )


def simulate(machine: MachineConfig, scheme: Scheme,
             workload: Workload, **kwargs) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulation` and run it."""
    return Simulation(machine, scheme, workload, **kwargs).run()
