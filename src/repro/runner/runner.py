"""Parallel sweep execution over (machine x scheme x workload) grids.

:class:`SweepRunner` is the single funnel every experiment submits
simulations through. It

* consults a two-tier result cache — a bounded in-process
  :class:`~repro.runner.cache.MemoryResultCache` LRU in front of the
  content-addressed on-disk :class:`~repro.runner.cache.ResultCache` —
  replaying prior runs of the same job instead of re-simulating;
* deduplicates *in-flight* work: concurrent :meth:`SweepRunner.run_many`
  callers (threads sharing one runner) that request the same cell share
  a single computation instead of racing to repeat it;
* hands the residue — jobs that actually need computing — to a
  pluggable :class:`~repro.dist.dispatch.Dispatcher`: by default the
  single-host :class:`~repro.dist.dispatch.LocalPoolDispatcher`
  (chunked :class:`concurrent.futures.ProcessPoolExecutor` fan-out with
  a serial fallback), or a
  :class:`~repro.dist.coordinator.FleetDispatcher` shipping the same
  chunks to remote workers;
* ships worker results back as zlib-compressed canonical JSON bytes
  (one compact buffer per job instead of a pickled object graph);
* stores and moves those bytes as they are: the stored bytes are the
  canonical bytes (:func:`~repro.analysis.serialization.canonical_json`),
  so a disk hit is promoted to the memory tier without re-encoding and
  a payload's digest is the SHA-256 of its bytes; and
* reconstructs every pooled or replayed result from the same full
  serialization, so a result is bit-identical (see
  :func:`~repro.analysis.serialization.canonical_result_bytes`) whether
  it was computed serially, in a worker process, replayed from the
  memory tier, or read back from disk.

Determinism: a job fully determines its simulation — workload generation
is seeded, and the engine itself is sequential per run — so the
execution mode can never change a result, only how fast it arrives.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Callable, Sequence

from repro.baselines.sequential import SequentialResult, simulate_sequential
from repro.core.engine import Simulation
from repro.core.results import SimulationResult
from repro.runner.cache import (
    MemoryResultCache,
    ResultCache,
    canonical_payload_digest,  # noqa: F401 - re-exported beside the encoder
)
from repro.runner.jobs import SimJob
from repro.runner.singleflight import SingleFlight

#: Per-job completion callback: ``progress(key, source)`` where source is
#: one of :data:`PROGRESS_SOURCES`. Called from the submitting thread.
ProgressCallback = Callable[[str, str], None]

#: Where a finished job's result came from, in the order ``run_many``
#: resolves tiers: the in-process LRU, the shared (disk) tier, a live
#: computation this call led, a concurrent caller's in-flight
#: computation, or an uncacheable traced run.
PROGRESS_SOURCES = ("memory", "disk", "computed", "inflight", "live")


def execute_job(job: SimJob) -> SimulationResult | SequentialResult:
    """Run one job in the current process and return its live result.

    Observation attachments requested by the job — invariant checker,
    metrics hook, trace recorder, read map — are composed here; all are
    pure observers, so the simulated statistics are identical with or
    without them.
    """
    workload = job.resolve_workload()
    if job.scheme is None:
        return simulate_sequential(job.machine, workload)
    hooks = []
    if job.check_invariants:
        # Imported lazily: repro.validate depends on repro.runner for the
        # conformance oracle's fan-out.
        from repro.validate.invariants import InvariantChecker

        hooks.append(InvariantChecker())
    if job.collect_metrics:
        from repro.obs.metrics import MetricsHook

        hooks.append(MetricsHook())
    hook = None
    if len(hooks) == 1:
        hook = hooks[0]
    elif hooks:
        from repro.core.hooks import CompositeHook

        hook = CompositeHook(hooks)
    trace = None
    if job.traced:
        from repro.core.trace import TraceRecorder

        trace = TraceRecorder()
    result = Simulation(
        job.machine, job.scheme, workload,
        high_level_patterns=job.high_level_patterns,
        violation_granularity=job.violation_granularity,
        hook=hook,
        trace=trace,
        record_reads=job.record_reads,
    ).run()
    if trace is not None:
        result.trace = trace
    return result


def payload_from_result(
    result: SimulationResult | SequentialResult,
) -> dict[str, Any]:
    """The full JSON payload stored in the cache / returned by workers."""
    from repro.analysis.serialization import (
        result_to_dict,
        sequential_result_to_dict,
    )

    if isinstance(result, SequentialResult):
        return sequential_result_to_dict(result)
    payload = result_to_dict(result, full=True)
    # Metrics ride the payload (never the canonical serialized form), so
    # pooled and cache-replayed metric jobs still carry their snapshot.
    metrics = getattr(result, "metrics", None)
    if metrics is not None:
        payload["metrics"] = metrics.to_dict()
    return payload


def result_from_payload(
    payload: dict[str, Any],
) -> SimulationResult | SequentialResult:
    """Rebuild the result a worker or cache entry serialized."""
    from repro.analysis.serialization import (
        result_from_dict,
        sequential_result_from_dict,
    )

    if payload.get("kind") == "sequential":
        return sequential_result_from_dict(payload)
    metrics = payload.pop("metrics", None)
    result = result_from_dict(payload)
    if metrics is not None:
        from repro.obs.metrics import MetricsSnapshot

        result.metrics = MetricsSnapshot.from_dict(metrics)
    return result


def _encode_payload(payload: dict[str, Any]) -> bytes:
    """Serialize a payload to the canonical bytes every tier stores."""
    from repro.analysis.serialization import canonical_json

    return canonical_json(payload)


def _worker_chunk(jobs: Sequence[SimJob]) -> list[tuple[str, bytes]]:
    """Pool entry point: execute a chunk of jobs in one task.

    Returns ``(cache key, zlib-compressed JSON payload)`` per job: one
    compact buffer crosses the process boundary instead of a pickled
    result-object graph, and the chunking amortizes task dispatch
    overhead across several simulations.
    """
    return [
        (
            job.cache_key(),
            zlib.compress(
                _encode_payload(payload_from_result(execute_job(job))), 1
            ),
        )
        for job in jobs
    ]


def default_jobs() -> int:
    """Default worker count: every core the container grants us."""
    return os.cpu_count() or 1


#: Jobs per pool task. Large enough to amortize pickling/IPC per task,
#: small enough to keep the pool load-balanced on uneven cell runtimes.
DEFAULT_CHUNK_SIZE = 4


class SweepRunner:
    """Cache-backed, optionally parallel executor of simulation jobs."""

    def __init__(self, jobs: int | None = None,
                 cache: ResultCache | None = None,
                 memory_cache: MemoryResultCache | None = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 inflight_timeout: float | None = None,
                 dispatcher: Any = None) -> None:
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            self.jobs = 1
        if chunk_size < 1:
            chunk_size = 1
        self.cache = cache
        self.memory_cache = (memory_cache if memory_cache is not None
                             else MemoryResultCache())
        self.chunk_size = chunk_size
        #: Bound on how long a ``run_many`` call waits for a computation
        #: another caller leads (``None`` = forever). Service frontends
        #: set this so a wedged leader turns into a timeout response
        #: instead of a hung request.
        self.inflight_timeout = inflight_timeout
        #: Cross-caller stampede protection: one leader computes each
        #: key, concurrent requesters join its flight.
        self.flights = SingleFlight()
        if dispatcher is None:
            # Imported lazily: repro.dist.dispatch reaches back into
            # this module for the pool entry points.
            from repro.dist.dispatch import LocalPoolDispatcher

            dispatcher = LocalPoolDispatcher(jobs=self.jobs,
                                             chunk_size=self.chunk_size)
        #: Where cache-miss batches compute: the single-host pool by
        #: default, or any :class:`~repro.dist.dispatch.Dispatcher`
        #: (e.g. a :class:`~repro.dist.coordinator.FleetDispatcher`).
        self.dispatcher = dispatcher

    # ------------------------------------------------------------------
    def run(self, job: SimJob) -> SimulationResult | SequentialResult:
        """Execute (or replay) one job."""
        return self.run_many([job])[0]

    def run_many(
        self, jobs: Sequence[SimJob],
        progress: ProgressCallback | None = None,
    ) -> list[SimulationResult | SequentialResult]:
        """Execute a batch of jobs, returning results in input order.

        Duplicate jobs (same cache key) are computed once — including
        across *concurrent* ``run_many`` calls on this runner, which
        join in-flight computations (:class:`~repro.runner.singleflight.\
SingleFlight`) instead of repeating them. Lookup order per distinct job:
        memory tier, then the shared (disk) tier — promoting hits into
        the memory tier — then live computation. Misses run in a chunked
        process pool when the batch is larger than one chunk and
        ``jobs > 1``, else serially in this process. Every freshly
        computed result is stored back through both tiers as soon as it
        lands (not after the whole batch), so concurrent readers and
        progress streams see cells the moment they finish.

        ``progress``, when given, is called once per *distinct* job as
        ``progress(key, source)`` with ``source`` one of
        :data:`PROGRESS_SOURCES` — the hook the service layer rides to
        stream per-cell completion.
        """
        by_key: dict[str, SimulationResult | SequentialResult] = {}
        keys = [job.cache_key() for job in jobs]
        pending: list[tuple[str, SimJob]] = []
        owned: dict[str, Any] = {}
        waiting: dict[str, Any] = {}
        seen: set[str] = set()

        def _notify(key: str, source: str) -> None:
            if progress is not None:
                progress(key, source)

        for key, job in zip(keys, jobs):
            if key in seen:
                continue
            seen.add(key)
            if job.traced:
                # A trace recorder lives only in this process: traced jobs
                # run live and bypass every cache tier in both directions.
                by_key[key] = execute_job(job)
                _notify(key, "live")
                continue
            raw = self.memory_cache.load(key)
            if raw is not None:
                by_key[key] = result_from_payload(json.loads(raw))
                _notify(key, "memory")
                continue
            entry = (self.cache.load_entry(key) if self.cache is not None
                     else None)
            if entry is not None:
                # The stored bytes are already canonical: decode once to
                # rebuild the result, promote the bytes as they are.
                raw, payload = entry
                by_key[key] = result_from_payload(payload)
                self.memory_cache.store(key, raw)
                _notify(key, "disk")
                continue
            flight, leader = self.flights.claim(key)
            if leader:
                owned[key] = flight
                pending.append((key, job))
            else:
                waiting[key] = flight

        if pending:
            def _landed(key: str, raw: bytes) -> None:
                """One computed payload: store, publish, decode, notify."""
                self.memory_cache.store(key, raw)
                if self.cache is not None:
                    self.cache.store_raw(key, raw)
                by_key[key] = result_from_payload(json.loads(raw))
                self.flights.resolve(key, owned[key], raw)
                _notify(key, "computed")

            try:
                self._compute(pending, _landed)
            finally:
                # Idempotent sweep: any flight _compute never reached
                # (it raised part-way) propagates the abort to joiners.
                for key, flight in owned.items():
                    self.flights.abandon(
                        key, flight,
                        RuntimeError(f"computation of {key} aborted"),
                    )

        for key, flight in waiting.items():
            raw = self.flights.wait(flight, self.inflight_timeout)
            by_key[key] = result_from_payload(json.loads(raw))
            _notify(key, "inflight")

        return [by_key[key] for key in keys]

    # ------------------------------------------------------------------
    def _compute(
        self, pending: list[tuple[str, SimJob]],
        on_result: Callable[[str, bytes], None],
    ) -> None:
        """Execute the cache misses through the configured dispatcher.

        The dispatcher contract (see :class:`~repro.dist.dispatch.\
Dispatcher`) mirrors what this method always promised: ``on_result``
        is called at most once per key, from this thread, with the
        canonical payload bytes — so every backend (serial, process
        pool, worker fleet) feeds the cache tiers identically.
        """
        self.dispatcher.compute(pending, on_result)
