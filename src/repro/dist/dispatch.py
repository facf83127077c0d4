"""The dispatch seam: how a batch of cache-miss jobs gets computed.

:class:`~repro.runner.runner.SweepRunner` resolves every job through its
cache tiers and single-flight registry, then hands the residue — the
jobs that actually need computing — to a :class:`Dispatcher`. The
dispatcher decides *where* the compute happens:

* :class:`LocalPoolDispatcher` — today's path, extracted verbatim: a
  chunked :class:`~concurrent.futures.ProcessPoolExecutor` fan-out with
  a serial in-process fallback for small batches, ``jobs=1``, or
  sandboxes where pools cannot start.
* :class:`~repro.dist.coordinator.FleetDispatcher` — the distributed
  backend: the same zlib-compressed chunks shipped to a fleet of
  remote workers over the TCP work-queue protocol
  (:mod:`repro.dist.protocol`).

The contract is deliberately the same one the runner's ``_compute``
always had: ``compute(pending, on_result)`` delivers ``(key, payload
bytes)`` pairs as they land, at most once per key, and the payload bytes
are the canonical JSON serialization — so any dispatcher is
bit-identical with any other by construction, and the runner's cache
stores and progress streams work unchanged.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

#: ``(key, job)`` pairs the runner asks a dispatcher to compute.
PendingJobs = Sequence[tuple[str, Any]]
#: Delivery callback: ``on_result(key, payload_bytes)``.
ResultSink = Callable[[str, bytes], None]


@runtime_checkable
class Dispatcher(Protocol):
    """Backend protocol for computing a batch of cache-miss jobs.

    Implementations must call ``on_result`` at most once per distinct
    key, from the calling thread, with the *uncompressed* canonical
    payload bytes — the same bytes
    :func:`repro.runner.runner.payload_from_result` +
    :func:`~repro.analysis.serialization.canonical_json` produce
    in-process.
    """

    def compute(self, pending: PendingJobs,
                on_result: ResultSink) -> None:
        """Execute every pending job, delivering payloads as they land."""
        ...

    def describe(self) -> str:
        """Human-readable backend description (for stats endpoints)."""
        ...


@dataclass
class LocalPoolStats:
    """Counters for the in-process/pool dispatch path."""

    #: Batches that went through the process pool.
    pool_batches: int = 0
    #: Chunks submitted to the pool.
    chunks: int = 0
    #: Jobs computed (pool and serial combined).
    jobs: int = 0
    #: Batches that ran serially (small batch, ``jobs=1``, or fallback).
    serial_batches: int = 0
    #: Pool startups that failed and degraded to the serial path.
    pool_failures: int = 0

    def to_dict(self) -> dict[str, int]:
        """JSON-ready counter snapshot (for ``/v1/cache/stats``)."""
        return {"pool_batches": self.pool_batches, "chunks": self.chunks,
                "jobs": self.jobs, "serial_batches": self.serial_batches,
                "pool_failures": self.pool_failures}


class LocalPoolDispatcher:
    """The single-host dispatcher: chunked process pool, serial fallback.

    This is the execution path :class:`~repro.runner.runner.SweepRunner`
    has always had, lifted behind the :class:`Dispatcher` seam so the
    fleet backend can slot in beside it. Behavior is unchanged: batches
    larger than one chunk (and ``jobs > 1``) fan out across a
    :class:`~concurrent.futures.ProcessPoolExecutor` in chunks of
    ``chunk_size`` jobs, everything else — including a pool that fails
    to start in a constrained sandbox — runs serially in-process.
    """

    def __init__(self, jobs: int | None = None,
                 chunk_size: int | None = None) -> None:
        from repro.runner.runner import DEFAULT_CHUNK_SIZE, default_jobs

        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            self.jobs = 1
        self.chunk_size = (chunk_size if chunk_size is not None
                           else DEFAULT_CHUNK_SIZE)
        if self.chunk_size < 1:
            self.chunk_size = 1
        self.stats = LocalPoolStats()

    def describe(self) -> str:
        """``local-pool:<workers>x<chunk_size>``."""
        return f"local-pool:{self.jobs}x{self.chunk_size}"

    def compute(self, pending: PendingJobs,
                on_result: ResultSink) -> None:
        """Execute the batch: chunked pool when it pays, else serial.

        ``on_result`` is called at most once per key: if the pool dies
        part-way through collection and the serial fallback re-runs the
        batch, already delivered keys are skipped.
        """
        from repro.runner.runner import (
            _encode_payload,
            _worker_chunk,
            execute_job,
            payload_from_result,
        )

        delivered: set[str] = set()

        def _deliver(key: str, raw: bytes) -> None:
            if key not in delivered:
                delivered.add(key)
                self.stats.jobs += 1
                on_result(key, raw)

        if self.jobs > 1 and len(pending) > self.chunk_size:
            chunk_size = self.chunk_size
            job_list = [job for _key, job in pending]
            chunks = [job_list[i:i + chunk_size]
                      for i in range(0, len(job_list), chunk_size)]
            try:
                with ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(chunks))
                ) as pool:
                    self.stats.pool_batches += 1
                    self.stats.chunks += len(chunks)
                    for chunk_result in pool.map(_worker_chunk, chunks):
                        for key, raw in chunk_result:
                            _deliver(key, zlib.decompress(raw))
                return
            except (OSError, ImportError):
                # Pool creation can fail in constrained sandboxes
                # (no /dev/shm, fork limits); fall back to serial.
                self.stats.pool_failures += 1
        self.stats.serial_batches += 1
        for key, job in pending:
            if key in delivered:
                continue
            _deliver(
                key, _encode_payload(payload_from_result(execute_job(job)))
            )
