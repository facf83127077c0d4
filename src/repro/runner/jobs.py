"""Simulation jobs: self-contained, hashable descriptions of one run.

A :class:`SimJob` carries everything needed to execute one simulation —
the machine, the scheme (or ``None`` for the sequential baseline), the
workload (a regenerable :class:`WorkloadSpec`, a content-addressed
:class:`~repro.workloads.trace.TraceWorkload` trace reference, or an
explicit :class:`~repro.workloads.base.Workload`), and the engine
options. Jobs
are picklable, so the sweep runner can ship them to worker processes,
and they serialize to a canonical JSON form whose SHA-256 digest is the
content address of the result in the on-disk cache.

The cache key includes :data:`repro.core.engine.ENGINE_VERSION`, so
results produced by an older timing model are never replayed as current.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Any, Sequence

from repro.core.config import MachineConfig
from repro.core.engine import ENGINE_VERSION
from repro.core.taxonomy import Scheme
from repro.workloads.base import Workload
from repro.workloads.trace import TraceWorkload


@dataclass(frozen=True)
class WorkloadSpec:
    """A regenerable reference to a synthetic application workload.

    Carries generator *parameters* instead of the generated task list, so
    jobs stay tiny when crossing process boundaries; generation is
    deterministic in (app, seed, scale, invocations, iterations_per_task).
    """

    app: str
    seed: int = 0
    scale: float = 1.0
    invocations: int = 1
    iterations_per_task: float = 1.0

    def generate(self) -> Workload:
        """Build the workload this spec describes.

        Not memoized here: ``_generate_cached`` is the process-local memo.
        """
        from repro.workloads.apps import APPLICATIONS

        return APPLICATIONS[self.app].generate(
            seed=self.seed, scale=self.scale, invocations=self.invocations,
            iterations_per_task=self.iterations_per_task,
        )


@lru_cache(maxsize=64)
def _generate_cached(spec: WorkloadSpec) -> Workload:
    """Process-local memo: six schemes of one app share one generation."""
    return spec.generate()


def _workload_fingerprint(
    workload: WorkloadSpec | TraceWorkload | Workload,
) -> dict[str, Any]:
    """Canonical JSON-ready identity of the job's workload.

    Trace workloads are identified by their verified *content digest*
    (never the filename), so two encodings of the same trace share one
    cache entry and any edit to the trace content misses.
    """
    if isinstance(workload, WorkloadSpec):
        return {"kind": "spec", **asdict(workload)}
    if isinstance(workload, TraceWorkload):
        return workload.fingerprint()
    from repro.analysis.serialization import workload_to_dict

    return {"kind": "explicit", **workload_to_dict(workload)}


@dataclass(frozen=True)
class SimJob:
    """One simulation to execute: (machine x scheme x workload x options).

    ``scheme=None`` requests the sequential baseline instead of a TLS
    simulation; the engine options are then ignored.
    """

    machine: MachineConfig
    workload: WorkloadSpec | TraceWorkload | Workload
    scheme: Scheme | None = None
    high_level_patterns: bool = False
    violation_granularity: str = "word"
    #: Attach the runtime :class:`~repro.validate.invariants.\
    #: InvariantChecker` to the simulation. The checker is a pure observer
    #: (results are bit-identical either way) but it is part of the cache
    #: identity anyway: a checked run *proves* its invariants held, and a
    #: replayed unchecked result must never masquerade as that proof.
    check_invariants: bool = False
    #: Record each committed task's read -> producer map on
    #: ``result.observed_reads`` (and in the stored payload). A pure
    #: observer, off by default because the map is over half of a
    #: payload and only the conformance oracle reads it; part of the
    #: cache identity because a replayed plain result has no map.
    record_reads: bool = False
    #: Attach a :class:`repro.obs.MetricsHook` and carry its snapshot on
    #: ``result.metrics`` (and through worker/cache payloads). A pure
    #: observer, but part of the cache identity: a replayed plain result
    #: has no metrics to offer.
    collect_metrics: bool = False
    #: Attach a :class:`~repro.core.trace.TraceRecorder` and carry it on
    #: ``result.trace``. Traced jobs always execute live in-process —
    #: the recorder cannot cross a process or disk boundary — and are
    #: never stored in (or loaded from) the result cache.
    traced: bool = False

    @classmethod
    def grid(
        cls,
        machines: "Sequence[MachineConfig]",
        schemes: "Sequence[Scheme | None]",
        workloads: "Sequence[WorkloadSpec | TraceWorkload | Workload]",
        **options: Any,
    ) -> "list[SimJob]":
        """The full (machine x scheme x workload) cartesian job grid.

        ``schemes`` may include ``None`` to request the sequential
        baseline alongside the TLS runs; ``options`` (engine flags such
        as ``collect_metrics``) apply to every job. Order is
        deterministic: machines outermost, workloads innermost — the
        order the design-space exploration and sweep CLI both rely on to
        map results back to grid cells.
        """
        return [
            cls(machine=machine, workload=workload, scheme=scheme,
                **options)
            for machine in machines
            for scheme in schemes
            for workload in workloads
        ]

    def resolve_workload(self) -> Workload:
        """The concrete workload for this job (generated/loaded if needed)."""
        if isinstance(self.workload, WorkloadSpec):
            return _generate_cached(self.workload)
        if isinstance(self.workload, TraceWorkload):
            return self.workload.resolve()
        return self.workload

    @property
    def workload_name(self) -> str:
        if isinstance(self.workload, WorkloadSpec):
            return self.workload.app
        return self.workload.name

    def describe(self) -> str:
        """Human-readable one-line job description."""
        scheme = self.scheme.name if self.scheme else "sequential"
        return f"{self.machine.name} / {scheme} / {self.workload_name}"

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def identity(self) -> dict[str, Any]:
        """The canonical JSON-ready identity hashed into the cache key."""
        return {
            "engine_version": ENGINE_VERSION,
            "machine": asdict(self.machine),
            "scheme": self.scheme.name if self.scheme else None,
            "workload": _workload_fingerprint(self.workload),
            "high_level_patterns": self.high_level_patterns,
            "violation_granularity": self.violation_granularity,
            "check_invariants": self.check_invariants,
            "record_reads": self.record_reads,
            "collect_metrics": self.collect_metrics,
            "traced": self.traced,
        }

    def cache_key(self) -> str:
        """SHA-256 content address of this job's result."""
        blob = json.dumps(self.identity(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()
