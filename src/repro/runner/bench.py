"""``repro-tls bench``: the engine floor gate, the fleet identity check
and the cProfile listing.

Two measurements, reported together in ``BENCH_sweep.json``:

* **engine** — event-processing throughput (events/second) of the
  simulation engine on a canonical (app x scheme) grid, repeated
  :data:`ENGINE_BENCH_REPEATS` times. The ``floor`` block compares the
  median against :data:`FLOOR_EVENTS_PER_SECOND`.
* **dispatch** (``--fleet N``) — the 16-cell grid run serially and
  through N real ``repro-tls worker`` subprocesses, byte-compared cell
  by cell.

Sweep and service throughput, with per-layer shares, are measured by
the repository benchmark, ``perfbench/run.py``.
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any

#: Events/second of the engine microbench on the pre-optimization seed
#: engine in this container. Reference point for the >=1.15x target.
SEED_EVENTS_PER_SECOND = 37_246.0
#: Committed perf-regression floor for the CI gate. The ``perf-smoke``
#: CI job fails when the median of the smoke engine bench drops below
#: this. Referenced to the engine-core v3 pure-Python baseline (~95-105k
#: ev/s on the growth container) rather than the seed: anything below
#: the floor is a structural regression, not scheduling jitter. The
#: allowance below the baseline is ~35%, not the 10% a dedicated perf
#: rig would permit, because the shared containers show +-10-15%
#: run-to-run variance and larger container-to-container spread.
FLOOR_EVENTS_PER_SECOND = 66_000.0
#: Timed passes over the engine grid; the floor gates on their median,
#: so one descheduled pass cannot fail the gate.
ENGINE_BENCH_REPEATS = 5

#: Canonical engine-microbench grid (a subset keeps the bench short
#: while covering eager/lazy merging and AMM/FMM buffering).
ENGINE_BENCH_APPS = ("Apsi", "Euler", "Track")


def _engine_bench_schemes():
    from repro.core.taxonomy import (
        MULTI_T_MV_EAGER,
        MULTI_T_MV_FMM,
        MULTI_T_MV_LAZY,
        SINGLE_T_EAGER,
    )

    return (SINGLE_T_EAGER, MULTI_T_MV_EAGER, MULTI_T_MV_LAZY,
            MULTI_T_MV_FMM)


def run_engine_bench(scale: float = 1.0, seed: int = 0,
                     apps: tuple[str, ...] = ENGINE_BENCH_APPS,
                     ) -> dict[str, Any]:
    """Measure engine throughput (events/second), serial, no cache.

    Each of the :data:`ENGINE_BENCH_REPEATS` passes generates the
    workloads and simulates the whole grid; ``samples`` lists every
    pass's events/second and ``events_per_second`` is their median.
    """
    from repro.core.config import NUMA_16
    from repro.core.engine import Simulation
    from repro.workloads.apps import APPLICATIONS

    schemes = _engine_bench_schemes()
    samples = []
    for _ in range(ENGINE_BENCH_REPEATS):
        events = 0
        started = time.perf_counter()
        for app in apps:
            workload = APPLICATIONS[app].generate(seed=seed, scale=scale)
            for scheme in schemes:
                result = Simulation(NUMA_16, scheme, workload).run()
                events += result.events_processed
        elapsed = time.perf_counter() - started
        samples.append(round(events / elapsed, 1) if elapsed > 0 else 0.0)
    eps = statistics.median(samples)
    report: dict[str, Any] = {
        "apps": list(apps),
        "schemes": [s.name for s in schemes],
        "scale": scale,
        "events": events,
        "samples": samples,
        "events_per_second": eps,
    }
    if scale == 1.0 and apps == ENGINE_BENCH_APPS:
        report["seed_events_per_second"] = SEED_EVENTS_PER_SECOND
        report["speedup_vs_seed"] = round(eps / SEED_EVENTS_PER_SECOND, 3)
    return report


def run_dispatch_bench(workers: int = 2, scale: float = 0.1,
                       seed: int = 0) -> dict[str, Any]:
    """Serial vs fleet dispatch on the 16-cell machine x scheme grid.

    Runs Euler under all 8 evaluated schemes on both machine presets
    (CC-NUMA-16 and CMP-8) twice: serially in-process, then through a
    :class:`~repro.dist.coordinator.FleetDispatcher` backed by
    ``workers`` localhost worker *subprocesses* — real ``repro-tls
    worker`` agents over TCP, so the number reflects genuine dispatch
    overhead (and genuine overlap, when the host has the cores). Every
    cell's canonical serialization is byte-compared across the legs;
    ``byte_identical`` is the fleet's CI gate. This works on a 1-CPU
    runner too: the workers are independent processes the OS can
    timeshare.
    """
    from repro.analysis.serialization import canonical_result_bytes
    from repro.core.config import CMP_8, NUMA_16
    from repro.core.taxonomy import EVALUATED_SCHEMES
    from repro.dist import FleetDispatcher
    from repro.runner.jobs import SimJob, WorkloadSpec
    from repro.runner.runner import SweepRunner

    workers = max(2, workers)
    jobs = SimJob.grid(
        [NUMA_16, CMP_8], EVALUATED_SCHEMES,
        [WorkloadSpec("Euler", seed=seed, scale=scale)])
    started = time.perf_counter()
    serial_results = SweepRunner(jobs=1, cache=None).run_many(jobs)
    serial_seconds = time.perf_counter() - started
    serial_bytes = [canonical_result_bytes(r) for r in serial_results]

    with tempfile.TemporaryDirectory(prefix="repro-fleet-") as tmp:
        dispatcher = FleetDispatcher(
            min_workers=workers, local_workers=workers,
            worker_cache_dir=tmp)
        try:
            dispatcher.start()
            runner = SweepRunner(cache=None, dispatcher=dispatcher)
            started = time.perf_counter()
            fleet_results = runner.run_many(jobs)
            fleet_seconds = time.perf_counter() - started
            stats = dispatcher.stats_dict()
            backend = dispatcher.describe()
        finally:
            dispatcher.stop()
    fleet_bytes = [canonical_result_bytes(r) for r in fleet_results]
    return {
        "backend": backend,
        "workers": workers,
        "cells": len(jobs),
        "scale": scale,
        "serial_seconds": round(serial_seconds, 3),
        "fleet_seconds": round(fleet_seconds, 3),
        "speedup_fleet_vs_serial": round(
            serial_seconds / fleet_seconds, 2) if fleet_seconds else None,
        "byte_identical": serial_bytes == fleet_bytes,
        "fleet": stats,
    }


def check_floor(engine_report: dict[str, Any],
                floor: float = FLOOR_EVENTS_PER_SECOND) -> dict[str, Any]:
    """Compare an engine-bench report's median against the perf floor."""
    eps = engine_report["events_per_second"]
    return {
        "floor_events_per_second": round(floor, 1),
        "measured_events_per_second": eps,
        "passed": eps >= floor,
    }


#: Default destination of the :func:`profile_engine` listing.
DEFAULT_PROFILE_PATH = Path("docs/report/profile.txt")


def profile_engine(output: str | Path = DEFAULT_PROFILE_PATH,
                   scale: float = 0.5, seed: int = 0,
                   top: int = 30) -> str:
    """Profile one representative cell under cProfile.

    Runs Euler x MultiT&MV Eager AMM on CC-NUMA-16 (a mid-weight cell
    exercising the multi-version hot paths) and writes two top-``top``
    listings to ``output``: one ordered by cumulative time (where the
    simulated work goes) and one ordered by internal/tottime (which
    function bodies actually burn the cycles — the view that matters
    on the batched drain loop, whose inlined fast paths absorb work
    that cumulative ordering attributes to callees). Returns the
    combined listing.
    """
    import cProfile
    import io
    import pstats

    from repro.core.config import NUMA_16
    from repro.core.engine import Simulation
    from repro.core.taxonomy import MULTI_T_MV_EAGER
    from repro.workloads.apps import APPLICATIONS

    workload = APPLICATIONS["Euler"].generate(seed=seed, scale=scale)
    profiler = cProfile.Profile()
    profiler.enable()
    result = Simulation(NUMA_16, MULTI_T_MV_EAGER, workload).run()
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    buffer.write(f"\n==== top {top} by internal time (tottime) ====\n")
    stats.sort_stats("tottime").print_stats(top)
    listing = (
        f"cProfile: Euler x MultiT&MV Eager AMM on CC-NUMA-16 "
        f"(scale={scale}, seed={seed}); "
        f"{result.events_processed:,} events; top {top} by cumulative "
        f"time, then by internal time\n"
        + buffer.getvalue()
    )
    path = Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(listing)
    return listing


def run_bench(smoke: bool = False, seed: int = 0,
              output: str | Path | None = "BENCH_sweep.json",
              fleet: int = 0,
              ) -> dict[str, Any]:
    """Run the engine bench (and the fleet leg); write the JSON report.

    ``smoke=True`` shrinks the workloads to scale 0.1 so the run
    finishes in seconds; the floor check still applies, since
    events/second is roughly scale-independent.

    ``fleet=N`` (N >= 2) adds a ``dispatch`` section: the 16-cell grid
    run serially and through a fleet of N localhost worker
    subprocesses, with wall-clock for both legs and a byte-identity
    verdict (see :func:`run_dispatch_bench`).
    """
    scale = 0.1 if smoke else 1.0
    engine = run_engine_bench(scale=scale, seed=seed)
    report: dict[str, Any] = {
        "benchmark": "tls-buffering perf harness",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "engine": engine,
        "floor": check_floor(engine),
    }
    if fleet >= 2:
        report["dispatch"] = run_dispatch_bench(
            workers=fleet, scale=scale, seed=seed)
    if output is not None:
        path = Path(output)
        path.write_text(json.dumps(report, indent=2) + "\n")
        report["output"] = str(path)
    return report


def render_report(report: dict[str, Any]) -> str:
    """Human-readable summary of a :func:`run_bench` report."""
    engine = report["engine"]
    floor = report["floor"]
    lines = [
        f"perf harness ({'smoke' if report['smoke'] else 'full'}; "
        f"{report['cpu_count']} CPUs)",
        f"  engine : {engine['events']:>9,} events x {len(engine['samples'])}: "
        f"median {engine['events_per_second']:>9,.0f} ev/s "
        f"(range {min(engine['samples']):,.0f}-"
        f"{max(engine['samples']):,.0f})"
        + (f" ({engine['speedup_vs_seed']:.2f}x vs seed)"
           if "speedup_vs_seed" in engine else ""),
        f"  floor  : median {floor['measured_events_per_second']:,.0f} ev/s "
        f"vs committed floor {floor['floor_events_per_second']:,.0f} ev/s: "
        + ("pass" if floor["passed"] else "FAIL (perf regression!)"),
    ]
    if "dispatch" in report:
        dispatch = report["dispatch"]
        lines.append(
            f"  fleet  : {dispatch['cells']} cells serial "
            f"{dispatch['serial_seconds']:7.2f}s | "
            f"{dispatch['workers']} workers "
            f"{dispatch['fleet_seconds']:7.2f}s "
            f"({dispatch['speedup_fleet_vs_serial']:.2f}x) | "
            + ("byte-identical" if dispatch["byte_identical"]
               else "MISMATCH (fleet divergence!)"))
    if "output" in report:
        lines.append(f"  report written to {report['output']}")
    return "\n".join(lines)
