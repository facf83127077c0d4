"""Benchmark work that runs in a fresh child process (see ``boot.py``).

Each task reads a JSON spec, prints ``READY`` once its imports and
runner construction are done (the parent times spawn-to-ready as
set-up), does the measured work, and writes its figures to
``spec["out"]``. Timed windows are reported as ``perf_counter_ns``
pairs so a traced run can keep only the spans inside them.
"""

from __future__ import annotations

import json
import resource
import time
from pathlib import Path

from repro.runner import ResultCache, SweepRunner

import calib
import cells

MIN_WARM_PASSES = 5


def _ready() -> None:
    print("READY", flush=True)


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of a live process, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _timed_sweep(runner: SweepRunner, jobs: list) -> dict:
    """One ``run_many`` over ``jobs``; per-cell times included.

    A calibration loop runs before the first cell and as each cell
    lands; its time is cut out of every figure (``paused_ns``).
    """
    landed: list[int] = []
    cal: list[float] = [calib.loop_ms()]
    paused = 0

    def _progress(_key: str, _source: str) -> None:
        nonlocal paused
        now = time.perf_counter_ns()
        landed.append(now - paused)
        cal.append(calib.loop_ms())
        paused += time.perf_counter_ns() - now

    start = time.perf_counter_ns()
    results = runner.run_many(jobs, progress=_progress)
    end = time.perf_counter_ns()
    marks = [start, *landed]
    return {
        "results": results,
        "window": [start, end],
        "paused_ns": paused,
        "wall_s": (end - start - paused) / 1e9,
        # Serial resolution: the gap between landings is one cell's time.
        "cell_ms": [(b - a) / 1e6 for a, b in zip(marks, marks[1:])],
        "cal_ms": cal,
    }


def _fingerprints(jobs: list, results: list) -> dict[str, str]:
    return {cells.cell_id(job): cells.fingerprint(result)
            for job, result in zip(jobs, results)}


def cold_sweep(spec: dict) -> dict:
    """One serial cold pass of the 28 full-scale cells."""
    jobs = cells.sweep_jobs(spec["seed"])
    runner = SweepRunner(jobs=1, cache=ResultCache(spec["cache_dir"]))
    _ready()
    if spec.get("setup_only"):
        return {}
    sweep = _timed_sweep(runner, jobs)
    results = sweep.pop("results")
    window = sweep.pop("window")
    return {"passes": [sweep], "windows": [window],
            "events": sum(r.events_processed for r in results),
            "cells": len(jobs), "peak_rss_mb": _own_peak_rss_mb(),
            "checks": [["cold compute", _fingerprints(jobs, results)]]}


def warm_replay(spec: dict) -> dict:
    """Repeated passes of a fresh runner over the prepared disk tier."""
    jobs = cells.sweep_jobs(spec["seed"])
    SweepRunner(jobs=1, cache=ResultCache(spec["cache_dir"]))
    _ready()
    if spec.get("setup_only"):
        return {}
    passes = []
    checks = []
    deadline = time.perf_counter() + spec["seconds"]
    while len(passes) < MIN_WARM_PASSES or time.perf_counter() < deadline:
        runner = SweepRunner(jobs=1, cache=ResultCache(spec["cache_dir"]))
        sweep = _timed_sweep(runner, jobs)
        results = sweep.pop("results")
        checks.append(["disk replay", _fingerprints(jobs, results)])
        passes.append(sweep)
    return {"passes": passes, "windows": [p.pop("window") for p in passes],
            "events": sum(r.events_processed for r in results),
            "cells": len(jobs), "peak_rss_mb": _own_peak_rss_mb(),
            "checks": checks}


def prepare(spec: dict) -> dict:
    """Fill the prepared disk tier with this seed's sweep cells."""
    jobs = cells.sweep_jobs(spec["seed"])
    _ready()
    runner = SweepRunner(jobs=spec.get("jobs", 2),
                         cache=ResultCache(spec["cache_dir"]))
    results = runner.run_many(jobs)
    return {"keys": [job.cache_key() for job in jobs],
            "checks": [["prepare", _fingerprints(jobs, results)]]}


TASKS = {"cold_sweep": cold_sweep, "warm_replay": warm_replay,
         "prepare": prepare}


def run_task(name: str, spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    out = TASKS[name](spec)
    Path(spec["out"]).write_text(json.dumps(out))
    return 0
