"""The benchmark's inputs: seeded cell grids and result fingerprints.

A benchmark seed picks, for each application, one workload-generator
seed from ``POOL_SEEDS`` (the set ``reference.json`` covers), so every
seed yields a different but reference-checked set of cells. The program
only ever sees the generated :class:`~repro.runner.SimJob` objects.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.core.config import CMP_8, NUMA_16
from repro.core.taxonomy import (
    EVALUATED_SCHEMES,
    MULTI_T_MV_FMM,
    MULTI_T_MV_LAZY,
    MULTI_T_SV_LAZY,
    SINGLE_T_EAGER,
)
from repro.runner import SimJob, WorkloadSpec
from repro.workloads.apps import APPLICATIONS

#: Workload-generator seeds the reference fingerprints cover.
POOL_SEEDS = (0, 1, 2, 3)
APPS = tuple(APPLICATIONS)
#: The four schemes of the cold and warm grids (Figure 9's extremes plus
#: the two lazy multi-version points).
SWEEP_SCHEMES = (SINGLE_T_EAGER, MULTI_T_SV_LAZY, MULTI_T_MV_LAZY,
                 MULTI_T_MV_FMM)
FULL_SCALE = 1.0
POST_SCALE = 0.25
#: POST cells use the two apps whose event count does not depend on the
#: workload seed, so every POST holds the server's compute thread for a
#: similar time.
POST_APPS = ("Bdna", "Apsi")

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def app_seeds(seed: int, salt: str) -> dict[str, int]:
    """The workload-generator seed each application uses for ``seed``."""
    rng = random.Random(f"{salt}:{seed}")
    return {app: rng.choice(POOL_SEEDS) for app in APPS}


def sweep_jobs(seed: int) -> list[SimJob]:
    """The 28 full-scale CC-NUMA-16 cells of cold-sweep and warm-replay."""
    return sweep_grid(app_seeds(seed, "sweep"))


def post_pool(seed: int) -> list[SimJob]:
    """Every POST cell of every pool seed, in an order drawn from ``seed``."""
    jobs = [job for pool_seed in POOL_SEEDS
            for job in post_grid(dict.fromkeys(APPS, pool_seed))]
    random.Random(f"post-order:{seed}").shuffle(jobs)
    return jobs


def sweep_grid(seeds: dict[str, int]) -> list[SimJob]:
    return [SimJob(machine=NUMA_16, scheme=scheme,
                   workload=WorkloadSpec(app=app, seed=seeds[app],
                                         scale=FULL_SCALE))
            for scheme in SWEEP_SCHEMES for app in APPS]


def post_grid(seeds: dict[str, int]) -> list[SimJob]:
    return [SimJob(machine=machine, scheme=scheme,
                   workload=WorkloadSpec(app=app, seed=seeds[app],
                                         scale=POST_SCALE))
            for machine in (NUMA_16, CMP_8)
            for scheme in EVALUATED_SCHEMES for app in POST_APPS]


def post_body(job: SimJob) -> dict:
    """The ``POST /v1/jobs`` request body for ``job``."""
    machines = {NUMA_16.name: "numa16", CMP_8.name: "cmp8"}
    return {"machine": machines[job.machine.name], "scheme": job.scheme.name,
            "app": job.workload.app, "seed": job.workload.seed,
            "scale": job.workload.scale}


def cell_id(job: SimJob) -> str:
    """Stable name of a cell, independent of the cache-key format."""
    spec = job.workload
    return (f"{job.machine.name}|{job.scheme.name}|{spec.app}"
            f"|s{spec.seed}|x{spec.scale}")


def fingerprint(result) -> str:
    """Digest of a result's simulated statistics, not of its byte form.

    Covers total and per-category cycles, events, violation and squash
    counts, traffic totals and the final memory-image size, so a change
    to the stored payload format leaves it unchanged while any change
    to what was simulated moves it.
    """
    traffic = result.traffic
    stats = {
        "total_cycles": result.total_cycles,
        "cycles_by_category": sorted(
            (category.value, cycles)
            for category, cycles in result.cycles_by_category.items()),
        "events_processed": result.events_processed,
        "violation_events": result.violation_events,
        "squashed_executions": result.squashed_executions,
        "traffic": [traffic.remote_cache_fetches, traffic.memory_fetches,
                    traffic.line_writebacks, traffic.vcl_merges,
                    traffic.overflow_spills, traffic.overflow_fetches],
        "traffic_total": traffic.total_messages(),
        "memory_image_words": len(result.memory_image),
    }
    blob = json.dumps(stats, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def reference_entry(result) -> dict:
    """What ``reference.json`` keeps per cell."""
    return {"fp": fingerprint(result), "events": result.events_processed,
            "cycles": result.total_cycles}


def load_reference() -> dict[str, dict]:
    """``cell id -> reference entry`` for every cell any seed can generate."""
    return json.loads(REFERENCE_PATH.read_text())["cells"]
