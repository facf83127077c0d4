"""Regenerate ``reference.json``: the expected fingerprint of every cell.

    python3 perfbench/make_reference.py

Run from the repository root. Computes every cell any benchmark seed can
generate (the sweep and POST grids over every pool seed) and
records its fingerprint, event count and total cycles. Run it only when
a deliberate change to the simulation moves the results.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import cells  # noqa: E402
from repro.runner import SweepRunner  # noqa: E402


def main() -> int:
    jobs = {}
    for seed in cells.POOL_SEEDS:
        # Grids are per-app independent, so pinning every app to one pool
        # seed at a time covers every cell any benchmark seed can pick.
        pinned = {app: seed for app in cells.APPS}
        for job in cells.sweep_grid(pinned) + cells.post_grid(pinned):
            jobs[cells.cell_id(job)] = job
    ordered = sorted(jobs)
    runner = SweepRunner(jobs=min(2, os.cpu_count() or 1), cache=None)
    results = runner.run_many([jobs[cid] for cid in ordered])
    entries = {cid: cells.reference_entry(result)
               for cid, result in zip(ordered, results)}
    cells.REFERENCE_PATH.write_text(json.dumps(
        {"cells": entries}, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} cells to {cells.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
