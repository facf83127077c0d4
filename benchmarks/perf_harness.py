#!/usr/bin/env python
"""Perf harness wrapper: ``python benchmarks/perf_harness.py [--smoke]``.

Thin front-end over :mod:`repro.runner.bench` (the same harness exposed
as ``repro-tls bench``): measures engine events/second and the canonical
Figure-9 sweep wall-clock (serial cold, parallel cold, warm cache),
probes cross-mode determinism, and writes ``BENCH_sweep.json``.

``--check-floor`` turns the run into the CI perf gate: the process exits
non-zero when engine throughput falls below the committed regression
floor (seed baseline minus 10%). ``--profile`` skips the bench and
writes a cProfile listing of one representative cell instead.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.runner.bench import (  # noqa: E402
    profile_engine,
    render_report,
    run_bench,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small workloads; finishes in well under 30s")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: os.cpu_count())")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="BENCH_sweep.json")
    parser.add_argument("--check-floor", action="store_true",
                        help="exit non-zero if engine events/sec falls "
                             "below the committed regression floor")
    parser.add_argument("--profile", action="store_true",
                        help="skip the bench; cProfile one representative "
                             "cell and write the top-30 listings "
                             "(cumulative and tottime)")
    parser.add_argument("--profile-output", default="docs/report/profile.txt")
    args = parser.parse_args()

    if args.profile:
        listing = profile_engine(output=args.profile_output)
        print(listing.splitlines()[0])
        print(f"profile written to {args.profile_output}")
        return 0

    report = run_bench(smoke=args.smoke, jobs=args.jobs, seed=args.seed,
                       output=args.output)
    print(render_report(report))
    if not report["determinism"]["bit_identical"]:
        return 1
    if args.check_floor and not report["floor"]["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
