"""Command-line interface: ``repro-tls <command|experiment>``.

Commands (each has its own ``--help`` with examples):

* ``repro-tls list`` — enumerate experiments and commands.
* ``repro-tls <experiment>`` — regenerate one of the paper's tables or
  figures (``all`` runs every one).
* ``repro-tls run`` — one simulation with full control over machine,
  scheme, seed, scale, and the extension features.
* ``repro-tls sweep`` — a (machine x scheme x app) grid through the
  parallel runner, one summary line per cell.
* ``repro-tls bench`` — the engine floor gate, the fleet identity check
  and the profiler; writes ``BENCH_sweep.json``.
* ``repro-tls validate`` — the conformance oracle + runtime invariants.
* ``repro-tls report`` — build the HTML/Markdown reproduction report
  under ``docs/report/``.
* ``repro-tls explore`` — design-space sensitivity sweeps, crossover
  search, and the complexity/performance Pareto frontier.
* ``repro-tls trace`` — ``capture|gen|info|convert|verify``: binary
  ``.tlstrace`` workloads (capture synthetic runs, generate adversarial
  streams, verify capture->replay bit-identity).
* ``repro-tls serve`` — the HTTP/JSON simulation service (async job and
  sweep submission, streaming progress, warm cached lookups); ``sweep
  --server URL`` routes a sweep through a running frontend.
* ``repro-tls worker`` — a fleet worker agent: connect to a sweep
  coordinator, pull job chunks, push bit-identical result envelopes
  (``sweep --dispatch fleet`` starts the coordinator side).
* ``repro-tls cache`` — cache maintenance: ``stats`` (backend and
  entry count of a cache directory).

``--smoke`` (on ``bench``/``validate``/``report``) means: small
workloads at scale 0.1, a fixed two-app subset where applicable,
finishing in well under 30 seconds — the configuration CI runs.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.experiments import EXPERIMENTS, ExperimentContext

_SMOKE_HELP = ("smoke mode: scale 0.1 workloads, finishes in well under "
               "30s; the exact configuration CI gates on")


def _add_common(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every simulation-running command."""
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor (task-count multiplier, default 1.0)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload generation seed (default 0)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for simulation sweeps "
             "(default: os.cpu_count())",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent on-disk simulation result cache",
    )


def _run_single(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.baselines.sequential import simulate_sequential
    from repro.core.config import MACHINES
    from repro.core.engine import Simulation
    from repro.core.taxonomy import scheme_from_name
    from repro.workloads.apps import generate_workload

    machine = MACHINES[args.machine]
    costs = machine.costs
    if args.orb:
        costs = replace(costs, eager_commit_mode="orb")
    if args.bank_service:
        costs = replace(costs, memory_bank_service=args.bank_service)
    machine = machine.with_costs(costs)

    scheme = scheme_from_name(args.scheme)
    workload = generate_workload(args.app, seed=args.seed, scale=args.scale,
                                 invocations=args.invocations)
    result = Simulation(machine, scheme, workload,
                        high_level_patterns=args.hlap).run()
    sequential = simulate_sequential(machine, workload)

    print(result.summary())
    print(f"speedup over sequential : "
          f"{result.speedup_over(sequential.total_cycles):.2f}x")
    print(f"commit/execution ratio  : {result.commit_exec_ratio():.2%}")
    print(f"spec tasks in system    : {result.avg_spec_tasks_in_system:.1f}"
          f" ({result.avg_spec_tasks_per_proc:.2f}/proc)")
    print(f"squashes                : {result.violation_events} events, "
          f"{result.squashed_executions} task executions")
    total = sum(result.cycles_by_category.values())
    for category, cycles in result.cycles_by_category.items():
        print(f"  {category.value:<13} {cycles / total:6.1%}")
    return 0


def _sweep_trace_workloads(args: argparse.Namespace) -> list:
    """Resolve ``--traces`` / ``--trace-dir`` into TraceWorkload refs."""
    from repro.workloads.trace import TraceWorkload, discover_traces

    paths: list[str] = []
    if getattr(args, "traces", None):
        paths.extend(p.strip() for p in args.traces.split(",") if p.strip())
    if getattr(args, "trace_dir", None):
        paths.extend(discover_traces(args.trace_dir))
    return [TraceWorkload.open(path) for path in paths]


def _sweep_via_server(args: argparse.Namespace) -> "list | int":
    """Route ``sweep --server URL`` through a service frontend.

    Returns the reconstructed (and digest-verified) results, or an exit
    status on refusal. Progress events stream to stdout as they land.
    """
    from repro.service import ServiceClient, ServiceClientError

    if getattr(args, "traces", None) or getattr(args, "trace_dir", None):
        print("--server sweeps accept synthetic apps only: trace files "
              "live on this machine, not the server", file=sys.stderr)
        return 2
    request: dict = {"machine": args.machine, "seed": args.seed,
                     "scale": args.scale, "collect_metrics": args.metrics}
    if args.apps:
        request["apps"] = [a.strip() for a in args.apps.split(",")
                           if a.strip()]
    if args.schemes:
        request["schemes"] = [s.strip() for s in args.schemes.split(",")
                              if s.strip()]
    client = ServiceClient(args.server)
    try:
        sweep = client.submit_sweep(request)
        for event in client.stream_events(sweep["sweep_id"]):
            if event.get("event") == "result":
                print(f"[{event['done']}/{event['total']}] "
                      f"{event['source']:<9} {event['key'][:16]}")
            elif (event.get("event") == "end"
                    and event.get("status") != "done"):
                print(f"sweep failed on the server: "
                      f"{event.get('error', 'unknown error')}",
                      file=sys.stderr)
                return 1
        results = [
            ServiceClient.result_from_envelope(client.get_job(key))
            for key in sweep["keys"]
        ]
    except ServiceClientError as exc:
        print(f"server error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()
    return results


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.core.config import MACHINES
    from repro.core.taxonomy import EVALUATED_SCHEMES, scheme_from_name
    from repro.errors import ReproError
    from repro.runner import ResultCache, SimJob, SweepRunner, WorkloadSpec
    from repro.workloads.apps import APPLICATIONS

    runner = None
    if args.server:
        results = _sweep_via_server(args)
        if isinstance(results, int):
            return results
    else:
        try:
            traces = _sweep_trace_workloads(args)
        except ReproError as exc:
            print(f"trace error: {exc}", file=sys.stderr)
            return 2
        if args.apps or not traces:
            apps = ([a.strip() for a in args.apps.split(",") if a.strip()]
                    if args.apps else list(APPLICATIONS))
        else:
            apps = []  # traces only, unless apps were requested explicitly
        unknown = [a for a in apps if a not in APPLICATIONS]
        if unknown:
            print(f"unknown application(s): {', '.join(unknown)}; "
                  f"known: {', '.join(APPLICATIONS)}", file=sys.stderr)
            return 2
        if args.schemes:
            schemes = [scheme_from_name(s.strip())
                       for s in args.schemes.split(",") if s.strip()]
        else:
            schemes = list(EVALUATED_SCHEMES)

        machine = MACHINES[args.machine]
        cache = None if args.no_cache else ResultCache()
        dispatcher = None
        if args.dispatch == "fleet":
            dispatcher = _make_fleet_dispatcher(
                args.fleet_bind, args.workers,
                str(cache.root) if cache is not None else None)
            print(f"fleet coordinator on {dispatcher.address} "
                  f"({args.workers} local workers)")
        runner = SweepRunner(jobs=args.jobs, cache=cache,
                             dispatcher=dispatcher)
        workloads = [WorkloadSpec(app, seed=args.seed, scale=args.scale)
                     for app in apps] + traces
        jobs = [
            SimJob(machine=machine, workload=workload,
                   scheme=scheme, collect_metrics=args.metrics)
            for workload in workloads for scheme in schemes
        ]
        try:
            results = runner.run_many(jobs)
        except ReproError as exc:
            print(f"sweep failed: {exc}", file=sys.stderr)
            return 1
        finally:
            if dispatcher is not None:
                dispatcher.stop()
    for result in results:
        print(result.summary())
    if args.metrics:
        from repro.obs import aggregate_by_scheme

        print()
        for name, snap in aggregate_by_scheme(results).items():
            squashes = snap.counters.get("squash.events", 0)
            spills = snap.counters.get("overflow.spills", 0)
            lookups = (snap.counters.get("directory.reads", 0)
                       + snap.counters.get("directory.writes", 0))
            print(f"{name:<24} squash events {squashes:8,.0f} | "
                  f"overflow spills {spills:8,.0f} | "
                  f"directory lookups {lookups:10,.0f}")
    if runner is not None and runner.cache is not None:
        stats = runner.cache.stats
        print(f"\ncache: {stats.hits} hits, {stats.misses} misses, "
              f"{stats.stores} stores")
    return 0


def _make_fleet_dispatcher(bind: str, workers: int,
                           cache_dir: "str | None") -> "object":
    """Start a coordinator + N localhost worker subprocesses.

    The workers share ``cache_dir`` (when caching is on), so a fleet
    sweep warms the same sharded tier a local sweep would.
    """
    from repro.dist import FleetDispatcher, parse_address

    host, port = parse_address(bind)
    dispatcher = FleetDispatcher(
        host, port, min_workers=max(1, workers), local_workers=workers,
        worker_cache_dir=cache_dir)
    return dispatcher.start()


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import SimulationService, serve_forever

    dispatcher = None
    if args.dispatch == "fleet":
        dispatcher = _make_fleet_dispatcher(
            args.fleet_bind, args.fleet_workers,
            None if args.no_cache else args.cache_dir)
        print(f"fleet coordinator on {dispatcher.address} "
              f"({args.fleet_workers} local workers)")
    service = SimulationService(
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        workers=args.workers,
        use_disk=not args.no_cache,
        dispatcher=dispatcher,
    )
    try:
        asyncio.run(serve_forever(service, args.host, args.port))
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        service.close()
        if dispatcher is not None:
            dispatcher.stop()
    return 0


def _run_worker(args: argparse.Namespace) -> int:
    from repro.dist import WorkerAgent, WorkerRefusedError
    from repro.errors import ReproError
    from repro.runner import ResultCache

    cache = None
    if not args.no_cache:
        cache = (ResultCache(args.cache_dir) if args.cache_dir
                 else ResultCache())
    agent = WorkerAgent(args.connect, cache=cache,
                        connect_timeout=args.connect_timeout)
    agent.install_signal_handlers()
    try:
        summary = agent.run()
    except WorkerRefusedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ReproError, OSError, ValueError) as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 2
    print(f"worker {summary['worker_id']}: {summary['chunks']} chunks, "
          f"{summary['jobs']} jobs ({summary['cache_hits']} cache hits)"
          f"{', drained' if summary['drained'] else ''}")
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    import json as _json

    from repro.runner import ResultCache

    cache = (ResultCache(args.cache_dir) if args.cache_dir
             else ResultCache())
    print(_json.dumps({
        "backend": cache.describe(),
        "entries": len(cache),
    }, indent=2))
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    from repro.runner.bench import (
        profile_engine,
        render_report,
        run_bench,
    )

    if args.profile:
        listing = profile_engine(output=args.profile_output)
        print(listing.splitlines()[0])
        print(f"profile written to {args.profile_output}")
        return 0
    report = run_bench(smoke=args.smoke, seed=args.seed,
                       output=args.bench_output, fleet=args.fleet)
    print(render_report(report))
    dispatch = report.get("dispatch")
    if dispatch is not None and not dispatch["byte_identical"]:
        print("FAIL: fleet results differ from the serial path",
              file=sys.stderr)
        return 1
    if args.check_floor and not report["floor"]["passed"]:
        print("FAIL: engine throughput below the committed perf floor",
              file=sys.stderr)
        return 1
    return 0


def _run_validate(args: argparse.Namespace) -> int:
    from repro.core.config import MACHINES
    from repro.core.taxonomy import EVALUATED_SCHEMES
    from repro.runner import SweepRunner, WorkloadSpec
    from repro.validate import render_conformance_report, run_conformance
    from repro.workloads.apps import APPLICATIONS

    if args.smoke:
        apps = ["Euler", "Apsi"]
        scale = 0.1
    else:
        apps = ([a.strip() for a in args.apps.split(",") if a.strip()]
                if args.apps else list(APPLICATIONS))
        scale = args.scale
    unknown = [a for a in apps if a not in APPLICATIONS]
    if unknown:
        print(f"unknown application(s): {', '.join(unknown)}; "
              f"known: {', '.join(APPLICATIONS)}", file=sys.stderr)
        return 2

    specs = [WorkloadSpec(app=app, seed=args.seed, scale=scale)
             for app in apps]
    # Cache-less on purpose: the oracle must re-verify, not replay.
    runner = SweepRunner(jobs=args.jobs, cache=None)
    report = run_conformance(
        MACHINES[args.machine], specs, EVALUATED_SCHEMES,
        runner=runner, check_invariants=not args.no_invariants,
    )
    print(render_conformance_report(report))
    return 0 if report.passed else 1


def _run_report(args: argparse.Namespace) -> int:
    from repro.obs.report import build_report

    # Smoke uses scale 0.25 (not bench/validate's 0.1): the paper's
    # qualitative effects the claim badges check — SV privatization
    # stalls, P3m buffer pressure — only emerge with enough tasks, and
    # 0.25 is the scale the integration test suite asserts them at.
    scale = 0.25 if args.smoke else args.scale
    paths = build_report(
        args.out, scale=scale, seed=args.seed, jobs=args.jobs,
        cache=not args.no_cache,
    )
    print(f"report written to {paths['html']}")
    print(f"markdown companion at {paths['markdown']}")
    return 0


def _run_experiments(args: argparse.Namespace) -> int:
    names = (list(EXPERIMENTS) if args.experiment == "all"
             else [args.experiment])
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              f"try 'repro-tls list'", file=sys.stderr)
        return 2

    ctx = ExperimentContext(scale=args.scale, seed=args.seed,
                            jobs=args.jobs, cache=not args.no_cache)
    for name in names:
        runner = EXPERIMENTS[name]
        try:
            result = runner(ctx)  # type: ignore[call-arg]
        except TypeError:
            result = runner()  # static experiments take no context
        print(result.render())
        print()
    return 0


def _run_explore(args: argparse.Namespace) -> int:
    from repro.core.config import MACHINES
    from repro.explore import AXES, build_explore
    from repro.workloads.apps import APPLICATIONS

    apps = axes = None
    if args.apps:
        apps = tuple(a.strip() for a in args.apps.split(",") if a.strip())
        unknown = [a for a in apps if a not in APPLICATIONS]
        if unknown:
            print(f"unknown application(s): {', '.join(unknown)}; "
                  f"known: {', '.join(APPLICATIONS)}", file=sys.stderr)
            return 2
    if args.axes:
        axes = tuple(a.strip() for a in args.axes.split(",") if a.strip())
        unknown = [a for a in axes if a not in AXES]
        if unknown:
            print(f"unknown axis/axes: {', '.join(unknown)}; "
                  f"known: {', '.join(AXES)}", file=sys.stderr)
            return 2

    # Like `report --smoke`, exploration smoke runs at scale 0.25: the
    # buffer-pressure effects its axes probe only emerge with enough
    # tasks in flight.
    scale = 0.25 if args.smoke else args.scale
    paths = build_explore(
        args.out, scale=scale, seed=args.seed, jobs=args.jobs,
        cache=not args.no_cache, smoke=args.smoke,
        base=MACHINES[args.machine], apps=apps, axes=axes,
    )
    print(f"exploration report written to {paths['html']}")
    print(f"markdown companion at {paths['markdown']}")
    return 0


def _run_list(args: argparse.Namespace) -> int:
    from repro.explore import describe_machine, machine_registry
    from repro.workloads.apps import APPLICATIONS

    print("experiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    print("commands:")
    for command in ("run", "sweep", "bench", "validate", "report",
                    "explore", "trace", "serve", "worker", "cache"):
        print(f"  {command}")
    print("applications (synthetic registry):")
    for name, profile in APPLICATIONS.items():
        print(f"  {name:<12} {profile.n_tasks} tasks, "
              f"~{profile.instructions_per_task} instr/task")
    if getattr(args, "trace_dir", None):
        from repro.errors import ReproError
        from repro.workloads.trace import discover_traces
        from repro.workloads.traceio import peek_trace

        print(f"trace workloads ({args.trace_dir}):")
        try:
            paths = discover_traces(args.trace_dir)
        except ReproError as exc:
            print(f"trace error: {exc}", file=sys.stderr)
            return 2
        if not paths:
            print("  (none found)")
        for path in paths:
            try:
                info = peek_trace(path)
            except ReproError as exc:
                print(f"  {path}: UNREADABLE ({exc})")
                continue
            print(f"  {path}: {info.header.name}, "
                  f"{info.header.n_tasks} tasks, "
                  f"{info.n_records} records, {info.file_bytes} bytes, "
                  f"digest {info.digest[:12]}")
    print("machines (presets + derived explore variants):")
    for name, machine in machine_registry().items():
        print(f"  {name:<36} {describe_machine(machine)}")
    return 0


# ----------------------------------------------------------------------
# trace subcommands
# ----------------------------------------------------------------------
def _run_trace_capture(args: argparse.Namespace) -> int:
    from repro.core.config import MACHINES
    from repro.core.engine import Simulation
    from repro.core.taxonomy import scheme_from_name
    from repro.obs.capture import TraceCaptureHook
    from repro.workloads.apps import generate_workload
    from repro.workloads.traceio import TRACE_SUFFIX

    out = args.out or f"{args.app}{TRACE_SUFFIX}"
    workload = generate_workload(args.app, seed=args.seed, scale=args.scale)
    hook = TraceCaptureHook(out, meta={
        "app": args.app, "seed": str(args.seed), "scale": str(args.scale),
    })
    Simulation(MACHINES[args.machine], scheme_from_name(args.scheme),
               workload, hook=hook).run()
    print(f"captured {hook.info.summary()}")
    print(f"written to {out}")
    for name, value in sorted(hook.counters.items()):
        print(f"  {name:<24} {value}")
    return 0


def _run_trace_gen(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.workloads.trace import generate_trace_file
    from repro.workloads.traceio import TRACE_SUFFIX

    out = args.out or f"{args.kind}{TRACE_SUFFIX}"
    try:
        info = generate_trace_file(args.kind, out, n_tasks=args.tasks,
                                   seed=args.seed)
    except ReproError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    print(f"generated {info.summary()}")
    print(f"written to {out}")
    return 0


def _run_trace_info(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.workloads.traceio import read_trace

    status = 0
    for path in args.files:
        try:
            decoded = read_trace(path)
        except (OSError, ReproError) as exc:
            print(f"{path}: INVALID: {exc}", file=sys.stderr)
            status = 1
            continue
        header = decoded.header
        print(f"{path}:")
        print(f"  name         {header.name}")
        print(f"  tasks        {header.n_tasks}")
        print(f"  records      {decoded.n_records} "
              f"({sum(len(t.ops) for t in decoded.tasks)} ops)")
        print(f"  bytes        {decoded.file_bytes}")
        print(f"  digest       {decoded.digest}")
        print(f"  priv region  [{header.priv_base:#x}, "
              f"{header.priv_limit:#x})")
        if header.description:
            print(f"  description  {header.description}")
        for key, value in header.meta:
            print(f"  meta         {key} = {value}")
    return status


def _run_trace_convert(args: argparse.Namespace) -> int:
    from repro.analysis.serialization import load_workload, save_workload
    from repro.errors import ReproError
    from repro.workloads.traceio import read_trace, write_trace

    try:
        if args.input.endswith(".json"):
            workload = load_workload(args.input)
            out = args.out or args.input[:-len(".json")] + ".tlstrace"
            info = write_trace(out, workload,
                               meta={"converted-from": args.input})
            print(f"converted {info.summary()}")
        else:
            decoded = read_trace(args.input)
            out = args.out or args.input + ".json"
            save_workload(decoded.to_workload(), out)
            print(f"converted {decoded.header.name}: "
                  f"{decoded.header.n_tasks} tasks to workload JSON")
        print(f"written to {out}")
    except (OSError, ReproError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    return 0


def _run_trace_verify(args: argparse.Namespace) -> int:
    import tempfile

    from repro.core.config import MACHINES
    from repro.core.taxonomy import EVALUATED_SCHEMES
    from repro.workloads.apps import APPLICATIONS
    from repro.workloads.trace import (
        render_verify_report,
        verify_capture_replay,
    )

    if args.smoke:
        apps = list(APPLICATIONS)
        scale = 0.1
    else:
        apps = ([a.strip() for a in args.apps.split(",") if a.strip()]
                if args.apps else list(APPLICATIONS))
        scale = args.scale
    unknown = [a for a in apps if a not in APPLICATIONS]
    if unknown:
        print(f"unknown application(s): {', '.join(unknown)}; "
              f"known: {', '.join(APPLICATIONS)}", file=sys.stderr)
        return 2
    trace_dir = args.trace_dir or tempfile.mkdtemp(prefix="repro-tls-trace-")
    report = verify_capture_replay(
        MACHINES[args.machine], apps, EVALUATED_SCHEMES, trace_dir,
        scale=scale, seed=args.seed,
    )
    print(render_verify_report(report))
    if not report["passed"]:
        print("replay digests drifted: either the trace round-trip lost "
              "content or the engine changed without an ENGINE_VERSION "
              "bump", file=sys.stderr)
    return 0 if report["passed"] else 1


_COMMANDS = ("run", "sweep", "bench", "validate", "report", "explore",
             "trace", "serve", "worker", "cache", "list")

_DESCRIPTION = (
    "Reproduce tables/figures from 'Tradeoffs in Buffering Memory State "
    "for Thread-Level Speculation in Multiprocessors' (HPCA 2003)"
)

_TOP_EPILOG = """\
examples:
  repro-tls list                       # every experiment and command
  repro-tls figure9                    # one figure, full scale
  repro-tls all --scale 0.25 --jobs 8  # everything, quarter-size, 8 workers
  repro-tls run --app Apsi --scheme "MultiT&MV Lazy AMM"
  repro-tls sweep --apps Euler,Apsi --metrics
  repro-tls bench --smoke --check-floor  # CI engine-throughput gate
  repro-tls validate --smoke           # CI conformance gate
  repro-tls report --smoke             # build docs/report/index.html
  repro-tls explore --smoke            # design-space sweeps + frontier
  repro-tls trace gen --kind squash-storm --out storm.tlstrace
  repro-tls sweep --traces storm.tlstrace
  repro-tls trace verify --smoke       # capture/replay bit-identity gate
  repro-tls serve --port 8321          # HTTP/JSON simulation service
  repro-tls sweep --server http://127.0.0.1:8321 --apps Euler
  repro-tls sweep --dispatch fleet --workers 2 --apps Euler
  repro-tls worker --connect 127.0.0.1:8422  # join a remote fleet
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tls",
        description=_DESCRIPTION,
        epilog=_TOP_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_list = sub.add_parser(
        "list", help="enumerate experiments, commands, and workloads")
    p_list.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="also enumerate .tlstrace workloads in DIR "
                             "(with per-trace header summaries)")
    p_list.set_defaults(func=_run_list)

    p_run = sub.add_parser(
        "run", help="one simulation with full control",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
examples:
  repro-tls run --app Apsi --scheme "MultiT&MV Lazy AMM"
  repro-tls run --app P3m --machine cmp8 --scale 0.5 --hlap
  repro-tls run --app Euler --scheme "SingleT Eager AMM" --orb
""")
    _add_common(p_run)
    p_run.add_argument("--app", default="Apsi",
                       help="application workload (default Apsi)")
    p_run.add_argument("--scheme", default="MultiT&MV Lazy AMM",
                       help='scheme name (default "MultiT&MV Lazy AMM")')
    p_run.add_argument("--machine", default="numa16",
                       choices=["numa16", "numa16-bigl2", "cmp8"],
                       help="machine preset (default numa16)")
    p_run.add_argument("--invocations", type=int, default=1,
                       help="loop invocations (default 1)")
    p_run.add_argument("--hlap", action="store_true",
                       help="enable High-Level Access Patterns")
    p_run.add_argument("--orb", action="store_true",
                       help="use ORB ownership-request eager commits")
    p_run.add_argument("--bank-service", type=int, default=0,
                       help="memory-bank occupancy cycles (contention)")
    p_run.set_defaults(func=_run_single)

    p_sweep = sub.add_parser(
        "sweep", help="a (machine x scheme x app) grid, one line per cell",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
examples:
  repro-tls sweep                              # all apps x all 8 schemes
  repro-tls sweep --apps Euler,Apsi --jobs 8   # two apps, 8 workers
  repro-tls sweep --schemes "MultiT&MV Lazy AMM,MultiT&MV FMM" --metrics
""")
    _add_common(p_sweep)
    p_sweep.add_argument("--machine", default="numa16",
                         choices=["numa16", "numa16-bigl2", "cmp8"],
                         help="machine preset (default numa16)")
    p_sweep.add_argument("--apps", default=None, metavar="A,B,...",
                         help="comma-separated applications (default: all)")
    p_sweep.add_argument("--schemes", default=None, metavar="S1,S2,...",
                         help="comma-separated scheme names "
                              "(default: all 8 evaluated schemes)")
    p_sweep.add_argument("--metrics", action="store_true",
                         help="attach the metrics hook and print "
                              "per-scheme aggregates")
    p_sweep.add_argument("--traces", default=None, metavar="T1,T2,...",
                         help="comma-separated .tlstrace files to sweep "
                              "(replaces the app list unless --apps is "
                              "also given)")
    p_sweep.add_argument("--trace-dir", default=None, metavar="DIR",
                         help="sweep every .tlstrace file in DIR")
    p_sweep.add_argument("--server", default=None, metavar="URL",
                         help="route the sweep through a running "
                              "'repro-tls serve' frontend (e.g. "
                              "http://127.0.0.1:8321); results are "
                              "digest-verified locally")
    p_sweep.add_argument("--dispatch", default="local",
                         choices=["local", "fleet"],
                         help="compute backend: the in-process pool "
                              "(local, default) or a worker fleet over "
                              "TCP (fleet); results are bit-identical "
                              "either way")
    p_sweep.add_argument("--workers", type=int, default=2, metavar="N",
                         help="with --dispatch fleet: localhost worker "
                              "subprocesses to spawn (default 2); point "
                              "remote 'repro-tls worker' agents at the "
                              "--fleet-bind address for a real fleet")
    p_sweep.add_argument("--fleet-bind", default="127.0.0.1:0",
                         metavar="HOST:PORT",
                         help="with --dispatch fleet: coordinator bind "
                              "address (default 127.0.0.1:0 — an "
                              "ephemeral localhost port)")
    p_sweep.set_defaults(func=_run_sweep)

    p_bench = sub.add_parser(
        "bench", help="engine floor gate, fleet identity check, profiler",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
times the engine on a 3-app x 4-scheme grid (5 passes; the floor gate
reads their median) and writes the JSON report. --fleet N also runs the
16-cell grid through N worker subprocesses and exits non-zero unless
every cell is byte-identical to the serial run. Sweep and service
throughput, with per-layer shares, are measured by perfbench/run.py.

examples:
  repro-tls bench --smoke --check-floor  # the CI perf gate
  repro-tls bench --smoke --fleet 2      # + fleet byte-identity check
  repro-tls bench --bench-output /tmp/bench.json
  repro-tls bench --profile              # cProfile one cell to docs/report/
""")
    p_bench.add_argument("--seed", type=int, default=0,
                         help="workload generation seed (default 0)")
    p_bench.add_argument("--smoke", action="store_true", help=_SMOKE_HELP)
    p_bench.add_argument("--bench-output", default="BENCH_sweep.json",
                         help="report path (default BENCH_sweep.json)")
    p_bench.add_argument("--check-floor", action="store_true",
                         help="exit non-zero if the median engine "
                              "events/sec falls below the committed "
                              "regression floor")
    p_bench.add_argument("--fleet", type=int, default=0, metavar="N",
                         help="also measure the fleet dispatcher with N "
                              "localhost worker subprocesses: serial vs "
                              "fleet wall-clock + byte-identity on the "
                              "16-cell grid (the 'dispatch' report block)")
    p_bench.add_argument("--profile", action="store_true",
                         help="skip the bench; cProfile one representative "
                              "cell and write the top-30 cumulative listing")
    p_bench.add_argument("--profile-output", default="docs/report/profile.txt",
                         help="profile listing path "
                              "(default docs/report/profile.txt)")
    p_bench.set_defaults(func=_run_bench)

    p_validate = sub.add_parser(
        "validate", help="conformance oracle + runtime invariants",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
runs each workload under every evaluated taxonomy point with the runtime
invariant checker attached, then asserts all schemes agree with
sequential semantics on final memory state, committed dataflow, and
timing-independent violation facts. exits non-zero on any invariant
violation or divergence. always cache-less: the oracle re-verifies, it
never replays.

examples:
  repro-tls validate --smoke             # Euler+Apsi at scale 0.1 (CI)
  repro-tls validate --apps P3m --scale 0.5
  repro-tls validate --no-invariants     # differential oracle only
""")
    _add_common(p_validate)
    p_validate.add_argument("--smoke", action="store_true",
                            help=_SMOKE_HELP + " (Euler+Apsi only)")
    p_validate.add_argument("--machine", default="numa16",
                            choices=["numa16", "numa16-bigl2", "cmp8"],
                            help="machine preset (default numa16)")
    p_validate.add_argument("--apps", default=None, metavar="A,B,...",
                            help="comma-separated applications "
                                 "(default: all)")
    p_validate.add_argument("--no-invariants", action="store_true",
                            help="skip the runtime invariant checker, run "
                                 "the differential oracle only")
    p_validate.set_defaults(func=_run_validate)

    p_report = sub.add_parser(
        "report", help="build the HTML/Markdown reproduction report",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
runs (or replays from cache) the full 16-cell machine x scheme grid and
writes a self-contained docs/report/index.html plus report.md: Figure
9/10/11 analogues, the Table 1/2 support matrix, per-scheme metrics
tables, and pass/fail badges for the paper's four headline claims. the
output is deterministic — a warm-cache rebuild is byte-identical.

examples:
  repro-tls report --smoke               # ~30s, the CI artifact
  repro-tls report                       # full scale
  repro-tls report --out /tmp/report --jobs 8
""")
    _add_common(p_report)
    p_report.add_argument("--smoke", action="store_true",
                          help="smoke mode: scale 0.25 workloads (the "
                               "integration-test scale, where the paper's "
                               "qualitative effects emerge); the "
                               "configuration CI builds and uploads")
    p_report.add_argument("--out", default="docs/report",
                          help="output directory (default docs/report)")
    p_report.set_defaults(func=_run_report)

    p_explore = sub.add_parser(
        "explore", help="design-space sensitivity sweeps + Pareto frontier",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
derives machine variants along named axes (l2_size, l2_assoc, n_procs,
overflow_capacity, hop_latency, squash_cost, commit_cost), sweeps each
axis over the scheme ladder, locates the Section 7.3 crossover points
(the L2 size where Lazy closes the FMM gap on P3m; the processor count
where MultiT&MV's gain saturates), classifies the complexity/performance
Pareto frontier, and renders docs/report/explore.html + explore.md +
sensitivity SVGs. deterministic: a warm-cache rebuild is byte-identical.

examples:
  repro-tls explore --smoke              # CI configuration (3 axes, 2 apps)
  repro-tls explore --axes l2_size,n_procs --apps P3m
  repro-tls explore --machine cmp8 --scale 0.5 --jobs 8
""")
    _add_common(p_explore)
    p_explore.add_argument("--smoke", action="store_true",
                           help="smoke mode: scale 0.25, axes l2_size/"
                                "n_procs/overflow_capacity, apps P3m+Euler; "
                                "the configuration CI builds and uploads")
    p_explore.add_argument("--machine", default="numa16",
                           choices=["numa16", "numa16-bigl2", "cmp8"],
                           help="base machine the axes vary (default numa16)")
    p_explore.add_argument("--apps", default=None, metavar="A,B,...",
                           help="comma-separated applications "
                                "(default: P3m,Euler,Apsi; smoke: P3m,Euler)")
    p_explore.add_argument("--axes", default=None, metavar="X,Y,...",
                           help="comma-separated axes (default: all; smoke: "
                                "l2_size,n_procs,overflow_capacity)")
    p_explore.add_argument("--out", default="docs/report",
                           help="output directory (default docs/report)")
    p_explore.set_defaults(func=_run_explore)

    p_trace = sub.add_parser(
        "trace", help="capture, generate, inspect, convert, and verify "
                      ".tlstrace workloads",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
binary trace files (.tlstrace) replay arbitrary per-task memory
reference streams through the same engine/runner/cache pipeline as the
synthetic apps; a trace's content digest is its cache identity.

examples:
  repro-tls trace capture --app Apsi --out apsi.tlstrace
  repro-tls trace gen --kind pointer-chase --tasks 64 --out chase.tlstrace
  repro-tls trace info chase.tlstrace
  repro-tls trace convert apsi.tlstrace --out apsi.json
  repro-tls trace verify --smoke       # capture/replay bit-identity gate
""")
    tsub = p_trace.add_subparsers(dest="trace_command", metavar="subcommand")

    t_capture = tsub.add_parser(
        "capture", help="run a synthetic app and dump it as a trace")
    t_capture.add_argument("--app", default="Apsi",
                           help="application workload (default Apsi)")
    t_capture.add_argument("--scheme", default="MultiT&MV Lazy AMM",
                           help='scheme for the capture run (default '
                                '"MultiT&MV Lazy AMM")')
    t_capture.add_argument("--machine", default="numa16",
                           choices=["numa16", "numa16-bigl2", "cmp8"],
                           help="machine preset (default numa16)")
    t_capture.add_argument("--seed", type=int, default=0,
                           help="workload generation seed (default 0)")
    t_capture.add_argument("--scale", type=float, default=1.0,
                           help="workload scale factor (default 1.0)")
    t_capture.add_argument("--out", default=None, metavar="FILE",
                           help="output path (default <app>.tlstrace)")
    t_capture.set_defaults(func=_run_trace_capture)

    t_gen = tsub.add_parser(
        "gen", help="generate an adversarial trace workload")
    t_gen.add_argument("--kind", default="squash-storm",
                       choices=["pointer-chase", "squash-storm", "hot-line"],
                       help="generator (default squash-storm)")
    t_gen.add_argument("--tasks", type=int, default=None,
                       help="task count (default: generator-specific)")
    t_gen.add_argument("--seed", type=int, default=0,
                       help="generation seed (default 0)")
    t_gen.add_argument("--out", default=None, metavar="FILE",
                       help="output path (default <kind>.tlstrace)")
    t_gen.set_defaults(func=_run_trace_gen)

    t_info = tsub.add_parser(
        "info", help="decode, verify, and summarize trace files")
    t_info.add_argument("files", nargs="+", metavar="FILE",
                        help=".tlstrace files to inspect")
    t_info.set_defaults(func=_run_trace_info)

    t_convert = tsub.add_parser(
        "convert", help="convert between .tlstrace and workload JSON")
    t_convert.add_argument("input", metavar="FILE",
                           help="input file (.json converts to binary, "
                                "anything else converts to JSON)")
    t_convert.add_argument("--out", default=None, metavar="FILE",
                           help="output path (default: derived from input)")
    t_convert.set_defaults(func=_run_trace_convert)

    t_verify = tsub.add_parser(
        "verify", help="capture every app, replay the trace, assert "
                       "bit-identity under all 8 schemes")
    t_verify.add_argument("--apps", default=None, metavar="A,B,...",
                          help="comma-separated applications (default: all)")
    t_verify.add_argument("--machine", default="numa16",
                          choices=["numa16", "numa16-bigl2", "cmp8"],
                          help="machine preset (default numa16)")
    t_verify.add_argument("--scale", type=float, default=0.1,
                          help="workload scale factor (default 0.1)")
    t_verify.add_argument("--seed", type=int, default=0,
                          help="workload generation seed (default 0)")
    t_verify.add_argument("--smoke", action="store_true",
                          help="all apps at scale 0.1: the CI trace gate")
    t_verify.add_argument("--trace-dir", default=None, metavar="DIR",
                          help="directory for the captured traces "
                               "(default: a fresh temp dir)")
    t_verify.set_defaults(func=_run_trace_verify)
    p_trace.set_defaults(func=lambda _a: (p_trace.print_help(), 2)[1])

    p_serve = sub.add_parser(
        "serve", help="the HTTP/JSON simulation service frontend",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
an asyncio HTTP/JSON API (stdlib only) over the shared result-cache
stack: POST /v1/jobs and /v1/sweeps submit content-addressed work,
GET /v1/jobs/{key} serves warm results sub-millisecond from the memory
tier, GET /v1/sweeps/{id}/events streams per-cell progress as JSON
lines, and GET /v1/cache/stats exposes every tier's counters. identical
submissions collapse into one computation (single-flight). see
docs/service.md for the API reference.

examples:
  repro-tls serve                              # 127.0.0.1:8321
  repro-tls serve --port 9000 --jobs 8         # wider compute pool
  repro-tls serve --cache-dir /var/tmp/tls     # shared disk tier
  repro-tls sweep --server http://127.0.0.1:8321 --apps Euler,Apsi
  curl -s localhost:8321/v1/cache/stats
""")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="TCP port (default 8321)")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="sharded disk-tier root (default: the "
                              "standard per-user cache directory)")
    p_serve.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="worker processes per sweep "
                              "(default: os.cpu_count())")
    p_serve.add_argument("--workers", type=int, default=8, metavar="N",
                         help="concurrent sweep dispatch threads "
                              "(default 8)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="serve from the in-memory tier only (no "
                              "shared disk tier)")
    p_serve.add_argument("--dispatch", default="local",
                         choices=["local", "fleet"],
                         help="sweep compute backend: the in-process "
                              "pool (local, default) or a worker fleet "
                              "(fleet)")
    p_serve.add_argument("--fleet-workers", type=int, default=2,
                         metavar="N",
                         help="with --dispatch fleet: localhost worker "
                              "subprocesses to spawn (default 2)")
    p_serve.add_argument("--fleet-bind", default="127.0.0.1:0",
                         metavar="HOST:PORT",
                         help="with --dispatch fleet: coordinator bind "
                              "address (default 127.0.0.1:0)")
    p_serve.set_defaults(func=_run_serve)

    p_worker = sub.add_parser(
        "worker", help="a fleet worker agent (pull chunks, push results)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
connects to a sweep coordinator (started by 'repro-tls sweep --dispatch
fleet' or 'repro-tls serve --dispatch fleet'), registers with an engine
fingerprint, and loops: pull a job chunk, compute each job through the
exact serial pipeline, push digest-carrying result envelopes. warm keys
are answered from the shared cache without recomputing. SIGTERM drains
gracefully: the current chunk finishes, in-flight work is requeued.
only connect to coordinators you trust — job chunks are pickled.

examples:
  repro-tls worker --connect 127.0.0.1:8422
  repro-tls worker --connect coordinator-host:8422 --cache-dir /var/tmp/tls
""")
    p_worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="coordinator address to register with")
    p_worker.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="sharded result-cache root for warm-key "
                               "short circuits (default: the standard "
                               "cache directory)")
    p_worker.add_argument("--no-cache", action="store_true",
                          help="compute every chunk; no cache reads or "
                               "writes")
    p_worker.add_argument("--connect-timeout", type=float, default=30.0,
                          metavar="SECONDS",
                          help="how long to retry the initial connection "
                               "(default 30)")
    p_worker.set_defaults(func=_run_worker)

    p_cache = sub.add_parser(
        "cache", help="result-cache maintenance: stats",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""\
examples:
  repro-tls cache stats                      # entry counts + backend
  repro-tls cache stats --cache-dir /var/tmp/tls
""")
    csub = p_cache.add_subparsers(metavar="subcommand")
    c_stats = csub.add_parser(
        "stats", help="entry counts and backend description")
    c_stats.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache root (default: the standard cache "
                              "directory)")
    c_stats.set_defaults(func=_run_cache)
    p_cache.set_defaults(func=lambda _a: (p_cache.print_help(), 2)[1])

    return parser


def _experiment_parser() -> argparse.ArgumentParser:
    """Fallback parser: ``repro-tls <experiment> [--scale ...]``."""
    parser = argparse.ArgumentParser(
        prog="repro-tls",
        description=_DESCRIPTION,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="run 'repro-tls list' for the experiment names",
    )
    parser.add_argument(
        "experiment",
        help="experiment name (see 'repro-tls list'), or 'all'",
    )
    _add_common(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and dispatch to a subcommand; returns the exit status."""
    if argv is None:
        argv = sys.argv[1:]
    # Experiment names ("figure9", "all", ...) are not subcommands; route
    # anything that is not a known command through the experiment parser.
    if argv and not argv[0].startswith("-") and argv[0] not in _COMMANDS:
        args = _experiment_parser().parse_args(argv)
        return _run_experiments(args)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    return args.func(args)


def entry() -> int:
    """Console-script entry point: exits quietly on a closed pipe."""
    try:
        return main()
    except BrokenPipeError:
        import os

        # Piping into `head` closes stdout early; that is not an error.
        try:
            sys.stdout.close()
        except Exception:
            os._exit(0)
        return 0


if __name__ == "__main__":
    raise SystemExit(entry())
