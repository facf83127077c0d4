"""The repository benchmark: sweep and service workloads over the simulator.

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 20 --trace 0

Workloads: ``cold-sweep``, ``warm-replay`` and ``serve-mixed``.

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` measures the workload untraced, then again with
span wrappers installed in every process that does the work, and prints
the per-layer metrics (plus the tracing overhead). Every cell a workload
resolves is checked against ``reference.json``; a mismatch counts as a
failed operation. The last line of standard output is the JSON result;
lines before it are informational (``sim_check``, the ``open_loop``
verdict, per-rung figures).

Workloads, their loop types and the layer predictions are documented in
``plan.json``. Scratch state lives in ``.perfbench/`` under the working
directory: ``prepared-<digest of src/repro>/`` (a disk tier of
full-scale cells, filled on first use and reused only by the same
source) and one ``run-<pid>/`` directory removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import loadgen
from layers import PER_LAYER_UNITS, Spans, layer_metrics, service_metrics

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
STATE = ROOT / ".perfbench"
PLAN = json.loads((HERE / "plan.json").read_text())
CHILD_TIMEOUT = 150.0

#: The gated end-to-end metrics (BENCHMARK.json lists the same).
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cells_per_s": "1/s",
    "sim_events_per_s": "1/s",
}
#: serve-mixed open-loop figures, printed on the info line and not
#: gated: their run-to-run spread on a shared host is wider than any
#: bound (see plan.json).
INFO_UNITS = {"get_p50_ms": "ms", "get_p99_ms": "ms", "post_p50_ms": "ms",
              "slo_rps": "1/s", "offered_served_per_s": "1/s",
              "reference_get_per_s": "1/s"}


class BenchError(Exception):
    """The benchmark could not produce a valid result."""


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failures) sort last."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _child_env(spans_path: Path | None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PERFBENCH_SPANS", None)
    env.pop("REPRO_TLS_KERNEL", None)
    env["PYTHONUNBUFFERED"] = "1"
    if spans_path is not None:
        env["PERFBENCH_SPANS"] = str(spans_path)
    return env


def _stop(proc: subprocess.Popen, sig: int = signal.SIGTERM) -> None:
    """Signal ``proc`` and wait for it; kill it if it lingers."""
    if proc.poll() is None:
        proc.send_signal(sig)
    try:
        proc.wait(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=20)


def run_task(name: str, spec: dict, workdir: Path,
             spans_path: Path | None = None) -> tuple[list, dict]:
    """Run one task child.

    Returns ``[spawn-to-ready seconds, [calibration ms]]`` and the
    child's output.
    """
    tag = f"{name}-{len(list(workdir.glob(f'{name}-*.spec.json')))}"
    spec_path = workdir / f"{tag}.spec.json"
    spec = {**spec, "out": str(workdir / f"{tag}.out.json")}
    spec_path.write_text(json.dumps(spec))
    cal = calib.loop_ms()
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "boot.py"), "task", name, str(spec_path)],
        stdout=subprocess.PIPE, text=True, env=_child_env(spans_path))
    try:
        setup = None
        for line in proc.stdout:
            if line.strip() == "READY":
                setup = time.perf_counter() - spawned
                break
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            _stop(proc, signal.SIGKILL)
        proc.stdout.close()
    if code != 0 or setup is None:
        raise BenchError(f"task {name} exited with code {code}")
    return [setup, [cal]], json.loads(Path(spec["out"]).read_text())


def prepared_dir() -> Path:
    """The prepared disk tier of full-scale cells for the code under test.

    Named by a digest of every file under ``src/repro``, so a run only
    replays payloads that the same source wrote: a change to the payload
    or cache format gets a tier of its own.
    """
    src = ROOT / "src" / "repro"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(f"{path.relative_to(src)}\0".encode())
            digest.update(path.read_bytes())
    return STATE / f"prepared-{digest.hexdigest()[:16]}"


def prepare(seed: int, workdir: Path) -> dict:
    """Make sure the prepared disk tier holds this seed's sweep cells."""
    _setup, out = run_task("prepare", {
        "seed": seed, "cache_dir": str(prepared_dir()),
        "jobs": min(2, os.cpu_count() or 1)}, workdir)
    return out


class Checks:
    """Operations attempted and failed (fingerprint mismatches)."""

    def __init__(self) -> None:
        import cells

        self.reference = cells.load_reference()
        self.attempted = 0
        self.failed = 0
        self.paths: dict[str, int] = {}

    def add(self, path: str, prints: dict[str, str]) -> None:
        bad = sum(1 for cid, fp in prints.items()
                  if self.reference.get(cid, {}).get("fp") != fp)
        self.attempted += len(prints)
        self.failed += bad
        self.paths[path] = self.paths.get(path, 0) + len(prints)

    def add_all(self, checks: list) -> None:
        for path, prints in checks:
            self.add(path, prints)


# ----------------------------------------------------------------------
# Closed-loop sweep workloads
# ----------------------------------------------------------------------
def scaled(values: list[float], cal: list[float]) -> list[float]:
    """``values`` scaled to the reference host speed, each by the two
    calibration samples around it (one before each value, one after the
    last)."""
    return [x * calib.factor(cal[i:i + 2]) for i, x in enumerate(values)]


def pass_seconds(p: dict, scale: bool) -> float:
    """A sweep pass's wall seconds, maybe scaled cell by cell."""
    return sum(scaled(p["cell_ms"], p["cal_ms"])) / 1e3 if scale \
        else p["wall_s"]


def _sweep_figures(out: dict, passes: list[dict], setups: list,
                   rss: list[float], scale: bool) -> dict:
    """End-to-end figures of a closed-loop sweep workload.

    ``passes`` carry ``wall_s``, ``cell_ms`` and the calibration samples
    taken around each cell; ``setups`` are ``[seconds, calibration]``
    pairs. With ``scale`` every time is scaled to the reference host
    speed (see :mod:`calib`).
    """
    wall = median([pass_seconds(p, scale) for p in passes])
    return {
        "setup_s": median([value * (calib.factor(cal) if scale else 1.0)
                           for value, cal in setups]),
        "peak_rss_mb": median(rss),
        "cells_per_s": out["cells"] / wall,
        "sim_events_per_s": out["events"] / wall,
    }


def _both(*args) -> tuple[dict, dict]:
    """(scaled, raw) figures."""
    return _sweep_figures(*args, scale=True), _sweep_figures(*args,
                                                             scale=False)


def cold_sweep(seed: int, seconds: float, workdir: Path, checks: Checks,
               trace_dir: Path | None) -> tuple[dict, dict]:
    setups = []
    for index in range(PLAN["setup_spawns"] - 1):
        setup, _ = run_task("cold_sweep", {
            "seed": seed, "cache_dir": str(workdir / f"setup-{index}"),
            "setup_only": True}, workdir)
        setups.append(setup)
    runs = []
    # Whole passes, each in a fresh process, until they cover ``seconds``
    # at the reference host speed, so a slow host runs as many passes.
    while sum(pass_seconds(run["passes"][0], True) for run in runs) \
            < seconds:
        index = len(runs)
        spans_path = (trace_dir / f"spans-cold-{index}.json"
                      if trace_dir else None)
        setup, out = run_task("cold_sweep", {
            "seed": seed, "cache_dir": str(workdir / f"cold-{index}")},
            workdir, spans_path)
        setups.append(setup)
        checks.add_all(out["checks"])
        runs.append(out)
    passes = [run["passes"][0] for run in runs]
    figures, raw = _both(runs[0], passes, setups,
                         [run["peak_rss_mb"] for run in runs])
    extra = {"raw": raw, "passes": passes,
             "windows": [w for run in runs for w in run["windows"]],
             "sim_check": sim_check(seed)}
    return figures, extra


def warm_replay(seed: int, seconds: float, workdir: Path, checks: Checks,
                trace_dir: Path | None) -> tuple[dict, dict]:
    checks.add_all(prepare(seed, workdir)["checks"])
    cache_dir = str(prepared_dir())
    setups = []
    for _ in range(PLAN["setup_spawns"] - 1):
        setup, _ = run_task("warm_replay", {
            "seed": seed, "cache_dir": cache_dir, "setup_only": True},
            workdir)
        setups.append(setup)
    setup, out = run_task("warm_replay", {
        "seed": seed, "cache_dir": cache_dir, "seconds": seconds}, workdir,
        trace_dir / "spans-warm.json" if trace_dir else None)
    setups.append(setup)
    checks.add_all(out["checks"])
    passes = out["passes"]
    figures, raw = _both(out, passes, setups, [out["peak_rss_mb"]])
    return figures, {"raw": raw, "passes": passes, "windows": out["windows"]}


def sim_check(seed: int) -> dict:
    """Informational paper comparison from the cold-sweep cells (ungated)."""
    import cells

    reference = cells.load_reference()
    by_app: dict[str, dict[str, float]] = {}
    for job in cells.sweep_jobs(seed):
        cycles = reference[cells.cell_id(job)]["cycles"]
        by_app.setdefault(job.workload.app, {})[job.scheme.name] = cycles

    def reduction(new: str, base: str) -> float:
        return statistics.mean(1 - app[new] / app[base]
                               for app in by_app.values())

    return {
        "machine": "CC-NUMA-16",
        "mv_lazy_vs_singlet_eager_pct": round(
            -100 * reduction("MultiT&MV Lazy AMM", "SingleT Eager AMM"), 1),
        "paper_mv_vs_singlet_eager_pct": -32,
        "sv_lazy_vs_singlet_eager_pct": round(
            -100 * reduction("MultiT&SV Lazy AMM", "SingleT Eager AMM"), 1),
        "paper_laziness_singlet_sv_pct": -30,
        "note": ("mean over the 7 apps of the per-app execution-time change; "
                 "the grid has no SingleT Lazy or MultiT&SV Eager cell, so "
                 "the laziness figure also includes the SingleT -> MultiT&SV "
                 "step. Modelled caches start empty in each cell. Not gated."),
    }


# ----------------------------------------------------------------------
# Service workload: closed-loop capacity, then an open-loop ladder
# ----------------------------------------------------------------------
class Server:
    """A server subprocess that prints ``listening on http://HOST:PORT``."""

    def __init__(self, argv: list[str], spans_path: Path | None = None,
                 healthz: bool = True) -> None:
        cal = calib.loop_ms()
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE, text=True,
            env=_child_env(spans_path))
        try:
            line = self.proc.stdout.readline()
            if "listening on http://" not in line:
                raise BenchError(f"server did not start: {line!r}")
            address = line.rsplit("http://", 1)[1].strip()
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            if healthz:
                self._wait_healthy(spawned)
        except BaseException:
            self.stop()
            raise
        #: ``[spawn-to-healthy seconds, [calibration ms]]``.
        self.setup = [time.perf_counter() - spawned, [cal]]

    def _wait_healthy(self, spawned: float) -> None:
        import http.client

        while time.perf_counter() - spawned < 60:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise BenchError("server never became healthy")

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def cpu_s(self) -> float:
        """CPU time the server has used, over all its threads, in seconds.

        Read from ``/proc/<pid>/task/*/schedstat`` (nanoseconds on a CPU),
        which does not count time the host withheld from the process.
        """
        tasks = Path(f"/proc/{self.proc.pid}/task")
        return sum(int((task / "schedstat").read_text().split()[0])
                   for task in tasks.iterdir()) / 1e9

    def stop(self) -> None:
        # SIGINT is the server's clean shutdown (spans are written at exit).
        _stop(self.proc, signal.SIGINT)
        self.proc.stdout.close()


def repro_server(cache_dir: Path, spans_path: Path | None) -> Server:
    """``repro-tls serve`` started through ``boot.py``."""
    return Server([str(HERE / "boot.py"), "cli", "serve", "--port", "0",
                   "--jobs", "1", "--cache-dir", str(cache_dir)], spans_path)


def fetch_responses(server: Server, keys: list[str],
                    workdir: Path) -> tuple[dict, Path]:
    """Each key's ``GET /v1/jobs/{key}`` response, as served.

    Returns the digest head every later response for the key must carry
    and a ``key -> file`` map of the response bytes for ``refserver.py``.
    """
    import http.client

    expect, files = {}, {}
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        for key in keys:
            conn.request("GET", f"/v1/jobs/{key}")
            response = conn.getresponse()
            raw = response.read()
            if response.status != 200:
                raise BenchError(f"GET {key} answered {response.status}")
            expect[key] = f'"digest":"{json.loads(raw)["digest"]}"'.encode()
            files[key] = str(workdir / f"response-{key}")
            Path(files[key]).write_bytes(raw)
    finally:
        conn.close()
    index = workdir / "responses.json"
    index.write_text(json.dumps(files))
    return expect, index


def _rung_figures(pieces: list, limit_ms: float) -> dict:
    """Figures of one ladder rung, run as back-to-back pieces.

    Latency percentiles are the median over pieces of each piece's
    percentile, so one piece caught in a host stall does not set them.
    The GET p99 and POST p50 follow the server's compute time and are
    scaled by the calibration around each piece; the GET p50 follows
    cross-process wake-ups, which the calibration loop does not track
    (correlation 0.13 over 30 pieces), and is left unscaled.
    """
    def across(kind: str, q: float, scale: bool) -> float:
        values = []
        for piece in pieces:
            lat = [s.latency_ms if s.ok else math.inf
                   for s in piece.samples if s.kind == kind]
            if lat:
                k = calib.factor(piece.cal_ms) if scale else 1.0
                values.append(percentile(lat, q) * k)
        return median(values) if values else math.nan

    gets = sorted((s.due, s.latency_ms if s.ok else math.inf)
                  for piece in pieces for s in piece.samples
                  if s.kind == "GET")
    get_lat = [latency for _due, latency in gets]
    samples = [s for piece in pieces for s in piece.samples]
    ok = sum(1 for s in samples if s.ok)
    backlog = median(get_lat[-max(1, len(gets) // 10):])
    over = sum(1 for x in get_lat if x > limit_ms) / len(get_lat)
    return {
        "rate": pieces[0].rate, "gets": len(gets),
        "posts": len(samples) - len(gets), "failed": len(samples) - ok,
        "get_p50_ms": across("GET", 50, False),
        "get_p99_ms": across("GET", 99, True),
        "post_p50_ms": across("POST", 50, True),
        "over_limit_share": over,
        "tail_p50_ms": backlog,
        "lag_p99_ms": percentile([s.lag * 1e3 for s in samples], 99),
        "meets_slo": over <= 0.01 and backlog <= limit_ms,
        "served_per_s": ok / sum(piece.seconds for piece in pieces),
    }


def slo_rate(rungs: list[dict]) -> float:
    """Highest rate whose GET p99 meets the limit with no growing backlog.

    "p99 within the limit" is "at most 1% of GETs over it". The share
    over the limit is interpolated linearly between the last rung that
    meets the objective and the first that does not, so the figure
    moves smoothly instead of jumping a whole rung.
    """
    ordered = sorted(rungs, key=lambda rung: rung["rate"])
    for index, rung in enumerate(ordered):
        if rung["meets_slo"]:
            continue
        if index == 0:
            return rung["rate"] * min(1.0, 0.01 / rung["over_limit_share"])
        below = ordered[index - 1]
        if rung["over_limit_share"] <= 0.01:
            return below["rate"]  # failed on backlog alone
        share = ((0.01 - below["over_limit_share"])
                 / (rung["over_limit_share"] - below["over_limit_share"]))
        return below["rate"] + share * (rung["rate"] - below["rate"])
    return ordered[-1]["rate"]


def serve_mixed(seed: int, seconds: float, workdir: Path, checks: Checks,
                trace_dir: Path | None) -> tuple[dict, dict]:
    import random

    import cells
    from repro.service import ServiceClient, ServiceClientError
    from tasks import peak_rss_mb

    cfg = PLAN["serve"]
    prepared = prepare(seed, workdir)
    checks.add_all(prepared["checks"])
    keys = prepared["keys"]
    cache_dir = workdir / "serve-cache"
    prepared_tier = prepared_dir()
    for key in keys:
        source = prepared_tier / key[:2] / f"{key}.json"
        target = cache_dir / key[:2] / f"{key}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source, target)
    pool = cells.post_pool(seed)
    post_ids = {job.cache_key(): cells.cell_id(job) for job in pool}
    get_ids = {job.cache_key(): cells.cell_id(job)
               for job in cells.sweep_jobs(seed)}
    bodies = [loadgen.post_request_bytes(cells.post_body(job))
              for job in pool]

    setups = []
    for _ in range(PLAN["setup_spawns"] - 1):
        server = repro_server(cache_dir, None)
        setups.append(server.setup)
        server.stop()
    server = repro_server(cache_dir, trace_dir / "spans-server.json"
                          if trace_dir else None)
    setups.append(server.setup)
    rng = random.Random(f"serve:{seed}")
    previous = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    yardstick = None
    try:
        expect, index = fetch_responses(server, keys, workdir)
        yardstick = Server([str(HERE / "refserver.py"), str(index)],
                           healthz=False)

        def closed(target: Server, duration: float) -> loadgen.Rung:
            before = target.cpu_s()
            piece = loadgen.run_closed(target.host, target.port, rng,
                                       duration, keys, expect)
            piece.server_cpu_s = target.cpu_s() - before
            return piece

        # Capacity: closed-loop pieces against the program's server, with
        # one piece against the reference server before the first and
        # after each, to scale them to the reference host speed.
        piece_seconds = (seconds * cfg["capacity_share_of_run"]
                         / cfg["capacity_pieces"])
        reference = [closed(yardstick, cfg["reference_piece_s"])]
        capacity = []
        for _ in range(cfg["capacity_pieces"]):
            capacity.append(closed(server, piece_seconds))
            reference.append(closed(yardstick, cfg["reference_piece_s"]))
        yardstick.stop()
        yardstick = None
        client = ServiceClient(server.base_url, timeout=60)
        nominal_rate = cfg["nominal_rps"]
        # The nominal rung runs long enough for a few GETs beyond its
        # p99, in pieces so the host speed is sampled through it.
        nominal_seconds = max(
            seconds * cfg["nominal_share_of_run"],
            cfg["nominal_min_gets"] / (nominal_rate * (1 - cfg["post_share"])))
        rung_seconds = max(1.0, (seconds * (1 - cfg["capacity_share_of_run"])
                                 - nominal_seconds)
                           / (len(cfg["ladder_rps"]) - 1))
        piece_count = cfg["nominal_pieces"]

        def rung(rate: float, duration: float, count: int) -> list:
            out = []
            for _ in range(count):
                before = calib.loop_ms()
                piece = loadgen.run_rung(
                    server.host, server.port, rng, rate, cfg["post_share"],
                    duration, keys, expect, bodies)
                piece.cal_ms = [before, calib.loop_ms()]
                out.append(piece)
            return out

        rung(nominal_rate, rung_seconds / 2, 1)  # unrecorded warm-up
        rungs = [rung(rate, nominal_seconds / piece_count, piece_count)
                 if rate == nominal_rate else rung(rate, rung_seconds, 1)
                 for rate in cfg["ladder_rps"]]
        stats = client.cache_stats()
        def verified(envelope: dict) -> str:
            """The envelope's fingerprint, or a mismatch marker."""
            try:
                result = ServiceClient.result_from_envelope(envelope,
                                                            verify=True)
            except ServiceClientError as exc:
                return f"unverified: {exc.code}"
            return cells.fingerprint(result)

        checks.add("http envelope (GET)", {
            get_ids[key]: verified(envelope)
            if envelope["digest"].encode() in expect[key]
            else "digest changed under load"
            for key in keys for envelope in [client.get_job(key)]})
        checks.add("http envelope (POST)", {
            post_ids[envelope["key"]]: verified(envelope)
            for envelope in (json.loads(s.body) for pieces in rungs
                             for piece in pieces for s in piece.samples
                             if s.kind == "POST" and s.ok)})
        client.close()
        rss = peak_rss_mb(server.proc.pid)
    finally:
        sys.setswitchinterval(previous)
        if yardstick is not None:
            yardstick.stop()
        server.stop()

    limit = cfg["get_p99_limit_ms"]
    by_rung = [_rung_figures(pieces, limit) for pieces in rungs]
    nominal_index = cfg["ladder_rps"].index(cfg["nominal_rps"])
    nominal_pieces = rungs[nominal_index]
    lag = by_rung[nominal_index]["lag_p99_ms"]
    # A generator that fell behind voids the ladder's figures, which are
    # timed from due times; the closed-loop capacity has none and stands.
    open_loop = ("valid" if lag <= cfg["lag_limit_ms"] else
                 f"invalid: the load generator fell behind (lag p99 "
                 f"{lag:.2f} ms > {cfg['lag_limit_ms']} ms); its figures "
                 f"are withheld")
    samples = [s for pieces in rungs + [capacity, reference]
               for piece in pieces for s in piece.samples]
    failed = sum(1 for s in samples if not s.ok)
    checks.attempted += len(samples)
    checks.failed += failed
    events = {key: checks.reference[get_ids[key]]["events"] for key in keys}
    # GETs per second of server CPU (see plan.json for why CPU time).
    reference_rates = [sum(1 for s in piece.samples if s.ok)
                       / piece.server_cpu_s for piece in reference]

    def figures_of(scale: bool) -> dict:
        def k(cal: list[float]) -> float:
            return calib.factor(cal) if scale else 1.0

        served = [[s for s in piece.samples if s.ok] for piece in capacity]
        # Each piece's server CPU seconds, scaled by the reference pieces
        # on either side of it.
        spans = [piece.server_cpu_s
                 * (calib.rate_factor(reference_rates[i:i + 2]) if scale
                    else 1.0)
                 for i, piece in enumerate(capacity)]
        return {
            "setup_s": median([value * k(cal) for value, cal in setups]),
            "peak_rss_mb": rss,
            # The median over pieces, so one host stall does not set it.
            "cells_per_s": median([len(ok) / span
                                   for ok, span in zip(served, spans)]),
            "sim_events_per_s": median([
                sum(events[s.item] for s in ok) / span
                for ok, span in zip(served, spans)]),
        }

    nominal = by_rung[nominal_index]
    info = {"reference_get_per_s": median(reference_rates)}
    if open_loop == "valid":
        info.update({"get_p50_ms": nominal["get_p50_ms"],
                     "get_p99_ms": nominal["get_p99_ms"],
                     "post_p50_ms": nominal["post_p50_ms"],
                     "slo_rps": slo_rate(by_rung),
                     "offered_served_per_s": nominal["served_per_s"]})
    extra = {
        "raw": figures_of(False),
        "info": info,
        "open_loop": open_loop,
        "passes": [{}],
        "windows": [[int(piece.start * 1e9), int(piece.end * 1e9)]
                    for piece in nominal_pieces],
        "rungs": by_rung if open_loop == "valid" else [],
        "stats": stats,
        "loadgen": {"lag_p99_ms": lag, "sent": len(samples),
                    "failed": failed},
        "get_service_ms": [s.service_ms for piece in nominal_pieces
                           for s in piece.samples if s.kind == "GET" and s.ok],
    }
    return figures_of(True), extra


WORKLOADS = {
    "cold-sweep": cold_sweep,
    "warm-replay": warm_replay,
    "serve-mixed": serve_mixed,
}


def _per_layer(workload: str, extra: dict, trace_dir: Path,
               overhead_pct: float) -> dict:
    spans = Spans(sorted(trace_dir.glob("spans-*.json")), extra["windows"])
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values.update(layer_metrics(spans, len(extra["passes"])))
    if workload == "serve-mixed":
        values.update(service_metrics(spans, extra["get_service_ms"]))
        stats = extra["stats"]
        values["service.stats.memory_hits"] = stats["memory"]["hits"]
        values["service.stats.memory_misses"] = stats["memory"]["misses"]
        values["service.stats.shared_hits"] = stats["shared"]["hits"]
        values["service.stats.shared_misses"] = stats["shared"]["misses"]
        values["service.stats.singleflight_led"] = stats["singleflight"][
            "led"]
        for name, value in extra["loadgen"].items():
            values[f"loadgen.{name}"] = value
    values["trace.overhead_pct"] = overhead_pct
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def _overhead_pct(plain: dict, traced: dict) -> float:
    """How much slower the traced run was, in percent of ``cells_per_s``."""
    return 100 * (plain["cells_per_s"] / traced["cells_per_s"] - 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: src/repro not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("REPRO_TLS_KERNEL", None)
    STATE.mkdir(exist_ok=True)
    workdir = STATE / f"run-{os.getpid()}"
    workload = WORKLOADS[args.workload]
    try:
        checks = Checks()
        (workdir / "plain").mkdir(parents=True)
        figures, extra = workload(args.seed, args.seconds, workdir / "plain",
                                  checks, None)
        info = {name: extra[name] for name in ("sim_check", "open_loop",
                                               "rungs") if name in extra}
        measured = {**figures, **extra.get("info", {})}
        info["figures"] = {name: {"value": value,
                                  "unit": {**E2E_UNITS, **INFO_UNITS}[name]}
                           for name, value in measured.items()}
        info["unscaled_figures"] = extra["raw"]
        info["checked_paths"] = checks.paths
        if args.trace:
            trace_dir = workdir / "traced"
            trace_dir.mkdir()
            traced, traced_extra = workload(args.seed, args.seconds,
                                            trace_dir, checks, trace_dir)
            info["traced_figures"] = traced
            metrics = _per_layer(args.workload, traced_extra, trace_dir,
                                 _overhead_pct(figures, traced))
        else:
            metrics = {name: {"value": figures[name], "unit": unit}
                       for name, unit in E2E_UNITS.items()}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"info": info}, default=str))
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
