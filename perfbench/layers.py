"""Per-layer figures from the span files of a traced run.

A layer's *self* time is its spans' duration minus the part covered by
their child spans. Only spans that start inside the run's timed
windows count. All spans come from the process that did the
workload's work: the sweep child or the server.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER_UNITS = {
    "workloads.generate.calls": "count",
    "workloads.generate.self_s": "s",
    "core.sim_init.self_s": "s",
    "core.sim_run.self_s": "s",
    "core.sim_run.events": "count",
    "core.sim_run.us_per_event": "us",
    "runner.execute_job.self_s": "s",
    "runner.payload_build.self_s": "s",
    "runner.payload_decode.self_s": "s",
    "runner.run_many.self_s": "s",
    "runner.payload_bytes_mean": "bytes",
    "runner.digest.calls": "count",
    "runner.digest.self_s": "s",
    "runner.cache.disk_get.calls": "count",
    "runner.cache.disk_get.self_s": "s",
    "runner.cache.disk_put.self_s": "s",
    "runner.cache.memory_hits": "count",
    "runner.cache.memory_misses": "count",
    "runner.cache.hit_ratio": "ratio",
    "runner.singleflight.led": "count",
    "runner.singleflight.joined": "count",
    "dist.local_dispatch.self_s": "s",
    "service.lookup.self_ms": "ms",
    "service.envelope.self_ms": "ms",
    "service.digest_memo.hit_ratio": "ratio",
    "service.run_job.wait_ms": "ms",
    "service.http.self_ms": "ms",
    "service.stats.memory_hits": "count",
    "service.stats.memory_misses": "count",
    "service.stats.shared_hits": "count",
    "service.stats.shared_misses": "count",
    "service.stats.singleflight_led": "count",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.failed": "count",
    "trace.wall_s": "s",
    "trace.attributed_s": "s",
    "trace.residual_s": "s",
    "trace.overhead_pct": "%",
}


class Spans:
    """The spans of one traced run, filtered to its timed windows."""

    def __init__(self, files: list[Path], windows: list[list[int]]) -> None:
        self.windows = windows
        self.rows: list[dict] = []
        for path in files:
            data = json.loads(path.read_text())
            for name, start, end, parent, span_id, key, thread, attrs in \
                    data["spans"]:
                if not any(lo <= start <= hi for lo, hi in windows):
                    continue
                self.rows.append({
                    "name": name, "start": start, "end": end,
                    "parent": (data["pid"], parent) if parent else None,
                    "id": (data["pid"], span_id), "key": key,
                    "attrs": attrs or {},
                })
        covered: dict = defaultdict(int)
        for row in self.rows:
            if row["parent"] is not None:
                covered[row["parent"]] += row["end"] - row["start"]
        for row in self.rows:
            row["self"] = row["end"] - row["start"] - covered[row["id"]]
        self.names = {row["id"]: row["name"] for row in self.rows}

    def of(self, name: str) -> list[dict]:
        return [row for row in self.rows if row["name"] == name]

    def self_s(self, name: str) -> float:
        return sum(row["self"] for row in self.of(name)) / 1e9

    def attr(self, name: str, attr: str) -> int:
        return sum(row["attrs"].get(attr, 0) for row in self.of(name))

    def roots(self) -> list[dict]:
        return [row for row in self.rows if row["parent"] is None]

    def parent_name(self, row: dict) -> str | None:
        return self.names.get(row["parent"]) if row["parent"] else None


def layer_metrics(spans: Spans, passes: int) -> dict:
    """Span-derived figures, as totals per pass (counts and seconds)."""
    n = max(passes, 1)
    m: dict[str, float] = {}
    m["workloads.generate.calls"] = len(spans.of("workloads.generate")) / n
    m["workloads.generate.self_s"] = spans.self_s("workloads.generate") / n
    m["core.sim_init.self_s"] = spans.self_s("core.sim_init") / n
    run_self = spans.self_s("core.sim_run")
    events = spans.attr("core.sim_run", "events")
    m["core.sim_run.self_s"] = run_self / n
    m["core.sim_run.events"] = events / n
    m["core.sim_run.us_per_event"] = run_self / events * 1e6 if events else 0.0
    for metric, layer in (("execute_job", "runner.execute_job"),
                          ("payload_build", "runner.payload_build"),
                          ("payload_decode", "runner.payload_decode"),
                          ("run_many", "runner.run_many"),
                          ("digest", "runner.digest")):
        m[f"runner.{metric}.self_s"] = spans.self_s(layer) / n
    m["runner.digest.calls"] = len(spans.of("runner.digest")) / n
    sizes = [row["attrs"]["bytes"] for name in ("runner.cache.disk_get",
                                                 "runner.cache.disk_put")
             for row in spans.of(name) if "bytes" in row["attrs"]]
    m["runner.payload_bytes_mean"] = sum(sizes) / len(sizes) if sizes else 0.0
    gets = spans.of("runner.cache.disk_get")
    m["runner.cache.disk_get.calls"] = len(gets) / n
    for tier in ("disk_get", "disk_put"):
        m[f"runner.cache.{tier}.self_s"] = spans.self_s(
            f"runner.cache.{tier}") / n
    lookups = spans.of("runner.cache.memory_load")
    memory_hits = spans.attr("runner.cache.memory_load", "hit")
    disk_hits = sum(1 for row in gets if "bytes" in row["attrs"])
    m["runner.cache.memory_hits"] = memory_hits / n
    m["runner.cache.memory_misses"] = (len(lookups) - memory_hits) / n
    m["runner.cache.hit_ratio"] = ((memory_hits + disk_hits) / len(lookups)
                                   if lookups else 0.0)
    claims = spans.of("runner.singleflight.claim")
    led = spans.attr("runner.singleflight.claim", "leader")
    m["runner.singleflight.led"] = led / n
    m["runner.singleflight.joined"] = (len(claims) - led) / n
    m["dist.local_dispatch.self_s"] = spans.self_s("dist.local_dispatch") / n
    calibration = sum(row["end"] - row["start"]
                      for row in spans.of("bench.calibration"))
    wall = (sum(hi - lo for lo, hi in spans.windows) - calibration) / 1e9
    attributed = sum(row["self"] for row in spans.rows
                     if row["name"] != "bench.calibration") / 1e9
    m["trace.wall_s"] = wall / n
    m["trace.attributed_s"] = attributed / n
    m["trace.residual_s"] = (wall - attributed) / n
    return m


def service_metrics(spans: Spans, get_service_ms: list[float]) -> dict:
    """Per-request server figures for serve-mixed, in milliseconds."""
    m: dict[str, float] = {}
    lookups = spans.of("service.lookup")
    envelopes = spans.of("service.envelope")
    m["service.lookup.self_ms"] = (
        sum(row["self"] for row in lookups) / len(lookups) / 1e6
        if lookups else 0.0)
    m["service.envelope.self_ms"] = (
        sum(row["self"] for row in envelopes) / len(envelopes) / 1e6
        if envelopes else 0.0)
    digest_for = spans.of("service.digest_for")
    memo_misses = sum(1 for row in spans.of("runner.digest")
                      if spans.parent_name(row) == "service.digest_for")
    m["service.digest_memo.hit_ratio"] = (
        1 - memo_misses / len(digest_for) if digest_for else 0.0)
    # POSTs are sequential on one connection, so each run_job pairs
    # with the first compute-pool run_many that starts inside it.
    computes = sorted(row["start"] for row in spans.roots()
                      if row["name"] == "runner.run_many")
    waits = []
    for job in spans.of("service.run_job"):
        started = [t for t in computes if job["start"] <= t <= job["end"]]
        if started:
            waits.append((started[0] - job["start"]) / 1e6)
    m["service.run_job.wait_ms"] = sum(waits) / len(waits) if waits else 0.0
    # A GET's server-side work is one root lookup plus one root envelope.
    root_get_ns = sum(row["end"] - row["start"] for row in lookups + envelopes
                      if row["parent"] is None)
    if get_service_ms:
        client = sum(get_service_ms) / len(get_service_ms)
        m["service.http.self_ms"] = client - root_get_ns / 1e6 / len(
            get_service_ms)
    else:
        m["service.http.self_ms"] = 0.0
    return m
