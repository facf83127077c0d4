"""End-to-end tests of the ``repro-tls serve`` HTTP/JSON service.

A real server (``ServiceThread``: the asyncio frontend on a background
loop) backed by a temporary sharded cache directory, spoken to with the
blocking ``ServiceClient`` — the same harness the CI smoke driver uses.
The contracts under test: digest-verified bit-identity with direct
``SweepRunner`` execution, warm lookups served from the memory tier,
single-flight collapse of concurrent identical submissions, streamed
per-cell progress, and structured 4xx errors for every refusal.
"""

import statistics
import threading
import time

import pytest

from repro.analysis.serialization import canonical_result_bytes
from repro.runner import ResultCache, SimJob, SweepRunner, WorkloadSpec
from repro.core.config import NUMA_16
from repro.core.taxonomy import MULTI_T_MV_LAZY, SINGLE_T_EAGER
from repro.service import (
    MAX_SWEEP_CELLS,
    ServiceClient,
    ServiceClientError,
    ServiceError,
    ServiceThread,
    SimulationService,
    job_from_request,
    jobs_from_sweep_request,
)

SCALE = 0.1
APP = "Euler"


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One live frontend shared by the module's tests."""
    service = SimulationService(
        cache_dir=tmp_path_factory.mktemp("service-cache"), jobs=2)
    thread = ServiceThread(service).start()
    yield thread
    thread.stop()


@pytest.fixture()
def client(server):
    c = ServiceClient(server.base_url)
    yield c
    c.close()


def _job_request(seed=0, scheme="MultiT&MV Lazy AMM"):
    return {"app": APP, "machine": "numa16", "scheme": scheme,
            "seed": seed, "scale": SCALE}


def _direct_result(seed=0, scheme=MULTI_T_MV_LAZY):
    job = SimJob(machine=NUMA_16,
                 workload=WorkloadSpec(APP, seed=seed, scale=SCALE),
                 scheme=scheme)
    return SweepRunner(jobs=1, cache=None).run(job)


# ----------------------------------------------------------------------
# Basic liveness and the job path
# ----------------------------------------------------------------------
def test_healthz(client):
    assert client.health()["status"] == "ok"


def test_job_round_trip_is_bit_identical_to_a_direct_run(client):
    envelope = client.submit_job(_job_request())
    assert set(envelope) >= {"key", "source", "digest", "result"}
    result = ServiceClient.result_from_envelope(envelope)
    direct = _direct_result()
    assert canonical_result_bytes(result) == canonical_result_bytes(direct)


def test_first_submission_computes_then_serves_warm(client):
    request = _job_request(seed=101)
    first = client.submit_job(request)
    assert first["source"] == "computed"
    again = client.submit_job(request)
    assert again["source"] == "memory"
    assert again["digest"] == first["digest"]
    fetched = client.get_job(first["key"])
    assert fetched["source"] == "memory"
    assert fetched["digest"] == first["digest"]


def test_sequential_baseline_over_the_wire(client):
    from repro.analysis.serialization import sequential_result_to_dict

    envelope = client.submit_job({"app": APP, "scheme": None,
                                  "scale": SCALE})
    result = ServiceClient.result_from_envelope(envelope)
    assert result.total_cycles > 0
    direct = _direct_result(scheme=None)
    # Sequential results have no canonical-bytes form; their full
    # serialization (which carries no host-measured field) is the
    # equality.
    assert (sequential_result_to_dict(result)
            == sequential_result_to_dict(direct))


def test_digest_mismatch_is_detected():
    envelope = {"key": "k", "digest": "0" * 64,
                "result": {"kind": "sequential", "app": "X",
                           "total_cycles": 1}}
    with pytest.raises(ServiceClientError, match="digest"):
        ServiceClient.result_from_envelope(envelope)


def test_warm_lookup_is_fast(client):
    key = client.submit_job(_job_request())["key"]
    client.get_job(key)  # ensure the connection + memory tier are warm
    samples = []
    for _ in range(30):
        start = time.perf_counter()
        envelope = client.get_job(key)
        samples.append(time.perf_counter() - start)
        assert envelope["source"] == "memory"
    median = statistics.median(samples)
    # The acceptance target is < 1 ms on an idle host; CI boxes are
    # noisy, so the test gate is an order of magnitude looser. The
    # serve-smoke driver reports the honest number.
    assert median < 0.05, f"warm GET median {median * 1e3:.2f} ms"


# ----------------------------------------------------------------------
# Sweeps: streaming, status, identity
# ----------------------------------------------------------------------
def test_sweep_streams_progress_and_lands_every_cell(client):
    sweep = client.submit_sweep({
        "apps": [APP],
        "schemes": ["MultiT&MV Lazy AMM", "SingleT Eager AMM"],
        "seed": 7, "scale": SCALE,
    })
    assert sweep["_status"] == 202
    assert sweep["total"] == 2 and len(sweep["keys"]) == 2
    events = list(client.stream_events(sweep["sweep_id"]))
    assert events[-1]["event"] == "end"
    assert events[-1]["status"] == "done"
    results = [e for e in events if e["event"] == "result"]
    assert {e["key"] for e in results} == set(sweep["keys"])
    assert [e["done"] for e in results] == [1, 2]
    assert all(e["total"] == 2 for e in results)

    status = client.sweep_status(sweep["sweep_id"])
    assert status["status"] == "done" and status["done"] == 2

    # Every cell is fetchable, digest-verified, and bit-identical to a
    # direct runner execution of the same job.
    for key, scheme in zip(sweep["keys"],
                           (MULTI_T_MV_LAZY, SINGLE_T_EAGER)):
        result = ServiceClient.result_from_envelope(client.get_job(key))
        direct = _direct_result(seed=7, scheme=scheme)
        assert (canonical_result_bytes(result)
                == canonical_result_bytes(direct))


def test_late_subscriber_replays_the_full_history(client):
    sweep = client.submit_sweep({"apps": [APP],
                                 "schemes": ["MultiT&MV Lazy AMM"],
                                 "seed": 8, "scale": SCALE})
    # Wait for completion via one stream, then subscribe again: the
    # second subscriber must still see every event from the beginning.
    first = list(client.stream_events(sweep["sweep_id"]))
    second = list(client.stream_events(sweep["sweep_id"]))
    assert second == first
    assert second[-1]["event"] == "end"


def test_concurrent_identical_sweeps_compute_each_cell_once(server, client):
    body = {"apps": [APP],
            "schemes": ["MultiT&MV Lazy AMM", "SingleT Eager AMM"],
            "seed": 909, "scale": SCALE}
    before = client.cache_stats()["shared"]["stores"]

    outcomes = []

    def submit_and_drain():
        c = ServiceClient(server.base_url)
        try:
            sweep = c.submit_sweep(body)
            events = list(c.stream_events(sweep["sweep_id"]))
            outcomes.append((sweep, events))
        finally:
            c.close()

    threads = [threading.Thread(target=submit_and_drain) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(outcomes) == 2
    assert all(events[-1]["status"] == "done" for _, events in outcomes)
    after = client.cache_stats()["shared"]["stores"]
    # Two identical 2-cell sweeps → exactly 2 stores: the second sweep
    # joined flights or replayed tiers, never recomputed.
    assert after - before == 2


# ----------------------------------------------------------------------
# Refusals: structured errors on every bad input
# ----------------------------------------------------------------------
def _refused(call, *args):
    with pytest.raises(ServiceClientError) as info:
        call(*args)
    return info.value


def test_unknown_app_is_a_structured_400(client):
    error = _refused(client.submit_job, {"app": "NotAnApp"})
    assert (error.status, error.code) == (400, "unknown_app")


def test_unknown_machine_and_scheme_are_refused(client):
    error = _refused(client.submit_job,
                     {"app": APP, "machine": "vax780"})
    assert (error.status, error.code) == (400, "unknown_machine")
    error = _refused(client.submit_job,
                     {"app": APP, "scheme": "MadeUp Scheme"})
    assert (error.status, error.code) == (400, "unknown_scheme")


def test_traced_jobs_are_refused_as_uncacheable(client):
    error = _refused(client.submit_job, {"app": APP, "traced": True})
    assert (error.status, error.code) == (400, "uncacheable")


def test_malformed_json_body_is_a_structured_400(client):
    conn = client._connection()
    conn.request("POST", "/v1/jobs", body=b"{not json",
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    raw = response.read()
    client.close()  # the server closes errored connections
    assert response.status == 400
    import json
    assert json.loads(raw)["error"]["code"] == "bad_json"


def test_unknown_key_and_sweep_are_404(client):
    error = _refused(client.get_job, "f" * 64)
    assert (error.status, error.code) == (404, "unknown_key")
    error = _refused(client.sweep_status, "s999999")
    assert (error.status, error.code) == (404, "unknown_sweep")
    error = _refused(client._request, "GET", "/v1/nothing/here")
    assert (error.status, error.code) == (404, "not_found")


def test_wrong_method_is_405(client):
    error = _refused(client._request, "GET", "/v1/jobs")
    assert (error.status, error.code) == (405, "method_not_allowed")
    error = _refused(client._request, "POST", "/healthz", {})
    assert (error.status, error.code) == (405, "method_not_allowed")


def test_cache_stats_shape(client):
    stats = client.cache_stats()
    assert set(stats) >= {"engine_version", "memory", "shared",
                          "singleflight", "service", "sweeps"}
    assert stats["shared"]["backend"].startswith("directory:")
    assert stats["memory"]["entries"] >= 1
    assert stats["service"]["jobs.submitted"] >= 1


# ----------------------------------------------------------------------
# Hardening: hostile keys, hostile framing, bounded state
# ----------------------------------------------------------------------
def test_traversal_shaped_keys_are_refused(client):
    # Anything that is not a 64-hex digest — path components included —
    # must 404 before reaching a cache tier, not address the filesystem.
    for key in ("../../../etc/passwd", "/etc/hostname", "..",
                "deadbeef", "F" * 64, "f" * 63, "f" * 65):
        error = _refused(client._request, "GET", f"/v1/jobs/{key}")
        assert (error.status, error.code) == (404, "unknown_key"), key


def _raw_exchange(server, payload: bytes) -> bytes:
    import socket

    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10) as sock:
        sock.sendall(payload)
        sock.settimeout(10)
        chunks = []
        while True:
            data = sock.recv(4096)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks)


def test_negative_content_length_is_a_structured_400(server):
    raw = _raw_exchange(
        server,
        b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: -1\r\n\r\n")
    assert raw.startswith(b"HTTP/1.1 400 ")
    assert b'"bad_request"' in raw


def test_silent_connection_is_dropped_after_timeout(server, monkeypatch):
    from repro.service import http as http_module

    monkeypatch.setattr(http_module, "KEEPALIVE_TIMEOUT", 0.2)
    import socket

    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10) as sock:
        sock.settimeout(5)
        # Send nothing: the server must close the connection rather
        # than pin a handler task open forever.
        assert sock.recv(4096) == b""


def test_non_get_on_events_is_405(client):
    error = _refused(client._request, "POST", "/v1/sweeps/s000001/events",
                     {})
    assert (error.status, error.code) == (405, "method_not_allowed")
    error = _refused(client._request, "DELETE", "/v1/sweeps/zzz/events")
    assert (error.status, error.code) == (405, "method_not_allowed")


def test_warm_get_does_no_hashing_or_decode(tmp_path, monkeypatch):
    import hashlib
    import json

    job = job_from_request(_job_request(seed=7))
    key = job.cache_key()
    SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run(job)
    service = SimulationService(cache_dir=str(tmp_path), use_disk=True)
    try:
        source, raw = service.lookup_raw(key)  # disk hit: parse + hash
        assert source == "disk"
        first = service.envelope_bytes(key, source, raw)

        def _forbidden(*_args, **_kwargs):
            raise AssertionError("a warm GET hashed or decoded")

        monkeypatch.setattr(hashlib, "sha256", _forbidden)
        monkeypatch.setattr(json, "loads", _forbidden)
        source, raw = service.lookup_raw(key)
        assert source == "memory"
        warm = service.envelope_bytes(key, source, raw)
    finally:
        service.close()
    monkeypatch.undo()
    assert json.loads(warm)["digest"] == json.loads(first)["digest"] \
        == hashlib.sha256(raw).hexdigest()


def test_torn_cache_file_is_a_miss_not_a_500(tmp_path):
    request = _job_request(seed=31)
    key = job_from_request(request).cache_key()

    def _serve():
        service = SimulationService(cache_dir=str(tmp_path), jobs=1)
        return ServiceThread(service).start()

    thread = _serve()
    client = ServiceClient(thread.base_url)
    try:
        first = client.submit_job(request)
    finally:
        client.close()
        thread.stop()
    path = ResultCache(tmp_path).path_for(key)
    intact = path.read_bytes()
    path.write_bytes(intact[:len(intact) // 2])

    thread = _serve()  # cold memory tier: the torn file is all there is
    client = ServiceClient(thread.base_url)
    try:
        error = _refused(client.get_job, key)
        assert (error.status, error.code) == (404, "unknown_key")
        assert client.cache_stats()["shared"]["misses"] == 1
        again = client.submit_job(request)
        assert again["source"] == "computed"
        assert again["digest"] == first["digest"]
        assert client.get_job(key)["source"] == "memory"
    finally:
        client.close()
        thread.stop()
    assert path.read_bytes() == intact


def test_finished_sweeps_are_pruned_but_running_ones_kept(monkeypatch):
    from repro.service import app as app_module
    from repro.service.app import SweepState

    monkeypatch.setattr(app_module, "MAX_FINISHED_SWEEPS", 4)
    service = SimulationService(use_disk=False)
    try:
        for i in range(10):
            sweep_id = f"s{i:06d}"
            service._sweeps[sweep_id] = SweepState(
                sweep_id=sweep_id, keys=[], descriptions=[], total=0,
                status="done")
        service._sweeps["running"] = SweepState(
            sweep_id="running", keys=[], descriptions=[], total=1)
        service._prune_finished_sweeps()
        finished = [s for s in service._sweeps.values() if s.finished]
        assert len(finished) == 4
        # Oldest finished dropped, newest kept, running untouched.
        assert "s000000" not in service._sweeps
        assert "s000009" in service._sweeps
        assert "running" in service._sweeps
    finally:
        service.close()


# ----------------------------------------------------------------------
# Request validation (no server needed)
# ----------------------------------------------------------------------
def test_job_request_defaults():
    job = job_from_request({"app": APP})
    assert job.machine is NUMA_16
    # Scheme omitted (or null) means the sequential baseline.
    assert job.scheme is None
    job = job_from_request({"app": APP, "scheme": "MultiT&MV Lazy AMM"})
    assert job.scheme is MULTI_T_MV_LAZY
    assert job.record_reads is False
    assert job_from_request({"app": APP, "record_reads": True}).record_reads


def test_sweep_request_grid_shape_and_bounds():
    jobs = jobs_from_sweep_request({
        "apps": [APP], "schemes": ["MultiT&MV Lazy AMM", None],
        "scale": SCALE,
    })
    assert len(jobs) == 2
    assert {j.scheme for j in jobs} == {MULTI_T_MV_LAZY, None}

    with pytest.raises(ServiceError) as info:
        jobs_from_sweep_request({"machines": ["numa16"] * 100,
                                 "scale": SCALE})
    assert info.value.code == "grid_too_large"
    assert 100 * 8 * 7 > MAX_SWEEP_CELLS  # the arithmetic the test rides

    with pytest.raises(ServiceError) as info:
        jobs_from_sweep_request({"machine": "numa16",
                                 "machines": ["cmp8"]})
    assert info.value.code == "bad_field"


def test_field_bounds_are_enforced():
    for bad in ({"app": APP, "scale": 0.0},
                {"app": APP, "scale": 1e9},
                {"app": APP, "seed": -1},
                {"app": APP, "seed": "zero"},
                {"app": APP, "collect_metrics": "yes"},
                {"app": APP, "violation_granularity": "page"},
                "not an object"):
        with pytest.raises(ServiceError) as info:
            job_from_request(bad)
        assert info.value.status == 400
