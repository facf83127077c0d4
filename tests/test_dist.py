"""Tests of the distributed sweep dispatch subsystem (``repro.dist``).

The contracts under test, in roughly the order the ISSUE states them:

* wire protocol framing — roundtrips, oversized/malformed rejection;
* the :class:`Dispatcher` seam — ``LocalPoolDispatcher`` is the
  runner's default and delivers at most once per key;
* fleet-vs-serial byte-identity on the 16-cell machine x scheme grid,
  including with one worker killed mid-sweep (requeue + retry);
* heartbeat-timeout eviction of a silently wedged worker;
* digest refusal: an envelope whose bytes do not hash to its digest
  poisons the fleet on arrival, as does a cross-check between two
  workers that disagree; a poisoned fleet refuses all further work;
* registration refusal of engine/protocol-version mismatches;
* warm-key short circuits through a worker's shared cache; and
* the ``dispatch`` block of ``/v1/cache/stats``.

Fleet tests run real TCP coordinators on ephemeral localhost ports with
in-thread :class:`WorkerAgent` instances (same code path as the
subprocess agent, without interpreter startup); one end-to-end test
drives the CLI with genuine worker subprocesses.
"""

import socket
import struct
import threading
import time

import pytest

from repro.analysis.serialization import canonical_result_bytes
from repro.core.config import CMP_8, NUMA_16
from repro.core.taxonomy import EVALUATED_SCHEMES
from repro.dist import (
    FleetDispatcher,
    FleetDivergenceError,
    FleetError,
    LocalPoolDispatcher,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    WorkerAgent,
    parse_address,
    worker_fingerprint,
)
from repro.dist.protocol import (
    decode_header,
    decode_preamble,
    encode_frame,
    pack_jobs,
    pack_results,
    recv_frame,
    send_frame,
    unpack_jobs,
    unpack_results,
)
from repro.runner import ResultCache, SimJob, SweepRunner, WorkloadSpec
from repro.runner.runner import canonical_payload_digest

SCALE = 0.05


def _grid(machines=(NUMA_16, CMP_8), n_schemes=8, seed=0, scale=SCALE):
    return SimJob.grid(
        list(machines), list(EVALUATED_SCHEMES)[:n_schemes],
        [WorkloadSpec("Euler", seed=seed, scale=scale)])


def _serial_bytes(jobs):
    return [canonical_result_bytes(r)
            for r in SweepRunner(jobs=1, cache=None).run_many(jobs)]


def _start_agent(dispatcher, **kwargs):
    """Run a WorkerAgent against ``dispatcher`` on a daemon thread."""
    agent = WorkerAgent(dispatcher.address, **kwargs)
    thread = threading.Thread(target=agent.run, daemon=True)
    thread.start()
    return agent, thread


def _wait_workers(dispatcher, n, timeout=10.0):
    dispatcher.coordinator.wait_for_workers(n, timeout)


@pytest.fixture()
def fleet():
    """A started coordinator with test-friendly timeouts; no workers."""
    dispatcher = FleetDispatcher(
        min_workers=1, start_timeout=10, result_timeout=60,
        backoff_base=0.05, backoff_cap=0.2)
    dispatcher.start()
    yield dispatcher
    dispatcher.stop()


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
def test_frame_roundtrip():
    blob = b"\x00\x01payload\xff"
    wire = encode_frame({"type": "chunk", "chunk_id": 7}, blob)
    head_len, blob_len = decode_preamble(wire[:8])
    header = decode_header(wire[8:8 + head_len])
    assert header == {"type": "chunk", "chunk_id": 7}
    assert wire[8 + head_len:8 + head_len + blob_len] == blob


def test_preamble_rejects_oversized_frames():
    huge = struct.pack("!II", MAX_FRAME_BYTES, MAX_FRAME_BYTES)
    with pytest.raises(ProtocolError, match="exceeds"):
        decode_preamble(huge)
    with pytest.raises(ProtocolError, match="preamble"):
        decode_preamble(b"\x00\x01")


@pytest.mark.parametrize("raw", [
    b"not json", b"[1,2]", b'{"no_type": 1}', b'{"type": 3}'])
def test_header_rejects_malformed(raw):
    with pytest.raises(ProtocolError):
        decode_header(raw)


def test_job_chunk_roundtrip():
    jobs = _grid(machines=(NUMA_16,), n_schemes=2)
    assert unpack_jobs(pack_jobs(jobs)) == jobs
    with pytest.raises(ProtocolError, match="undecodable"):
        unpack_jobs(b"garbage")


def test_result_packing_roundtrip_and_overrun():
    envelopes = [("a1" * 32, "d" * 64, "computed", b"one"),
                 ("b2" * 32, "e" * 64, "cache", b"twotwo")]
    entries, blob = pack_results(envelopes)
    assert unpack_results(entries, blob) == envelopes
    entries[1]["length"] = 999
    with pytest.raises(ProtocolError, match="overruns"):
        unpack_results(entries, blob)
    entries[1]["length"] = 2
    with pytest.raises(ProtocolError, match="trailing"):
        unpack_results(entries, blob)


def test_parse_address():
    assert parse_address("127.0.0.1:8422") == ("127.0.0.1", 8422)
    with pytest.raises(ValueError):
        parse_address("8422")


def test_fingerprint_names_the_engine():
    fp = worker_fingerprint()
    from repro.core.engine import ENGINE_VERSION

    assert fp["engine_version"] == ENGINE_VERSION
    assert fp["protocol_version"] == PROTOCOL_VERSION
    assert fp["python"] and fp["platform"] and fp["host"]


# ----------------------------------------------------------------------
# The dispatcher seam
# ----------------------------------------------------------------------
def test_runner_defaults_to_the_local_pool_dispatcher():
    runner = SweepRunner(jobs=3, chunk_size=2)
    assert isinstance(runner.dispatcher, LocalPoolDispatcher)
    assert runner.dispatcher.describe() == "local-pool:3x2"


def test_local_pool_serial_path_delivers_each_key_once():
    jobs = _grid(machines=(NUMA_16,), n_schemes=2)
    dispatcher = LocalPoolDispatcher(jobs=1)
    landed = {}
    dispatcher.compute([(j.cache_key(), j) for j in jobs],
                       lambda key, raw: landed.setdefault(key, raw))
    assert len(landed) == 2
    assert dispatcher.stats.serial_batches == 1
    assert dispatcher.stats.jobs == 2
    reference = _serial_bytes(jobs)
    from repro.runner import result_from_payload
    import json

    assert [canonical_result_bytes(
        result_from_payload(json.loads(landed[j.cache_key()])))
        for j in jobs] == reference


# ----------------------------------------------------------------------
# Fleet byte-identity (the acceptance grid)
# ----------------------------------------------------------------------
def test_fleet_sweep_is_byte_identical_on_the_16_cell_grid(fleet):
    jobs = _grid(seed=11)
    assert len(jobs) == 16
    reference = _serial_bytes(jobs)
    agents = [_start_agent(fleet) for _ in range(2)]
    _wait_workers(fleet, 2)
    results = SweepRunner(cache=None, dispatcher=fleet).run_many(jobs)
    assert [canonical_result_bytes(r) for r in results] == reference
    stats = fleet.stats
    assert stats.workers_registered == 2
    assert stats.results_received == 16
    assert stats.digest_mismatches == 0
    for agent, thread in agents:
        agent.request_drain()
        thread.join(timeout=10)
    # Both workers actually shared the load (4 chunks over 2 pullers).
    assert sum(agent.jobs_done for agent, _t in agents) == 16


def test_fleet_survives_a_worker_killed_mid_sweep(fleet):
    jobs = _grid(seed=12)
    reference = _serial_bytes(jobs)
    # The doomed worker completes one chunk, then dies abruptly while
    # holding its second; the healthy worker absorbs the requeue.
    doomed, doomed_thread = _start_agent(fleet, fail_after_chunks=1)
    healthy, healthy_thread = _start_agent(fleet)
    _wait_workers(fleet, 2)
    results = SweepRunner(cache=None, dispatcher=fleet).run_many(jobs)
    assert [canonical_result_bytes(r) for r in results] == reference
    assert fleet.stats.workers_lost >= 1
    assert fleet.stats.chunks_requeued >= 1
    doomed_thread.join(timeout=10)
    assert doomed.chunks_done == 1
    healthy.request_drain()
    healthy_thread.join(timeout=10)


def test_heartbeat_timeout_evicts_a_wedged_worker():
    dispatcher = FleetDispatcher(
        min_workers=2, start_timeout=10, result_timeout=60,
        backoff_base=0.05, backoff_cap=0.2, heartbeat_timeout=0.8)
    dispatcher.start()
    try:
        jobs = _grid(machines=(NUMA_16,), seed=13)
        reference = _serial_bytes(jobs)
        wedged, wedged_thread = _start_agent(
            dispatcher, stall_after_pull=True, stall_seconds=20)
        healthy, healthy_thread = _start_agent(dispatcher)
        _wait_workers(dispatcher, 2)
        results = SweepRunner(
            cache=None, dispatcher=dispatcher).run_many(jobs)
        assert [canonical_result_bytes(r) for r in results] == reference
        assert dispatcher.stats.workers_lost >= 1
        assert dispatcher.stats.chunks_requeued >= 1
        wedged.request_drain()
        healthy.request_drain()
        wedged_thread.join(timeout=10)
        healthy_thread.join(timeout=10)
    finally:
        dispatcher.stop()


def test_chunk_abandoned_after_max_attempts_fails_the_sweep():
    dispatcher = FleetDispatcher(
        min_workers=1, start_timeout=10, result_timeout=60,
        backoff_base=0.05, backoff_cap=0.1, max_attempts=1)
    dispatcher.start()
    try:
        jobs = _grid(machines=(NUMA_16,), n_schemes=2, seed=14)
        _start_agent(dispatcher, fail_after_chunks=0)
        _wait_workers(dispatcher, 1)
        with pytest.raises(FleetError, match="abandoned"):
            SweepRunner(cache=None, dispatcher=dispatcher).run_many(jobs)
    finally:
        dispatcher.stop()


def test_backoff_delays_are_capped_exponential():
    coordinator = FleetDispatcher(
        backoff_base=0.25, backoff_cap=5.0).coordinator
    delays = [coordinator._backoff_delay(n) for n in range(1, 8)]
    assert delays == [0.25, 0.5, 1.0, 2.0, 4.0, 5.0, 5.0]


# ----------------------------------------------------------------------
# Digest cross-check: divergent fleets are refused
# ----------------------------------------------------------------------
def test_forged_digest_poisons_the_fleet(fleet):
    # One worker, unique keys only: no second worker ever recomputes a
    # cell, so only the per-envelope check can catch the lie — and it
    # must, on the very first envelope.
    jobs = _grid(machines=(NUMA_16,), n_schemes=4, seed=15)
    forger, forger_thread = _start_agent(fleet, forge_digest=True)
    _wait_workers(fleet, 1)
    with pytest.raises(FleetDivergenceError, match="do not hash"):
        SweepRunner(cache=None, dispatcher=fleet).run_many(jobs)
    assert fleet.stats.digest_mismatches == 1
    assert fleet.stats.results_received == 0
    assert fleet.coordinator.poisoned is not None
    # The poison latches: further work is refused outright.
    with pytest.raises(FleetDivergenceError):
        SweepRunner(cache=None, dispatcher=fleet).run_many(
            _grid(machines=(NUMA_16,), n_schemes=2, seed=16))
    forger.request_drain()
    forger_thread.join(timeout=10)


def test_divergent_workers_are_refused_by_the_cross_check(fleet):
    jobs = _grid(machines=(NUMA_16,), n_schemes=4, seed=17)
    # Sweep 1: a divergent worker's bytes match their own digests, so
    # every envelope verifies and is recorded.
    divergent, divergent_thread = _start_agent(fleet, diverge=True)
    _wait_workers(fleet, 1)
    SweepRunner(cache=None, dispatcher=fleet).run_many(jobs)
    divergent.request_drain()
    divergent_thread.join(timeout=10)
    # Sweep 2: an honest worker recomputes the same cells; its digests
    # disagree with the registry — the fleet is refused.
    honest, honest_thread = _start_agent(fleet)
    _wait_workers(fleet, 1)
    with pytest.raises(FleetDivergenceError, match="divergence"):
        SweepRunner(cache=None, dispatcher=fleet).run_many(jobs)
    assert fleet.stats.digest_mismatches >= 1
    assert fleet.coordinator.poisoned is not None
    honest.request_drain()
    honest_thread.join(timeout=10)


# ----------------------------------------------------------------------
# Registration gate
# ----------------------------------------------------------------------
def _raw_register(fleet, fingerprint):
    sock = socket.create_connection(
        ("127.0.0.1", fleet.coordinator.port), timeout=5)
    sock.settimeout(5)
    try:
        send_frame(sock, {"type": "register", "fingerprint": fingerprint})
        header, _blob = recv_frame(sock)
        return header
    finally:
        sock.close()


def test_registration_refuses_engine_mismatch(fleet):
    fingerprint = dict(worker_fingerprint(), engine_version="v0-bogus")
    header = _raw_register(fleet, fingerprint)
    assert header["type"] == "refused"
    assert "engine version" in header["reason"]
    assert fleet.stats.workers_refused == 1


def test_registration_refuses_protocol_mismatch(fleet):
    fingerprint = dict(worker_fingerprint(),
                       protocol_version=PROTOCOL_VERSION + 1)
    header = _raw_register(fleet, fingerprint)
    assert header["type"] == "refused"
    assert "protocol version" in header["reason"]


# ----------------------------------------------------------------------
# Cache short circuit + graceful drain
# ----------------------------------------------------------------------
def test_worker_short_circuits_warm_keys(fleet, tmp_path):
    jobs = _grid(machines=(NUMA_16,), n_schemes=2, seed=17)
    cache = ResultCache(tmp_path)
    # Pre-warm the shared tier with a serial run of the same cells.
    SweepRunner(jobs=1, cache=cache).run_many(jobs)
    warm_count = len(cache)
    assert warm_count == 2
    agent, thread = _start_agent(fleet, cache=ResultCache(tmp_path))
    _wait_workers(fleet, 1)
    reference = _serial_bytes(jobs)
    results = SweepRunner(cache=None, dispatcher=fleet).run_many(jobs)
    assert [canonical_result_bytes(r) for r in results] == reference
    assert fleet.stats.cache_short_circuits == warm_count
    agent.request_drain()
    thread.join(timeout=10)
    assert agent.cache_hits == warm_count


def test_idle_worker_drains_gracefully(fleet):
    agent, thread = _start_agent(fleet)
    _wait_workers(fleet, 1)
    agent.request_drain()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert agent.summary()["drained"]
    deadline = time.monotonic() + 5
    while fleet.coordinator.worker_count and time.monotonic() < deadline:
        time.sleep(0.02)
    assert fleet.coordinator.worker_count == 0


def test_fleet_wide_single_compute_joins_inflight_keys(fleet):
    """Two concurrent sweeps over the same cells compute each cell once."""
    jobs = _grid(machines=(NUMA_16,), n_schemes=4, seed=18)
    agent, thread = _start_agent(fleet)
    _wait_workers(fleet, 1)
    outcomes = []

    def sweep():
        runner = SweepRunner(cache=None, dispatcher=fleet)
        outcomes.append(runner.run_many(jobs))

    first = threading.Thread(target=sweep)
    first.start()
    # Wait until the first sweep's (single) chunk is on the wire, then
    # submit the identical keys from a second runner: they must join the
    # inflight computation rather than dispatch a second chunk.
    deadline = time.monotonic() + 10
    while (fleet.stats.chunks_dispatched < 1
           and time.monotonic() < deadline):
        time.sleep(0.01)
    assert fleet.stats.chunks_dispatched >= 1
    sweep()
    first.join(timeout=120)
    assert len(outcomes) == 2
    a, b = outcomes
    assert ([canonical_result_bytes(r) for r in a]
            == [canonical_result_bytes(r) for r in b])
    # Each key computed once fleet-wide.
    assert fleet.stats.keys_joined == len(jobs)
    assert agent.jobs_done == len(jobs)
    agent.request_drain()
    thread.join(timeout=10)


# ----------------------------------------------------------------------
# Worker-side digest helper
# ----------------------------------------------------------------------
def test_canonical_payload_digest_matches_serialization():
    import hashlib
    import json as _json

    from repro.runner.runner import (
        _encode_payload,
        execute_job,
        payload_from_result,
    )

    job = _grid(machines=(NUMA_16,), n_schemes=1, seed=19)[0]
    result = execute_job(job)
    raw = _encode_payload(payload_from_result(result))
    expected = hashlib.sha256(canonical_result_bytes(result)).hexdigest()
    assert canonical_payload_digest(raw) == expected
    # And the service re-export still points at the same function.
    from repro.service.app import canonical_payload_digest as service_digest

    assert service_digest is canonical_payload_digest


# ----------------------------------------------------------------------
# /v1/cache/stats dispatch block
# ----------------------------------------------------------------------
def test_cache_stats_reports_the_dispatch_backend(tmp_path):
    from repro.service import SimulationService

    service = SimulationService(cache_dir=str(tmp_path), jobs=3)
    body = service.cache_stats()
    assert body["dispatch"]["backend"].startswith("local-pool:")
    assert body["dispatch"]["jobs"] == 0
    assert "singleflight" in body


def test_cache_stats_reports_fleet_counters(tmp_path, fleet):
    from repro.service import SimulationService

    runner = SweepRunner(cache=None, dispatcher=fleet)
    service = SimulationService(runner=runner)
    agent, thread = _start_agent(fleet)
    _wait_workers(fleet, 1)
    runner.run_many(_grid(machines=(NUMA_16,), n_schemes=2, seed=20))
    body = service.cache_stats()
    assert body["dispatch"]["backend"].startswith("fleet:")
    assert body["dispatch"]["workers_connected"] == 1
    assert body["dispatch"]["results_received"] == 2
    assert body["dispatch"]["poisoned"] is None
    agent.request_drain()
    thread.join(timeout=10)


# ----------------------------------------------------------------------
# End-to-end through the CLI with real worker subprocesses
# ----------------------------------------------------------------------
def test_cli_fleet_sweep_with_subprocess_workers(tmp_path, monkeypatch,
                                                 capsys):
    from repro.analysis.cli import main

    monkeypatch.setenv("REPRO_TLS_CACHE", str(tmp_path / "cache"))
    status = main([
        "sweep", "--dispatch", "fleet", "--workers", "2",
        "--apps", "Euler", "--scale", "0.05", "--machine", "cmp8",
        "--schemes", "SingleT Eager AMM,MultiT&MV Lazy AMM",
    ])
    out = capsys.readouterr().out
    assert status == 0
    assert "fleet coordinator on 127.0.0.1:" in out
    assert out.count("Euler") == 2
