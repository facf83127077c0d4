"""The fleet worker agent: pull chunks, compute, push envelopes.

:class:`WorkerAgent` is the client half of :mod:`repro.dist.protocol` —
deliberately a page of blocking socket code. It connects to a
coordinator, registers with its :func:`~repro.dist.protocol.\
worker_fingerprint` (refused outright on an engine-version mismatch),
then loops: ``pull`` a chunk, execute each job through *exactly* the
pipeline the in-process pool path uses (``execute_job`` →
``payload_from_result`` → canonical JSON bytes), and push one ``result``
frame of per-job envelopes. Bit-identity across hosts is therefore by
construction. Each envelope carries the SHA-256 of its payload bytes,
which the coordinator checks on arrival and cross-checks between
workers (:meth:`FleetCoordinator._record_result
<repro.dist.coordinator.FleetCoordinator>`).

Two behaviors make the fleet a cache *extension* rather than a cache
bypass:

* **Warm-key short circuit** — a worker given a shared cache directory
  answers warm keys straight from the sharded
  :class:`~repro.runner.cache.ResultCache` (envelope ``source:
  "cache"``) and stores fresh results back, so a fleet sweep leaves the
  same artifacts a local sweep would.
* **Graceful drain** — ``SIGTERM`` (or :meth:`WorkerAgent.request_drain`)
  lets the current chunk finish, sends ``bye`` so in-flight work is
  requeued penalty-free, and exits cleanly.

The ``fail_after_chunks`` / ``forge_digest`` / ``diverge`` /
``stall_after_pull`` knobs are fault injection for the fleet's test
suite — a crashing worker, a lying worker, a divergent worker, and a
silently wedged worker.
"""

from __future__ import annotations

import signal
import socket
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path
from typing import Any

from repro.dist.protocol import (
    ProtocolError,
    pack_results,
    recv_frame,
    send_frame,
    unpack_jobs,
    worker_fingerprint,
)
from repro.errors import ReproError
from repro.runner.cache import ResultCache

#: How often a blocked ``recv`` wakes up to poll the drain flag.
IDLE_TICK_SECONDS = 0.25


class WorkerRefusedError(ReproError):
    """The coordinator refused this worker's registration."""


def parse_address(address: str) -> tuple[str, int]:
    """Split ``HOST:PORT`` (the ``--connect`` argument) into its parts."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"invalid coordinator address {address!r}: expected HOST:PORT")
    return host, int(port)


class WorkerAgent:
    """One fleet worker: a blocking pull/compute/push loop.

    ``cache`` (a :class:`~repro.runner.cache.ResultCache` or ``None``)
    enables the warm-key short circuit. The fault-injection knobs exist
    for tests: ``fail_after_chunks=N`` drops the connection abruptly
    when handed chunk ``N+1`` (a crash mid-sweep), ``forge_digest``
    reports a digest that does not match the bytes it sends (a lying
    host), ``diverge`` sends a different result with its true digest (a
    host whose engine disagrees), and ``stall_after_pull`` goes
    completely silent — no
    heartbeats, no result — after accepting a chunk (a wedged host the
    heartbeat monitor must evict).
    """

    def __init__(self, address: str, *,
                 cache: ResultCache | None = None,
                 connect_timeout: float = 30.0,
                 fail_after_chunks: int | None = None,
                 forge_digest: bool = False,
                 diverge: bool = False,
                 stall_after_pull: bool = False,
                 stall_seconds: float = 3600.0) -> None:
        self.host, self.port = parse_address(address)
        self.cache = cache
        self.connect_timeout = connect_timeout
        self.fail_after_chunks = fail_after_chunks
        self.forge_digest = forge_digest
        self.diverge = diverge
        self.stall_after_pull = stall_after_pull
        self.stall_seconds = stall_seconds
        self.worker_id: str | None = None
        self.chunks_done = 0
        self.jobs_done = 0
        self.cache_hits = 0
        self._drain = threading.Event()
        self._sock: socket.socket | None = None
        #: Serializes result frames against the heartbeat thread.
        self._write_lock = threading.Lock()
        self._hb_stop = threading.Event()

    # ------------------------------------------------------------------
    def request_drain(self) -> None:
        """Finish the current chunk, send ``bye``, and exit the loop.

        Thread- and signal-safe; this is what ``SIGTERM`` calls.
        """
        self._drain.set()

    def install_signal_handlers(self) -> None:
        """Route ``SIGTERM``/``SIGINT`` to a graceful drain.

        Only possible from the main thread (a CPython restriction);
        callers embedding the agent in a thread simply skip this and use
        :meth:`request_drain` directly.
        """
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_args: self.request_drain())

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        """Dial the coordinator, retrying briefly while it binds."""
        deadline = time.monotonic() + self.connect_timeout
        while True:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=5.0)
                sock.settimeout(IDLE_TICK_SECONDS)
                return sock
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.1)

    def _register(self, sock: socket.socket) -> float:
        """Handshake; returns the heartbeat interval the coordinator set."""
        with self._write_lock:
            send_frame(sock, {"type": "register",
                              "fingerprint": worker_fingerprint()})
        header, _blob = self._recv(sock)
        if header["type"] == "refused":
            raise WorkerRefusedError(
                f"coordinator refused registration: "
                f"{header.get('reason', 'unspecified')}")
        if header["type"] != "registered":
            raise ProtocolError(
                f"expected registered/refused, got {header['type']!r}")
        self.worker_id = str(header.get("worker_id"))
        return float(header.get("heartbeat_interval", 1.0))

    def _recv(self, sock: socket.socket) -> tuple[dict[str, Any], bytes]:
        """Receive one frame, riding idle ticks to poll the drain flag."""
        while True:
            try:
                return recv_frame(sock)
            except TimeoutError:
                if self._drain.is_set():
                    raise

    def _heartbeat_loop(self, sock: socket.socket,
                        interval: float) -> None:
        """Background liveness: one heartbeat frame per interval."""
        while not self._hb_stop.wait(interval):
            try:
                with self._write_lock:
                    send_frame(sock, {"type": "heartbeat"})
            except OSError:
                return

    # ------------------------------------------------------------------
    def _execute_chunk(
            self, jobs: list[Any]) -> list[tuple[str, str, str, bytes]]:
        """Run one chunk's jobs; returns result envelopes to pack.

        Every job resolves through the cache first (``source: "cache"``;
        an entry that does not parse is recomputed) and stores its
        freshly computed payload back, so the fleet and the local pool
        leave identical cache artifacts.
        """
        from repro.runner.runner import (
            _encode_payload,
            canonical_payload_digest,
            execute_job,
            payload_from_result,
        )

        envelopes: list[tuple[str, str, str, bytes]] = []
        for job in jobs:
            key = job.cache_key()
            entry = self.cache.load_entry(key) if self.cache is not None \
                else None
            if entry is not None:
                source = "cache"
                raw = entry[0]
                self.cache_hits += 1
            else:
                source = "computed"
                payload = payload_from_result(execute_job(job))
                if self.diverge:
                    payload["total_cycles"] += 1.0
                raw = _encode_payload(payload)
                if self.cache is not None:
                    self.cache.store_raw(key, raw)
            digest = ("0" * 64 if self.forge_digest
                      else canonical_payload_digest(raw))
            envelopes.append((key, digest, source, zlib.compress(raw, 1)))
            self.jobs_done += 1
        return envelopes

    def run(self) -> dict[str, Any]:
        """The worker's whole life; returns a summary for logging.

        Exits cleanly when drained, when the coordinator sends
        ``shutdown``, or when the coordinator goes away.
        """
        sock = self._connect()
        self._sock = sock
        heartbeat: threading.Thread | None = None
        try:
            interval = self._register(sock)
            heartbeat = threading.Thread(
                target=self._heartbeat_loop, args=(sock, interval),
                name="repro-tls-worker-heartbeat", daemon=True)
            heartbeat.start()
            while True:
                if self._drain.is_set():
                    with self._write_lock:
                        send_frame(sock, {"type": "bye"})
                    break
                with self._write_lock:
                    send_frame(sock, {"type": "pull"})
                try:
                    header, blob = self._recv(sock)
                except TimeoutError:
                    # Drain requested while waiting for an assignment:
                    # say goodbye so anything racing toward us requeues.
                    with self._write_lock:
                        send_frame(sock, {"type": "bye"})
                    break
                if header["type"] == "shutdown":
                    break
                if header["type"] != "chunk":
                    raise ProtocolError(
                        f"expected a chunk frame, got {header['type']!r}")
                if (self.fail_after_chunks is not None
                        and self.chunks_done >= self.fail_after_chunks):
                    # Fault injection: die abruptly holding this chunk.
                    self._hb_stop.set()
                    sock.close()
                    return self.summary(died=True)
                if self.stall_after_pull:
                    # Fault injection: go silent until evicted.
                    self._hb_stop.set()
                    deadline = time.monotonic() + self.stall_seconds
                    while (time.monotonic() < deadline
                           and not self._drain.is_set()):
                        time.sleep(IDLE_TICK_SECONDS)
                    sock.close()
                    return self.summary(died=True)
                try:
                    envelopes = self._execute_chunk(unpack_jobs(blob))
                except ProtocolError:
                    raise
                except Exception as exc:  # noqa: BLE001 - report upstream
                    with self._write_lock:
                        send_frame(sock, {
                            "type": "error",
                            "chunk_id": header.get("chunk_id"),
                            "message": f"{type(exc).__name__}: {exc}",
                        })
                    continue
                entries, payload = pack_results(envelopes)
                with self._write_lock:
                    send_frame(sock, {
                        "type": "result",
                        "chunk_id": header.get("chunk_id"),
                        "results": entries,
                    }, payload)
                self.chunks_done += 1
        except (ConnectionError, OSError):
            pass  # coordinator gone; nothing left to do
        finally:
            self._hb_stop.set()
            try:
                sock.close()
            except OSError:
                pass
        return self.summary()

    def summary(self, died: bool = False) -> dict[str, Any]:
        """A JSON-ready account of this worker's run."""
        return {
            "worker_id": self.worker_id,
            "chunks": self.chunks_done,
            "jobs": self.jobs_done,
            "cache_hits": self.cache_hits,
            "drained": self._drain.is_set(),
            "died": died,
        }


def spawn_local_workers(address: str, count: int, *,
                        cache_dir: str | Path | None = None,
                        ) -> list[subprocess.Popen]:
    """Launch ``count`` worker subprocesses against a coordinator.

    The one-command localhost-fleet path (``repro-tls sweep --dispatch
    fleet --workers N`` and the dispatch bench) uses this: each worker
    is a real ``repro-tls worker --connect`` process, so the measurement
    and fault behavior match a genuinely remote fleet. The caller owns
    the returned handles (terminate → graceful drain via ``SIGTERM``).
    """
    import os

    import repro

    src_root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (str(src_root) if not existing
                         else f"{src_root}{os.pathsep}{existing}")
    cmd = [sys.executable, "-m", "repro.analysis.cli", "worker",
           "--connect", address]
    if cache_dir is not None:
        cmd += ["--cache-dir", str(cache_dir)]
    return [subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
            for _ in range(count)]
