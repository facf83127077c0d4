"""HTTP load on two keep-alive connections.

Open loop (:func:`run_rung`): connection 1 sends ``GET /v1/jobs/{key}``;
connection 2 sends ``POST /v1/jobs``. Each request is timed from when it
was *due*, so a stall on the server also charges the requests queued
behind it. The generator's own lateness is recorded separately as
``lag``: how long after the later of its due time and the connection
becoming free a request actually left.

Closed loop (:func:`run_closed`): both connections send GETs back to
back, so the count served per second is the server's capacity.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Sample:
    kind: str
    due: float
    sent: float
    done: float
    lag: float
    ok: bool
    item: str | None = None
    body: bytes | None = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def service_ms(self) -> float:
        return (self.done - self.sent) * 1e3


@dataclass
class Rung:
    #: Offered requests per second; 0 for a closed-loop piece.
    rate: float
    seconds: float
    start: float
    end: float
    samples: list[Sample] = field(default_factory=list)
    #: Host-speed calibration taken around the rung (see ``calib``).
    cal_ms: list[float] = field(default_factory=list)
    #: CPU seconds the server used during a closed-loop piece.
    server_cpu_s: float = 0.0


def poisson_offsets(rng: random.Random, rate: float,
                    seconds: float) -> list[float]:
    """Arrival offsets of a Poisson process of ``rate`` per second."""
    offsets, t = [], 0.0
    if rate <= 0:
        return offsets
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return offsets
        offsets.append(t)


def stratified_offsets(rng: random.Random, rate: float,
                       seconds: float) -> list[float]:
    """One arrival at a uniform random point of each ``1/rate`` slot.

    Open loop like :func:`poisson_offsets`, but the count per rung is
    exact, so a rung's few POSTs do not swing its tail latency.
    """
    if rate <= 0:
        return []
    slot = 1.0 / rate
    return [(index + rng.random()) * slot
            for index in range(int(seconds * rate))]


def _connect(host: str, port: int) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(host, port, timeout=60)


def _request(conn: http.client.HTTPConnection, kind: str, item,
             expect: dict[str, bytes]) -> tuple[bool, bytes | None]:
    """Send one request; ``(ok, POST response body)``.

    A GET is ok only if its envelope head carries the digest verified
    before the load; any other digest is a failure. Raises on transport
    errors (the caller reconnects).
    """
    if kind == "GET":
        conn.request("GET", f"/v1/jobs/{item}")
    else:
        conn.request("POST", "/v1/jobs", body=item,
                     headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    raw = response.read()
    if kind == "GET":
        return response.status == 200 and expect[item] in raw[:400], None
    return response.status == 200, raw


def _drive(host: str, port: int, kind: str, schedule: list, t0: float,
           expect: dict[str, bytes], out: list[Sample]) -> None:
    """Send one connection's schedule; append one sample per request."""
    conn = _connect(host, port)
    free_at = t0
    try:
        for offset, item in schedule:
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            lag = sent - max(due, free_at)
            ok, body = False, None
            try:
                ok, body = _request(conn, kind, item, expect)
            except (http.client.HTTPException, OSError):
                conn.close()
                conn = _connect(host, port)
            done = time.perf_counter()
            free_at = done
            out.append(Sample(kind, due, sent, done, lag, ok,
                              item if kind == "GET" else None, body))
    finally:
        conn.close()


def _drive_closed(host: str, port: int, rng: random.Random,
                  keys: list[str], deadline: float,
                  expect: dict[str, bytes], out: list[Sample]) -> None:
    """GETs back to back until ``deadline``, uniform over ``keys`` in
    shuffled rounds; one sample per request."""
    conn = _connect(host, port)
    order: list[str] = []
    try:
        while time.perf_counter() < deadline:
            if not order:
                order = rng.sample(keys, len(keys))
            item = order.pop()
            sent = time.perf_counter()
            ok = False
            try:
                ok, _body = _request(conn, "GET", item, expect)
            except (http.client.HTTPException, OSError):
                conn.close()
                conn = _connect(host, port)
            out.append(Sample("GET", sent, sent, time.perf_counter(), 0.0,
                              ok, item))
    finally:
        conn.close()


def run_closed(host: str, port: int, rng: random.Random, seconds: float,
               keys: list[str], expect: dict[str, bytes],
               connections: int = 2) -> Rung:
    """Closed-loop GETs on ``connections`` connections for ``seconds``.

    The piece ends when the last response is in, so its span includes
    the drain and the served count over it is the measured capacity.
    """
    outs: list[list[Sample]] = [[] for _ in range(connections)]
    start = time.perf_counter()
    threads = [threading.Thread(target=_drive_closed, args=(
        host, port, random.Random(rng.random()), keys, start + seconds,
        expect, out)) for out in outs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Rung(0.0, seconds, start, time.perf_counter(),
                [sample for out in outs for sample in out])


def run_rung(host: str, port: int, rng: random.Random, rate: float,
             post_share: float, seconds: float, keys: list[str],
             expect: dict[str, bytes], post_bodies: list[bytes]) -> Rung:
    """One rung of the ladder: ``rate`` requests/s for ``seconds``.

    GETs arrive as a Poisson process; a share ``post_share`` of the rate
    is POSTs (stratified arrivals), taken in order from ``post_bodies``
    (consumed, so every POST is a distinct cell).
    """
    offsets = poisson_offsets(rng, rate * (1 - post_share), seconds)
    # Uniform over the keys, in shuffled rounds, so every rung asks for
    # each key (and its payload size) equally often.
    order: list[str] = []
    while len(order) < len(offsets):
        order += rng.sample(keys, len(keys))
    gets = list(zip(offsets, order))
    posts = []
    for offset in stratified_offsets(rng, rate * post_share, seconds):
        if not post_bodies:
            raise RuntimeError("POST pool exhausted: every POST must be a "
                               "distinct cold cell")
        posts.append((offset, post_bodies.pop(0)))
    get_out: list[Sample] = []
    post_out: list[Sample] = []
    t0 = time.perf_counter() + 0.05
    threads = [
        threading.Thread(target=_drive, args=(
            host, port, "GET", gets, t0, expect, get_out)),
        threading.Thread(target=_drive, args=(
            host, port, "POST", posts, t0, expect, post_out)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Rung(rate, seconds, t0, time.perf_counter(), get_out + post_out)


def post_request_bytes(body: dict) -> bytes:
    return json.dumps(body, separators=(",", ":")).encode()
