"""Host-speed calibration, interleaved with the measured work.

The hosts this benchmark runs on drift in speed by tens of percent over
tens of seconds (other tenants share the cores). A short, fixed,
interpreter-bound loop is timed between units of work, and every time
the benchmark reports is scaled to the speed at which this loop takes
``REFERENCE_MS``: ``scaled = raw * REFERENCE_MS / measured``. Raw
figures are printed beside the scaled ones.

The loop tracks interpreter-bound work, not moving large responses
between two processes. serve-mixed's capacity is scaled instead by the
GET rate per server CPU second of ``refserver.py`` (the same responses,
the same client), measured around each piece: to the speed at which it
serves ``REFERENCE_GET_RPS``.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Loop time, in ms, of the reference host speed that figures are
#: scaled to.
REFERENCE_MS = 10.0
#: GETs per second of server CPU of the reference server at the
#: reference host speed that serve-mixed capacity is scaled to.
REFERENCE_GET_RPS = 6000.0
_ITERATIONS = 10_000


def _loop() -> int:
    table: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for i in range(_ITERATIONS):
        slot = (i * 2654435761) & 1023
        table[slot] = table.get(slot, 0) + i
        heapq.heappush(heap, (slot, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(table)


def loop_ms() -> float:
    """Median time of three calibration loops, in milliseconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def factor(samples: list[float]) -> float:
    """Multiplier that scales a raw time to the reference speed."""
    return REFERENCE_MS / statistics.median(samples)


def rate_factor(rates: list[float]) -> float:
    """Multiplier that scales a time to the reference server speed, from
    reference-server rates measured around it."""
    return statistics.mean(rates) / REFERENCE_GET_RPS
