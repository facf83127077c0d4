"""SingleFlight: the per-key cache-stampede protection contract.

The properties under test (see ``repro.runner.singleflight``): exactly
one claimant leads per key, joiners receive the leader's exact bytes,
abandon is idempotent and never clobbers a resolved flight, a joiner's
timeout disturbs nobody, and a failed leader wakes every joiner with
the failure instead of deadlocking them.
"""

import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import asdict

import pytest

from repro.runner import SingleFlight


def test_first_claim_leads_second_joins():
    flights = SingleFlight()
    flight, leader = flights.claim("k")
    assert leader
    joined, second_leader = flights.claim("k")
    assert not second_leader
    assert joined is flight
    assert flights.pending("k")
    assert len(flights) == 1
    assert flights.stats.led == 1
    assert flights.stats.joined == 1


def test_distinct_keys_fly_independently():
    flights = SingleFlight()
    _, a_leads = flights.claim("a")
    _, b_leads = flights.claim("b")
    assert a_leads and b_leads
    assert len(flights) == 2


def test_resolve_publishes_bytes_and_retires():
    flights = SingleFlight()
    flight, _ = flights.claim("k")
    flights.resolve("k", flight, b'{"x":1}')
    assert flights.wait(flight) == b'{"x":1}'
    assert not flights.pending("k")
    # The key is free again: the next claim leads a fresh flight.
    fresh, leader = flights.claim("k")
    assert leader and fresh is not flight


def test_abandon_propagates_failure_to_waiters():
    flights = SingleFlight()
    flight, _ = flights.claim("k")
    flights.abandon("k", flight, RuntimeError("engine exploded"))
    with pytest.raises(RuntimeError, match="engine exploded"):
        flights.wait(flight)
    assert flights.stats.failed == 1
    assert not flights.pending("k")


def test_abandon_after_resolve_is_a_noop():
    # The leader's finally-block calls abandon unconditionally; it must
    # not overwrite a value that already landed.
    flights = SingleFlight()
    flight, _ = flights.claim("k")
    flights.resolve("k", flight, b"payload")
    flights.abandon("k", flight, RuntimeError("too late"))
    assert flights.wait(flight) == b"payload"
    assert flights.stats.failed == 0


def test_joiner_timeout_leaves_the_flight_alone():
    flights = SingleFlight()
    flight, _ = flights.claim("k")
    with pytest.raises(FutureTimeoutError):
        flights.wait(flight, timeout=0.01)
    assert flights.stats.timeouts == 1
    # The flight is still live; the leader resolves it later and a more
    # patient waiter still gets the bytes.
    assert flights.pending("k")
    flights.resolve("k", flight, b"late but fine")
    assert flights.wait(flight) == b"late but fine"


def test_retire_ignores_superseded_flights():
    # A stale abandon (from a previous generation of the same key) must
    # not retire the current flight.
    flights = SingleFlight()
    first, _ = flights.claim("k")
    flights.resolve("k", first, b"one")
    current, leader = flights.claim("k")
    assert leader
    flights.abandon("k", first, RuntimeError("stale"))
    assert flights.pending("k")  # current flight untouched
    flights.resolve("k", current, b"two")


def test_concurrent_claims_elect_exactly_one_leader():
    flights = SingleFlight()
    barrier = threading.Barrier(8)
    outcomes: list[tuple[Future, bool]] = []
    lock = threading.Lock()

    def contend():
        barrier.wait()
        flight, leader = flights.claim("hot")
        with lock:
            outcomes.append((flight, leader))

    threads = [threading.Thread(target=contend) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    leaders = [f for f, led in outcomes if led]
    assert len(leaders) == 1
    # Every contender holds the same Future object.
    assert len({id(f) for f, _ in outcomes}) == 1
    flights.resolve("hot", leaders[0], b"once")
    assert all(flights.wait(f) == b"once" for f, _ in outcomes)
    assert flights.stats.led == 1
    assert flights.stats.joined == 7


def test_waiters_block_until_the_leader_lands():
    flights = SingleFlight()
    flight, _ = flights.claim("k")
    seen: list[bytes] = []

    def join():
        seen.append(flights.wait(flight, timeout=5.0))

    waiters = [threading.Thread(target=join) for _ in range(4)]
    for t in waiters:
        t.start()
    flights.resolve("k", flight, b"shared")
    for t in waiters:
        t.join()
    assert seen == [b"shared"] * 4


def test_stats_snapshot_is_a_plain_dict():
    flights = SingleFlight()
    flight, _ = flights.claim("k")
    flights.claim("k")
    flights.resolve("k", flight, b"x")
    assert asdict(flights.stats) == {
        "led": 1, "joined": 1, "failed": 0, "timeouts": 0,
    }
