"""The lean canonical result payload.

Contracts under test:

* the read -> producer map is opt-in (``SimJob.record_reads``) and a
  pure observer: over the golden grid, a default job's payload is the
  recording job's payload minus ``observed_reads``, under a different
  cache key;
* stored bytes are canonical: decoding and re-encoding them gives the
  same bytes, they hold no host-measured field, and a payload's digest
  is the SHA-256 of those bytes;
* a disk hit is promoted into the memory tier as the stored bytes,
  without re-encoding, and the memory tier keeps each entry's digest;
* the conformance oracle depends on the flag: ``validate --smoke``
  fails if the oracle's jobs stop recording reads.
"""

import hashlib
import json

import pytest

from repro.analysis import serialization
from repro.analysis.serialization import canonical_json, canonical_result_bytes
from repro.core.config import CMP_8, NUMA_16
from repro.core.taxonomy import (
    MULTI_T_MV_FMM,
    MULTI_T_MV_LAZY,
    MULTI_T_SV_LAZY,
    SINGLE_T_EAGER,
)
from repro.runner import (
    MemoryResultCache,
    ResultCache,
    SimJob,
    SweepRunner,
    WorkloadSpec,
    execute_job,
)
from repro.runner import runner as runner_module
from repro.runner.runner import (
    canonical_payload_digest,
    compute_payload,
    payload_from_result,
)

#: The golden corpus grid (tests/test_golden.py).
GOLDEN_GRID = SimJob.grid(
    [NUMA_16, CMP_8],
    [SINGLE_T_EAGER, MULTI_T_SV_LAZY, MULTI_T_MV_LAZY, MULTI_T_MV_FMM],
    [WorkloadSpec(app, seed=0, scale=0.1) for app in ("Euler", "Apsi")])


def _recording(job):
    return SimJob(machine=job.machine, workload=job.workload,
                  scheme=job.scheme, record_reads=True)


def _job():
    return SimJob(machine=NUMA_16,
                  workload=WorkloadSpec("Euler", seed=0, scale=0.15),
                  scheme=MULTI_T_MV_LAZY)


def test_record_reads_is_a_pure_observer_on_the_golden_grid():
    assert len(GOLDEN_GRID) == 16
    for job in GOLDEN_GRID:
        recording = _recording(job)
        assert recording.cache_key() != job.cache_key()
        plain = payload_from_result(execute_job(job))
        recorded = payload_from_result(execute_job(recording))
        assert "observed_reads" not in plain
        assert recorded.pop("observed_reads"), job.describe()
        assert plain == recorded, job.describe()


def test_stored_bytes_are_canonical_and_digest_is_their_hash():
    result = execute_job(_job())
    assert result.wall_clock_seconds > 0  # live results keep it
    raw = canonical_json(payload_from_result(result))
    assert compute_payload(_job()) == raw
    payload = json.loads(raw)
    assert "wall_clock_seconds" not in payload
    assert canonical_json(payload) == raw
    assert raw == canonical_result_bytes(result)
    digest = hashlib.sha256(raw).hexdigest()
    assert canonical_payload_digest(raw) == digest


def test_disk_hit_promotes_the_stored_bytes_without_reencoding(
        tmp_path, monkeypatch):
    job = _job()
    key = job.cache_key()
    SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run(job)
    stored = ResultCache(tmp_path).path_for(key).read_bytes()

    def _no_encode(_payload):
        raise AssertionError("a disk hit re-encoded its payload")

    monkeypatch.setattr(serialization, "canonical_json", _no_encode)
    memory = MemoryResultCache()
    seen = []
    replayed = SweepRunner(jobs=1, cache=ResultCache(tmp_path),
                           memory_cache=memory).run_many(
        [job], progress=lambda _key, source: seen.append(source))[0]
    assert seen == ["disk"]
    assert replayed.wall_clock_seconds == 0.0
    assert memory.load(key) == stored
    assert memory.digest(key) == hashlib.sha256(stored).hexdigest()


def test_memory_tier_keeps_a_digest_per_entry():
    memory = MemoryResultCache(max_entries=2)
    memory.store("a", b"{}")
    memory.store("b", b"[]")
    assert memory.digest("a") == hashlib.sha256(b"{}").hexdigest()
    assert memory.digest("b") == hashlib.sha256(b"[]").hexdigest()
    memory.store("c", b"1")  # evicts "a", its digest with it
    assert memory.digest("a") is None
    assert memory.stats.hits == 0  # digest reads are not lookups


def test_validate_smoke_fails_when_the_oracle_drops_the_flag(monkeypatch):
    from repro.analysis.cli import main
    from repro.validate import oracle

    def _dropping(**fields):
        fields["record_reads"] = False
        return SimJob(**fields)

    monkeypatch.setattr(oracle, "SimJob", _dropping)
    assert main(["validate", "--smoke"]) == 1


@pytest.mark.parametrize("record_reads", [False, True])
def test_result_round_trips_with_and_without_the_read_map(record_reads):
    job = SimJob(machine=NUMA_16,
                 workload=WorkloadSpec("Apsi", seed=0, scale=0.1),
                 scheme=MULTI_T_MV_FMM, record_reads=record_reads)
    live = execute_job(job)
    assert bool(live.observed_reads) is record_reads
    replayed = runner_module.result_from_payload(
        json.loads(canonical_json(payload_from_result(live))))
    assert replayed.observed_reads == live.observed_reads
    assert canonical_result_bytes(replayed) == canonical_result_bytes(live)
