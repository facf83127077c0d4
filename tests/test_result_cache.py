"""The sharded shared tier: layout stability, pluggable backends, tiers.

Contracts under test (see ``repro.runner.cache``):

* the on-disk layout is ``<root>/<key[:2]>/<key>.json`` — a stable
  contract (a warm directory must survive releases and be mountable
  behind many frontends);
* :class:`ShardedResultCache` speaks payload semantics over *any*
  :class:`CacheBackend` (a four-method byte store), not just the
  directory backend; and
* a result is bit-identical no matter which tier replays it.
"""

import json

from repro.core.config import NUMA_16
from repro.core.taxonomy import MULTI_T_MV_LAZY
from repro.analysis.serialization import canonical_result_bytes
from repro.runner import (
    CacheBackend,
    DirectoryBackend,
    MemoryResultCache,
    ResultCache,
    SHARD_PREFIX_LEN,
    ShardedResultCache,
    SimJob,
    SweepRunner,
    WorkloadSpec,
    migrate_flat_layout,
    shard_of,
)

SCALE = 0.1


def _job(app="Euler", seed=0):
    return SimJob(machine=NUMA_16,
                  workload=WorkloadSpec(app, seed=seed, scale=SCALE),
                  scheme=MULTI_T_MV_LAZY)


# ----------------------------------------------------------------------
# Shard layout stability
# ----------------------------------------------------------------------
def test_shard_of_is_the_two_hex_prefix():
    assert SHARD_PREFIX_LEN == 2
    assert shard_of("ab12cd") == "ab"


def test_directory_layout_is_root_shard_key(tmp_path):
    cache = ResultCache(tmp_path)
    key = "deadbeef" * 8
    assert cache.path_for(key) == tmp_path / "de" / f"{key}.json"


def test_path_shaped_keys_cannot_escape_the_cache_root(tmp_path):
    import pytest

    backend = DirectoryBackend(tmp_path / "cache")
    outside = tmp_path / "outside.json"
    outside.write_text('{"kind":"sequential"}')
    # A key carrying path components must be rejected outright — never
    # resolved to a path outside the root (".." traversal, or a leading
    # "/" making pathlib discard the root).
    for key in ("../outside", "/" + str(outside.with_suffix("")),
                "..", "aa/../../outside", "AA" + "0" * 62, ""):
        with pytest.raises(ValueError, match="invalid cache key"):
            backend.path_for(key)
        with pytest.raises(ValueError, match="invalid cache key"):
            backend.put(key, b"{}")
        # Read paths degrade to a miss rather than traverse.
        assert backend.get(key) is None
        assert backend.delete(key) is False
    assert outside.exists()  # nothing outside the root was touched


def test_entries_land_in_their_shards_and_enumerate(tmp_path):
    backend = DirectoryBackend(tmp_path)
    keys = {f"{i:02x}" + "0" * 62 for i in (0x00, 0x7f, 0xff)}
    for key in keys:
        backend.put(key, b'{"v":1}')
    for key in keys:
        assert (tmp_path / key[:2] / f"{key}.json").exists()
    assert set(backend.keys()) == keys
    # Stray files outside the shard layout are invisible.
    (tmp_path / "notakey.json").write_bytes(b"{}")
    assert set(backend.keys()) == keys


def test_directory_backend_get_put_delete(tmp_path):
    backend = DirectoryBackend(tmp_path)
    assert backend.get("aa" + "0" * 62) is None
    key = "ab" + "0" * 62
    backend.put(key, b"first")
    assert backend.get(key) == b"first"
    backend.put(key, b"second")  # overwrite allowed
    assert backend.get(key) == b"second"
    assert backend.delete(key) is True
    assert backend.delete(key) is False
    assert backend.get(key) is None
    assert backend.keys() == []


# ----------------------------------------------------------------------
# Pluggable backends
# ----------------------------------------------------------------------
class DictBackend:
    """A minimal in-memory CacheBackend (what a remote store would be)."""

    def __init__(self):
        self.blobs = {}

    def get(self, key):
        return self.blobs.get(key)

    def put(self, key, raw):
        self.blobs[key] = raw

    def keys(self):
        return list(self.blobs)

    def delete(self, key):
        return self.blobs.pop(key, None) is not None


def test_backend_protocol_is_runtime_checkable(tmp_path):
    assert isinstance(DictBackend(), CacheBackend)
    assert isinstance(DirectoryBackend(tmp_path), CacheBackend)
    assert not isinstance(object(), CacheBackend)


def test_sharded_cache_over_a_dict_backend():
    backend = DictBackend()
    cache = ShardedResultCache(backend)
    key = "ff" + "0" * 62
    assert cache.load(key) is None
    cache.store(key, {"kind": "x", "v": 2})
    assert cache.load(key) == {"kind": "x", "v": 2}
    assert key in cache
    assert len(cache) == 1
    assert cache.stats.to_dict() == {"hits": 1, "misses": 1,
                                     "stores": 1, "evictions": 0}
    assert cache.describe() == "DictBackend"
    assert cache.clear() == 1
    assert len(cache) == 0


def test_corrupt_backend_bytes_are_a_miss():
    backend = DictBackend()
    cache = ShardedResultCache(backend)
    backend.put("k", b"{not json")
    assert cache.load("k") is None
    assert cache.stats.misses == 1
    # The bytes-and-payload read refuses them too: nothing serves them.
    assert cache.load_entry("k") is None
    assert cache.stats.misses == 2


def test_runner_accepts_a_custom_backend_tier():
    # The whole point of the protocol: the runner (and so the service)
    # can sit on a non-directory shared tier without code changes.
    backend = DictBackend()
    runner = SweepRunner(jobs=1,
                         cache=ShardedResultCache(backend))
    job = _job()
    first = runner.run(job)
    assert job.cache_key() in backend.blobs
    replay = SweepRunner(jobs=1,
                         cache=ShardedResultCache(backend)).run(job)
    assert canonical_result_bytes(first) == canonical_result_bytes(replay)


def test_result_cache_is_the_directory_sharded_tier(tmp_path):
    cache = ResultCache(tmp_path)
    assert isinstance(cache, ShardedResultCache)
    assert cache.root == tmp_path
    assert cache.describe() == f"directory:{tmp_path}"


# ----------------------------------------------------------------------
# Tier interplay and bit-identity
# ----------------------------------------------------------------------
def test_disk_hit_promotes_into_the_memory_tier(tmp_path):
    job = _job()
    SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run(job)

    memory = MemoryResultCache()
    runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path),
                         memory_cache=memory)
    runner.run(job)
    key = job.cache_key()
    assert key in memory  # promoted on the disk hit
    assert runner.cache.stats.hits == 1
    # Second run is a pure memory hit: the disk tier is not consulted.
    runner.run(job)
    assert runner.cache.stats.hits == 1
    assert memory.stats.hits == 1


def test_result_is_bit_identical_through_every_tier(tmp_path):
    job = _job()
    key = job.cache_key()

    live = SweepRunner(jobs=1, cache=None).run(job)
    expected = canonical_result_bytes(live)

    # Tier 1: computed then stored, replayed from disk by a cold runner.
    disk = ResultCache(tmp_path)
    SweepRunner(jobs=1, cache=disk).run(job)
    from_disk = SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run(job)
    assert canonical_result_bytes(from_disk) == expected

    # Tier 2: the memory tier, fed by the same stored bytes.
    memory = MemoryResultCache()
    warm = SweepRunner(jobs=1, cache=ResultCache(tmp_path),
                       memory_cache=memory)
    warm.run(job)          # disk hit, promotes
    from_memory = warm.run(job)  # memory hit
    assert memory.stats.hits == 1
    assert canonical_result_bytes(from_memory) == expected

    # Tier 3: a foreign backend holding the very same bytes.
    backend = DictBackend()
    backend.put(key, ResultCache(tmp_path).load_entry(key)[0])
    foreign = SweepRunner(jobs=1,
                          cache=ShardedResultCache(backend)).run(job)
    assert canonical_result_bytes(foreign) == expected


def test_raw_and_decoded_paths_see_the_same_payload(tmp_path):
    cache = ResultCache(tmp_path)
    key = "ee" + "0" * 62
    payload = {"kind": "demo", "values": [1, 2, 3]}
    cache.store(key, payload)
    raw, decoded = cache.load_entry(key)
    assert json.loads(raw) == decoded == payload
    assert cache.load(key) == payload


def test_migrate_flat_layout_moves_entries_into_shards(tmp_path):
    key_a = "ab" + "0" * 62
    key_b = "cd" + "1" * 62
    (tmp_path / f"{key_a}.json").write_text('{"kind": "flat-a"}')
    (tmp_path / f"{key_b}.json").write_text('{"kind": "flat-b"}')
    (tmp_path / "notes.json").write_text("{}")

    counts = migrate_flat_layout(tmp_path)
    assert counts == {"migrated": 2, "skipped_existing": 0, "ignored": 1}
    assert not (tmp_path / f"{key_a}.json").exists()

    cache = ResultCache(tmp_path)
    assert cache.load(key_a) == {"kind": "flat-a"}
    assert cache.load(key_b) == {"kind": "flat-b"}
    # Migration is idempotent: nothing flat remains to move.
    assert migrate_flat_layout(tmp_path)["migrated"] == 0


def test_migrate_flat_layout_prefers_the_sharded_copy(tmp_path):
    key = "ee" + "2" * 62
    cache = ResultCache(tmp_path)
    cache.store(key, {"kind": "sharded"})
    (tmp_path / f"{key}.json").write_text('{"kind": "stale-flat"}')

    counts = migrate_flat_layout(tmp_path)
    assert counts["skipped_existing"] == 1
    assert not (tmp_path / f"{key}.json").exists()
    assert ResultCache(tmp_path).load(key) == {"kind": "sharded"}
