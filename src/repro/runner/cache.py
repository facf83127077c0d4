"""Content-addressed caches of simulation results (memory and shard tiers).

Entries are keyed by the SHA-256 digest of the job's canonical identity
(machine config + scheme + workload fingerprint + engine options +
:data:`~repro.core.engine.ENGINE_VERSION`) and hold the *full* JSON
serialization of the result in its canonical encoding
(:func:`~repro.analysis.serialization.canonical_json`), so a cache
replay reconstructs the exact simulated
:class:`~repro.core.results.SimulationResult` the original run produced,
and the stored bytes are the bytes a result's digest is taken over.

The stack is layered:

* :class:`MemoryResultCache` — a bounded in-process LRU of serialized
  payload *bytes*, each kept with its SHA-256 digest (computed once, as
  the entry enters the tier). It stores bytes rather than decoded dicts
  because payload deserialization
  (:func:`~repro.runner.runner.result_from_payload`) mutates its input;
  handing every replay a fresh ``json.loads`` of the stored bytes keeps
  hits side-effect-free and bit-identical.
* :class:`ShardedResultCache` — the shared tier: payload-level
  load/store semantics over a pluggable :class:`CacheBackend` byte
  store. The default :class:`DirectoryBackend` shards entries into
  2-hex-prefix subdirectories (256 shards) with atomic writes, so
  concurrent sweep workers, multiple service frontends, and unrelated
  processes can all share one cache directory (local or NFS) safely; a
  corrupt or truncated entry is treated as a miss and overwritten.
  Alternative backends (an object store, a remote cache daemon) only
  need the four :class:`CacheBackend` methods.
* :class:`ResultCache` — the historical name for the directory-backed
  shared tier; now a thin :class:`ShardedResultCache` subclass kept for
  compatibility (``root``/``path_for`` preserved).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Protocol, runtime_checkable

#: Environment variable overriding the default cache location.
CACHE_ENV_VAR = "REPRO_TLS_CACHE"
#: Default cache directory (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Cache keys are opaque lowercase-hex strings (SHA-256 digests in
#: practice). :class:`DirectoryBackend` enforces this before touching
#: the filesystem so a hostile key (``../``, an absolute path) can never
#: escape the cache root, whatever layer it arrived through.
_SAFE_KEY_RE = re.compile(r"[0-9a-f]+")

#: Width of the shard prefix: ``key[:SHARD_PREFIX_LEN]`` names the shard.
#: Two hex characters give 256 shards, keeping any one directory small
#: even for corpora of hundreds of thousands of entries. Part of the
#: on-disk layout contract — changing it would orphan existing entries.
SHARD_PREFIX_LEN = 2


def default_cache_root() -> Path:
    """The cache directory honoring :data:`CACHE_ENV_VAR`."""
    return Path(os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR))


def shard_of(key: str) -> str:
    """The shard a key lives in (its first :data:`SHARD_PREFIX_LEN` chars).

    Keys are SHA-256 hex digests, so the prefix distributes uniformly
    across the 256 shards by construction.
    """
    return key[:SHARD_PREFIX_LEN]


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache instance."""
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def to_dict(self) -> dict[str, int]:
        """JSON-ready counter snapshot (for ``/v1/cache/stats``)."""
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "evictions": self.evictions}


def canonical_payload_digest(raw: bytes) -> str:
    """SHA-256 of a stored payload's bytes.

    Stored bytes are canonical
    (:func:`~repro.analysis.serialization.canonical_json`), so this is the
    same digest whether the result was computed here, by a CLI run, by a
    service frontend, or by a fleet worker on another host (the digest
    every fleet result envelope and every HTTP envelope carries). For a
    result without metrics it equals the SHA-256 of
    :func:`~repro.analysis.serialization.canonical_result_bytes`.
    """
    return hashlib.sha256(raw).hexdigest()


#: Default entry bound for the in-memory tier. A full paper sweep is a
#: few hundred cells; payloads are tens of KB, so this stays modest.
DEFAULT_MEMORY_ENTRIES = 256


class MemoryResultCache:
    """Bounded in-process LRU tier holding serialized payload bytes.

    ``load``/``store`` speak ``bytes`` (canonical JSON); the runner
    decodes on every hit so no caller can mutate another caller's
    payload. Each entry keeps the SHA-256 of its bytes, computed once on
    :meth:`store`, so serving a digest (:meth:`digest`) never hashes. A
    hit refreshes recency; capacity overflow evicts the least recently
    used entry and counts it in :attr:`stats.evictions
    <CacheStats.evictions>`.
    """

    def __init__(self, max_entries: int = DEFAULT_MEMORY_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, tuple[bytes, str]] = OrderedDict()
        self.stats = CacheStats()

    def load(self, key: str) -> bytes | None:
        """The stored payload bytes for ``key`` (refreshes LRU recency)."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry[0]

    def digest(self, key: str) -> str | None:
        """The SHA-256 hex digest of ``key``'s bytes, if resident.

        No recency refresh and no hit accounting: callers ask for the
        digest of an entry they just loaded.
        """
        entry = self._entries.get(key)
        return entry[1] if entry is not None else None

    def store(self, key: str, raw: bytes) -> None:
        """Insert (or refresh) ``key``; evicts the LRU entry when full.

        The entry's digest is computed here, once per stored entry.
        """
        digest = canonical_payload_digest(raw)
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            entries[key] = (raw, digest)
            return
        entries[key] = (raw, digest)
        self.stats.stores += 1
        if len(entries) > self.max_entries:
            entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> int:
        """Drop every entry; returns the number removed."""
        removed = len(self._entries)
        self._entries.clear()
        return removed

    def keys(self) -> list[str]:
        """Resident keys, least recently used first."""
        return list(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


# ----------------------------------------------------------------------
# Pluggable shared-tier backends
# ----------------------------------------------------------------------
@runtime_checkable
class CacheBackend(Protocol):
    """Byte-store protocol behind :class:`ShardedResultCache`.

    A backend maps content-address keys to opaque byte blobs. The
    contract is deliberately small so a shared tier can be anything —
    the default local/NFS directory layout, an object store, a remote
    cache daemon — as long as:

    * ``put`` is atomic per key (readers never observe a torn write);
    * ``get`` returns ``None`` for anything absent or unreadable; and
    * keys are opaque hex strings (backends may shard on
      :func:`shard_of` but must not otherwise interpret them).
    """

    def get(self, key: str) -> bytes | None:
        """The stored bytes for ``key``, or ``None`` on a miss."""
        ...

    def put(self, key: str, raw: bytes) -> None:
        """Atomically persist ``raw`` under ``key`` (overwrite allowed)."""
        ...

    def keys(self) -> Iterable[str]:
        """Every stored key (order unspecified)."""
        ...

    def delete(self, key: str) -> bool:
        """Remove ``key`` if present; returns whether it existed."""
        ...


class DirectoryBackend:
    """The default :class:`CacheBackend`: a 2-hex-prefix sharded directory.

    Entry ``<key>`` lives at ``<root>/<key[:2]>/<key>.json``; 256 shard
    subdirectories keep listings fast at corpus scale, and the layout is
    stable across releases so a warm directory can be mounted (NFS or
    volume-shared) behind many service frontends at once. Writes are
    atomic (temp file + ``os.replace`` within the shard), so concurrent
    writers — pool workers, other hosts — can share the root safely.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """Entry path: ``<root>/<shard>/<key>.json``.

        Raises :class:`ValueError` for anything but a lowercase-hex
        key: path characters in a key would otherwise let the joined
        path escape ``root`` (``..`` components, or a leading ``/``
        making :class:`~pathlib.Path` discard the root outright).
        """
        if _SAFE_KEY_RE.fullmatch(key) is None:
            raise ValueError(
                f"invalid cache key {key!r}: keys are lowercase hex digests")
        return self.root / shard_of(key) / f"{key}.json"

    def get(self, key: str) -> bytes | None:
        """Read an entry's bytes; any I/O problem — or an invalid,
        path-shaped key — is a miss."""
        try:
            return self.path_for(key).read_bytes()
        except (OSError, ValueError):
            return None

    def put(self, key: str, raw: bytes) -> None:
        """Atomically write ``raw`` (temp file + rename in the shard)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(raw)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def keys(self) -> list[str]:
        """Every stored key, by scanning the shard directories."""
        if not self.root.exists():
            return []
        glob = "?" * SHARD_PREFIX_LEN + "/*.json"
        return [path.stem for path in self.root.glob(glob)]

    def delete(self, key: str) -> bool:
        """Unlink one entry; missing, unremovable, or invalid-key
        counts as absent."""
        try:
            self.path_for(key).unlink()
            return True
        except (OSError, ValueError):
            return False

    def describe(self) -> str:
        """Human-readable backend location (for stats endpoints)."""
        return f"directory:{self.root}"


class ShardedResultCache:
    """The shared result tier: payload semantics over a byte backend.

    Reads return the stored bytes with their decoded payload
    (:meth:`load_entry` — the path the sweep runner, the service and
    fleet workers use) or the payload alone (:meth:`load`); writes take
    a payload (:meth:`store`) or already-serialized bytes
    (:meth:`store_raw`). A corrupt entry (unreadable bytes or invalid
    JSON) is a miss, so it is never served or promoted; the next store
    overwrites it. All hit/miss/store accounting lives here,
    backend-independent.
    """

    def __init__(self, backend: CacheBackend) -> None:
        self.backend = backend
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def load_entry(self, key: str) -> tuple[bytes, dict[str, Any]] | None:
        """The stored bytes for ``key`` and their decoded payload.

        Bytes that do not decode to a JSON object (a torn or foreign
        file) are a miss, so no caller serves or promotes them.
        """
        raw = self.backend.get(key)
        if raw is not None:
            try:
                payload = json.loads(raw)
            except ValueError:  # JSONDecodeError, UnicodeDecodeError
                payload = None
            if isinstance(payload, dict):
                self.stats.hits += 1
                return raw, payload
        self.stats.misses += 1
        return None

    def load(self, key: str) -> dict[str, Any] | None:
        """The decoded payload for ``key``; invalid JSON is a miss."""
        entry = self.load_entry(key)
        return entry[1] if entry is not None else None

    def store(self, key: str, payload: dict[str, Any]) -> None:
        """Atomically persist ``payload`` under ``key`` (canonical bytes)."""
        from repro.analysis.serialization import canonical_json

        self.store_raw(key, canonical_json(payload))

    def store_raw(self, key: str, raw: bytes) -> None:
        """Atomically persist already-serialized JSON ``raw`` under ``key``.

        Zero-copy path for the sweep runner, whose workers ship payloads
        as serialized bytes: the bytes land in the backend without a
        decode / re-encode round trip.
        """
        self.backend.put(key, raw)
        self.stats.stores += 1

    # ------------------------------------------------------------------
    def keys(self) -> list[str]:
        """Every stored key (order unspecified)."""
        return list(self.backend.keys())

    def __contains__(self, key: str) -> bool:
        return self.backend.get(key) is not None

    def __len__(self) -> int:
        return len(self.keys())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for key in self.keys():
            if self.backend.delete(key):
                removed += 1
        return removed

    def describe(self) -> str:
        """Human-readable tier description (for stats endpoints)."""
        describe = getattr(self.backend, "describe", None)
        if describe is not None:
            return str(describe())
        return type(self.backend).__name__


def migrate_flat_layout(root: str | Path) -> dict[str, int]:
    """One-shot migration of a pre-shard flat cache into shard layout.

    Releases before the sharded tier stored entries as
    ``<root>/<key>.json`` directly; the sharded layout looks for
    ``<root>/<key[:2]>/<key>.json``, so a flat directory silently
    re-misses every warm entry. This moves each top-level
    ``<hex key>.json`` into its shard (atomic ``os.replace`` within one
    filesystem). An entry that already exists in the shard layout wins:
    the stale flat duplicate is deleted, not copied over it. Non-entry
    files (wrong name shape) are left untouched and counted.

    Returns counters: ``migrated``, ``skipped_existing``, ``ignored``.
    Exposed as ``repro-tls cache migrate``.
    """
    root = Path(root)
    counts = {"migrated": 0, "skipped_existing": 0, "ignored": 0}
    if not root.is_dir():
        return counts
    for path in sorted(root.glob("*.json")):
        key = path.stem
        if _SAFE_KEY_RE.fullmatch(key) is None or not path.is_file():
            counts["ignored"] += 1
            continue
        dest = root / shard_of(key) / f"{key}.json"
        if dest.exists():
            path.unlink()
            counts["skipped_existing"] += 1
            continue
        dest.parent.mkdir(parents=True, exist_ok=True)
        os.replace(path, dest)
        counts["migrated"] += 1
    return counts


class ResultCache(ShardedResultCache):
    """The directory-backed shared tier under its historical name.

    ``ResultCache(root)`` is exactly
    ``ShardedResultCache(DirectoryBackend(root))`` with the ``root`` and
    ``path_for`` accessors earlier releases exposed.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        root = Path(root) if root is not None else default_cache_root()
        super().__init__(DirectoryBackend(root))
        self.root = root

    def path_for(self, key: str) -> Path:
        """Entry path, sharded by the first key byte to keep dirs small."""
        return self.backend.path_for(key)  # type: ignore[attr-defined]
