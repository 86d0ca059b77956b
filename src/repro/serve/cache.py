"""Content-addressed compile-result cache: memory LRU over a disk store.

The key is a SHA-256 over the four inputs that fully determine a
compile's output: the canonical IR text, the target name, the canonical
:class:`~repro.vectorizer.context.VectorizerConfig` serialization, and
the offline artifact's content hash (a regenerated artifact must never
serve results computed from the old one).  Values are the serialized
response-body bytes, so a hit replays the exact bytes a cold compile
produced.

Two tiers:

* an in-memory LRU (``OrderedDict``, bounded entry count) for the hot
  set — O(1) and shared by every request on the server's event loop;
* an on-disk store (one file per key, written atomically via rename)
  that survives restarts.  Every disk entry embeds a SHA-256 of its own
  body; a read that fails the hash (bit rot, torn write, deliberate
  fault injection) deletes the entry and reports a miss, so corruption
  degrades to a recompile instead of serving garbage.

The disk tier is size-capped via :mod:`repro.disklru`: set
``REPRO_SERVE_CACHE_LIMIT`` (bytes, optional K/M/G suffix) or pass
``disk_limit_bytes`` and every write evicts least-recently-used entries
(disk hits refresh recency) until the tier fits.  Unset means unbounded,
the historical behaviour.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from typing import Optional

from repro.disklru import enforce_disk_limit, limit_from_env, mark_used
from repro.obs.counters import NULL_COUNTERS
from repro.vectorizer.context import VectorizerConfig

#: Disk entry schema; bump on any breaking change.
CACHE_ENTRY_SCHEMA = "repro-serve-cache/v1"

#: Key-derivation version: bump to invalidate every existing key.  v2:
#: the canonical config lost its four retired search-engine knobs.
KEY_SCHEMA = "repro-serve-key/v2"

#: Environment variable capping the disk tier's total size in bytes
#: (optional K/M/G suffix); unset or empty means unbounded.
CACHE_LIMIT_ENV = "REPRO_SERVE_CACHE_LIMIT"


def cache_key(canonical_ir: str, target: str, config: VectorizerConfig,
              artifact_hash: str) -> str:
    """SHA-256 hex digest addressing one compile's result."""
    digest = hashlib.sha256()
    for part in (KEY_SCHEMA, canonical_ir, target,
                 config.canonical_json(), artifact_hash):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def current_artifact_hash() -> str:
    """The content hash of the offline phase feeding this process.

    When a fresh serialized artifact is loaded, this is its recorded
    ``spec_hash``; otherwise it is the hash of the live spec inventory —
    either way, regenerating the offline phase changes the value and
    therefore every cache key.
    """
    from repro.target.artifact import spec_content_hash

    return spec_content_hash()


class ResultCache:
    """Two-tier (memory LRU + disk) content-addressed byte cache."""

    def __init__(self, disk_dir: Optional[str] = None,
                 memory_entries: int = 1024,
                 disk_limit_bytes: Optional[int] = None):
        if memory_entries < 0:
            raise ValueError("memory_entries must be >= 0")
        self.disk_dir = disk_dir
        self.memory_entries = memory_entries
        # Explicit cap wins; otherwise the environment knob applies.
        self.disk_limit_bytes = (disk_limit_bytes
                                 if disk_limit_bytes is not None
                                 else limit_from_env(CACHE_LIMIT_ENV))
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        if disk_dir is not None:
            os.makedirs(disk_dir, exist_ok=True)

    # -- paths ----------------------------------------------------------

    def entry_path(self, key: str) -> Optional[str]:
        """Where ``key``'s disk entry lives (None without a disk tier).

        Public so the fault-injection harness can corrupt entries."""
        if self.disk_dir is None:
            return None
        return os.path.join(self.disk_dir, f"{key}.json")

    # -- core API ---------------------------------------------------------

    def get(self, key: str, counters=NULL_COUNTERS) -> Optional[bytes]:
        body = self._memory.get(key)
        if body is not None:
            self._memory.move_to_end(key)
            counters.inc("serve.cache_hits")
            counters.inc("serve.cache_memory_hits")
            return body
        body = self._disk_get(key, counters)
        if body is not None:
            self._memory_put(key, body, counters)
            counters.inc("serve.cache_hits")
            counters.inc("serve.cache_disk_hits")
            return body
        counters.inc("serve.cache_misses")
        return None

    def put(self, key: str, body: bytes,
            counters=NULL_COUNTERS) -> None:
        self._memory_put(key, body, counters)
        self._disk_put(key, body, counters)

    def __contains__(self, key: str) -> bool:
        path = self.entry_path(key)
        return key in self._memory or (
            path is not None and os.path.exists(path)
        )

    def __len__(self) -> int:
        return len(self._memory)

    def disk_entries(self) -> int:
        if self.disk_dir is None:
            return 0
        return sum(1 for name in os.listdir(self.disk_dir)
                   if name.endswith(".json"))

    def disk_size_bytes(self) -> int:
        """Total bytes held by the disk tier (0 without one)."""
        from repro.disklru import disk_tier_size

        return disk_tier_size(self.disk_dir)

    def clear_memory(self) -> None:
        """Drop the LRU tier (disk entries survive) — restart simulation."""
        self._memory.clear()

    # -- memory tier ------------------------------------------------------

    def _memory_put(self, key: str, body: bytes, counters) -> None:
        if self.memory_entries == 0:
            return
        self._memory[key] = body
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            counters.inc("serve.cache_evictions")

    # -- disk tier --------------------------------------------------------

    def _disk_get(self, key: str, counters) -> Optional[bytes]:
        path = self.entry_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                entry = json.loads(handle.read().decode("utf-8"))
            if entry.get("schema") != CACHE_ENTRY_SCHEMA:
                raise ValueError("bad schema")
            if entry.get("key") != key:
                raise ValueError("key mismatch")
            body = entry["body"].encode("utf-8")
            digest = hashlib.sha256(body).hexdigest()
            if digest != entry.get("body_sha256"):
                raise ValueError("body hash mismatch")
            # A hit is a use: refresh mtime so size-capped eviction
            # drops this entry last (the disk tier's move_to_end).
            mark_used(path)
            return body
        except (OSError, ValueError, KeyError, UnicodeDecodeError,
                AttributeError):
            # Corrupt, truncated, or foreign file under our key: evict
            # it so the next compile rewrites a good entry.
            counters.inc("serve.cache_corrupt_evictions")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def _disk_put(self, key: str, body: bytes,
                  counters=NULL_COUNTERS) -> None:
        path = self.entry_path(key)
        if path is None:
            return
        entry = {
            "schema": CACHE_ENTRY_SCHEMA,
            "key": key,
            "body_sha256": hashlib.sha256(body).hexdigest(),
            "body": body.decode("utf-8"),
        }
        data = json.dumps(entry, sort_keys=True).encode("utf-8")
        # Atomic publish: a reader never observes a half-written entry,
        # and a crash mid-write leaves only a stray .tmp file.
        fd, tmp = tempfile.mkstemp(dir=self.disk_dir,
                                   prefix=f".{key[:16]}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        evicted = enforce_disk_limit(self.disk_dir,
                                     self.disk_limit_bytes)
        if evicted:
            counters.inc("serve.cache_disk_evictions", evicted)
