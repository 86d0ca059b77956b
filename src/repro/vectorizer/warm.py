"""Content-addressed warm-start cost cache for pack selection.

A finished search's final cost is a pure function of the same inputs
that determine a compile's output — the canonical IR text, the target,
the canonical :class:`~repro.vectorizer.context.VectorizerConfig`, and
the offline artifact's content hash — plus the cost model, which the
serve cache can ignore (it is not a request input there) but a *cost*
cache cannot.  The key is a SHA-256 over all five, so a repeat compile
of the same function under the same settings can seed the incumbent
bound from the previous run's final cost and prune from step one.

Soundness is the warm-start contract proved in
:mod:`repro.vectorizer.beam`: the cached value is only ever used as an
*early-stop / strict-prune bound equal to the run's own final cost*, so
a hit changes node counts and ``beam.warmstart_*`` counters but never
the returned packs or cost (differential-tested in
``tests/test_bitset_differential.py``).  In the exact pass the cached
incumbent composes with the admissible matching bound (DESIGN.md §16):
a subtree is cut when its ``provable_total`` strictly exceeds the
proved warm bound, so a warm hit turns the cached *cost* into a proof
accelerator without ever excluding a ``provable_total <= bound`` path —
the first-found optimal state lives on such a path, keeping the
returned object identical.  A stale or wrong entry can
therefore at worst slow the search down or stop it at a worse-but-equal
bound it would have reached anyway — but keys cover every input, so
entries cannot go stale short of a hash collision.

Two tiers, mirroring :mod:`repro.serve.cache` in miniature: a
process-local dict (always on when ``config.warm_start`` is), and an
optional one-file-per-key disk store for cross-process reuse (bench
``--compare`` reruns), enabled by the ``REPRO_WARM_CACHE_DIR``
environment variable or an explicit directory.  The disk tier is
size-capped via :mod:`repro.disklru` (``REPRO_WARM_CACHE_LIMIT``,
bytes with optional K/M/G suffix): writes evict least-recently-used
entries, disk hits refresh recency, unset means unbounded.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, Optional, Tuple

from repro.disklru import enforce_disk_limit, limit_from_env, mark_used

#: Key-derivation version: bump to invalidate every existing key.  v2:
#: the canonical config lost its four retired search-engine knobs.
WARM_KEY_SCHEMA = "repro-warm-key/v2"

#: Disk entry schema; bump on any breaking change.
WARM_ENTRY_SCHEMA = "repro-warm-cache/v1"

#: Environment variable naming the optional disk tier directory.
WARM_CACHE_ENV = "REPRO_WARM_CACHE_DIR"

#: Environment variable capping the disk tier's total size in bytes
#: (optional K/M/G suffix); unset or empty means unbounded.
WARM_LIMIT_ENV = "REPRO_WARM_CACHE_LIMIT"


def warm_key(canonical_ir: str, target: str, canonical_config: str,
             artifact_hash: str, cost_model_key: str) -> str:
    """SHA-256 hex digest addressing one search's final cost."""
    digest = hashlib.sha256()
    for part in (WARM_KEY_SCHEMA, canonical_ir, target, canonical_config,
                 artifact_hash, cost_model_key):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def cost_model_key(model) -> str:
    """Deterministic serialization of a cost model's public knobs."""
    fields = {
        name: getattr(model, name)
        for name in sorted(vars(model))
        if not name.startswith("_")
    }
    return json.dumps(fields, sort_keys=True, default=repr,
                      separators=(",", ":"))


def context_warm_key(ctx) -> str:
    """The warm-cache key for one vectorization context's search.

    Computed from the context's *current* function text — pack
    selection runs after canonicalization, so this is the canonical IR,
    matching the serve cache's keying discipline."""
    from repro.ir.printer import print_function
    from repro.serve.cache import current_artifact_hash

    return warm_key(
        print_function(ctx.function),
        ctx.target.name,
        ctx.config.canonical_json(),
        current_artifact_hash(),
        cost_model_key(ctx.cost_model),
    )


class WarmCostCache:
    """Tiny two-tier (dict + optional disk) cost cache.

    Entries are ``(cost, proved)`` pairs: ``proved`` records whether the
    cost carried an optimality proof (an exhaustive pass that ran to
    completion).  Only proved costs may be used as strict-prune bounds
    in a later exhaustive pass — pruning at an unproved,
    budget-truncated cost could steer an equally-truncated rerun to a
    different incumbent, breaking warm/cold identity.  Unproved costs
    are still valid beam early-stop thresholds (the beam is
    deterministic, so its final cost is reproducible either way)."""

    def __init__(self, disk_dir: Optional[str] = None,
                 disk_limit_bytes: Optional[int] = None):
        self.disk_dir = disk_dir
        # Explicit cap wins; otherwise the environment knob applies.
        self.disk_limit_bytes = (disk_limit_bytes
                                 if disk_limit_bytes is not None
                                 else limit_from_env(WARM_LIMIT_ENV))
        #: Entries dropped by the size cap over this cache's lifetime.
        self.disk_evictions = 0
        self._memory: Dict[str, Tuple[float, bool]] = {}
        if disk_dir is not None:
            os.makedirs(disk_dir, exist_ok=True)

    def entry_path(self, key: str) -> Optional[str]:
        if self.disk_dir is None:
            return None
        return os.path.join(self.disk_dir, f"{key}.json")

    def get(self, key: str) -> Optional[Tuple[float, bool]]:
        value = self._memory.get(key)
        if value is not None:
            return value
        path = self.entry_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                entry = json.load(handle)
            if entry.get("schema") != WARM_ENTRY_SCHEMA or \
                    entry.get("key") != key:
                raise ValueError("bad warm cache entry")
            value = (float(entry["cost"]), bool(entry["proved"]))
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt or foreign file under our key: evict and miss.
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        # A hit is a use: refresh mtime so size-capped eviction drops
        # this entry last.
        mark_used(path)
        self._memory[key] = value
        return value

    def put(self, key: str, cost: float, proved: bool = False) -> None:
        self._memory[key] = (cost, proved)
        path = self.entry_path(key)
        if path is None:
            return
        entry = {"schema": WARM_ENTRY_SCHEMA, "key": key, "cost": cost,
                 "proved": proved}
        data = json.dumps(entry, sort_keys=True).encode("utf-8")
        # Atomic publish, same discipline as the serve cache's disk tier.
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
        self.disk_evictions += enforce_disk_limit(self.disk_dir,
                                                  self.disk_limit_bytes)

    def clear_memory(self) -> None:
        self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)


_default_cache: Optional[WarmCostCache] = None
_default_cache_env: Optional[Tuple[Optional[str], Optional[str]]] = None


def default_warm_cache() -> WarmCostCache:
    """The process-wide cache (disk tier from ``REPRO_WARM_CACHE_DIR``,
    size cap from ``REPRO_WARM_CACHE_LIMIT``).

    Rebuilt if either environment variable changes between calls (tests
    point them at temp dirs / small caps)."""
    global _default_cache, _default_cache_env
    disk_dir = os.environ.get(WARM_CACHE_ENV) or None
    env = (disk_dir, os.environ.get(WARM_LIMIT_ENV) or None)
    if _default_cache is None or env != _default_cache_env:
        _default_cache = WarmCostCache(disk_dir)
        _default_cache_env = env
    return _default_cache
