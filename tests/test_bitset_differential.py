"""Tests for the exhaustive (``exact``) mode and warm-started incumbents
of the bitset-native search engine.

Two contracts under test:

* ``VectorizerConfig(exact=True)`` appends an incumbent branch-and-bound
  pass seeded with the beam's solved state, so its final cost is never
  worse than the beam's anywhere, and on the tiny oracle kernels (where
  exhaustion is cheap) it equals ``optimal_cost`` exactly.
* ``VectorizerConfig(warm_start=True)`` may only change how much work
  the search does (``beam.warmstart_*`` and node counters) — packs and
  costs are identical to a cold run, whether the cached bound comes
  from the in-memory tier or the ``REPRO_WARM_CACHE_DIR`` disk tier.

The engine's own identity with the frozenset-keyed engine it replaced
is pinned by the pack goldens (``tests/golden/packs/``).
"""

import json
import os

import pytest

from repro.kernels import all_kernels
from repro.obs import Counters
from repro.obs.counters import COUNTER_NAMES
from repro.session import VectorizationSession
from repro.vectorizer.context import VectorizerConfig
from repro.vectorizer.warm import (
    WARM_CACHE_ENV,
    WarmCostCache,
    cost_model_key,
    warm_key,
)

from tests.pack_goldens import cell_record
from tests.test_optimal_oracle import TINY_KERNELS

ALL_TARGETS = ("sse4", "avx2", "avx512_vnni")


def _run(name, target, **config_kwargs):
    kernels = all_kernels()
    width = config_kwargs.setdefault("beam_width", 2)
    session = VectorizationSession(
        target=target, beam_width=width,
        config=VectorizerConfig(**config_kwargs),
    )
    counters = Counters()
    result = session.vectorize(kernels[name], counters=counters)
    return result, counters


# -- exact mode: never worse, optimal where provable -------------------


class TestExactMode:
    def test_exact_cost_never_worse_than_beam(self):
        """Exhaustion is seeded with the beam's incumbent, so its cost
        is bounded by the beam's even when the node budget stops the
        proof; checked across kernels and targets under a small budget
        to keep the matrix fast."""
        kernels = all_kernels()
        subset = ["complex_mul", "dsp_fft4", "dsp_chroma", "dotprod",
                  "isel_hadd_i16", "isel_pmaddwd", "opencv_int32x8",
                  "tvm_dot"]
        subset = [n for n in subset if n in kernels]
        violations = []
        for target in ALL_TARGETS:
            for name in subset:
                beam, _ = _run(name, target, beam_width=4)
                exact, counters = _run(name, target, beam_width=4,
                                       exact=True,
                                       exact_node_budget=5000)
                assert counters.get("beam.exact_runs") == 1
                if exact.cost.total > beam.cost.total + 1e-9:
                    violations.append(
                        f"{name}/{target}: exact {exact.cost.total} > "
                        f"beam {beam.cost.total}"
                    )
        assert not violations, "\n".join(violations)

    @pytest.mark.parametrize("name", ["pair_add", "hadd", "addsub"])
    def test_exact_matches_optimal_cost_on_tiny_kernels(self, name):
        """On the oracle kernels, the exact pass runs to exhaustion and
        must agree with ``optimal_cost`` to float equality: both now
        share one transition system and one cost-model path."""
        from tests.test_optimal_oracle import _context
        from repro.vectorizer.beam import select_packs
        from repro.vectorizer.optimal import optimal_cost

        optimum = optimal_cost(_context(TINY_KERNELS[name]))
        ctx = _context(TINY_KERNELS[name])
        ctx.config.exact = True
        counters = Counters()
        ctx.counters = counters
        _, cost = select_packs(ctx)
        assert counters.get("beam.exact_proved") == 1
        assert cost == pytest.approx(optimum)

    def test_budget_exhaustion_is_reported_not_silent(self):
        _, counters = _run("dsp_idct4", "sse4", beam_width=4,
                           exact=True, exact_node_budget=50)
        assert counters.get("beam.exact_budget_exhausted") == 1
        assert counters.get("beam.exact_proved") == 0

    def test_exact_counter_names_are_registered(self):
        for name in ("beam.exact_runs", "beam.exact_nodes",
                     "beam.exact_proved", "beam.exact_budget_exhausted",
                     "beam.exact_improvements", "beam.warmstart_hits",
                     "beam.warmstart_misses", "beam.warmstart_stops",
                     "beam.warmstart_prunes", "beam.heuristic_skips"):
            assert name in COUNTER_NAMES, name


# -- warm-started incumbents: identical output, less work --------------


class TestWarmStart:
    def test_warm_run_is_identical_to_cold(self, monkeypatch,
                                           tmp_path):
        """Cold then warm through the disk tier: identical packs and
        costs, with the warm run hitting the cache."""
        monkeypatch.setenv(WARM_CACHE_ENV, str(tmp_path))
        for name in ("complex_mul", "dsp_fft4", "isel_hadd_i16"):
            cold, cold_counters = _run(name, "sse4", beam_width=8,
                                       warm_start=True)
            assert cold_counters.get("beam.warmstart_misses") >= 1
            warm, warm_counters = _run(name, "sse4", beam_width=8,
                                       warm_start=True)
            assert warm_counters.get("beam.warmstart_hits") >= 1
            assert cell_record(cold) == cell_record(warm), name

    def test_warm_start_matches_warm_start_off(self, monkeypatch,
                                               tmp_path):
        """The warm-start contract: enabling the cache never changes
        packs or costs relative to a plain run."""
        monkeypatch.setenv(WARM_CACHE_ENV, str(tmp_path))
        for name in ("dsp_chroma", "opencv_int32x8"):
            plain, _ = _run(name, "avx2", beam_width=8)
            _run(name, "avx2", beam_width=8, warm_start=True)  # seed
            warm, _ = _run(name, "avx2", beam_width=8,
                           warm_start=True)
            assert cell_record(plain) == cell_record(warm), name

    def test_exact_warm_rerun_is_identical_and_proved(self, monkeypatch,
                                                      tmp_path):
        """A proved exact cost is a sound strict-prune bound for the
        rerun; the rerun must reproduce the same packs and its own
        proof."""
        monkeypatch.setenv(WARM_CACHE_ENV, str(tmp_path))
        kwargs = dict(beam_width=8, exact=True, warm_start=True)
        cold, cold_counters = _run("complex_mul", "sse4", **kwargs)
        assert cold_counters.get("beam.exact_proved") == 1
        warm, warm_counters = _run("complex_mul", "sse4", **kwargs)
        assert warm_counters.get("beam.exact_proved") == 1
        assert warm_counters.get("beam.warmstart_hits") >= 1
        assert cell_record(cold) == cell_record(warm)


# -- WarmCostCache unit behaviour --------------------------------------


class TestWarmCostCache:
    def test_memory_tier_roundtrip(self):
        cache = WarmCostCache()
        assert cache.get("k" * 64) is None
        cache.put("k" * 64, 12.5, proved=True)
        assert cache.get("k" * 64) == (12.5, True)

    def test_disk_tier_survives_memory_clear(self, tmp_path):
        cache = WarmCostCache(str(tmp_path))
        cache.put("a" * 64, 7.0, proved=False)
        cache.clear_memory()
        assert cache.get("a" * 64) == (7.0, False)

    def test_corrupt_disk_entry_is_evicted(self, tmp_path):
        cache = WarmCostCache(str(tmp_path))
        key = "b" * 64
        cache.put(key, 3.0)
        cache.clear_memory()
        path = cache.entry_path(key)
        with open(path, "w") as handle:
            handle.write("{not json")
        assert cache.get(key) is None
        assert not os.path.exists(path)

    def test_foreign_entry_under_key_is_rejected(self, tmp_path):
        cache = WarmCostCache(str(tmp_path))
        key = "c" * 64
        with open(cache.entry_path(key), "w") as handle:
            json.dump({"schema": "repro-warm-cache/v1",
                       "key": "d" * 64, "cost": 1.0,
                       "proved": False}, handle)
        assert cache.get(key) is None

    def test_key_covers_every_input(self):
        base = ("void f() {}", "sse4", "{}", "hash", "model")
        keys = {warm_key(*base)}
        for i in range(len(base)):
            changed = list(base)
            changed[i] = changed[i] + "x"
            keys.add(warm_key(*changed))
        assert len(keys) == len(base) + 1  # every input perturbs the key

    def test_cost_model_key_is_deterministic(self):
        class Model:
            def __init__(self):
                self.c_insert = 1.0
                self.c_shuffle = 2.0
                self._private = object()  # ignored

        assert cost_model_key(Model()) == cost_model_key(Model())
        other = Model()
        other.c_shuffle = 3.0
        assert cost_model_key(Model()) != cost_model_key(other)
