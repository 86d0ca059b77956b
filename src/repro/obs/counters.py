"""Pipeline counters: how much work each vectorization stage did.

A :class:`Counters` object is a flat named-integer registry attached to
:class:`repro.vectorizer.context.VectorizationContext`.  Like tracing,
counting is off by default: the pipeline uses the :data:`NULL_COUNTERS`
singleton whose ``inc`` is a no-op, so hot loops (producer enumeration,
match-table lookups) pay one cheap method call when observability is
disabled.

Counter names are a stable, tested contract — see :data:`COUNTER_NAMES`.
They are namespaced by stage: ``beam.*`` for the Figure 9 search,
``producers.*`` for Algorithm 1, ``matcher.*`` for §4.3 pattern matching,
``seeds.*`` for Figure 8 seed enumeration, ``codegen.*`` for §4.5
lowering, and ``sanitizer.*`` for the repro.analysis suite.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple

#: The stable counter-name contract.  Every ``inc()`` in the pipeline
#: uses one of these names; renaming an entry is a breaking change to
#: the ``BENCH_*.json`` trajectory and must be deliberate.
COUNTER_NAMES = frozenset({
    # pass manager (repro.passes)
    "passes.runs",                  # passes executed by PassPipeline.run
    "passes.analysis_reuses",       # required analyses served from cache
    "passes.analysis_invalidations",  # cached analyses dropped by a
                                      # non-preserving pass
    # canonicalization (the worklist instcombine)
    "canon.worklist_pushes",      # instructions enqueued on the worklist
    "canon.rewrites",             # rewrites applied (replace + in-place)
    # beam search (§5.2, Figure 9)
    "beam.iterations",            # outer search iterations run
    "beam.states_expanded",       # parent states passed to expand()
    "beam.children_generated",    # child states produced by expand()
    "beam.candidates_pruned",     # scored children cut by the beam width
    "beam.rollouts",              # greedy SLP rollout completions
    "beam.solved_improvements",   # times the incumbent solution improved
    "beam.tt_hits",               # re-derived states dropped by the
                                  # transposition table
    "beam.incumbent_prunes",      # children/parents/rollouts dropped
                                  # because g already met the incumbent
    "beam.apply_reject_hits",     # pack applications rejected from the
                                  # masked feasibility memo
    "beam.seed_skips",            # seed packs skipped by the liveness
                                  # index before _apply_pack
    "beam.heuristic_skips",       # children scored by g alone: g already
                                  # above the running kth-best f, so the
                                  # heuristic call is provably redundant
    # admissible matching bound (repro.vectorizer.bounds)
    "beam.bound_evals",           # lower-bound evaluations computed
    "beam.bound_prunes",          # exhaustive branches cut because
                                  # g + lb met the incumbent (or
                                  # exceeded the proved warm bound)
    "beam.bound_heuristic_skips",  # children deferred without a
                                   # heuristic call: g + lb already
                                   # above the running kth-best f
    "beam.bound_rollout_stops",   # rollouts stopped because g + lb met
                                  # the incumbent mid-walk
    "beam.bound_completion_skips",  # deferred completions skipped:
                                    # g + lb met the incumbent
    "beam.bound_dominance_cuts",  # exhaustive states cut by the
                                  # dominance memo (same S/F, V-superset
                                  # of a seen state at <= cost)
    # exhaustive branch-and-bound (config.exact)
    "beam.exact_runs",            # exhaustive passes started
    "beam.exact_nodes",           # states visited by the exhaustive DFS
    "beam.exact_proved",          # passes that ran to exhaustion (the
                                  # returned cost is provably optimal)
    "beam.exact_budget_exhausted",  # passes stopped by exact_node_budget
                                    # (incumbent returned, no proof)
    "beam.exact_improvements",    # times exhaustion beat the beam's cost
    # warm-started incumbents (config.warm_start)
    "beam.warmstart_hits",        # warm cost cache lookups that hit
    "beam.warmstart_misses",      # ... that missed
    "beam.warmstart_stops",       # beam loops stopped early at the
                                  # warm-cached final cost
    "beam.warmstart_prunes",      # exhaustive branches cut by the warm
                                  # bound (strictly above it)
    # search-layer memoization (SLP estimator + heuristic)
    "slp.estimate_hits",          # memoized completion-cost lookups
    # producer enumeration (Algorithm 1)
    "producers.cache_hits",       # memoized operand lookups served
    "producers.cache_misses",     # operand enumerations actually run
    "producers.packs_enumerated",  # producer packs built in total
    # pattern matching (§4.3)
    "matcher.table_lookups",      # match-table cell lookups
    "matcher.roots_tried",        # (value, operation) match attempts
    "matcher.matches_found",      # successful matches recorded
    # seed enumeration (Figure 8)
    "seeds.store_packs",          # contiguous store seed packs
    "seeds.affinity_packs",       # affinity seed packs (§5.1 top-k)
    # code generation (§4.5)
    "codegen.packs_lowered",      # packs emitted as vector nodes
    "codegen.scalars_emitted",    # surviving scalar instructions
    "codegen.gathers_emitted",    # operand vectors nothing produced
    "codegen.extracts_emitted",   # packed values also needed as scalars
    # sanitizers (repro.analysis)
    "sanitizer.diagnostics",      # total diagnostics reported
    "sanitizer.errors",           # error-severity diagnostics
    "sanitizer.warnings",         # warning-severity diagnostics
    # compile server (repro.serve)
    "serve.requests",             # compile requests accepted for parsing
    "serve.cache_hits",           # responses served from the result cache
    "serve.cache_memory_hits",    # ... from the in-memory LRU tier
    "serve.cache_disk_hits",      # ... from the on-disk store
    "serve.cache_misses",         # requests that had to compile
    "serve.cache_evictions",      # LRU entries dropped by capacity
    "serve.cache_disk_evictions",  # disk entries dropped by the size
                                   # cap (REPRO_SERVE_CACHE_LIMIT)
    "serve.cache_corrupt_evictions",  # disk entries failing their body
                                      # hash, deleted and recompiled
    "serve.compiles",             # compiles completed by the worker pool
    "serve.batches",              # worker batches dispatched
    "serve.batched_requests",     # requests that rode a multi-item batch
    "serve.rejected",             # requests rejected by backpressure (429)
    "serve.timeouts",             # requests cancelled at their deadline
    "serve.worker_crashes",       # workers observed dead mid-request
    "serve.worker_respawns",      # replacement workers started
    "serve.errors",               # structured error responses (4xx/5xx)
    # translation validation (repro.analysis.transval)
    "transval.runs",              # validation runs started
    "transval.goals",             # equivalence goals discharged
    "transval.proved.structural",  # closed by simplify + canonical form
    "transval.proved.knownbits",  # closed by known-bits clamp folding
    "transval.proved.enum",       # closed by exhaustive enumeration
    "transval.enumerated",        # goals that entered the enumeration tier
    "transval.sampled",           # goals only validated by sampling
    "transval.failures",          # goals disproved (miscompile found)
})


class Counters:
    """A flat, mergeable registry of named integer counters."""

    enabled = True

    __slots__ = ("_data",)

    def __init__(self, initial: Mapping[str, int] = ()):
        self._data: Dict[str, int] = dict(initial)

    def inc(self, name: str, amount: int = 1) -> None:
        self._data[name] = self._data.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._data.get(name, 0)

    def __getitem__(self, name: str) -> int:
        return self._data.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._data.items()))

    def __len__(self) -> int:
        return len(self._data)

    def merge(self, other: "Counters") -> "Counters":
        """Add another registry's counts into this one (in place)."""
        for name, value in other._data.items():
            self._data[name] = self._data.get(name, 0) + value
        return self

    def as_dict(self) -> Dict[str, int]:
        return dict(sorted(self._data.items()))

    def clear(self) -> None:
        self._data.clear()

    def __repr__(self) -> str:
        return f"Counters({self.as_dict()!r})"


class NullCounters(Counters):
    """Off-by-default counters: ``inc`` does nothing, reads return 0."""

    enabled = False

    def inc(self, name: str, amount: int = 1) -> None:
        return None

    def merge(self, other: "Counters") -> "Counters":
        return self


#: Shared no-op registry used by the pipeline when counting is off.
NULL_COUNTERS = NullCounters()
