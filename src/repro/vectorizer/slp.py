"""The SLP-heuristic cost recurrence (Figure 7).

``cost_slp(v)`` decides whether a vector operand ``v`` is cheaper to
produce directly via a producer pack (recursively costing the pack's own
operands) or by inserting scalar elements::

    cost_slp(v) = min( min_{p in producers(v)} cost_op(p)
                                  + sum_i cost_slp(operand_i(p)),
                       C_insert * |v| + cost_scalar(v) )

``cost_scalar(v)`` is the total cost of producing v's values and all their
in-block dependencies with scalar instructions; we compute it exactly as a
popcount over dependence-closure bitsets.

This estimator is both the state-evaluation function for beam search
(§5.2) and — through :meth:`best_producer` — the pack-choosing rule of the
plain SLP heuristic.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.ir.instructions import LoadInst
from repro.ir.values import Constant
from repro.vectorizer.context import VectorizationContext
from repro.vectorizer.pack import (
    ComputePack,
    LoadPack,
    OperandVector,
    Pack,
    operand_key,
)
from repro.vectorizer.producers import producers_for_operand
from repro.vidl.interp import DONT_CARE

INFINITY = math.inf


class SLPCostEstimator:
    def __init__(self, ctx: VectorizationContext):
        self.ctx = ctx
        self.model = ctx.cost_model
        self._memo: Dict[Tuple, float] = {}
        self._choice: Dict[Tuple, Optional[Pack]] = {}
        self._in_progress: set = set()
        # Per-instruction scalar cost vector, aligned with the dependence
        # graph's instruction indexing.
        self._inst_costs = [
            self.model.scalar_cost(inst)
            for inst in ctx.dep_graph.instructions
        ]
        self._bits_cost_memo: Dict[int, float] = {}
        # 64-bit-chunk subtotal memo for cost_of_bits.  Chunk subtotals
        # re-associate the float sum, so the fast path is only taken when
        # every per-instruction cost is integral (the default model; sums
        # of modest integers are exact in either association) — a model
        # with fractional costs falls back to the strict low-to-high loop.
        self._word_cost_memo: Dict[Tuple[int, int], float] = {}
        self._integral_costs = all(
            float(c).is_integer() for c in self._inst_costs
        )
        self._slice_bits_memo: Dict[Tuple, int] = {}

    # -- scalar slice costs ----------------------------------------------------

    def scalar_slice_bits(self, values) -> int:
        """Bitset of instructions in the union of backward slices.

        Memoized on the operand key: the beam heuristic asks for the
        same slices millions of times across states (it was the single
        hottest call in the PR 2 perf trajectory).  Tuples go through
        the context's id-keyed operand_key cache, so the steady-state
        lookup is two dict probes with no key construction.
        """
        if type(values) is tuple:
            key = self.ctx.operand_key_of(values)
        else:
            key = operand_key(tuple(values))
        bits = self._slice_bits_memo.get(key)
        if bits is None:
            bits = self._compute_slice_bits(values)
            self._slice_bits_memo[key] = bits
        return bits

    def _compute_slice_bits(self, values) -> int:
        dg = self.ctx.dep_graph
        index_of = dg._index.get
        closures = dg._closure
        bits = 0
        for value in values:
            if value is DONT_CARE or isinstance(value, Constant):
                continue
            i = index_of(id(value))
            if i is None:
                continue
            bits |= closures[i] | (1 << i)
        return bits

    def cost_of_bits(self, bits: int) -> float:
        cached = self._bits_cost_memo.get(bits)
        if cached is not None:
            return cached
        if self._integral_costs:
            # Per-64-bit-chunk subtotals: the beam heuristic asks for
            # millions of distinct masks, but their chunks repeat, so
            # the steady state is a handful of dict probes per mask
            # instead of one loop iteration per set bit.
            total = 0.0
            remaining = bits
            word = 0
            memo = self._word_cost_memo
            costs = self._inst_costs
            while remaining:
                chunk = remaining & 0xFFFFFFFFFFFFFFFF
                if chunk:
                    key = (word, chunk)
                    sub = memo.get(key)
                    if sub is None:
                        sub = 0.0
                        base = word * 64
                        rem = chunk
                        while rem:
                            index = (rem & -rem).bit_length() - 1
                            sub += costs[base + index]
                            rem &= rem - 1
                        memo[key] = sub
                    total += sub
                remaining >>= 64
                word += 1
        else:
            total = 0.0
            remaining = bits
            while remaining:
                index = (remaining & -remaining).bit_length() - 1
                total += self._inst_costs[index]
                remaining &= remaining - 1
        self._bits_cost_memo[bits] = total
        return total

    def cost_scalar(self, values) -> float:
        """cost_scalar(v): produce the values and their deps scalar-only."""
        return self.cost_of_bits(self.scalar_slice_bits(values))

    # -- pack op costs --------------------------------------------------------------

    def pack_op_cost(self, pack: Pack) -> float:
        if isinstance(pack, LoadPack):
            return self.model.c_vector_load
        if isinstance(pack, ComputePack):
            return pack.inst.cost
        return self.model.c_vector_store

    # -- the Figure 7 recurrence ------------------------------------------------------

    def cost_slp(self, operand: OperandVector) -> float:
        key = self.ctx.operand_key_of(operand)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            return INFINITY  # cyclic resolution: treat as unproducible
        self._in_progress.add(key)
        try:
            cost, choice = self._solve(operand)
        finally:
            self._in_progress.discard(key)
        self._memo[key] = cost
        self._choice[key] = choice
        return cost

    def _solve(self, operand: OperandVector
               ) -> Tuple[float, Optional[Pack]]:
        real = [v for v in operand
                if v is not DONT_CARE and v.__class__ is not Constant]
        if not real:
            # A constant (or empty) vector: materialized directly.
            return self.model.c_vector_const, None
        model = self.model
        best = model.c_insert * len(operand) + self.cost_scalar(operand)
        # §6.2: special-case shuffle patterns override the default model.
        distinct = {id(v): v for v in real}
        if len(distinct) == 1:
            # Broadcast: one scalar plus a splat.
            best = min(best,
                       self.cost_scalar(real[:1]) + model.c_broadcast)
        runs = _contiguous_load_runs(list(distinct.values()),
                                     self.ctx.dep_graph)
        if runs == 1:
            best = min(best, model.c_vector_load + model.c_permute)
        elif runs == 2:
            best = min(best, 2 * model.c_vector_load
                       + model.c_two_source_shuffle)
        best_pack: Optional[Pack] = None
        producers = producers_for_operand(operand, self.ctx)
        if producers:
            # The recursion's memo probe, inlined: a solved sub-operand
            # costs two dict lookups instead of a frame (the Figure 7
            # recurrence revisits the same sub-operands constantly once
            # the rollout policy queries it per beam state).
            memo_get = self._memo.get
            key_of = self.ctx.operand_key_of
            load_cost = model.c_vector_load
            store_cost = model.c_vector_store
            for pack in producers:
                cls = pack.__class__
                cost = (pack.inst.cost if cls is ComputePack
                        else load_cost if cls is LoadPack
                        else store_cost)
                for sub in pack.operands():
                    sub_cost = memo_get(key_of(sub))
                    if sub_cost is None:
                        sub_cost = self.cost_slp(sub)
                    cost += sub_cost
                    if cost >= best:
                        break
                if cost < best:
                    best = cost
                    best_pack = pack
        return best, best_pack

    def best_producer(self, operand: OperandVector) -> Optional[Pack]:
        """The pack chosen by the Figure 7 recurrence (None = insert/scalar
        path)."""
        self.cost_slp(operand)
        return self._choice.get(self.ctx.operand_key_of(operand))


def _contiguous_load_runs(values, dep_graph) -> int:
    """If the (distinct) values are all loads of one buffer, the number of
    contiguous offset runs they form (1 = producible as vector load +
    permute, 2 = two loads + a two-source shuffle); 0 if not loads.

    Access locations come from the dependence graph's build-time cache
    rather than re-walking GEP chains per query."""
    if len(values) < 2:
        return 0
    offsets = []
    base0 = None
    location_of = dep_graph.access_location
    for value in values:
        if not isinstance(value, LoadInst):
            return 0
        base, offset = location_of(value)
        if base is None:
            return 0
        if base0 is None:
            base0 = base
        elif base is not base0:
            return 0
        offsets.append(offset)
    offsets.sort()
    runs = 1
    for prev, cur in zip(offsets, offsets[1:]):
        if cur != prev + 1:
            runs += 1
    return runs
