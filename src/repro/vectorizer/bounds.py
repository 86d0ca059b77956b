"""Admissible lower bounds for the Figure 9 search.

:class:`MatchingLowerBound` maps a search state ``(V, S, F)`` to a cost
``lb`` with ``lb <= cost of every completion of the state`` — a *true*
lower bound, unlike the Figure 7 SLP heuristic ``h`` (which estimates a
particular completion and is only an upper-bound-ish guide).  Soundness
turns incumbent pruning from "drop states whose sunk cost ``g`` already
meets the incumbent" into "drop states whose provable total ``g + lb``
does", which is what lets the exhaustive pass prove optimality on the
heavy kernels inside the node budget (DESIGN.md §16 has the full
derivation).

The relaxation
--------------

Every completion must still *decide* (pack-produce or scalar-fix) each
instruction the state provably needs:

* the **core** — ``(S | obits(V)) & F``: scalars still owed plus every
  lane of every live vector operand.  Core members can never be dropped
  as dead interiors (``_drop_dead_covered`` skips exactly the
  ``scalars | operand-bits`` set), so each will be decided.
* the **forced closure** — dependencies a decision is guaranteed to pull
  into ``S`` or ``V`` no matter *how* their user is decided: all in-graph
  operands of a scalar fix, the non-coverable operands of a pack-produced
  value (a coverable operand may instead be matched away as a dead
  interior), the stored-value operand of a store.  Address chains behind
  vector-coverable loads/stores are excluded — a ``LoadPack``/
  ``StorePack`` orphans its address computation entirely.

Each needed instruction ``i`` is charged the cheapest cost any decision
could attribute to it, with all pack/lane conflicts relaxed away:

* ``amort(i)`` — the cheapest *amortized* pack production:
  ``min over candidate vinsts of cost / num_lanes`` for compute values
  (candidates: vector instructions with a lane token matching one of
  ``i``'s match-table tokens), ``c_vector_load / run_len(i)`` for loads
  and ``c_vector_store / min(max_lanes, run_len(i))`` for stores
  (``run_len`` = the maximal contiguous same-base access run — no pack
  can span more, so no pack amortizes better).
The charge depends on which sets prove the instruction needed, because
each set guarantees different surcharges.  A lane ``i`` of a live
operand stays in some live operand until the very transition that
decides it, and ``_apply_scalar_fix`` charges ``c_insert`` per
occurrence in live operands — so an operand lane that ends up scalar
provably pays the insert on top of its scalar cost.  Likewise a member
of ``S`` that ends up pack-produced pays ``c_extract`` in
``_apply_pack``:

* ``lb0(i) = min(scalar, amort)`` — forced-closure members (they will
  enter ``S`` or ``V``, but which one is not guaranteed);
* ``lbS(i) = min(scalar, amort + c_extract)`` — in ``S`` only;
* ``lbV(i) = min(scalar + c_insert, amort)`` — an operand lane not in
  ``S``;
* ``lbSV(i) = min(scalar + c_insert, amort + min(c_extract, scalar))``
  — in both (the extract arm is capped at ``scalar`` so the Figure 7
  heuristic still dominates the bound pointwise, see below).

Stores are always charged ``lb0`` (no result: never an operand lane,
and ``StorePack`` pays no extract).

Admissibility: a pack of ``k`` distinct produced values costs
``op_cost >= k * min-share >= sum of their amort`` (each produced
value's ``amort`` is at most ``cost / num_lanes`` of that very vinst),
extract surcharges are covered by the delta's ``c_extract * |vbits & S|``
term, insert surcharges by the fix delta's per-occurrence term, and a
scalar fix costs at least ``scalar_cost``.  Shuffle, broadcast and
gather terms of the true deltas are charged to nobody, so the sum over
the needed set under-counts every completion — including the all-scalar
one.  The bound is also *consistent* (``lb(parent) <= delta +
lb(child)``): every charged instruction is either decided by the
transition (its charge is covered by the delta, per the same credit
argument) or remains charged in the child at an equal-or-higher class
(``lb0 <= lbS, lbV <= lbSV`` and ``lbS <= lbSV`` pointwise).

Integral totals
---------------

When every cost-model parameter, scalar cost and vector-instruction
cost is an integer, every transition delta — and hence every completion
total — is an integer.  :meth:`provable_total` then returns
``ceil(g + lb)``, which is still a valid lower bound on any completion
total and strictly stronger whenever ``g + lb`` is fractional (the
amortized shares almost always are).  Consumers that compare against an
incumbent *total* (always an integer sum of deltas) use it; the beam's
lazy-heuristic gate compares against ``g + h`` values, which need not
be integral, and keeps the plain bound.

Exactness of the sums
---------------------

Totals are accumulated per 64-bit chunk with memoized chunk subtotals
(the same discipline as ``SLPCostEstimator.cost_of_bits``) — this is
what makes the bound incremental under ``_apply_pack`` /
``_apply_scalar_fix``: a transition flips a handful of bits, so every
untouched chunk's subtotal is a dict hit and only changed chunks are
re-summed.  Chunk-wise association changes float rounding, so when any
per-instruction charge is not exactly representable (all charges dyadic
with denominator <= 4096 means every partial sum is exact), the total is
shrunk by a relative guard of ``n * 2**-48`` — orders of magnitude above
the worst-case accumulated rounding error, orders of magnitude below any
real cost delta — keeping the bound admissible under any summation
order.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple, Type

from repro.ir.instructions import (
    Instruction,
    LoadInst,
    RetInst,
    StoreInst,
)

_CHUNK = 0xFFFFFFFFFFFFFFFF
_INFINITY = float("inf")


class MatchingLowerBound:
    """Per-search admissible bound provider (one instance per engine).

    Construction precomputes the per-instruction charge tables and the
    forced-closure bitsets from registration-time data (dependence
    graph, match table, target ISA); :meth:`bound` is then pure bitmask
    arithmetic plus memoized chunk sums."""

    def __init__(self, search):
        self.search = search
        ctx = search.ctx
        self.counters = ctx.counters
        model = ctx.cost_model
        dg = ctx.dep_graph
        insts = dg.instructions
        n = len(insts)
        scalar = [model.scalar_cost(inst) for inst in insts]

        load_run = self._run_lengths(dg, insts, LoadInst)
        store_run = self._run_lengths(dg, insts, StoreInst)
        packable = [vl for vl in ctx.target.vector_lane_counts if vl >= 2]
        max_store_lanes = max(packable) if packable else 0

        # Cheapest amortized share per match-table operation token: a
        # compute value can only be a pack lane of a vinst one of whose
        # lane operations matches it (§4.4 lane binding).
        table = ctx.match_table
        amort_by_token: Dict[int, float] = {}
        for vinst in ctx.target.instructions:
            num_lanes = vinst.num_lanes
            if num_lanes <= 0:
                continue
            share = vinst.cost / num_lanes
            for token in set(table.lane_signature(vinst)):
                current = amort_by_token.get(token)
                if current is None or share < current:
                    amort_by_token[token] = share

        # Instructions some match covers as a non-root interior: a pack
        # decision may eliminate them as dead code, so no dependence
        # through them is guaranteed.
        coverable = 0
        for match in table.all_matches():
            root = match.live_out
            for inst in match.covered:
                if inst is not root and dg.contains(inst):
                    coverable |= 1 << dg.index(inst)

        amort: List[float] = [_INFINITY] * n
        for i, inst in enumerate(insts):
            if isinstance(inst, LoadInst):
                run = load_run.get(i, 1)
                if run >= 2:
                    amort[i] = model.c_vector_load / run
            elif isinstance(inst, StoreInst):
                width = min(max_store_lanes, store_run.get(i, 1))
                if width >= 2:
                    amort[i] = model.c_vector_store / width
            else:
                best = _INFINITY
                for token in table.tokens_for_value_id(id(inst)):
                    share = amort_by_token.get(token)
                    if share is not None and share < best:
                        best = share
                amort[i] = best

        c_extract = model.c_extract
        c_insert = model.c_insert
        is_store = [isinstance(inst, StoreInst) for inst in insts]
        lb0 = [min(s, a) for s, a in zip(scalar, amort)]
        self._lb0 = lb0
        self._lbS = [
            lb0[i] if is_store[i]
            else min(scalar[i], amort[i] + c_extract)
            for i in range(n)
        ]
        self._lbV = [
            lb0[i] if is_store[i]
            else min(scalar[i] + c_insert, amort[i])
            for i in range(n)
        ]
        self._lbSV = [
            lb0[i] if is_store[i]
            else min(scalar[i] + c_insert,
                     amort[i] + min(c_extract, scalar[i]))
            for i in range(n)
        ]

        # Forced-closure bitsets: fclo[i] = instructions guaranteed to
        # enter S or V (hence to be decided and charged) once i is
        # decided, whichever way.  Operands precede users in the
        # dependence graph's block order, so one forward pass closes
        # transitively.
        index_of = dg.index
        contains = dg.contains
        fclo = [0] * n
        for i, inst in enumerate(insts):
            if isinstance(inst, RetInst):
                continue
            if isinstance(inst, LoadInst):
                if load_run.get(i, 1) >= 2:
                    continue  # a LoadPack orphans the address chain
                forced = [op for op in inst.operands if contains(op)]
            elif isinstance(inst, StoreInst):
                forced = [inst.value] if contains(inst.value) else []
                if min(max_store_lanes, store_run.get(i, 1)) < 2 and \
                        contains(inst.pointer):
                    forced.append(inst.pointer)
            else:
                forced = [
                    op for op in inst.operands
                    if contains(op)
                    and not (coverable >> index_of(op)) & 1
                ]
            mask = 0
            for op in forced:
                j = index_of(op)
                mask |= (1 << j) | fclo[j]
            fclo[i] = mask
        self._fclo = fclo

        # All partial sums of dyadic charges (denominator <= 4096) are
        # exact in float64 at these magnitudes; any other charge gets
        # the relative rounding guard.
        self._guard = 0.0
        if not all(
            (value * 4096.0).is_integer()
            for value in lb0 + self._lbS + self._lbV + self._lbSV
        ):
            self._guard = n * 2.0 ** -48

        # Integral-total detection (see module docstring): every true
        # transition delta is built from these parameters alone.
        self._integral = (
            all(value.is_integer() for value in scalar)
            and all(
                float(getattr(model, name)).is_integer()
                for name in ("c_shuffle", "c_insert", "c_extract",
                             "c_vector_const", "c_vector_load",
                             "c_vector_store", "c_broadcast",
                             "c_permute", "c_two_source_shuffle")
            )
            and all(
                float(vinst.cost).is_integer()
                for vinst in ctx.target.instructions
            )
        )

        # Chunk-memoized summation state (see module docstring).
        self._s_mask_memo: Dict[int, float] = {}
        self._s_word_memo: Dict[Tuple[int, int], float] = {}
        self._sv_mask_memo: Dict[int, float] = {}
        self._sv_word_memo: Dict[Tuple[int, int], float] = {}
        self._v_mask_memo: Dict[int, float] = {}
        self._v_word_memo: Dict[Tuple[int, int], float] = {}
        self._o_mask_memo: Dict[int, float] = {}
        self._o_word_memo: Dict[Tuple[int, int], float] = {}
        self._clo_mask_memo: Dict[int, int] = {}
        self._clo_word_memo: Dict[Tuple[int, int], int] = {}

    # -- precomputation helpers --------------------------------------------

    @staticmethod
    def _run_lengths(dg, insts: List[Instruction],
                     kind: Type[Instruction]) -> Dict[int, int]:
        """instruction index -> length of its maximal contiguous
        same-base access run (distinct element offsets)."""
        by_base: Dict[int, Dict[int, List[int]]] = {}
        for i, inst in enumerate(insts):
            if not isinstance(inst, kind):
                continue
            base, offset = dg.access_location(inst)
            if base is None:
                continue
            by_base.setdefault(id(base), {}).setdefault(offset, []) \
                .append(i)
        runs: Dict[int, int] = {}
        for offsets_map in by_base.values():
            offsets = sorted(offsets_map)
            start = 0
            for pos in range(1, len(offsets) + 1):
                if pos == len(offsets) or \
                        offsets[pos] != offsets[pos - 1] + 1:
                    length = pos - start
                    for run_pos in range(start, pos):
                        for i in offsets_map[offsets[run_pos]]:
                            runs[i] = length
                    start = pos
        return runs

    # -- chunk-memoized folds ----------------------------------------------

    @staticmethod
    def _sum_bits(bits: int, values: List[float],
                  mask_memo: Dict[int, float],
                  word_memo: Dict[Tuple[int, int], float]) -> float:
        total = mask_memo.get(bits)
        if total is not None:
            return total
        total = 0.0
        remaining = bits
        word = 0
        while remaining:
            chunk = remaining & _CHUNK
            if chunk:
                key = (word, chunk)
                subtotal = word_memo.get(key)
                if subtotal is None:
                    subtotal = 0.0
                    base = word * 64
                    rest = chunk
                    while rest:
                        index = (rest & -rest).bit_length() - 1
                        rest &= rest - 1
                        subtotal += values[base + index]
                    word_memo[key] = subtotal
                total += subtotal
            remaining >>= 64
            word += 1
        mask_memo[bits] = total
        return total

    def _closure_union(self, bits: int) -> int:
        """OR of the forced closures of every set bit."""
        union = self._clo_mask_memo.get(bits)
        if union is not None:
            return union
        union = 0
        fclo = self._fclo
        word_memo = self._clo_word_memo
        remaining = bits
        word = 0
        while remaining:
            chunk = remaining & _CHUNK
            if chunk:
                key = (word, chunk)
                sub = word_memo.get(key)
                if sub is None:
                    sub = 0
                    base = word * 64
                    rest = chunk
                    while rest:
                        index = (rest & -rest).bit_length() - 1
                        rest &= rest - 1
                        sub |= fclo[base + index]
                    word_memo[key] = sub
                union |= sub
            remaining >>= 64
            word += 1
        self._clo_mask_memo[bits] = union
        return union

    # -- the bound ---------------------------------------------------------

    def bound(self, state) -> float:
        """Admissible lower bound on the state's completion cost."""
        free = state.free_bits
        obits = self.search._mask_obits(state.operand_mask) & free
        s_bits = state.scalar_bits & free
        core = s_bits | obits
        if not core:
            return 0.0
        self.counters.inc("beam.bound_evals")
        total = 0.0
        s_only = s_bits & ~obits
        if s_only:
            total += self._sum_bits(s_only, self._lbS,
                                    self._s_mask_memo, self._s_word_memo)
        both = s_bits & obits
        if both:
            total += self._sum_bits(both, self._lbSV,
                                    self._sv_mask_memo,
                                    self._sv_word_memo)
        v_only = obits & ~s_bits
        if v_only:
            total += self._sum_bits(v_only, self._lbV,
                                    self._v_mask_memo, self._v_word_memo)
        extra = self._closure_union(core) & free & ~core
        if extra:
            total += self._sum_bits(extra, self._lb0,
                                    self._o_mask_memo, self._o_word_memo)
        if self._guard:
            total -= total * self._guard
        return total

    def provable_total(self, state, g: float) -> float:
        """``g + bound(state)``, ceiled when completion totals are
        provably integral (see module docstring).

        Sound against any incumbent *total* (an integer sum of deltas);
        not for comparisons against fractional ``g + h`` scores."""
        total = g + self.bound(state)
        if self._integral:
            return float(math.ceil(total))
        return total
