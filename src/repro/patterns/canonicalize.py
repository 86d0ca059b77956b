"""IR canonicalization — the reproduction's instcombine (§6).

This pass is run (a) over every generated pattern function and (b) over the
input program before matching, so that patterns and programs meet in a
common normal form.  The load-bearing rewrites, per the paper, are
comparison strictification (``x <= 1`` becomes ``x < 2``) — crucial for
recognizing integer saturations — plus the usual constant folding,
constant-to-RHS placement, and algebraic identities.

The pass mutates the function in place.  It is driven by an
instcombine-style *worklist* over def-use edges rather than whole-function
fixpoint sweeps: the list is seeded with every instruction in block order,
and a rewrite re-enqueues only the values whose folding opportunities it
could have changed (the rewritten instruction's users, plus any
instructions the rewrite created).  Replaced instructions are erased
eagerly — together with operand chains the erasure leaves dead — instead
of accumulating until a final dead-code sweep re-scans them on every pass.
Combined with the O(1) block-mutation API this makes canonicalization
near-linear in practice.  Its output on every bundled kernel is pinned by
``tests/golden/canon/``.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.ir.function import Function, dead_code_eliminate
from repro.ir.instructions import (
    BinaryInst,
    CastInst,
    FCmpInst,
    FCmpPred,
    ICmpInst,
    ICmpPred,
    Instruction,
    Opcode,
    SelectInst,
    COMMUTATIVE_OPS,
)
from repro.ir.interp import (
    InterpError,
    evaluate_cast,
    evaluate_fcmp,
    evaluate_float_binop,
    evaluate_icmp,
    evaluate_int_binop,
)
from repro.ir.types import IntType
from repro.ir.values import Constant, Value
from repro.obs.counters import NULL_COUNTERS, Counters
from repro.utils.intmath import mask, to_signed


def canonicalize_function(function: Function,
                          counters: Optional[Counters] = None) -> int:
    """Run rewrites to a fixpoint; returns the number of rewrites applied.

    ``counters`` (a :class:`repro.obs.Counters`) records
    ``canon.worklist_pushes`` and ``canon.rewrites`` when provided.
    """
    if counters is None:
        counters = NULL_COUNTERS
    block = function.entry
    worklist = deque(block)
    queued = {id(inst) for inst in worklist}
    counters.inc("canon.worklist_pushes", len(worklist))
    total = 0

    def push(value) -> None:
        if (
            isinstance(value, Instruction)
            and value.parent is block
            and id(value) not in queued
        ):
            queued.add(id(value))
            worklist.append(value)
            counters.inc("canon.worklist_pushes")

    while worklist:
        inst = worklist.popleft()
        queued.discard(id(inst))
        if inst.parent is not block:
            continue  # erased while queued
        created: List[Instruction] = []
        replacement = _simplify_inst(inst, created)
        if replacement is not None and replacement is not inst:
            user_insts = list(dict.fromkeys(inst.uses))
            inst.replace_all_uses_with(replacement)
            total += 1
            counters.inc("canon.rewrites")
            for new_inst in created:
                push(new_inst)
            push(replacement)
            for user in user_insts:
                push(user)
            _erase_if_dead(inst, block)
            continue
        changed = _rewrite_in_place(inst)
        if changed:
            total += changed
            counters.inc("canon.rewrites", changed)
            # Operand-order/predicate rewrites can enable this very
            # instruction's value simplifications (e.g. moving a constant
            # to the RHS exposes ``x + 0``) as well as its users'.
            push(inst)
            for user in list(dict.fromkeys(inst.uses)):
                push(user)
    dead_code_eliminate(function)
    return total


def _erase_if_dead(inst: Instruction, block) -> None:
    """Eagerly erase ``inst`` if dead, then any operand chains the
    erasure left dead (the worklist analogue of dead_code_eliminate)."""
    stack = [inst]
    while stack:
        current = stack.pop()
        if current.parent is not block or current.num_uses:
            continue
        if current.opcode in (Opcode.STORE, Opcode.RET):
            continue
        operands = [op for op in current.operands
                    if isinstance(op, Instruction)]
        current.drop_operands()
        block.remove(current)
        for op in operands:
            if op.num_uses == 0:
                stack.append(op)


def _const(inst: Instruction) -> Optional[Constant]:
    """Constant-fold an instruction whose operands are all constants."""
    ops = inst.operands
    if not ops or not all(isinstance(o, Constant) for o in ops):
        return None
    try:
        if isinstance(inst, ICmpInst):
            value = evaluate_icmp(inst.pred, ops[0].value, ops[1].value,
                                  ops[0].type.width)
        elif isinstance(inst, FCmpInst):
            value = evaluate_fcmp(inst.pred, ops[0].value, ops[1].value)
        elif isinstance(inst, SelectInst):
            value = ops[1].value if ops[0].value else ops[2].value
        elif inst.opcode == Opcode.FNEG:
            value = -ops[0].value
        elif isinstance(inst, CastInst):
            value = evaluate_cast(inst.opcode, ops[0].value,
                                  ops[0].type, inst.type)
        elif inst.type.is_integer and len(ops) == 2:
            value = evaluate_int_binop(inst.opcode, ops[0].value,
                                       ops[1].value, inst.type.width)
        elif inst.type.is_float and len(ops) == 2:
            value = evaluate_float_binop(inst.opcode, ops[0].value,
                                         ops[1].value, inst.type.width)
        else:
            return None
    except InterpError:
        return None
    return Constant(inst.type, value)


def _simplify_inst(inst: Instruction,
                   created: List[Instruction]) -> Optional[Value]:
    """Rewrites that replace the instruction with an existing value.

    Any new instructions a rewrite inserts are also appended to
    ``created`` so the worklist driver can enqueue them.
    """
    folded = _const(inst)
    if folded is not None:
        return folded
    op = inst.opcode
    ops = inst.operands
    if isinstance(inst, BinaryInst) and inst.type.is_integer:
        lhs, rhs = ops
        rc = rhs if isinstance(rhs, Constant) else None
        if rc is not None:
            if op in (Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.OR,
                      Opcode.SHL, Opcode.LSHR, Opcode.ASHR) and rc.is_zero():
                return lhs
            if op == Opcode.MUL and rc.value == 1:
                return lhs
            if op == Opcode.MUL and rc.is_zero():
                return rc
            if op == Opcode.AND and rc.is_zero():
                return rc
            if op == Opcode.AND and rc.value == mask(-1, inst.type.width):
                return lhs
        if op in (Opcode.SUB, Opcode.XOR) and lhs is rhs:
            return Constant(inst.type, 0)
    if isinstance(inst, SelectInst):
        if inst.true_value is inst.false_value:
            return inst.true_value
    if isinstance(inst, CastInst):
        inner = ops[0]
        if isinstance(inner, CastInst):
            composed = _compose_casts(inst, inner, created)
            if composed is not None:
                return composed
        if inst.opcode == Opcode.TRUNC:
            if isinstance(inner, SelectInst):
                # trunc(select(c, a, b)) -> select(c, trunc a, trunc b)
                block = inst.parent
                lo = CastInst(Opcode.TRUNC, inner.true_value, inst.type)
                hi = CastInst(Opcode.TRUNC, inner.false_value, inst.type)
                new = SelectInst(inner.condition, lo, hi)
                block.insert_before(inst, lo)
                block.insert_before(inst, hi)
                block.insert_before(inst, new)
                created.extend((lo, hi, new))
                return new
            narrowed = _narrow(inner, inst.type, inst, created)
            if narrowed is not None:
                return narrowed
    return None


_NARROWABLE = frozenset(
    {Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR}
)


def _narrow(value: Value, dest: IntType, before: Instruction,
            created: List[Instruction],
            depth: int = 3) -> Optional[Value]:
    """Demanded-bits narrowing: rebuild ``value`` at width ``dest`` if its
    low bits are computable narrowly (LLVM's trunc(binop(ext, ext)) ->
    binop rewrite, which reconciles C's integer promotions with
    element-width instruction semantics).

    The narrow tree is built *speculatively*: new instructions are only
    inserted (before ``before``) once the whole value narrows.  If any
    sub-value fails — e.g. a binop whose LHS narrows but whose RHS does
    not — the partially built instructions are discarded instead of being
    abandoned in the block as dead code for later passes to re-scan.
    Returns None if the value cannot be narrowed; on success the inserted
    instructions are appended to ``created``.
    """
    speculative: List[Instruction] = []
    result = _narrow_rec(value, dest, depth, speculative)
    if result is None:
        # Unregister the aborted tree from its operands' use lists.
        for inst in reversed(speculative):
            inst.drop_operands()
        return None
    block = before.parent
    for inst in speculative:
        block.insert_before(before, inst)
    created.extend(speculative)
    return result


def _narrow_rec(value: Value, dest: IntType, depth: int,
                speculative: List[Instruction]) -> Optional[Value]:
    if isinstance(value, Constant):
        return Constant(dest, value.value)
    if isinstance(value, CastInst) and value.opcode in (Opcode.SEXT,
                                                        Opcode.ZEXT):
        src = value.operands[0]
        if src.type.width == dest.width:
            return src
        if src.type.width < dest.width:
            new = CastInst(value.opcode, src, dest)
            speculative.append(new)
            return new
        return None
    if depth <= 0:
        return None
    if isinstance(value, BinaryInst) and value.opcode in _NARROWABLE:
        lhs = _narrow_rec(value.operands[0], dest, depth - 1, speculative)
        if lhs is None:
            return None
        rhs = _narrow_rec(value.operands[1], dest, depth - 1, speculative)
        if rhs is None:
            return None
        new = BinaryInst(value.opcode, lhs, rhs)
        speculative.append(new)
        return new
    return None


def _compose_casts(outer: CastInst, inner: CastInst,
                   created: List[Instruction]) -> Optional[Value]:
    """Fold cast-of-cast chains (trunc(sext(x)) and friends)."""

    def emit(new: CastInst) -> CastInst:
        outer.parent.insert_before(outer, new)
        created.append(new)
        return new

    oo, io = outer.opcode, inner.opcode
    src = inner.operands[0]
    ext_ops = (Opcode.SEXT, Opcode.ZEXT)
    if oo in ext_ops and io == oo:
        return emit(CastInst(oo, src, outer.type))
    if oo == Opcode.SEXT and io == Opcode.ZEXT:
        return emit(CastInst(Opcode.ZEXT, src, outer.type))
    if oo == Opcode.TRUNC and io in ext_ops:
        if outer.type.width == src.type.width:
            return src
        if outer.type.width < src.type.width:
            return emit(CastInst(Opcode.TRUNC, src, outer.type))
        return emit(CastInst(io, src, outer.type))
    return None


def _rewrite_in_place(inst: Instruction) -> int:
    """Rewrites that mutate the instruction (operand order, predicates)."""
    changed = 0
    # Constants to the RHS of commutative operations.
    if isinstance(inst, BinaryInst) and inst.opcode in COMMUTATIVE_OPS:
        lhs, rhs = inst.operands
        if isinstance(lhs, Constant) and not isinstance(rhs, Constant):
            inst.set_operand(0, rhs)
            inst.set_operand(1, lhs)
            changed += 1
    if isinstance(inst, ICmpInst):
        changed += _canonicalize_icmp(inst)
    if isinstance(inst, FCmpInst):
        lhs, rhs = inst.operands
        if isinstance(lhs, Constant) and not isinstance(rhs, Constant):
            inst.set_operand(0, rhs)
            inst.set_operand(1, lhs)
            inst.pred = FCmpPred.swapped(inst.pred)
            changed += 1
    return changed


def _canonicalize_icmp(inst: ICmpInst) -> int:
    changed = 0
    lhs, rhs = inst.operands
    # Constant to the RHS (with the predicate swapped).
    if isinstance(lhs, Constant) and not isinstance(rhs, Constant):
        inst.set_operand(0, rhs)
        inst.set_operand(1, lhs)
        inst.pred = ICmpPred.swapped(inst.pred)
        changed += 1
        lhs, rhs = inst.operands
    # Strictify non-strict comparisons against constants: x <= C becomes
    # x < C+1 (unless C is the extreme value).  This is the rewrite the
    # paper calls "crucial for recognizing integer saturations".
    if isinstance(rhs, Constant) and isinstance(inst.type, IntType):
        width = rhs.type.width
        value = rhs.value
        signed_value = to_signed(value, width)
        smax = (1 << (width - 1)) - 1
        smin = -(1 << (width - 1))
        umax = (1 << width) - 1
        new_pred = None
        new_value = None
        if inst.pred == ICmpPred.SLE and signed_value != smax:
            new_pred, new_value = ICmpPred.SLT, signed_value + 1
        elif inst.pred == ICmpPred.SGE and signed_value != smin:
            new_pred, new_value = ICmpPred.SGT, signed_value - 1
        elif inst.pred == ICmpPred.ULE and value != umax:
            new_pred, new_value = ICmpPred.ULT, value + 1
        elif inst.pred == ICmpPred.UGE and value != 0:
            new_pred, new_value = ICmpPred.UGT, value - 1
        if new_pred is not None:
            inst.pred = new_pred
            inst.set_operand(1, Constant(rhs.type, new_value))
            changed += 1
    return changed


def canonicalize_operation(operation, enabled: bool = True):
    """Canonicalize a VIDL operation through the IR round trip.

    Returns the canonicalized operation, or the original if ``enabled`` is
    False or if canonicalization destroyed the parameter list (any dropped
    parameter would break the lane bindings).
    """
    from repro.patterns.roundtrip import (
    RoundTripError,
    function_to_operation,
    operation_to_function,
    )

    if not enabled:
        return operation
    fn = operation_to_function(operation)
    canonicalize_function(fn)
    try:
        canonical = function_to_operation(fn)
    except RoundTripError:
        return operation
    if canonical.params != operation.params:
        return operation
    if not _params_all_present(canonical):
        return operation
    return canonical


def _params_all_present(operation) -> bool:
    from repro.vidl.ast import OpExpr, OpParam

    present = set()

    def visit(expr: OpExpr) -> None:
        if isinstance(expr, OpParam):
            present.add(expr.index)
        for child in expr.children():
            visit(child)

    visit(operation.expr)
    return present == set(range(len(operation.params)))
