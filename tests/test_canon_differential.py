"""Golden and fixpoint tests for the worklist canonicalizer.

The worklist driver replaced a whole-function fixpoint driver (sweep
every instruction until a sweep changes nothing, then one dead-code
sweep).  Two checks pin that it still produces the same IR:

* golden files (``tests/golden/canon/*.ll``) captured from the fixpoint
  driver, one per bundled kernel — the driver matched them on every
  kernel until it was deleted;
* the fixpoint condition itself: one sweep of the old driver's rewrites
  over the worklist output changes nothing, so the old driver run on it
  would stop at once and return it unchanged.
"""

import os

import pytest

from repro.ir.printer import print_function
from repro.kernels import all_kernels
from repro.patterns.canonicalize import (
    _rewrite_in_place,
    _simplify_inst,
    canonicalize_function,
)
from repro.vectorizer import clone_function

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "canon")

KERNELS = all_kernels()

#: The kernels the fixpoint driver was run on side by side in unit
#: tests (it was quadratic); the golden files cover the big ones
#: (dsp_idct8, dsp_sbc).
SMALL_KERNELS = sorted(
    name for name, fn in KERNELS.items()
    if len(fn.entry.instructions) < 400
)


def _canonicalized_text(name, driver):
    work = clone_function(KERNELS[name])
    driver(work)
    work.assign_names()
    return print_function(work)


def _sweep_rewrites(function):
    """Rewrites one sweep of the retired fixpoint driver applies: each
    instruction in block order is simplified to an existing value or
    rewritten in place."""
    changed = 0
    for inst in list(function.entry):
        replacement = _simplify_inst(inst, [])
        if replacement is not None and replacement is not inst:
            inst.replace_all_uses_with(replacement)
            changed += 1
            continue
        changed += _rewrite_in_place(inst)
    return changed


class TestGoldenCanonicalization:
    """Worklist canonicalizer output == seed fixpoint output, per kernel."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_matches_seed_golden(self, name):
        path = os.path.join(GOLDEN_DIR, name + ".ll")
        with open(path) as handle:
            golden = handle.read()
        assert _canonicalized_text(name, canonicalize_function) == golden

    def test_goldens_cover_every_kernel(self):
        files = {n[:-3] for n in os.listdir(GOLDEN_DIR)
                 if n.endswith(".ll")}
        assert files == set(KERNELS)


class TestLegacyDifferential:
    """The worklist output is where the retired fixpoint driver stops."""

    @pytest.mark.parametrize("name", SMALL_KERNELS)
    def test_same_ir_as_legacy(self, name):
        work = clone_function(KERNELS[name])
        canonicalize_function(work)
        assert _sweep_rewrites(work) == 0

    def test_idempotent_after_worklist(self):
        for name in SMALL_KERNELS[:6]:
            work = clone_function(KERNELS[name])
            canonicalize_function(work)
            assert canonicalize_function(work) == 0


class TestNarrowLeak:
    """A failed speculative narrowing must not leave dead instructions
    behind (the seed built the partial tree directly into the block)."""

    def _trunc_of_unnarrowable_add(self):
        from repro.ir import (
            Function,
            I8,
            I16,
            I32,
            IRBuilder,
            pointer_to,
            verify_function,
        )

        fn = Function("narrow_fail", [("a", pointer_to(I8)),
                                      ("b", pointer_to(I32)),
                                      ("out", pointer_to(I16))])
        b = IRBuilder(fn)
        # LHS narrows (sext i8 -> i32 re-emitted at i16); RHS is a raw
        # i32 load, which _narrow_rec rejects -> whole narrow aborts
        # after speculatively building the LHS cast.
        lhs = b.sext(b.load(fn.args[0], 0), I32)
        rhs = b.load(fn.args[1], 0)
        total = b.add(lhs, rhs)
        b.store(b.trunc(total, I16), fn.args[2], 0)
        b.ret()
        verify_function(fn)
        return fn

    def test_failed_narrow_leaves_no_dead_instructions(self):
        from repro.ir import verify_function

        fn = self._trunc_of_unnarrowable_add()
        before = len(fn.entry.instructions)
        rewrites = canonicalize_function(fn)
        assert rewrites == 0
        assert len(fn.entry.instructions) == before
        verify_function(fn)

    def test_partial_narrow_leaves_operand_uses_clean(self):
        fn = self._trunc_of_unnarrowable_add()
        # The aborted speculative cast must have unregistered itself
        # from its operand's use list: the i8 load feeds exactly one
        # surviving user (the original sext).
        canonicalize_function(fn)
        from repro.ir.instructions import Opcode

        load8 = next(inst for inst in fn.entry
                     if inst.opcode == Opcode.LOAD)
        assert load8.type.width == 8
        assert len(load8.uses) == 1
