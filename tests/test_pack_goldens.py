"""Live pack selection against the pack goldens (``tests/golden/packs/``).

The goldens freeze, per kernel x target cell, the packs, scalar cost and
vector cost of the one search engine at beam width 2 and at the bench
width.  Every legacy search path — the frozenset engine, the
unmemoized, unpruned and pre-bound searches, the pre-pass-manager
pipeline and the fixpoint canonicalizer — agreed with them when it was
deleted, so these checks stand in for the differential suites that ran
those oracles side by side.

Cells checked per test run: the whole matrix at width 2 (the x86 cells
through ``tests/test_passes_differential.py``, which checks them against
the pipeline it replaced; neon128 here) and the heavy kernels, whose
search trees are deepest, at the bench width on every target.
``python tools/gen_pack_goldens.py --check`` recomputes every cell at
both widths.
"""

import os

import pytest

from repro.kernels import all_kernels

from tests.pack_goldens import (
    GOLDEN_DIR,
    SCHEMA,
    TARGETS,
    WIDTHS,
    assert_matches_golden,
    load_golden,
)

#: Deepest search trees first: a change to the engine shows here first.
HEAVY_KERNELS = ("dsp_fft4", "dsp_idct4", "complex_mul",
                 "opencv_int32x8", "isel_abs_i16")

BENCH_WIDTH = WIDTHS[-1]


def test_goldens_cover_every_cell():
    files = sorted(n for n in os.listdir(GOLDEN_DIR) if n.endswith(".json"))
    assert files == sorted(t + ".json" for t in TARGETS)
    for target in TARGETS:
        doc = load_golden(target)
        assert doc["schema"] == SCHEMA
        assert doc["target"] == target
        assert doc["widths"] == list(WIDTHS)
        assert set(doc["cells"]) == set(all_kernels()), target
        for name, cell in doc["cells"].items():
            assert set(cell) == {str(w) for w in WIDTHS}, (name, target)


@pytest.mark.parametrize("name", sorted(all_kernels()))
def test_neon128_width2_matches_golden(name):
    assert_matches_golden(name, "neon128", 2)


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("name", HEAVY_KERNELS)
def test_bench_width_matches_golden(name, target):
    assert_matches_golden(name, target, BENCH_WIDTH)
