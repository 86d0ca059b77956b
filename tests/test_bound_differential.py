"""Tests for the admissible matching bound's effect on the exact pass,
and for the rejection of the retired ``bound`` knob.

The bound gates only ever drop provably-useless work (DESIGN.md §16.5),
so packs and costs are what the pre-bound search returned; that identity
is pinned by the pack goldens (``tests/golden/packs/``).  What the bound
adds is proofs: the exact pass cuts every subtree whose ``g + lb`` meets
the incumbent, which flips cells from budget-exhausted to proved.
"""

import pytest

from repro.kernels import all_kernels
from repro.obs import Counters
from repro.session import VectorizationSession
from repro.vectorizer.context import VectorizerConfig


def _exact_run(name, target="sse4", budget=50000):
    session = VectorizationSession(
        target=target, beam_width=8,
        config=VectorizerConfig(beam_width=8, exact=True,
                                exact_node_budget=budget))
    counters = Counters()
    result = session.vectorize(all_kernels()[name], counters=counters)
    return result, counters


def test_matching_mode_shrinks_the_exact_proof_tree():
    """isel_abs_ps is the canonical flip: the pre-bound search exhausted
    the 50k probe budget on it (the committed pre-bound trajectory
    reports a null gap), while the bound proves it well inside that
    budget (33,142 nodes when the pre-bound search was retired)."""
    _, counters = _exact_run("isel_abs_ps")
    assert counters.get("beam.exact_proved") == 1
    assert counters.get("beam.exact_budget_exhausted") == 0
    assert counters.get("beam.exact_nodes") < 50000
    assert counters.get("beam.bound_prunes") > 0


def test_invalid_bound_mode_rejected():
    """``bound`` is a retired knob: every value of it is rejected, by
    the constructor and by the canonical-dict loader the compile server
    uses."""
    with pytest.raises(TypeError, match="bound"):
        VectorizerConfig(bound="slp")
    for mode in ("slp", "matching"):
        with pytest.raises(ValueError, match="bound"):
            VectorizerConfig.from_canonical_dict({"bound": mode})


def test_exact_mode_differential_on_proved_cells():
    """complex_mul/sse4 proves optimal at the cost both bound modes
    proved before the pre-bound search was retired."""
    result, counters = _exact_run("complex_mul")
    assert counters.get("beam.exact_proved") == 1
    assert result.cost.total == 14.0
