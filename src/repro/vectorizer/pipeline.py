"""End-to-end vectorization pipeline: the compile-time half of Figure 3.

``vectorize()`` is the library's main entry point: it canonicalizes a
(copy of the) input function, runs pattern matching and pack selection,
lowers the chosen packs, and returns the vector program together with
model costs for both the scalar original and the vectorized output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.ir.function import Function
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.machine.costs import CostModel
from repro.machine.model import ProgramCost
from repro.obs.counters import Counters
from repro.target.isa import TargetDesc
from repro.vectorizer.context import VectorizerConfig
from repro.vectorizer.pack import Pack
from repro.vectorizer.vector_ir import VScalar, VectorProgram


@dataclass
class VectorizationResult:
    """Everything a caller needs about one vectorization run."""

    function: Function            # the canonicalized working copy
    program: VectorProgram
    packs: List[Pack]
    scalar_cost: float            # model cost of the canonicalized scalar
    cost: ProgramCost             # model cost of the emitted program
    estimated_cost: float         # the search's own estimate (g)
    diagnostics: List = field(default_factory=list)  # sanitizer findings
    trace: Optional[object] = None     # repro.obs.Span when tracing is on
    counters: Optional[object] = None  # repro.obs.Counters when counting
    verification: Optional[object] = None  # transval.TransValReport when
                                           # verify=True
    target: Optional[TargetDesc] = None    # the resolved target the run
                                           # compiled against

    @property
    def vectorized(self) -> bool:
        return bool(self.packs)

    @property
    def c_source(self) -> str:
        """The program rendered as compilable C intrinsics source.

        Requires the result to carry its target (set by the session) and
        every vector op to have v2 intrinsic metadata; raises
        :class:`repro.emit.EmitError` otherwise.
        """
        from repro.emit import EmitError, emit_c

        if self.target is None:
            raise EmitError(
                "result carries no target description; "
                "emission needs the intrinsic metadata it holds"
            )
        return emit_c(self.program, self.target)

    @property
    def speedup_over_scalar(self) -> float:
        if self.cost.total <= 0:
            return float("inf")
        return self.scalar_cost / self.cost.total


def scalar_program(function: Function) -> VectorProgram:
    """Wrap a function as an all-scalar vector program (for uniform
    execution and costing)."""
    program = VectorProgram(function)
    for inst in function.entry:
        if not inst.is_terminator:
            program.append(VScalar(inst))
    return program


def clone_function(function: Function) -> Function:
    """Deep-copy a function via its textual form."""
    return parse_function(print_function(function))


def vectorize(
    function: Function,
    target: Union[str, TargetDesc] = "avx2",
    beam_width: int = 64,
    canonicalize_patterns: bool = True,
    canonicalize_input: bool = True,
    reassociate: bool = False,
    cost_model: Optional[CostModel] = None,
    config: Optional[VectorizerConfig] = None,
    sanitize: bool = False,
    verify: bool = False,
    tracer=None,
    counters: Optional[Counters] = None,
    passes: Optional[List[str]] = None,
) -> VectorizationResult:
    """Vectorize one straight-line function.

    The input function is never mutated; a canonicalized working copy is
    returned in the result.  ``beam_width=1`` selects the plain SLP
    heuristic (§5.1); larger widths enable the §5.2 lookahead search.
    ``canonicalize_patterns=False`` reproduces the §6 ablation.
    ``reassociate=True`` balances reduction chains first (clang -O3 /
    -ffast-math behaviour; exposes dot-product structure in sequential
    accumulations).  ``sanitize=True`` runs the ``repro.analysis``
    sanitizer suite over the result and raises
    :class:`repro.analysis.SanitizerError` on any error diagnostic.
    ``verify=True`` runs TransVal translation validation: the emitted
    program is statically proved equivalent to the canonicalized scalar
    input (report on ``result.verification``), raising
    :class:`repro.analysis.transval.TranslationValidationError` on any
    disproved goal.

    ``tracer`` (a :class:`repro.obs.Tracer`) and ``counters`` (a
    :class:`repro.obs.Counters`) enable observability: per-phase spans
    and pipeline work counters, surfaced on the result as
    ``result.trace`` / ``result.counters``.  Both are off by default and
    never perturb the compilation: with or without them, the emitted
    program and costs are identical.

    This is a thin wrapper over a one-shot
    :class:`repro.session.VectorizationSession` running the default
    :mod:`repro.passes` pipeline.  ``passes`` selects a custom pipeline
    by registry names (e.g. ``["canonicalize", "select-packs",
    "codegen"]``); reusing a session amortizes setup across many
    functions.
    """
    from repro.passes import build_pipeline
    from repro.session import VectorizationSession

    pipeline = None
    if passes is not None:
        pipeline = build_pipeline(passes,
                                  canonicalize_input=canonicalize_input)
    session = VectorizationSession(
        target=target,
        beam_width=beam_width,
        canonicalize_patterns=canonicalize_patterns,
        canonicalize_input=canonicalize_input,
        reassociate=reassociate,
        cost_model=cost_model,
        config=config,
        sanitize=sanitize,
        verify=verify,
        pipeline=pipeline,
    )
    return session.vectorize(function, tracer=tracer, counters=counters)
