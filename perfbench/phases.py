"""The in-process phases (beam, exact, gen) and every correctness check.

Each phase calls the program only through its public entry points:
``repro.frontend.compile_c``, ``VectorizationSession.vectorize`` (with the
public ``tracer=``/``counters=`` arguments in the traced run) and
``repro.target.generate_artifact``.  Spans the benchmark opens itself are
named ``bench.*``/``<layer>.*``; the program's own spans (canonicalize,
dep_graph, match_table, seed_enumeration, select_packs, codegen,
cost_model) nest under them when a tracer is passed.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import Counters, NullCounters

from inputs import (
    CHECK_ROUNDS,
    copy_arguments,
    make_arguments,
    same_value,
)


@contextlib.contextmanager
def span(tracer, name: str, **meta):
    """A benchmark-side span on ``tracer`` (a no-op when it is None)."""
    if tracer is None:
        yield None
    else:
        with tracer.span(name, **meta) as opened:
            yield opened


@dataclass
class Cell:
    """One compiled (kernel, target) cell."""

    kernel: str
    function: object   # the compile_c output, never mutated
    result: object     # the VectorizationResult
    counters: object = None

    def signature(self) -> Tuple[str, float, int]:
        """What the traced and untraced runs must agree on."""
        return (self.result.program.dump(), self.result.cost.total,
                len(self.result.packs))


class VerdictCounters(NullCounters):
    """A registry that keeps only the exact pass's verdict counters and
    drops every other ``inc`` like the no-op registry does, so that the
    untraced exact phase learns each cell's verdict without paying for
    live counting in the branch-and-bound loop."""

    KEPT = frozenset({"beam.exact_proved", "beam.exact_budget_exhausted"})

    def inc(self, name: str, amount: int = 1) -> None:
        if name in self.KEPT:
            self._data[name] = self._data.get(name, 0) + amount


def compile_cells(session, sources: Sequence[Tuple[str, str]],
                  tracer=None, counters=None, per_cell_counters=False
                  ) -> Tuple[List[Cell], float]:
    """``compile_c`` + ``vectorize`` every (kernel, source) in order;
    returns the cells and the wall time of the whole pass.

    ``per_cell_counters`` gives each cell its own registry (the exact
    phase reads its proof verdict from ``beam.exact_proved``): a full
    one, merged into ``counters``, when that is given, else a
    :class:`VerdictCounters`.
    """
    from repro.frontend import compile_c

    cells = []
    start = time.perf_counter()
    for kernel, source in sources:
        with span(tracer, "bench.cell", kernel=kernel):
            with span(tracer, "frontend.compile_c"):
                function = compile_c(source)[0]
            if not per_cell_counters:
                own = counters
            elif counters is not None:
                own = Counters()
            else:
                own = VerdictCounters()
            result = session.vectorize(function, tracer=tracer,
                                       counters=own)
        cells.append(Cell(kernel, function, result, own))
    elapsed = time.perf_counter() - start
    if per_cell_counters and counters is not None:
        for cell in cells:
            counters.merge(cell.counters)
    return cells, elapsed


def baseline_costs(target: str, sources: Sequence[Tuple[str, str]]
                   ) -> Tuple[Dict[str, float], float]:
    """The LLVM-SLP-style baseline's vector cost per kernel, and the
    seconds the baseline compiles took."""
    from repro.baseline import baseline_vectorize
    from repro.frontend import compile_c

    costs = {}
    start = time.perf_counter()
    for kernel, source in sources:
        result = baseline_vectorize(compile_c(source)[0], target=target)
        costs[kernel] = result.cost.total
    return costs, time.perf_counter() - start


# -- gen phase ---------------------------------------------------------


def generate_once() -> Tuple[str, float]:
    """One Figure-3 offline generation from cleared caches, serialized
    as ``repro gen`` writes it; returns (artifact text, seconds)."""
    from repro.target import clear_caches, generate_artifact
    from repro.target.artifact import dumps_artifact

    clear_caches()
    start = time.perf_counter()
    text = dumps_artifact(generate_artifact())
    return text, time.perf_counter() - start


def generate_layers(tracer) -> Dict[str, object]:
    """The generator's layers timed one by one through their public
    functions: parse every spec (pseudocode), lift it (symbolic eval +
    bitvector simplify + VIDL lift), canonicalize its lane patterns, then
    serialize and hash the artifact.  Returns the spec count, how many
    lifted, and whether the specs that did not lift are the ones
    ``generate_artifact`` records as unliftable."""
    from repro.patterns.canonicalize import canonicalize_operation
    from repro.pseudocode import parse_spec
    from repro.target import (
        build_spec_entries,
        clear_caches,
        generate_artifact,
        spec_content_hash,
    )
    from repro.target.artifact import dumps_artifact
    from repro.vidl import LiftError, lift_spec

    clear_caches()
    entries = build_spec_entries()
    unliftable = set()
    for entry in entries:
        with span(tracer, "pseudocode.parse"):
            spec = parse_spec(entry.text)
        try:
            with span(tracer, "vidl.lift"):
                desc = lift_spec(spec)
        except LiftError:
            unliftable.add(entry.name)
            continue
        with span(tracer, "patterns.canonicalize_ops"):
            for lane_op in desc.lane_ops:
                canonicalize_operation(lane_op.operation)
    doc = generate_artifact()
    with span(tracer, "target.artifact"):
        text = dumps_artifact(doc)
        spec_content_hash(entries)
        hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {
        "specs": len(entries),
        "lifted": len(entries) - len(unliftable),
        "unliftable_matches": sorted(unliftable) == doc["unliftable"],
    }


# -- correctness checks ------------------------------------------------


@dataclass
class CheckResult:
    """One phase's check: operations attempted and, per failed
    operation, the reasons it failed."""

    attempted: int = 0
    failed: Dict[str, List[str]] = field(default_factory=dict)

    def fail(self, operation: str, reason: str) -> None:
        self.failed.setdefault(operation, []).append(reason)

    @property
    def share(self) -> float:
        """Share of attempted operations that passed."""
        return (self.attempted - len(self.failed)) / self.attempted


def interpreters_agree(cell: Cell, rng: random.Random, tracer=None
                       ) -> Optional[str]:
    """Run the scalar IR interpreter on the original function and the
    vector interpreter on the emitted program over seeded edge-valued
    inputs; return a reason on the first disagreement."""
    from repro.ir.interp import Buffer, InterpError, run_function
    from repro.machine.exec import MachineExecError, run_program

    for round_index in range(CHECK_ROUNDS):
        args = make_arguments(cell.function, rng)
        scalar_args, vector_args = copy_arguments(args), copy_arguments(args)
        try:
            with span(tracer, "ir.interp"):
                run_function(cell.function, scalar_args)
            with span(tracer, "machine.exec"):
                run_program(cell.result.program, vector_args)
        except (InterpError, MachineExecError, ValueError,
                ZeroDivisionError) as exc:
            return f"round {round_index}: {type(exc).__name__}: {exc}"
        for name, value in scalar_args.items():
            if not isinstance(value, Buffer):
                continue
            other = vector_args[name].data
            for index, (a, b) in enumerate(zip(value.data, other)):
                if not same_value(a, b):
                    return (f"round {round_index}: {name}[{index}] scalar "
                            f"{a!r} vector {b!r}")
    return None


def check_cells(cells: Sequence[Cell], rng: random.Random, check: CheckResult,
                tracer=None, counters=None) -> None:
    """Interpreter agreement plus TransVal on every cell."""
    from repro.analysis.transval import validate_result

    for cell in cells:
        check.attempted += 1
        reason = interpreters_agree(cell, rng, tracer)
        if reason is not None:
            check.fail(cell.kernel, f"interpreters disagree, {reason}")
        with span(tracer, "analysis.transval"):
            report = validate_result(cell.result, counters=counters)
        if not report.ok:
            check.fail(cell.kernel, "TransVal failed")


def check_exact(exact: Sequence[Cell], beam_costs: Dict[str, float],
                check: CheckResult) -> None:
    """A proved cell's exact cost is at most its beam cost."""
    for cell in exact:
        proved = cell.counters.get("beam.exact_proved") > 0
        beam = beam_costs[cell.kernel]
        if proved and cell.result.cost.total > beam:
            check.fail(cell.kernel, f"proved exact cost "
                       f"{cell.result.cost.total} above beam cost {beam}")
