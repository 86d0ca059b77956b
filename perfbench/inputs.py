"""Seeded inputs for every phase of the benchmark.

The program under test only ever sees what this module generates: the
kernel sources, the order they are compiled in, the request stream sent
to the compile server, and the argument buffers the correctness check
runs through the interpreters.  Everything is a pure function of the
workload and the ``--seed``.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Workload -> the one target its phases compile for.  The two
#: workloads are the two ISA families the generator supports; every
#: phase runs in both (see NOTES.md for why the split is by family).
WORKLOAD_TARGETS: Dict[str, str] = {
    "x86-avx2": "avx2",
    "arm-neon128": "neon128",
}

#: Node budget of the exact phase: the probe budget the repo's own
#: ``repro bench`` gap pass uses (``repro.obs.bench.DEFAULT_GAP_NODE_BUDGET``).
EXACT_NODE_BUDGET = 50_000

#: Beam width of every compile: the ``repro bench`` and ``repro serve``
#: default.
BEAM_WIDTH = 8

#: A cell that exhausts the exact budget at the seed (~3 s); a pruning
#: gain shows as it flipping to proved.  Its 16-lane sibling isel_abs_i8
#: exhausts too, but a second 3 s cell did not fit a run.
EXACT_EXHAUSTING = ("isel_abs_i16",)

#: Cells the seed proves optimal within :data:`EXACT_NODE_BUDGET`, per
#: target (frozen from ``BENCH_vegen.json``'s non-null optimality gaps,
#: minus ``tvm_dot``/avx512_vnni, which alone takes ~55 s).
EXACT_PROVED: Dict[str, Tuple[str, ...]] = {
    "avx2": (
        "complex_mul", "isel_abs_i32", "isel_abs_pd", "isel_abs_ps",
        "isel_hadd_i16", "isel_hadd_i32", "isel_hadd_pd", "isel_hadd_ps",
        "isel_hsub_i16", "isel_hsub_i32", "isel_hsub_pd", "isel_hsub_ps",
        "isel_max_pd", "isel_max_ps", "isel_min_pd", "isel_min_ps",
        "isel_mul_addsub_pd", "isel_mul_addsub_ps", "isel_pmaddubs",
        "isel_pmaddwd",
    ),
    "neon128": (
        "complex_mul", "isel_abs_i32", "isel_abs_pd", "isel_abs_ps",
        "isel_hadd_i16", "isel_hadd_i32", "isel_hadd_pd", "isel_hadd_ps",
        "isel_hsub_pd", "isel_max_pd", "isel_max_ps", "isel_min_pd",
        "isel_min_ps", "isel_mul_addsub_pd",
    ),
}

#: Share of serve requests that carry a key the server has never seen.
NOVEL_SHARE = 0.05

#: Zipf exponent of the popularity of repeated serve keys.
ZIPF_S = 1.0

#: Elements per pointer argument in the interpreter check; larger than
#: any bundled kernel's footprint (dsp_idct8 touches 64).
BUFFER_LEN = 128

#: Seeded argument sets each compiled cell is executed on.
CHECK_ROUNDS = 6


def kernel_sources() -> Dict[str, str]:
    """Every bundled kernel's mini-C source, by the names ``repro bench``
    uses (``isel_*``, ``complex_mul``, ``tvm_dot``, ``opencv_*``,
    ``dsp_*``)."""
    from repro.kernels import (
        COMPLEX_MUL_SOURCE,
        DSP_SOURCES,
        ISEL_TEST_SOURCES,
        OPENCV_SOURCES,
        TVM_DOT_SOURCE,
    )

    sources = {f"isel_{name}": src for name, src, _ in ISEL_TEST_SOURCES}
    sources["complex_mul"] = COMPLEX_MUL_SOURCE
    sources["tvm_dot"] = TVM_DOT_SOURCE
    sources.update({f"opencv_{k}": v for k, v in OPENCV_SOURCES.items()})
    sources.update({f"dsp_{k}": v for k, v in DSP_SOURCES.items()})
    return sources


#: Light kernels left out of the serve stream, per target: those whose
#: compile took 50 ms or more at the seed (median of 4 cold misses on a
#: 2-core Xeon: avx2 abs_i8 160, abs_i16 70, pmaddubs 68, pmaddwd 62;
#: neon128 abs_i8 155, abs_i16 84, pmaddubs 112, pmaddwd 106,
#: hsub_i16 66; every other light kernel 6-50).  With two client
#: connections, whether their misses overlapped decided p99: its spread
#: across seeds was 0.76 with them on avx2, and on neon128 p99 flipped
#: between 25 and 40 ms while hsub_i16 stayed in.
SERVE_EXCLUDED: Dict[str, Tuple[str, ...]] = {
    "avx2": ("isel_abs_i8", "isel_abs_i16", "isel_pmaddubs",
             "isel_pmaddwd"),
    "neon128": ("isel_abs_i8", "isel_abs_i16", "isel_pmaddubs",
                "isel_pmaddwd", "isel_hsub_i16"),
}


def light_kernels(sources: Dict[str, str], target: str) -> List[str]:
    """The serve phase's kernels: the Figure 10 isel tests and
    complex_mul, minus the target's :data:`SERVE_EXCLUDED`."""
    return sorted(n for n in sources
                  if (n.startswith("isel_") or n == "complex_mul")
                  and n not in SERVE_EXCLUDED[target])


def require_known(kernels: Sequence[str], targets: Sequence[str],
                  sources: Dict[str, str]) -> None:
    """Raise on any kernel or target name the program does not have.

    A silently shortened input list would make two runs measure
    different work while reporting the same metric names.
    """
    from repro.target import available_targets

    unknown = [k for k in kernels if k not in sources]
    unknown += [t for t in targets if t not in available_targets()]
    if unknown:
        raise KeyError(f"unknown kernel or target names: {unknown}")


# -- interpreter inputs ------------------------------------------------


def _int_edges(width: int) -> List[int]:
    top = 1 << (width - 1)
    edges = {0, 1, -1, -top, top - 1, (1 << width) - 1}
    # Saturation bounds of every narrower lane type, which is where
    # saturating narrows and clamps switch over.
    for narrow in (8, 16, 32):
        if narrow < width:
            half = 1 << (narrow - 1)
            edges.update({half - 1, -half, (1 << narrow) - 1, half, -half - 1})
    return sorted(edges)


_FLOAT_EDGES = [math.nan, -0.0, 0.0, math.inf, -math.inf, 1e-40,
                -1e-40, 3.4e38, -3.4e38, 1.0, -1.0]


def make_arguments(function, rng: random.Random,
                   length: int = BUFFER_LEN) -> Dict[str, object]:
    """Argument bindings for ``function``: random values with a quarter
    of the elements replaced by edge values (INT_MIN/INT_MAX, saturation
    bounds, NaN, +-0.0, +-inf)."""
    from repro.ir.interp import Buffer
    from repro.ir.types import IntType, PointerType

    args: Dict[str, object] = {}
    for arg in function.args:
        ty = arg.type.pointee if isinstance(arg.type, PointerType) \
            else arg.type
        if isinstance(ty, IntType):
            edges = _int_edges(ty.width)

            def draw(ty=ty, edges=edges):
                if rng.random() < 0.25:
                    return rng.choice(edges)
                return rng.getrandbits(ty.width)
        else:
            def draw():
                if rng.random() < 0.25:
                    return rng.choice(_FLOAT_EDGES)
                return rng.uniform(-1000.0, 1000.0)
        if isinstance(arg.type, PointerType):
            args[arg.name] = Buffer(ty, [draw() for _ in range(length)])
        else:
            args[arg.name] = draw()
    return args


def copy_arguments(args: Dict[str, object]) -> Dict[str, object]:
    from repro.ir.interp import Buffer

    return {name: value.copy() if isinstance(value, Buffer) else value
            for name, value in args.items()}


def same_value(a, b) -> bool:
    """Bit-level equality for interpreter results: NaN equals NaN and
    +0.0 differs from -0.0."""
    if isinstance(a, float) or isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


# -- the serve request stream ------------------------------------------


@dataclass(frozen=True)
class Request:
    """One compile request: its JSON body and the compile it names."""

    body: bytes
    kernel: str
    lang: str
    source: str


def rename_function(source: str, old: str, new: str) -> str:
    """Rename the mini-C function ``old`` to ``new`` (a source change
    that gives a never-seen canonical IR and so a never-seen cache key)."""
    renamed, count = re.subn(rf"\b{re.escape(old)}\s*\(", f"{new}(", source,
                             count=1)
    if count != 1:
        raise ValueError(f"function {old!r} not found in source")
    return renamed


def request_stream(rng: random.Random, kernels: Sequence[str],
                   sources: Dict[str, str], ir_texts: Dict[str, str],
                   target: str, count: int, tag: str) -> List[Request]:
    """``count`` requests: Zipf-popular repeats of the base kernels,
    half sent as mini-C and half as IR text, with about a
    :data:`NOVEL_SHARE` of requests renamed to a function the server has
    never compiled.

    What is asked is seeded; when the expensive requests come is not.
    The novel requests are whole rounds over ``kernels``, one in the
    middle of each equal slice of the stream, in an order that, like
    the popularity ranking, is drawn from a fixed seed: with two client
    connections, whether two misses overlap decided p99 more than the
    server did, and which kernel is hot sets the typical request's
    parse cost.  The run's ``rng`` picks every repeat request's kernel
    and every request's language.  ``tag`` keeps novel names unique
    across the streams of one run.
    """
    frozen = random.Random(f"{tag}:{count}:{','.join(sorted(kernels))}")
    ranked = sorted(kernels)
    frozen.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    rounds = max(1, round(NOVEL_SHARE * count / len(kernels)))
    novel_kernels = []
    for _ in range(rounds):
        order = sorted(kernels)
        frozen.shuffle(order)
        novel_kernels += order
    novel_kernels = novel_kernels[:count]
    slice_len = count / len(novel_kernels)
    novel_at = {int((i + 0.5) * slice_len): kernel
                for i, kernel in enumerate(novel_kernels)}
    requests = []
    for index in range(count):
        novel = index in novel_at
        if novel:
            kernel = novel_at[index]
        else:
            kernel = rng.choices(ranked, weights)[0]
        lang = "c" if rng.random() < 0.5 else "ir"
        if novel:
            base = sources[kernel]
            old = re.search(r"\bvoid\s+(\w+)\s*\(", base).group(1)
            source = rename_function(base, old, f"{old}_{tag}{index}")
            if lang == "ir":
                source = _ir_text(source)
        else:
            source = sources[kernel] if lang == "c" else ir_texts[kernel]
        body = json.dumps({"source": source, "lang": lang,
                           "target": target}).encode("utf-8")
        requests.append(Request(body, kernel, lang, source))
    return requests


def _ir_text(c_source: str) -> str:
    from repro.frontend import compile_c
    from repro.ir.printer import print_function

    return print_function(compile_c(c_source)[0])


def ir_texts(kernels: Sequence[str], sources: Dict[str, str]
             ) -> Dict[str, str]:
    return {k: _ir_text(sources[k]) for k in kernels}
