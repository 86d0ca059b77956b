"""Standalone ``select_packs`` microbenchmark.

Search-core work used to require a full-matrix ``repro bench`` run to
measure; this script times just the pack-selection phase on the
heaviest kernels (the 5 slowest by committed ``BENCH_vegen.json``
select_packs time — together ~90% of the matrix's search wall time) and
prints a table.

Usage::

    python benchmarks/bench_select_packs.py
    python benchmarks/bench_select_packs.py --repeats 3 --warm
    python benchmarks/bench_select_packs.py --targets sse4 --kernels dsp_sbc

``--warm`` adds a warm-started rerun column (identical packs, pruned
search).  Each measurement uses a fresh session, so every run is a
cold search — comparable to the bench harness's cells — and
``--repeats N`` reports the best of N to shave scheduler noise.

This is a script, not a pytest module: it has no assertions and its
wall times are machine-dependent by design.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

#: The 5 slowest kernels by committed BENCH_vegen.json select_packs
#: time (they dominate the matrix total; everything else is <0.5s).
#: The single slowest cell is dsp_sbc on neon128 (19.1 s in the
#: pre-bound trajectory), which is why neon128 is in the default
#: target set.
DEFAULT_KERNELS = ("dsp_sbc", "dsp_idct8", "tvm_dot", "dsp_idct4",
                   "dsp_fft8")

DEFAULT_TARGETS = ("sse4", "avx2", "avx512_vnni", "neon128")


def time_select_packs(kernel_name: str, target: str, beam_width: int,
                      repeats: int, warm_start: bool = False) -> float:
    """Best-of-``repeats`` select_packs wall time, fresh session each."""
    from repro.kernels import all_kernels
    from repro.obs import Tracer
    from repro.session import VectorizationSession
    from repro.vectorizer.context import VectorizerConfig

    function = all_kernels()[kernel_name]
    best = float("inf")
    for _ in range(repeats):
        session = VectorizationSession(
            target=target, beam_width=beam_width,
            config=VectorizerConfig(beam_width=beam_width,
                                    warm_start=warm_start),
        )
        tracer = Tracer()
        session.vectorize(function, tracer=tracer)
        best = min(best, tracer.phase_times().get("select_packs", 0.0))
    return best


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="time select_packs on the slowest kernels")
    parser.add_argument("--kernels", default=",".join(DEFAULT_KERNELS),
                        help="comma-separated kernel names "
                             f"(default: {','.join(DEFAULT_KERNELS)})")
    parser.add_argument("--targets", default=",".join(DEFAULT_TARGETS),
                        help="comma-separated targets "
                             f"(default: {','.join(DEFAULT_TARGETS)})")
    parser.add_argument("--beam-width", type=int, default=8,
                        help="beam width (default 8, the bench setting)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="take the best of N runs (default 1)")
    parser.add_argument("--warm", action="store_true",
                        help="also time a warm-started rerun (the run "
                             "itself seeds the in-process cache)")
    args = parser.parse_args(argv)

    kernels = [k.strip() for k in args.kernels.split(",") if k.strip()]
    targets = [t.strip() for t in args.targets.split(",") if t.strip()]

    from repro.kernels import all_kernels

    unknown = [k for k in kernels if k not in all_kernels()]
    if unknown:
        print(f"unknown kernels: {', '.join(unknown)}", file=sys.stderr)
        return 2

    header = f"{'kernel':14s} {'target':12s} {'cold':>9s}"
    if args.warm:
        header += f" {'warm':>9s}"
    print(header)
    print("-" * len(header))

    totals = {"cold": 0.0, "warm": 0.0}
    start = time.perf_counter()
    for name in kernels:
        for target in targets:
            cold = time_select_packs(name, target, args.beam_width,
                                     args.repeats)
            totals["cold"] += cold
            line = f"{name:14s} {target:12s} {cold:8.3f}s"
            if args.warm:
                # First call above did not use the cache; this one seeds
                # it (cold) and the timed second call prunes from it.
                time_select_packs(name, target, args.beam_width, 1,
                                  warm_start=True)
                warm = time_select_packs(name, target, args.beam_width,
                                         args.repeats, warm_start=True)
                totals["warm"] += warm
                line += f" {warm:8.3f}s"
            print(line, flush=True)
    footer = f"{'total':14s} {'':12s} {totals['cold']:8.3f}s"
    if args.warm:
        footer += f" {totals['warm']:8.3f}s"
    print("-" * len(header))
    print(footer)
    print(f"(best of {args.repeats}, beam width {args.beam_width}, "
          f"{time.perf_counter() - start:.1f}s elapsed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
