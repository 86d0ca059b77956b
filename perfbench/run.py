"""The repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload x86-avx2 --seed 1 --seconds 32 --trace 0

Run from the root of a checkout.  Every run measures the four phases of
the system in one process (see NOTES.md for why):

* beam   -- ``compile_c`` + ``VectorizationSession.vectorize`` over all
            33 bundled kernels for the workload's target (beam width 8);
* exact  -- the same compile with ``exact=True`` at the 50k-node probe
            budget over a frozen list of cells;
* gen    -- ``repro.target.generate_artifact()`` from cleared caches;
* serve  -- a ``repro serve`` subprocess driven open-loop over HTTP at
            two fixed rates.

The run is cut into four rounds, and each round runs a quarter of every
phase, so that each timing is spread over the whole run.  Then, outside
every timed window, it checks the outputs (interpreters, TransVal,
one-shot reference compiles, the committed artifact).  With
``--trace 0`` the last stdout line is the end-to-end metrics; with
``--trace 1`` the phases are run again with tracing on and the last line
is the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Requests in each serve stream per second of ``--seconds``: 1024 at
#: the declared 32 s, so that each p99 has ten samples beyond it.  The
#: lo stream then lasts ~10 s and the hi stream ~7 s; the beam, exact
#: and gen phases (~20 s together) take the rest.
STREAM_REQUESTS_PER_S = 32

#: Open-loop serve rates, requests/s: about 1/4 and 1/3 of the rate
#: both workloads' streams sustained at the seed without their median
#: latency growing over a 6 s stream (x86-avx2 ~400-500 req/s, arm-neon128
#: ~450-500; 2-core Xeon, AVX-512 VNNI, Python 3.11).  Higher, a spell of
#: the host running slower brings the stream near saturation: at 300
#: req/s p99 moved by 45% from run to run, and at 200 req/s p50 moved by
#: a third (three runs of ten read 2.9-3.4 ms against 2.1-2.5).
SERVE_LO_RATE = 100.0
SERVE_HI_RATE = 150.0

#: Latency limit behind ``serve_hi.slo_frac``, from the request's due
#: time.
SLO_LIMIT_MS = 100.0

#: Rounds a run is cut into; each timed quantity is measured a piece
#: per round (see :func:`run`).
ROUNDS = 4

#: Cold set-ups per run behind ``setup_s`` (the median is reported), of
#: the benchmark process and of the server each, spread over the first
#: three rounds.
SETUP_TRIALS = 3

#: Reported in place of a latency percentile that lands on a failed or
#: refused request (JSON has no infinity).
FAILED_LATENCY_MS = 1e9

_STARTED = time.perf_counter()


def log(stage: str) -> None:
    """Progress on stderr (stdout carries the result)."""
    print(f"[{time.perf_counter() - _STARTED:6.1f}s] {stage}",
          file=sys.stderr, flush=True)


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="a few kernels per phase (the benchmark's "
                             "own tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--baseline-only", metavar="KERNELS",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(target: str):
    """Everything before the first timed operation: the program's
    imports (frontend included), the artifact load and the two warm
    sessions."""
    from repro.frontend import compile_c  # noqa: F401
    from repro.session import VectorizationSession
    from repro.vectorizer.context import VectorizerConfig

    from inputs import BEAM_WIDTH, EXACT_NODE_BUDGET

    beam = VectorizationSession(target=target, beam_width=BEAM_WIDTH)
    exact = VectorizationSession(
        target=target, beam_width=BEAM_WIDTH,
        config=VectorizerConfig(beam_width=BEAM_WIDTH, exact=True,
                                exact_node_budget=EXACT_NODE_BUDGET))
    beam.target, exact.target  # load the artifact now, not in phase 1
    return beam, exact


def time_cold_setup(workload: str) -> float:
    """Spawn a fresh interpreter that runs :func:`setup`; seconds from
    spawn until it reports ready."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        stdout=subprocess.PIPE, cwd=str(ROOT))
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        if child.wait(timeout=60) != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe failed")
    finally:
        end_child(child)
    return elapsed


def start_baseline(workload: str, kernels: Sequence[str]
                   ) -> subprocess.Popen:
    """Start a second interpreter that compiles ``kernels`` with the
    baseline vectorizer (:func:`baseline_main`); read it with
    :func:`finish_baseline`."""
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--baseline-only",
         ",".join(kernels), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, cwd=str(ROOT))


def finish_baseline(child: subprocess.Popen, timeout_s: float = 120.0):
    """The baseline child's (costs, seconds), once it has exited."""
    out, _ = child.communicate(timeout=timeout_s)
    if child.returncode != 0:
        raise RuntimeError("baseline compiles failed")
    costs, seconds = json.loads(out)
    return costs, seconds


def end_child(child: subprocess.Popen) -> None:
    """Kill ``child`` if it still runs, and wait until it has ended."""
    if child.poll() is None:
        child.kill()
    child.wait()
    if child.stdout is not None:
        child.stdout.close()


def baseline_main(target: str, kernels: Sequence[str]) -> None:
    import inputs
    import phases

    sources = inputs.kernel_sources()
    print(json.dumps(phases.baseline_costs(
        target, [(k, sources[k]) for k in kernels])), flush=True)


def percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered))
                                      - 1))
    return ordered[index]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_ms(records, limit_ms=None) -> Dict[str, float]:
    """p50/p99 from due time (failed requests count as infinitely late)
    and the share of requests answered 2xx within ``limit_ms``."""
    lat = [r.latency_s * 1e3 if 200 <= r.status < 300 else math.inf
           for r in records]

    def finite(v: float) -> float:
        return v if math.isfinite(v) else FAILED_LATENCY_MS

    out = {"p50": finite(percentile(lat, 0.50)),
           "p99": finite(percentile(lat, 0.99)), "n": len(lat),
           "failed": sum(1 for v in lat if math.isinf(v))}
    if limit_ms is not None:
        out["slo"] = sum(1 for v in lat if v <= limit_ms) / len(lat)
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- the serve phase ---------------------------------------------------


class ServePhase:
    """The compile server and the lo and hi streams, driven one block of
    each per round.

    The server is spawned once with an empty ``--cache-dir`` and stays
    up for the whole run; every base key is requested once first (its
    cold miss), so repeats in the streams repeat earlier keys.  Two more
    cold spawns, each on its own empty cache dir and stopped at once,
    are timed for ``setup_s`` (:meth:`probe_setup`)."""

    def __init__(self, target: str, seed: int, seconds: float,
                 kernels: List[str], sources: Dict[str, str]):
        import inputs

        rng = random.Random(f"{seed}:serve")
        irs = inputs.ir_texts(kernels, sources)
        count = max(1, int(STREAM_REQUESTS_PER_S * seconds))
        self.lo = inputs.request_stream(rng, kernels, sources, irs, target,
                                        count, "lo")
        self.hi = inputs.request_stream(rng, kernels, sources, irs, target,
                                        count, "hi")
        self.warm = [inputs.Request(
            json.dumps({"source": sources[k], "lang": "c",
                        "target": target}).encode(), k, "c", sources[k])
            for k in kernels]
        # At most nproc client connections and compile workers: one each
        # per core of the 2-core box the benchmark was sized on.
        self.connections = min(2, os.cpu_count() or 1)
        self.root = WORK / f"serve-{os.getpid()}"
        self.ready_s: List[float] = []
        self.server = None
        self.warm_records: List = []
        self.lo_records: List = []
        self.hi_records: List = []
        self.before: Dict[str, int] = {}

    def _spawn(self, name: str):
        import inputs
        import loadgen

        server = loadgen.ServeProcess(
            str(SRC), str(self.root / name), self.connections,
            inputs.BEAM_WIDTH).start()
        self.ready_s.append(server.ready_s)
        return server

    def _drive(self, requests, rate: float) -> List:
        import loadgen

        # The generator shares this process with the in-process phases'
        # heap; frozen, it is not rescanned by collections mid-stream.
        gc.collect()
        gc.freeze()
        try:
            return loadgen.drive_open_loop(
                self.server.port, [r.body for r in requests], rate,
                self.connections)
        finally:
            gc.unfreeze()

    def start(self) -> None:
        self.server = self._spawn("cache")
        self.warm_records = self._drive(self.warm, SERVE_LO_RATE)
        self.before = self.server.get("/metrics")["counters"]

    def probe_setup(self) -> None:
        self._spawn(f"probe{len(self.ready_s)}").stop()

    def drive_block(self, index: int, blocks: int) -> None:
        """Block ``index`` of ``blocks`` equal slices of each stream,
        each an open loop of its own at the stream's rate."""
        for stream, records, rate in (
                (self.lo, self.lo_records, SERVE_LO_RATE),
                (self.hi, self.hi_records, SERVE_HI_RATE)):
            block = stream[len(stream) * index // blocks:
                           len(stream) * (index + 1) // blocks]
            records += self._drive(block, rate)

    def result(self) -> Dict:
        """Records, spawn timings and /metrics deltas over the streams."""
        after = self.server.get("/metrics")["counters"]
        delta = {k: after.get(k, 0) - self.before.get(k, 0)
                 for k in set(after) | set(self.before)}
        return {
            "ready_s": self.ready_s,
            "requests": self.warm + self.lo + self.hi,
            "records": self.warm_records + self.lo_records
            + self.hi_records,
            "lo": self.lo_records, "hi": self.hi_records, "counters": delta,
        }

    def stop(self) -> None:
        """Stop the server and its workers and remove the cache dirs."""
        if self.server is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.root, ignore_errors=True)


def check_serve(serve: Dict, target: str, check) -> None:
    """Every 2xx body's program, vector cost and pack count equal a
    one-shot compile of the same request; replays of one cache key are
    byte-identical."""
    from repro.frontend import compile_c
    from repro.ir.parser import parse_function
    from repro.session import VectorizationSession

    from inputs import BEAM_WIDTH

    session = VectorizationSession(target=target, beam_width=BEAM_WIDTH)
    first_body: Dict[str, bytes] = {}
    for index, (request, record) in enumerate(zip(serve["requests"],
                                                  serve["records"])):
        op = f"request {index}"
        check.attempted += 1
        if not 200 <= record.status < 300:
            check.fail(op, f"HTTP {record.status}")
            continue
        body = json.loads(record.body)
        key = body["cache_key"]
        if key in first_body:
            if first_body[key] != record.body:
                check.fail(op, f"replay of {key[:12]} differs")
            continue
        first_body[key] = record.body
        function = (compile_c(request.source)[0] if request.lang == "c"
                    else parse_function(request.source))
        result = session.vectorize(function)
        if (body["program"] != result.program.dump()
                or body["vector_cost"] != result.cost.total
                or body["num_packs"] != len(result.packs)):
            check.fail(op, f"{request.kernel}: body differs from a "
                           f"one-shot compile")


# -- one run -----------------------------------------------------------


def run(args: argparse.Namespace) -> Dict:
    import inputs
    import phases
    from inputs import EXACT_EXHAUSTING, EXACT_PROVED, WORKLOAD_TARGETS
    from repro.obs import Counters, Tracer

    target = WORKLOAD_TARGETS[args.workload]
    beam_session, exact_session = setup(target)

    # Compile order is fixed: the seed drives the serve stream and the
    # checks' inputs.  A seeded order moved peak RSS by up to 20% (the
    # heap a kernel leaves behind depends on what ran before it).
    sources = inputs.kernel_sources()
    beam_kernels = sorted(sources)
    exact_kernels = list(EXACT_PROVED[target]) + list(EXACT_EXHAUSTING)
    serve_kernels = inputs.light_kernels(sources, target)
    if args.tiny:
        beam_kernels = ["complex_mul", "isel_max_ps", "isel_pmaddwd"]
        exact_kernels = ["complex_mul", "isel_max_ps"]
        serve_kernels = ["complex_mul", "isel_max_ps", "isel_hadd_ps"]
    inputs.require_known(beam_kernels + exact_kernels + serve_kernels,
                         [target], sources)
    beam_sources = [(k, sources[k]) for k in beam_kernels]
    exact_sources = [(k, sources[k]) for k in exact_kernels]

    # -- timed phases, tracing off --------------------------------------
    # The host's speed drifts by 20-40% over tens of seconds, so the run
    # is cut into ROUNDS rounds and every timed quantity is measured a
    # piece per round: a set-up probe, a generation, every ROUNDS-th
    # beam and exact cell, and a block of each serve stream.  Each piece
    # starts from a collected heap, so that garbage the one before it
    # left behind is not collected on its clock.
    setup_samples, generations = [], []
    beam_cells, exact_cells = [], []
    compile_s = verdict_s = 0.0
    serve_phase = ServePhase(target, args.seed, args.seconds,
                             serve_kernels, sources)
    try:
        serve_phase.start()
        for index in range(ROUNDS):
            log(f"round {index + 1}/{ROUNDS}")
            if index < SETUP_TRIALS:
                setup_samples.append(time_cold_setup(args.workload))
            if 0 < index < SETUP_TRIALS:
                serve_phase.probe_setup()
            gc.collect()
            generations.append(phases.generate_once())
            gc.collect()
            cells, seconds = phases.compile_cells(
                beam_session, beam_sources[index::ROUNDS])
            beam_cells += cells
            compile_s += seconds
            gc.collect()
            cells, seconds = phases.compile_cells(
                exact_session, exact_sources[index::ROUNDS],
                per_cell_counters=True)
            exact_cells += cells
            verdict_s += seconds
            serve_phase.drive_block(index, ROUNDS)
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024)
        serve = serve_phase.result()
    finally:
        serve_phase.stop()
    # Back to the declared order, which the traced run compiles in.
    beam_cells.sort(key=lambda c: beam_kernels.index(c.kernel))
    exact_cells.sort(key=lambda c: exact_kernels.index(c.kernel))

    # -- checks, outside the timed windows ------------------------------
    log("checks")
    # The baseline compiles (for slp_speedup_geomean) run in a second
    # process beside the other checks; nothing is being timed now.
    baseline = start_baseline(args.workload, beam_kernels)
    try:
        tracer = Tracer() if args.trace else None
        layer_counters = Counters() if args.trace else None
        check_rng = random.Random(f"{args.seed}:check")
        checks = {name: phases.CheckResult()
                  for name in ("beam", "exact", "gen", "serve")}
        phases.check_cells(beam_cells, check_rng, checks["beam"], tracer,
                           layer_counters)
        phases.check_cells(exact_cells, check_rng, checks["exact"], tracer,
                           layer_counters)
        beam_costs = {c.kernel: c.result.cost.total for c in beam_cells}
        phases.check_exact(exact_cells, beam_costs, checks["exact"])
        committed = (SRC / "repro" / "target"
                     / "vegen_targets.json").read_text()
        for index, (text, _) in enumerate(generations):
            checks["gen"].attempted += 1
            if text != committed:
                checks["gen"].fail(f"generation {index}",
                                   "artifact differs from vegen_targets.json")
        log("serve check")
        check_serve(serve, target, checks["serve"])
        baseline_cost, baseline_s = finish_baseline(baseline)
    finally:
        end_child(baseline)

    proved = sum(1 for c in exact_cells
                 if c.counters.get("beam.exact_proved") > 0)
    lo = latency_ms(serve["lo"])
    hi = latency_ms(serve["hi"], SLO_LIMIT_MS)
    report = {
        "workload": args.workload, "target": target, "seed": args.seed,
        "checks": checks,
        "samples": {"setup": SETUP_TRIALS, "beam_cells": len(beam_cells),
                    "exact_cells": len(exact_cells),
                    "generations": len(generations),
                    "serve_lo": lo["n"], "serve_lo_failed": lo["failed"],
                    "serve_hi": hi["n"], "serve_hi_failed": hi["failed"],
                    "serve_hits": sum(1 for r in serve["lo"] + serve["hi"]
                                      if r.cache == "hit"),
                    "serve_misses": sum(1 for r in serve["records"]
                                        if r.cache == "miss")},
        "end_to_end": {
            "setup_s": statistics.median(setup_samples)
            + statistics.median(serve["ready_s"]),
            "compile_s": compile_s,
            "peak_rss_mb": peak_rss_mb,
            "cost_ratio_geomean": geomean(
                [c.result.cost.total / c.result.scalar_cost
                 for c in beam_cells]),
            "slp_speedup_geomean": geomean(
                [baseline_cost[c.kernel] / c.result.cost.total
                 for c in beam_cells]),
            "correct_frac": min(c.share for c in checks.values()),
            "verdict_s": verdict_s,
            "proved_frac": proved / len(exact_cells),
            "gen_s": statistics.median(t for _, t in generations),
            "serve_lo.p50_ms": lo["p50"],
            "serve_hi.slo_frac": hi["slo"],
        },
    }
    if args.trace:
        log("traced phases")
        report["per_layer"] = traced_layers(
            target, beam_session, exact_session, beam_sources,
            exact_sources, beam_cells, exact_cells, serve,
            tracer, layer_counters, checks, baseline_s)
    return report


def traced_layers(target, beam_session, exact_session, beam_sources,
                  exact_sources, beam_cells, exact_cells, serve,
                  check_tracer, check_counters, checks, baseline_s
                  ) -> Dict[str, float]:
    """Run beam, exact and gen again with tracing on, require the same
    packs, costs and artifact as the untraced run, and derive the
    per-layer metrics from the spans and counters."""
    import phases
    from repro.obs import Counters, Tracer
    from repro.target import clear_caches, get_target

    tracer = Tracer()
    clear_caches()
    with tracer.span("target.load"):
        get_target(target)

    # Each beam cell compiles untraced and traced, back to back, so that
    # the host's drifting speed cancels out of the overhead ratio.  Each
    # compile starts from a collected heap and the pair's order
    # alternates, because the garbage one compile leaves is collected on
    # the next one's clock: two untraced compiles of every cell, back to
    # back without collections, differed by 34% in total (7% with them).
    beam_counters = Counters()
    beam_tracer = Tracer()
    traced_beam, plain_s, traced_s = [], 0.0, 0.0
    for index, cell_source in enumerate(beam_sources):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            gc.collect()
            if traced:
                cells, seconds = phases.compile_cells(
                    beam_session, [cell_source], beam_tracer, beam_counters)
                traced_beam += cells
                traced_s += seconds
            else:
                plain_s += phases.compile_cells(beam_session,
                                                [cell_source])[1]
    exact_counters = Counters()
    exact_tracer = Tracer()
    gc.collect()
    traced_exact, _ = phases.compile_cells(
        exact_session, exact_sources, exact_tracer, exact_counters,
        per_cell_counters=True)
    gen_tracer = Tracer()
    gen = phases.generate_layers(gen_tracer)

    pairs = [("beam", beam_cells, traced_beam),
             ("exact", exact_cells, traced_exact)]
    for phase, plain, traced in pairs:
        for a, b in zip(plain, traced):
            if a.signature() != b.signature():
                checks[phase].fail(a.kernel, "traced compile differs")
    if not gen["unliftable_matches"]:
        checks["gen"].fail("traced generation",
                           "unliftable specs differ from the artifact")

    emit_bytes = 0
    for cell in traced_beam:
        with phases.span(tracer, "emit.emit_c"):
            emit_bytes += len(cell.result.c_source.encode("utf-8"))

    def self_s(tr, name):
        return sum(s.self_time_s for root in tr.roots for s in root.walk()
                   if s.name == name)

    def total_s(tr, name):
        return sum(s.duration_s for root in tr.roots for s in root.walk()
                   if s.name == name)

    b = beam_counters
    e = exact_counters
    s = serve["counters"]
    bound_fires = (b.get("beam.bound_heuristic_skips")
                   + b.get("beam.bound_rollout_stops")
                   + b.get("beam.bound_completion_skips"))
    exact_s = total_s(exact_tracer, "select_packs")
    hits = [r.service_s * 1e3 for r in serve["lo"] + serve["hi"]
            if r.cache == "hit"]
    misses = [r.service_s * 1e3 for r in serve["records"]
              if r.cache == "miss"]
    timed = serve["lo"] + serve["hi"]
    return {
        "frontend.compile_c_s": total_s(beam_tracer, "frontend.compile_c"),
        "frontend.ir_insts": sum(len(c.function.instructions)
                                 for c in traced_beam),
        "patterns.canonicalize_s": total_s(beam_tracer, "canonicalize"),
        "patterns.canon_rewrites": b.get("canon.rewrites"),
        "ir.dep_graph_s": total_s(beam_tracer, "dep_graph"),
        "patterns.match_table_s": total_s(beam_tracer, "match_table"),
        "patterns.roots_tried": b.get("matcher.roots_tried"),
        "patterns.match_ratio": ratio(b.get("matcher.matches_found"),
                                      b.get("matcher.roots_tried")),
        "vectorizer.seeds_s": total_s(beam_tracer, "seed_enumeration"),
        "vectorizer.select_packs_s": self_s(beam_tracer, "select_packs"),
        "vectorizer.beam.states_expanded": b.get("beam.states_expanded"),
        "vectorizer.beam.children": b.get("beam.children_generated"),
        "vectorizer.beam.prune_ratio": ratio(
            b.get("beam.candidates_pruned"),
            b.get("beam.children_generated")),
        "vectorizer.beam.tt_hit_ratio": ratio(
            b.get("beam.tt_hits"), b.get("beam.children_generated")),
        "vectorizer.beam.rollouts": b.get("beam.rollouts"),
        "vectorizer.producers.hit_ratio": ratio(
            b.get("producers.cache_hits"),
            b.get("producers.cache_hits") + b.get("producers.cache_misses")),
        "vectorizer.bounds.evals": b.get("beam.bound_evals"),
        "vectorizer.bounds.fire_ratio": ratio(bound_fires,
                                              b.get("beam.bound_evals")),
        "vectorizer.codegen_s": total_s(beam_tracer, "codegen"),
        "vectorizer.codegen.gathers": b.get("codegen.gathers_emitted"),
        "machine.cost_model_s": total_s(beam_tracer, "cost_model"),
        "target.load_s": total_s(tracer, "target.load"),
        "vectorizer.exact_s": exact_s,
        "vectorizer.exact.nodes": e.get("beam.exact_nodes"),
        "vectorizer.exact.nodes_per_s": ratio(e.get("beam.exact_nodes"),
                                              exact_s),
        "vectorizer.exact.proved": e.get("beam.exact_proved"),
        "vectorizer.exact.exhausted": e.get("beam.exact_budget_exhausted"),
        "vectorizer.bounds.prunes": e.get("beam.bound_prunes"),
        "vectorizer.bounds.dominance_cuts": e.get(
            "beam.bound_dominance_cuts"),
        # The serve tails and the hi median, reported here without a
        # bound: across ten runs their spread exceeded the largest bound
        # a gated metric may have (see NOTES.md).  serve_lo.p50_ms and
        # serve_hi.slo_frac are the gated serve metrics.
        "serve_lo.p99_ms": latency_ms(serve["lo"])["p99"],
        "serve_hi.p50_ms": latency_ms(serve["hi"])["p50"],
        "serve_hi.p99_ms": latency_ms(serve["hi"])["p99"],
        "serve.hit_ms.p50": percentile(hits, 0.5) if hits else 0.0,
        "serve.miss_ms.p50": percentile(misses, 0.5) if misses else 0.0,
        "serve.miss_ms.p90": percentile(misses, 0.90) if misses else 0.0,
        "serve.cache.hit_ratio": ratio(
            s.get("serve.cache_hits", 0),
            s.get("serve.cache_hits", 0) + s.get("serve.cache_misses", 0)),
        "serve.cache.memory_hits": s.get("serve.cache_memory_hits", 0),
        "serve.cache.disk_hits": s.get("serve.cache_disk_hits", 0),
        "serve.cache.evictions": s.get("serve.cache_evictions", 0)
        + s.get("serve.cache_disk_evictions", 0),
        "serve.workers.compiles": s.get("serve.compiles", 0),
        "serve.workers.batch_share": ratio(
            s.get("serve.batched_requests", 0), s.get("serve.compiles", 0)),
        "serve.rejected": s.get("serve.rejected", 0),
        "serve.timeouts": s.get("serve.timeouts", 0),
        "serve.errors": s.get("serve.errors", 0),
        "serve.worker_respawns": s.get("serve.worker_respawns", 0),
        "loadgen.conn_wait_ms.p99": percentile(
            [r.conn_wait_s * 1e3 for r in timed], 0.99),
        "loadgen.late_ms.max": max(r.late_s * 1e3 for r in timed),
        "pseudocode.parse_s": total_s(gen_tracer, "pseudocode.parse"),
        "vidl.lift_s": total_s(gen_tracer, "vidl.lift"),
        "patterns.canonicalize_ops_s": total_s(gen_tracer,
                                               "patterns.canonicalize_ops"),
        "target.artifact_s": total_s(gen_tracer, "target.artifact"),
        "gen.specs": gen["specs"],
        "gen.lift_ratio": gen["lifted"] / gen["specs"],
        "analysis.transval_s": total_s(check_tracer, "analysis.transval"),
        "analysis.transval.goals": check_counters.get("transval.goals"),
        "analysis.transval.enum_frac": ratio(
            check_counters.get("transval.enumerated"),
            check_counters.get("transval.goals")),
        "emit.emit_c_s": total_s(tracer, "emit.emit_c"),
        "emit.bytes": emit_bytes,
        "baseline.vectorize_s": baseline_s,
        "ir.interp_s": total_s(check_tracer, "ir.interp"),
        "machine.exec_s": total_s(check_tracer, "machine.exec"),
        "obs.trace_overhead_frac": traced_s / plain_s - 1.0,
    }


def machine_facts() -> Dict[str, object]:
    flags: List[str] = []
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith(("flags", "Features")):
                    flags = sorted(f for f in line.split(":", 1)[1].split()
                                   if f.startswith(("sse", "avx", "fma",
                                                    "asimd", "neon")))
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_flags": " ".join(flags),
            "python": platform.python_version()}


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    # A terminated run unwinds like an interrupted one, so that the
    # compile server and its workers are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import WORKLOAD_TARGETS
    from loadgen import become_subreaper

    if args.workload not in WORKLOAD_TARGETS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(WORKLOAD_TARGETS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(WORKLOAD_TARGETS[args.workload])
        print("ready", flush=True)
        return 0
    if args.baseline_only:
        baseline_main(WORKLOAD_TARGETS[args.workload],
                      args.baseline_only.split(","))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    become_subreaper()
    report = run(args)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    values = report[kind]
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")

    print(f"workload {report['workload']} (target {report['target']}), "
          f"seed {report['seed']}")
    for name, value in sorted(machine_facts().items()):
        print(f"  machine.{name}: {value}")
    print(f"  samples: {report['samples']}")
    for phase, check in report["checks"].items():
        verdict = "correct" if not check.failed else "INCORRECT"
        print(f"  check {phase}: {verdict}, "
              f"{check.attempted - len(check.failed)}/{check.attempted} "
              f"passed")
        for op, reasons in list(check.failed.items())[:10]:
            print(f"    {op}: {'; '.join(reasons)}")
    for name in units:
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    attempted = sum(c.attempted for c in report["checks"].values())
    failed = sum(len(c.failed) for c in report["checks"].values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
