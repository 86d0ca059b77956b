"""Load generator for the compile server (``repro bench --serve``).

Spins up an in-process :class:`~repro.serve.fixture.ServerFixture`,
drives it with many concurrent keep-alive clients, and writes a
``BENCH_serve.json`` trajectory:

* a **cold** phase compiles each unique (kernel, target) request once —
  these latencies include the real pack-selection search;
* a **hot** phase replays the same requests round-robin from
  ``concurrency`` concurrent clients — after the cold phase every one
  must be a cache hit; its latencies measure the server *under load*
  (queueing included) and its wall clock gives throughput;
* a **hit** phase replays the cached requests from a single unloaded
  client — its latencies measure the cache-hit service path itself,
  which is what ``cache_speedup_p50`` compares against a cold compile.

Reported: p50/p99/mean latency for all three phases, hot-phase
throughput, the cold/hit speedup, and the server's ``serve.*``
counters.  The document fails validation if any request was non-2xx or
the hot phase can't prove its cache hits against ``/metrics``.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Dict, List, Optional, Sequence

#: Schema identifier; bump on any breaking change.
SERVE_BENCH_SCHEMA = "repro-serve-bench/v1"

#: Default output file name.
DEFAULT_SERVE_BENCH_PATH = "BENCH_serve.json"

#: Small kernels that cover distinct pipeline shapes without making the
#: cold phase dominate the run.
DEFAULT_KERNELS = (
    "complex_mul",
    "isel_pmaddwd",
    "isel_hadd_i32",
    "isel_hsub_i32",
    "isel_abs_i32",
    "dsp_fft4",
)


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def _latency_stats(samples_s: List[float]) -> Dict:
    ordered = sorted(samples_s)
    count = len(ordered)
    return {
        "count": count,
        "p50_ms": round(_percentile(ordered, 0.50) * 1e3, 3),
        "p90_ms": round(_percentile(ordered, 0.90) * 1e3, 3),
        "p99_ms": round(_percentile(ordered, 0.99) * 1e3, 3),
        "max_ms": round((ordered[-1] if ordered else 0.0) * 1e3, 3),
        "mean_ms": round(
            (sum(ordered) / count if count else 0.0) * 1e3, 3
        ),
    }


def run_serve_bench(kernel_names: Optional[Sequence[str]] = None,
                    targets: Sequence[str] = ("avx2",),
                    concurrency: int = 128,
                    hot_requests: int = 1000,
                    workers: int = 2,
                    beam_width: int = 8,
                    cache_dir: Optional[str] = None,
                    progress=None) -> Dict:
    """Run the cold+hot load profile; returns the bench document."""
    import asyncio

    from repro import __version__
    from repro.ir.printer import print_function
    from repro.kernels import all_kernels
    from repro.serve.fixture import ServeClient, ServerFixture
    from repro.vectorizer.context import VectorizerConfig

    kernels = all_kernels()
    if kernel_names is None:
        kernel_names = DEFAULT_KERNELS
    unknown = [k for k in kernel_names if k not in kernels]
    if unknown:
        raise KeyError(f"unknown kernels: {', '.join(sorted(unknown))}")

    payloads = [
        {
            "source": print_function(kernels[name]),
            "lang": "ir",
            "target": target,
            "config": {"beam_width": beam_width},
        }
        for target in targets
        for name in kernel_names
    ]

    fixture = ServerFixture(
        workers=workers,
        cache_dir=cache_dir,
        max_pending=max(4 * concurrency, 512),
        queue_depth=max(2 * concurrency, 128),
        default_config=VectorizerConfig(beam_width=beam_width),
    )
    fixture.start()
    statuses: List[int] = []
    try:
        async def _drive(requests: List[Dict], n_clients: int,
                         samples: List[float]) -> None:
            queue: "asyncio.Queue" = asyncio.Queue()
            for payload in requests:
                queue.put_nowait(payload)

            async def _client_loop() -> None:
                client = ServeClient(fixture.host, fixture.port)
                await client.connect()
                try:
                    while True:
                        try:
                            payload = queue.get_nowait()
                        except asyncio.QueueEmpty:
                            return
                        start = time.perf_counter()
                        status, _headers, _doc = await client.compile(
                            **payload
                        )
                        samples.append(time.perf_counter() - start)
                        statuses.append(status)
                finally:
                    await client.close()

            await asyncio.gather(
                *(_client_loop() for _ in range(n_clients))
            )

        if progress is not None:
            progress(f"serve bench: cold phase, {len(payloads)} unique "
                     f"requests over {workers or 'inline'} workers")
        cold_samples: List[float] = []
        cold_start = time.perf_counter()
        # Cold phase runs with modest client concurrency: every request
        # is a real compile and the point is per-request latency.
        fixture.run(
            _drive(payloads, min(8, len(payloads)), cold_samples),
            timeout=600.0,
        )
        cold_wall = time.perf_counter() - cold_start

        hot_payloads = [payloads[i % len(payloads)]
                        for i in range(hot_requests)]
        if progress is not None:
            progress(f"serve bench: hot phase, {hot_requests} requests "
                     f"from {concurrency} concurrent clients")
        hot_samples: List[float] = []
        hot_start = time.perf_counter()
        fixture.run(
            _drive(hot_payloads, concurrency, hot_samples),
            timeout=600.0,
        )
        hot_wall = time.perf_counter() - hot_start

        # Unloaded hit phase: one client, so each sample is the cache
        # lookup + byte replay itself, with no queueing behind the
        # other `concurrency - 1` clients sharing the event loop.
        hit_count = max(len(payloads), 50)
        hit_payloads = [payloads[i % len(payloads)]
                        for i in range(hit_count)]
        if progress is not None:
            progress(f"serve bench: hit phase, {hit_count} requests "
                     f"from 1 unloaded client")
        hit_samples: List[float] = []
        hit_start = time.perf_counter()
        fixture.run(
            _drive(hit_payloads, 1, hit_samples),
            timeout=600.0,
        )
        hit_wall = time.perf_counter() - hit_start
        metrics = fixture.metrics()
    finally:
        fixture.stop()

    non_2xx = sum(1 for status in statuses if not 200 <= status < 300)
    cold = _latency_stats(cold_samples)
    hot = _latency_stats(hot_samples)
    hit = _latency_stats(hit_samples)
    speedup = (cold["p50_ms"] / hit["p50_ms"]
               if hit["p50_ms"] > 0 else 0.0)
    counters = metrics.get("counters", {})
    return {
        "schema": SERVE_BENCH_SCHEMA,
        "version": __version__,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "workers": workers,
        "concurrency": concurrency,
        "beam_width": beam_width,
        "targets": list(targets),
        "kernels": list(kernel_names),
        "unique_requests": len(payloads),
        "hot_requests": hot_requests,
        "non_2xx": non_2xx,
        "cold": dict(cold, wall_s=round(cold_wall, 3)),
        "hot": dict(
            hot,
            wall_s=round(hot_wall, 3),
            throughput_rps=round(
                len(hot_samples) / hot_wall if hot_wall > 0 else 0.0, 1
            ),
        ),
        "hit": dict(hit, wall_s=round(hit_wall, 3)),
        "cache_speedup_p50": round(speedup, 1),
        "counters": {name: value for name, value in counters.items()
                     if name.startswith("serve.")},
    }


def validate_serve_bench(doc: Dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a valid, *healthy* serve
    bench: well-formed, all responses 2xx, and hot-phase cache hits
    proved by the server's own counters."""
    if not isinstance(doc, dict):
        raise ValueError("serve bench document must be a JSON object")
    if doc.get("schema") != SERVE_BENCH_SCHEMA:
        raise ValueError(
            f"unknown serve bench schema {doc.get('schema')!r}; "
            f"expected {SERVE_BENCH_SCHEMA!r}"
        )
    for field in ("version", "workers", "concurrency", "targets",
                  "kernels", "unique_requests", "hot_requests",
                  "non_2xx", "cold", "hot", "hit", "cache_speedup_p50",
                  "counters"):
        if field not in doc:
            raise ValueError(f"serve bench missing field {field!r}")
    for phase in ("cold", "hot", "hit"):
        for stat in ("count", "p50_ms", "p99_ms", "mean_ms", "wall_s"):
            if not isinstance(doc[phase].get(stat), (int, float)):
                raise ValueError(f"serve bench {phase}.{stat} malformed")
    if doc["non_2xx"]:
        raise ValueError(
            f"serve bench recorded {doc['non_2xx']} non-2xx responses"
        )
    hits = doc["counters"].get("serve.cache_hits", 0)
    if hits < doc["hot_requests"]:
        raise ValueError(
            f"unproven cache hits: serve.cache_hits={hits} but the hot "
            f"phase sent {doc['hot_requests']} repeat requests"
        )


def write_serve_bench(doc: Dict,
                      path: str = DEFAULT_SERVE_BENCH_PATH) -> None:
    validate_serve_bench(doc)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_serve_summary(doc: Dict, stream=None) -> None:
    import sys

    out = stream or sys.stdout
    hot = doc["hot"]
    cold = doc["cold"]
    print(
        f"repro bench --serve: {doc['unique_requests']} unique / "
        f"{doc['hot_requests']} hot requests, "
        f"{doc['concurrency']} concurrent clients, "
        f"{doc['workers'] or 'inline'} workers",
        file=out,
    )
    print(
        f"  cold: p50 {cold['p50_ms']:.1f}ms  p99 {cold['p99_ms']:.1f}ms"
        f"  (n={cold['count']})",
        file=out,
    )
    print(
        f"  hot : p50 {hot['p50_ms']:.2f}ms  p99 {hot['p99_ms']:.2f}ms"
        f"  {hot['throughput_rps']:.0f} req/s  (n={hot['count']})",
        file=out,
    )
    hit = doc["hit"]
    print(
        f"  hit : p50 {hit['p50_ms']:.2f}ms  p99 {hit['p99_ms']:.2f}ms"
        f"  (n={hit['count']}, 1 unloaded client)",
        file=out,
    )
    print(
        f"  cache speedup (cold p50 / unloaded hit p50): "
        f"{doc['cache_speedup_p50']:.0f}x; "
        f"hits {doc['counters'].get('serve.cache_hits', 0)}, "
        f"misses {doc['counters'].get('serve.cache_misses', 0)}",
        file=out,
    )
