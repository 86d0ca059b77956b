"""Load-generator tests: a small real run of ``repro bench --serve``
machinery plus the validator's failure modes (the same checks the CI
serve-smoke job relies on to fail the build)."""

import copy
import io
import json

import pytest

from repro.serve.loadgen import (
    run_serve_bench,
    render_serve_summary,
    validate_serve_bench,
    write_serve_bench,
)


@pytest.fixture(scope="module")
def bench_doc():
    return run_serve_bench(
        kernel_names=("complex_mul",),
        targets=("avx2",),
        concurrency=8,
        hot_requests=40,
        workers=1,
    )


def test_small_bench_is_valid_and_healthy(bench_doc):
    validate_serve_bench(bench_doc)  # raises on any problem
    assert bench_doc["non_2xx"] == 0
    assert bench_doc["unique_requests"] == 1
    assert bench_doc["hot_requests"] == 40
    assert bench_doc["cold"]["count"] == 1
    assert bench_doc["hot"]["count"] == 40
    assert bench_doc["counters"]["serve.cache_hits"] >= 40
    assert bench_doc["hot"]["throughput_rps"] > 0
    # The unloaded hit phase replays each cached request ≥50 times.
    assert bench_doc["hit"]["count"] >= 50
    # Hit requests replay cached bytes; cold ones run pack selection.
    assert bench_doc["cache_speedup_p50"] > 1.0


def test_bench_doc_round_trips_through_writer(bench_doc, tmp_path):
    path = str(tmp_path / "BENCH_serve.json")
    write_serve_bench(bench_doc, path)
    with open(path) as handle:
        again = json.load(handle)
    validate_serve_bench(again)
    assert again == json.loads(json.dumps(bench_doc))


def test_render_summary_mentions_the_headline_numbers(bench_doc):
    stream = io.StringIO()
    render_serve_summary(bench_doc, stream=stream)
    text = stream.getvalue()
    assert "repro bench --serve" in text
    assert "p50" in text
    assert "cache" in text


def test_validator_rejects_non_2xx(bench_doc):
    doc = copy.deepcopy(bench_doc)
    doc["non_2xx"] = 3
    with pytest.raises(ValueError, match="non-2xx"):
        validate_serve_bench(doc)


def test_validator_rejects_unproven_cache_hits(bench_doc):
    doc = copy.deepcopy(bench_doc)
    doc["counters"]["serve.cache_hits"] = doc["hot_requests"] - 1
    with pytest.raises(ValueError, match="unproven cache hits"):
        validate_serve_bench(doc)


def test_validator_rejects_malformed_documents(bench_doc):
    with pytest.raises(ValueError, match="JSON object"):
        validate_serve_bench(["not", "a", "dict"])
    with pytest.raises(ValueError, match="schema"):
        validate_serve_bench({"schema": "something-else"})
    doc = copy.deepcopy(bench_doc)
    del doc["cache_speedup_p50"]
    with pytest.raises(ValueError, match="cache_speedup_p50"):
        validate_serve_bench(doc)
    doc = copy.deepcopy(bench_doc)
    doc["hot"]["p99_ms"] = "fast"
    with pytest.raises(ValueError, match="p99_ms"):
        validate_serve_bench(doc)


def test_default_kernels_all_exist():
    """The default request mix names real kernels: an unknown name
    raises in ``run_serve_bench`` rather than silently shrinking the
    mix."""
    from repro.kernels import all_kernels
    from repro.serve.loadgen import DEFAULT_KERNELS

    assert set(DEFAULT_KERNELS) <= set(all_kernels())
    assert len(set(DEFAULT_KERNELS)) == len(DEFAULT_KERNELS)
