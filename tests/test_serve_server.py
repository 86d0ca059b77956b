"""HTTP-level tests against a real in-process server.

One shared :class:`ServerFixture` (background event loop + forked
worker) serves most tests; a couple of scenarios that need special
``ServeConfig`` values (backpressure, oversized bodies) spin their own.
"""

import asyncio

import pytest

from repro.serve.fixture import ServeClient, ServerFixture
from repro.serve.protocol import RESPONSE_SCHEMA, encode_body

_C_SRC = "void f(int* a, int* b) { a[0] = b[0] + b[1]; }"
_TWO_FNS = (
    "void first(int* a, int* b) { a[0] = b[0] + b[1]; } "
    "void second(int* a, int* b) { a[0] = b[0] * b[1]; }"
)


@pytest.fixture(scope="module")
def server():
    with ServerFixture(workers=1, max_batch=4) as fixture:
        yield fixture


# -- plumbing ----------------------------------------------------------


def test_healthz(server):
    async def main():
        client = ServeClient(server.host, server.port)
        await client.connect()
        try:
            status, _headers, doc = await client.request("GET", "/healthz")
        finally:
            await client.close()
        return status, doc

    status, doc = server.run(main())
    assert status == 200
    assert doc == {"status": "ok"}


def test_unknown_route_is_404(server):
    async def main():
        client = ServeClient(server.host, server.port)
        await client.connect()
        try:
            return await client.request("GET", "/nope")
        finally:
            await client.close()

    status, _headers, doc = server.run(main())
    assert status == 404
    assert doc["error"] == "not-found"


def test_wrong_methods_are_405(server):
    async def main():
        client = ServeClient(server.host, server.port)
        await client.connect()
        try:
            get_compile = await client.request("GET", "/compile")
            post_metrics = await client.request("POST", "/metrics", {})
        finally:
            await client.close()
        return get_compile, post_metrics

    (status_a, _h, _d), (status_b, _h2, _d2) = server.run(main())
    assert status_a == 405
    assert status_b == 405


def test_invalid_json_body_is_400(server):
    async def main():
        client = ServeClient(server.host, server.port)
        await client.connect()
        try:
            body = b"this is not json"
            head = (
                f"POST /compile HTTP/1.1\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            client._writer.write(head + body)
            await client._writer.drain()
            return await client._read_response()
        finally:
            await client.close()

    status, _headers, doc = server.run(main())
    assert status == 400
    assert doc["error"] == "bad-request"


def test_request_validation_errors(server):
    cases = [
        ({}, "source"),
        ({"source": _C_SRC, "lang": "fortran"}, "lang"),
        ({"source": _C_SRC, "target": "itanium"}, "target"),
        ({"source": _C_SRC, "frobnicate": 1}, "unknown request fields"),
        ({"source": _C_SRC, "timeout_s": -2}, "timeout_s"),
        ({"source": _C_SRC, "config": {"beam_width": "wide"}},
         "bad config"),
        ({"source": "void f() { syntax error", "lang": "c"}, "compile"),
    ]
    for payload, needle in cases:
        status, _headers, doc = server.compile(**payload)
        assert status == 400, payload
        assert needle in doc["message"], payload


def test_retired_search_knob_is_400_naming_the_field(server):
    """The four search-engine knobs retired with the legacy oracles
    (bitset, memoize, prune, bound) are unknown config fields now: a
    client still sending one gets a 400 naming it, never a compile
    under silently different settings."""
    status, _headers, doc = server.compile(source=_C_SRC,
                                           config={"bitset": False})
    assert status == 400, doc
    assert "bitset" in doc["message"]


def test_fault_field_rejected_without_allow_faults(server):
    status, _headers, doc = server.compile(source=_C_SRC, fault="crash")
    assert status == 400
    assert "fault" in doc["message"]


def test_multi_function_source_needs_function_field(server):
    status, _headers, doc = server.compile(source=_TWO_FNS)
    assert status == 400
    assert "function" in doc["message"]
    status, _headers, doc = server.compile(source=_TWO_FNS,
                                           function="second")
    assert status == 200
    assert doc["function"] == "second"


# -- the compile path --------------------------------------------------


def test_compile_miss_then_hit_byte_identical(server):
    payload = {"source": _C_SRC, "lang": "c", "target": "avx2"}
    status, headers, doc = server.compile(**payload)
    assert status == 200
    assert headers["x-repro-cache"] == "miss"
    key = headers["x-repro-key"]
    assert len(key) == 64
    int(key, 16)

    assert doc["schema"] == RESPONSE_SCHEMA
    assert doc["cache_key"] == key
    assert doc["function"] == "f"
    assert doc["target"] == "avx2"
    assert doc["vectorized"] in (True, False)
    assert isinstance(doc["program"], str) and doc["program"]
    assert doc["scalar_cost"] > 0
    assert "counters" in doc and "config" in doc

    before = server.metrics()["counters"].get("serve.cache_hits", 0)
    status2, headers2, doc2 = server.compile(**payload)
    assert status2 == 200
    assert headers2["x-repro-cache"] == "hit"
    assert headers2["x-repro-key"] == key
    # The hit replays the stored bytes: same doc, same canonical bytes.
    assert doc2 == doc
    assert encode_body(doc2) == encode_body(doc)
    after = server.metrics()["counters"]
    assert after["serve.cache_hits"] == before + 1
    assert after["serve.cache_memory_hits"] >= 1


def test_ir_lang_and_c_lang_share_cache_entries(server):
    """A request in mini-C and the same program submitted as canonical
    IR text content-address to the same key."""
    status, headers_c, doc = server.compile(
        source=_C_SRC, lang="c", target="sse4")
    assert status == 200
    status, headers_ir, doc_ir = server.compile(
        source=_ir_of(_C_SRC), lang="ir", target="sse4")
    assert status == 200
    assert headers_ir["x-repro-key"] == headers_c["x-repro-key"]
    assert headers_ir["x-repro-cache"] == "hit"
    assert doc_ir == doc


def _ir_of(c_source: str) -> str:
    from repro.frontend import compile_c
    from repro.ir.printer import print_function

    return print_function(compile_c(c_source)[0])


def test_config_override_changes_key_and_result_config(server):
    base = server.compile(source=_C_SRC, target="avx2")
    tweaked = server.compile(source=_C_SRC, target="avx2",
                             config={"beam_width": 2})
    assert base[0] == tweaked[0] == 200
    assert base[1]["x-repro-key"] != tweaked[1]["x-repro-key"]
    assert tweaked[2]["config"]["beam_width"] == 2


def test_keep_alive_connection_serves_many_requests(server):
    async def main():
        client = ServeClient(server.host, server.port)
        await client.connect()
        try:
            statuses = []
            for _ in range(4):
                status, _headers, _doc = await client.compile(
                    source=_C_SRC, target="avx2")
                statuses.append(status)
            return statuses
        finally:
            await client.close()

    assert server.run(main()) == [200, 200, 200, 200]


def test_metrics_document(server):
    server.compile(source=_C_SRC, target="avx2")
    doc = server.metrics()
    assert doc["schema"] == "repro-serve-metrics/v1"
    assert doc["counters"]["serve.requests"] >= 1
    assert doc["counters"]["serve.compiles"] >= 1
    assert len(doc["artifact_hash"]) == 64
    assert doc["cache"]["memory_entries"] >= 1
    assert len(doc["workers"]) == 1
    assert doc["workers"][0]["alive"]
    assert doc["config"]["workers"] == 1
    assert doc["config"]["vectorizer"]["beam_width"] == 8
    assert doc["uptime_s"] >= 0


# -- special-config servers --------------------------------------------


def test_max_pending_zero_means_immediate_429():
    with ServerFixture(workers=1, max_pending=0) as fixture:
        status, _headers, doc = fixture.compile(source=_C_SRC)
        assert status == 429
        assert doc["error"] == "overloaded"
        metrics = fixture.metrics()
        assert metrics["counters"]["serve.rejected"] >= 1
        assert metrics["counters"].get("serve.compiles", 0) == 0


def test_oversized_body_is_413(server):
    async def main():
        reader, writer = await asyncio.open_connection(
            server.host, server.port)
        try:
            head = (
                "POST /compile HTTP/1.1\r\n"
                "Content-Length: 99999999\r\n\r\n"
            ).encode()
            writer.write(head)
            await writer.drain()
            status_line = await reader.readline()
            return int(status_line.split()[1])
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    assert server.run(main()) == 413


def test_inline_pool_server_end_to_end():
    """workers=0 selects the thread-backed InlinePool; the whole HTTP
    path still works (used by tests that cannot fork)."""
    with ServerFixture(workers=0, inline_threads=2) as fixture:
        status, headers, doc = fixture.compile(source=_C_SRC,
                                               target="avx2")
        assert status == 200
        assert headers["x-repro-cache"] == "miss"
        assert doc["schema"] == RESPONSE_SCHEMA
        status2, headers2, doc2 = fixture.compile(source=_C_SRC,
                                                  target="avx2")
        assert status2 == 200 and headers2["x-repro-cache"] == "hit"
        assert doc2 == doc
