"""The serve phase's side of the wire: a ``repro serve`` subprocess and an
open-loop HTTP load generator.

The generator is open-loop: request ``i`` is due at ``start + i / rate``
whatever happened to earlier requests, and its latency is timed from
that due time, so a stall on the server (or a wait for a free client
connection) is charged to every request it delays.  One asyncio process
drives at most ``nproc`` keep-alive connections; a due request waits in
a FIFO until a connection is free.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


#: Seconds a stopped server gets to exit on SIGINT before it is killed.
STOP_GRACE_S = 5.0

#: Seconds past the last due time after which unanswered requests are
#: recorded as failed, so a wedged server cannot stall the run.
DRAIN_S = 30.0


#: Talks to the local server directly, whatever proxy the environment
#: names.
_DIRECT = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def become_subreaper() -> None:
    """Make this process the parent of every orphan among its
    descendants (Linux ``PR_SET_CHILD_SUBREAPER``), so that it can wait
    for the server's workers after the server itself has exited.
    Elsewhere a no-op: the orphans go to init, already killed."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


class ServerError(RuntimeError):
    """The compile server failed to start or to answer."""


class ServeProcess:
    """``python -m repro serve`` on a free port, in its own session so
    that stopping it also reaps its forked compile workers."""

    def __init__(self, src_dir: str, cache_dir: str, workers: int,
                 beam_width: int):
        self.src_dir = src_dir
        self.cache_dir = cache_dir
        self.workers = workers
        self.beam_width = beam_width
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        #: Spawn until the first ``/healthz`` answered 200 (workers are
        #: forked before the server prints its listening line).
        self.ready_s: Optional[float] = None

    def start(self, timeout_s: float = 60.0) -> "ServeProcess":
        env = dict(os.environ, PYTHONPATH=self.src_dir)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(self.workers),
             "--beam-width", str(self.beam_width),
             "--cache-dir", self.cache_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            start_new_session=True,
        )
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise ServerError(f"repro serve did not start: {line!r}")
        self.port = int(match.group(1))
        while True:
            try:
                if self.get("/healthz", timeout_s=5.0)["status"] == "ok":
                    break
            except (OSError, urllib.error.URLError, ServerError):
                pass
            if time.perf_counter() - start > timeout_s:
                self.stop()
                raise ServerError("repro serve never became healthy")
            time.sleep(0.005)
        self.ready_s = time.perf_counter() - start
        return self

    def get(self, path: str, timeout_s: float = 10.0) -> Dict:
        url = f"http://127.0.0.1:{self.port}{path}"
        with _DIRECT.open(url, timeout=timeout_s) as response:
            if response.status != 200:
                raise ServerError(f"GET {path}: HTTP {response.status}")
            return json.loads(response.read())

    def stop(self) -> None:
        """SIGINT the server (the CLI stops its worker pool), give it
        ``STOP_GRACE_S``, then SIGKILL its whole process group, so that
        no forked worker outlives the run either."""
        if self.proc is None:
            return
        group = self.proc.pid
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self.proc = None
        # Workers the server left behind were handed to this process
        # (see become_subreaper); wait until each has ended.
        while True:
            try:
                os.waitpid(-group, 0)
            except ChildProcessError:
                break


@dataclass
class Record:
    """What happened to one request, times in seconds."""

    late_s: float        # generator woke this long after the due time
    conn_wait_s: float   # due time until a connection started sending
    latency_s: float     # due time until the response was read
    service_s: float     # send until the response was read
    status: int          # HTTP status, 0 when the connection failed
    cache: str           # X-Repro-Cache header ("hit"/"miss"/"")
    body: bytes


async def _exchange(reader, writer, body: bytes):
    writer.write(b"POST /compile HTTP/1.1\r\nHost: bench\r\n"
                 b"Content-Type: application/json\r\n"
                 b"Content-Length: " + str(len(body)).encode() +
                 b"\r\n\r\n" + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("server closed the connection")
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = await reader.readexactly(int(headers.get("content-length",
                                                       "0")))
    return status, headers.get("x-repro-cache", ""), payload


async def _drive(port: int, bodies: Sequence[bytes], rate: float,
                 connections: int) -> List[Record]:
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    records: List[Optional[Record]] = [None] * len(bodies)
    start = loop.time() + 0.05

    async def dispatch() -> None:
        for index in range(len(bodies)):
            due = start + index / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((index, due, loop.time() - due))
        for _ in range(connections):
            queue.put_nowait(None)

    async def connection() -> None:
        reader = writer = None
        while True:
            item = await queue.get()
            if item is None:
                break
            index, due, late = item
            sent = loop.time()
            status, cache, payload = 0, "", b""
            try:
                if writer is None:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port)
                status, cache, payload = await _exchange(
                    reader, writer, bodies[index])
            except (OSError, asyncio.IncompleteReadError, ValueError,
                    IndexError):
                if writer is not None:
                    writer.close()
                reader = writer = None
            done = loop.time()
            records[index] = Record(late, sent - due, done - due,
                                    done - sent, status, cache, payload)
        if writer is not None:
            writer.close()
            await writer.wait_closed()

    tasks = [asyncio.ensure_future(dispatch())]
    tasks += [asyncio.ensure_future(connection())
              for _ in range(connections)]
    limit = len(bodies) / rate + DRAIN_S
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=limit)
    except asyncio.TimeoutError:
        pass  # requests still unanswered are recorded as failed below
    return [record if record is not None else
            Record(0.0, 0.0, limit, limit, 0, "", b"")
            for record in records]


def drive_open_loop(port: int, bodies: Sequence[bytes], rate: float,
                    connections: int) -> List[Record]:
    """Send ``bodies`` at ``rate`` requests/s over ``connections``
    keep-alive connections; one :class:`Record` per body, in order."""
    return asyncio.run(_drive(port, bodies, rate, connections))
