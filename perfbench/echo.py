"""A reference HTTP/JSON server: serve-mix's host-speed probe.

Usage: ``python perfbench/echo.py`` prints ``listening on PORT`` and serves
until SIGTERM.

It answers every POST with the JSON body it received, through the same kind
of path the daemon takes: an asyncio stream server that hands the request
body to a worker thread and closes the connection after the reply.  Timing
round trips against it (:class:`EchoProbe`) measures how fast the host
currently runs this kind of work (sockets, context switches, HTTP and JSON
handling in Python) with none of the program's code involved, so a change to
the program moves serve-mix's adjusted times exactly as it moves the raw
ones.
"""

from __future__ import annotations

import asyncio
import json
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

#: Round trips per probe; the probe is their median.
ROUND_TRIPS = 30


def _answer(body: bytes) -> bytes:
    return json.dumps({"echo": json.loads(body)}).encode("utf-8")


async def _handle(reader, writer, pool: ThreadPoolExecutor) -> None:
    try:
        head = await reader.readuntil(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await reader.readexactly(length)
        reply = await asyncio.get_running_loop().run_in_executor(pool, _answer, body)
        writer.write(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(reply) + reply
        )
        await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def _serve() -> None:
    pool = ThreadPoolExecutor(max_workers=1)
    server = await asyncio.start_server(
        lambda reader, writer: _handle(reader, writer, pool), "127.0.0.1", 0
    )
    print(f"listening on {server.sockets[0].getsockname()[1]}", flush=True)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    async with server:
        await stop.wait()
    pool.shutdown()


class EchoProbe:
    """The echo server as a child process, and round trips timed against it."""

    def __init__(self, cwd: Path, payload: dict) -> None:
        from repro.serve.loadgen import DaemonClient

        self.payload = payload
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            cwd=cwd, stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline()
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"echo server did not start: {line!r}")
        self.client = DaemonClient("127.0.0.1", int(line.split()[-1]), timeout=60.0)

    def seconds(self) -> float:
        """Median wall time of ``ROUND_TRIPS`` POSTs of the payload."""
        samples = []
        for _ in range(ROUND_TRIPS):
            started = time.perf_counter()
            status, _ = self.client.post_json("/echo", self.payload)
            samples.append(time.perf_counter() - started)
            if status != 200:
                raise RuntimeError(f"echo server answered {status}")
        return statistics.median(samples)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()


if __name__ == "__main__":
    asyncio.run(_serve())
