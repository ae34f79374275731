"""The served side: a ``repro-graph serve`` process and its NDJSON client.

The server gets only the graph file, ``--port 0`` and ``--ready-file``;
every other option stays at its default, so a change that deletes an
option leaves the benchmark as it is.  It is stopped with SIGINT (the
drain path) and reaped; SIGKILL only if it has not exited 30 s later.

The client drives two closed-loop connections from this process: each
connection sends its next request only after the previous response
arrived.  Every response is checked by the caller; a closed
connection or a missing response raises :class:`CheckFailed`.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from perfbench.oracle import CheckFailed

CONNECTIONS = 2
#: the server's default auto-swap threshold (``serve --swap-after``):
#: a group of this many writes triggers exactly one rebuild-and-swap
WRITE_GROUP = 64
RESPONSE_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 150.0
VISIBLE_TIMEOUT_S = 90.0
VISIBLE_POLL_S = 0.01


def _child_signals() -> None:
    # a parent started with SIGINT ignored would pass that on; the
    # server must see SIGINT to drain
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class ServerProcess:
    """One ``python -m repro serve`` child (the ``repro-graph`` CLI)."""

    def __init__(self, src: Path, graph_path: Path, run_dir: Path) -> None:
        self.src = src
        self.graph_path = graph_path
        self.ready_path = run_dir / "ready.json"
        self.log_path = run_dir / "server.log"
        self.proc: subprocess.Popen | None = None
        #: the log's tail, kept when the server is stopped
        self.final_log = ""

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 str(self.graph_path), "--port", "0",
                 "--ready-file", str(self.ready_path)],
                stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT, env=env,
                preexec_fn=_child_signals)

    def wait_ready(self) -> tuple[str, int]:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with "
                                   f"{self.proc.returncode}:\n{self.log()}")
            try:
                ready = json.loads(self.ready_path.read_text("utf-8"))
            except (OSError, ValueError):
                time.sleep(0.01)
                continue
            return ready["host"], ready["port"]
        raise RuntimeError(f"server not ready after {READY_TIMEOUT_S}s")

    def stop(self) -> int | None:
        """SIGINT, wait, reap; returns the exit code (None if never run)."""
        proc = self.proc
        if proc is None:
            return None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if not self.final_log:
            self.final_log = self.log()
        return proc.returncode

    def log(self) -> str:
        try:
            return self.log_path.read_text("utf-8", errors="replace")[-4000:]
        except OSError:
            return ""


class Connection:
    """One NDJSON connection, one request in flight at a time."""

    def __init__(self, reader, writer, counter: list[int]) -> None:
        self.reader = reader
        self.writer = writer
        self._counter = counter

    async def call(self, request: dict) -> dict:
        self._counter[0] += 1
        try:
            self.writer.write(json.dumps(request, separators=(",", ":"))
                              .encode("utf-8") + b"\n")
            await self.writer.drain()
            line = await asyncio.wait_for(self.reader.readline(),
                                          RESPONSE_TIMEOUT_S)
        except asyncio.TimeoutError:
            raise CheckFailed(f"no response to {request.get('op')} "
                              f"within {RESPONSE_TIMEOUT_S}s") from None
        except ConnectionError as exc:
            raise CheckFailed(f"connection lost during "
                              f"{request.get('op')}: {exc}") from None
        if not line:
            raise CheckFailed(f"connection closed before the response "
                              f"to {request.get('op')}")
        response = json.loads(line)
        if not response.get("ok"):
            raise CheckFailed(f"{request.get('op')} failed: {response}")
        return response


class Client:
    """Two closed-loop connections and the count of requests sent."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self.sent = [0]
        self.connections: list[Connection] = []

    def connect(self, address: tuple[str, int]) -> None:
        async def open_all():
            for _ in range(CONNECTIONS):
                reader, writer = await asyncio.open_connection(
                    *address, limit=1 << 22)
                self.connections.append(
                    Connection(reader, writer, self.sent))
        self.loop.run_until_complete(open_all())

    def close(self) -> None:
        async def close_all():
            for connection in self.connections:
                connection.writer.close()
                try:
                    await connection.writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        if self.connections:
            self.loop.run_until_complete(close_all())
        self.connections = []

    def run(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    # -- phases ----------------------------------------------------------
    def each(self, items: list, call) -> list:
        """Run ``call(connection, item)`` over ``items``, split between
        the connections, each a closed loop; results keep item order."""
        results: list = [None] * len(items)

        async def drive(connection: Connection, offset: int):
            for index in range(offset, len(items), CONNECTIONS):
                results[index] = await call(connection, items[index])

        async def all_connections():
            await asyncio.gather(*(drive(connection, offset)
                                   for offset, connection
                                   in enumerate(self.connections)))
        self.run(all_connections())
        return results

    @staticmethod
    async def timed(connection: Connection, request: dict):
        started = time.perf_counter()
        response = await connection.call(request)
        finished = time.perf_counter()
        return started, finished, response

    def ping(self) -> dict:
        return self.run(self.connections[0].call({"op": "ping"}))

    def stats(self) -> dict:
        return self.run(self.connections[0].call({"op": "stats"}))["stats"]

    def wait_for_epoch(self, above: int) -> tuple[float, int]:
        """Poll ``ping`` until the served epoch passes ``above``."""
        deadline = time.perf_counter() + VISIBLE_TIMEOUT_S

        async def poll():
            connection = self.connections[0]
            while True:
                response = await connection.call({"op": "ping"})
                if response["epoch"] > above:
                    return time.perf_counter(), response["epoch"]
                if time.perf_counter() > deadline:
                    raise CheckFailed(
                        f"writes not visible within {VISIBLE_TIMEOUT_S}s "
                        f"(epoch still {response['epoch']})")
                await asyncio.sleep(VISIBLE_POLL_S)
        return self.run(poll())
