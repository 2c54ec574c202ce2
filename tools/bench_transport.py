"""Client cost of one live LM call: CPU and wall time per ``HTTPBackend.generate``.

    python3 tools/bench_transport.py [SRC]      # SRC: the lmpipe source tree to time, default ./src

Starts a ``ThreadingHTTPServer`` on loopback in a child process that answers
every request with one chat completion at once, first over HTTP/1.0 (a
connection per call) and then over HTTP/1.1 with Nagle's algorithm off (one
kept-alive connection). For each, one ``HTTPBackend`` makes WARMUP calls, then
REPS repetitions of CALLS timed calls of a 3,000-character prompt. It prints
one JSON line: the median and the quartiles, over the repetitions, of the
client process's CPU time (``time.process_time``) and wall time per call, in
milliseconds, and how many connections each server accepted (one per call
over HTTP/1.0; one in all over HTTP/1.1, if the client pools as it should).
The server's work is in the other process and is not counted.
Give another checkout's ``src`` to time that code with this script.
Not part of the tier-1 tests.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import statistics
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

SRC = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"

WARMUP = 200
REPS = 10
CALLS = 300
PROMPT = ("Context: the Harbor Stone Bridge was designed by Ana Vidal in Lisbon. " * 43)[:3000]
REPLY = json.dumps({"choices": [{"index": 0, "message": {
    "role": "assistant", "content": "Reasoning: The passage names the city.\nAnswer: Lisbon"}}]}).encode()


class CompletionHandler(BaseHTTPRequestHandler):
    """Answers each POST with ``REPLY``; HTTP/1.0, so each connection serves one."""

    def log_message(self, format, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(REPLY)))
        self.end_headers()
        self.wfile.write(REPLY)


class KeepAliveHandler(CompletionHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True


HANDLERS = {"HTTP/1.0": CompletionHandler, "HTTP/1.1": KeepAliveHandler}


class CountingServer(ThreadingHTTPServer):
    """Counts the connections it accepts in ``accepted``, a value shared with the parent process."""

    def __init__(self, handler, accepted) -> None:
        super().__init__(("127.0.0.1", 0), handler)
        self.accepted = accepted

    def process_request(self, request, client_address) -> None:
        self.accepted.value += 1  # on the accepting thread only
        super().process_request(request, client_address)


def serve(protocol: str, conn, accepted) -> None:
    """The child process: serve ``protocol`` on a free loopback port, sent back on ``conn``."""
    server = CountingServer(HANDLERS[protocol], accepted)
    conn.send(server.server_address[1])
    server.serve_forever()


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def time_protocol(protocol: str) -> dict:
    from lmpipe.backend import EndpointConfig, HTTPBackend

    context = multiprocessing.get_context("spawn")
    receive, send = context.Pipe(duplex=False)
    accepted = context.Value("q", 0)
    server = context.Process(target=serve, args=(protocol, send, accepted), daemon=True)
    server.start()
    try:
        port = receive.recv()
        backend = HTTPBackend(EndpointConfig(model="m", api_base=f"http://127.0.0.1:{port}", timeout=30))
        try:
            for _ in range(WARMUP):
                backend.generate(PROMPT)
            cpu_ms, wall_ms = [], []
            for _ in range(REPS):
                cpu, wall = time.process_time(), time.perf_counter()
                for _ in range(CALLS):
                    backend.generate(PROMPT)
                cpu_ms.append((time.process_time() - cpu) / CALLS * 1e3)
                wall_ms.append((time.perf_counter() - wall) / CALLS * 1e3)
        finally:
            backend.close()
    finally:
        server.terminate()
        server.join(timeout=10)
        receive.close()
        send.close()
    return {"cpu_ms": quartiles(cpu_ms), "wall_ms": quartiles(wall_ms), "connections": accepted.value}


def main() -> None:
    sys.path.insert(0, str(SRC.resolve()))
    os.environ["LM_API_KEY"] = "sk-bench"
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1"  # a proxy in the environment is bypassed
    result = {"src": str(SRC), "warmup": WARMUP, "reps": REPS, "calls": CALLS, "unit": "ms per call"}
    result.update((protocol, time_protocol(protocol)) for protocol in HANDLERS)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
