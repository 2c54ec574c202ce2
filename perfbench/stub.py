"""Stub OpenAI-compatible LM endpoint for the lmpipe benchmark.

Serves ``POST /chat/completions`` on loopback from generated LM scripts, one
script per model name (the benchmark names each task's model after the task).
Each model's answers come from lmpipe's own ``ScriptedBackend`` over its
script, so matching is exactly the offline self-check's. Every request waits
20 ms before its reply, standing in for a live LM. An unscripted prompt gets a
404, which the client sees as a backend error.

``GET /stats`` returns the requests served, their prompt characters and the
unscripted ones. Run:

    python3 perfbench/stub.py --scripts DIR

It listens on a free port, prints that port as its first line and serves
until SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lmpipe.backend import (  # noqa: E402
    BackendError, GenerationParams, ScriptedBackend, UnscriptedPromptError, load_script,
)

DELAY_S = 0.020


def load_backends(scripts_dir: Path) -> dict[str, ScriptedBackend]:
    """Model name -> scripted backend over ``<model>/script.json``."""
    return {path.parent.name: ScriptedBackend(load_script(path))
            for path in sorted(scripts_dir.glob("*/script.json"))}


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, backends: dict[str, ScriptedBackend]):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.backends = backends
        self.lock = threading.Lock()
        self.stats = {"requests": 0, "prompt_chars": 0, "unscripted": 0}


class StubHandler(BaseHTTPRequestHandler):
    server: StubServer

    def log_message(self, format, *args):  # keep the benchmark's output clean
        pass

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/stats":
            self._reply(404, {"error": {"message": f"no route {self.path}"}})
            return
        with self.server.lock:
            self._reply(200, dict(self.server.stats))

    def do_POST(self):
        if self.path != "/chat/completions":
            self._reply(404, {"error": {"message": f"no route {self.path}"}})
            return
        length = int(self.headers.get("Content-Length", 0))
        try:
            request = json.loads(self.rfile.read(length))
            prompt = request["messages"][-1]["content"]
            model, n = request.get("model", ""), int(request.get("n", 1))
            backend = self.server.backends.get(model)
            completions = backend.generate(prompt, GenerationParams(n=n)) if backend else None
        except UnscriptedPromptError:
            completions = None
        except (ValueError, KeyError, IndexError, TypeError, BackendError) as exc:
            self._reply(400, {"error": {"message": f"bad request: {exc}"}})
            return
        with self.server.lock:
            self.server.stats["requests"] += 1
            self.server.stats["prompt_chars"] += len(prompt)
            self.server.stats["unscripted"] += completions is None
        time.sleep(DELAY_S)
        if completions is None:
            self._reply(404, {"error": {"message": f"unscripted prompt for model {model!r}"}})
            return
        self._reply(200, {"object": "chat.completion", "model": model, "choices": [
            {"index": i, "message": {"role": "assistant", "content": text}, "finish_reason": "stop"}
            for i, text in enumerate(completions)
        ]})


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Stub OpenAI-compatible LM endpoint.")
    parser.add_argument("--scripts", required=True, help="directory of <model>/script.json")
    args = parser.parse_args(argv)
    server = StubServer(load_backends(Path(args.scripts)))

    def stop(signum, frame):
        threading.Thread(target=server.shutdown).start()

    signal.signal(signal.SIGTERM, stop)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
