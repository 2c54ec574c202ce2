"""Footprint of a live LM call: peak memory, modules loaded and the first call's milliseconds.

    python3 tools/bench_footprint.py [SRC]      # SRC: the lmpipe source tree to measure, default ./src

Each of RUNS fresh interpreters imports ``lmpipe.cli`` and reads its VmHWM
(peak resident memory, from ``/proc/self/status``) and ``len(sys.modules)``;
then it makes one live call through ``cli.make_backend`` to a loopback port
that nothing listens on, and reads them again, with that call's wall
milliseconds. The call fails at connect, so it costs what a first call costs
lmpipe before any byte goes out: resolving the endpoint, reading the proxy
variables, opening the socket. The proxy variables are cleared, so the call
goes direct. It prints one JSON line: the median, the quartiles and every
run of each reading, and which of ``urllib.request``, ``http.client``,
``email`` and ``ssl`` the call left loaded. Give another checkout's ``src``
to measure that code with this script. Linux only (it reads ``/proc``).
Not part of the tier-1 tests.
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"

RUNS = 15
HEAVY = ("urllib.request", "http.client", "email", "ssl")

CHILD = """\
import json, sys, time


def reading():
    with open("/proc/self/status") as status:
        kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return {"vmhwm_mib": kib / 1024, "modules": len(sys.modules)}


import lmpipe.cli as cli
from lmpipe.backend import BackendError

imported = reading()
backend = cli.make_backend(cli.RunConfig(task="tweet", strategy="vanilla", out_dir="out",
                                         api_base=f"http://127.0.0.1:{sys.argv[1]}/v1"))
start = time.perf_counter()
try:
    backend.generate("p")
except BackendError:  # nothing listens there
    pass
call_ms = (time.perf_counter() - start) * 1e3
print(json.dumps({"import": imported, "live_call": {**reading(), "call_ms": call_ms},
                  "loaded": [m for m in sys.argv[2:] if m in sys.modules]}))
"""


def closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 3), "median": round(median, 3), "q3": round(q3, 3),
            "runs": [round(v, 3) for v in values]}


def main() -> None:
    env = {name: value for name, value in os.environ.items() if not name.lower().endswith("_proxy")}
    env.update(LM_API_KEY="sk-bench", PYTHONPATH=str(SRC.resolve()))
    runs = []
    for _ in range(RUNS):
        child = subprocess.run([sys.executable, "-c", CHILD, str(closed_port()), *HEAVY],
                               env=env, capture_output=True, text=True, check=True, timeout=60)
        runs.append(json.loads(child.stdout))
    result = {"src": str(SRC), "runs": RUNS}
    for stage, keys in (("import", ("vmhwm_mib", "modules")),
                        ("live_call", ("vmhwm_mib", "modules", "call_ms"))):
        result[stage] = {key: quartiles([run[stage][key] for run in runs]) for key in keys}
    result["live_call"]["loaded"] = sorted({m for run in runs for m in run["loaded"]})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
