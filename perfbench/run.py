#!/usr/bin/env python3
"""lmpipe benchmark: one run of one workload.

    python3 perfbench/run.py --workload eval-live --seed 1 --seconds 15 --trace 0

Workloads (see ``gen.WORKLOADS``):

* ``eval-live``: ``cmd_eval --strategy infer_assert`` over all four tasks on
  a 50-passage corpus, 2 worker threads, ``HTTPBackend`` behind the response
  cache, against a stub LM on loopback that answers after 20 ms. Wall time is
  set by LM waits, concurrency and retry passes.
* ``compile-live``: ``cmd_compile --strategy compile_infer_assert`` for
  multihop and tweet against the same stub, 1 client. Candidates re-run
  overlapping teacher runs, so calls repeat and the cache is exercised.
* ``eval-bigcorpus``: offline scripted ``cmd_eval`` of the three retrieval
  tasks over a 5000-passage corpus, 1 worker, no LM latency: framework CPU,
  mostly the BM25 scan, and the index build in set-up.

Each is a closed loop from one process. The run generates the inputs from
``--seed``, self-checks them offline, starts the stub for live workloads, and
runs ``client.py`` for ``--seconds``. Every pass's outputs are checked against
the generator's expectation. The last line of output is one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run (spans go to ``.bench_work/spans-<workload>-<seed>.jsonl``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
DEADLINE_S = 170


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as ``BENCHMARK.json`` lists them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def start_stub(workdir: Path) -> tuple[subprocess.Popen, str]:
    stub = subprocess.Popen(
        [sys.executable, str(HERE / "stub.py"), "--scripts", str(workdir)],
        stdout=subprocess.PIPE, text=True,
    )
    port = stub.stdout.readline().strip()
    if not port.isdigit():
        stop(stub)
        raise RuntimeError("stub LM endpoint did not start")
    return stub, f"http://127.0.0.1:{port}"


def stop(process: subprocess.Popen) -> None:
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def format_table(metrics: dict) -> str:
    width = max(len(name) for name in metrics)
    return "\n".join(
        f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run one lmpipe benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    missing = [p for p in ("BENCHMARK.json", "src/lmpipe/cli.py", "tools/make_fixtures.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an lmpipe checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import gen

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(gen.WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    stub = None
    try:
        spec = gen.generate(args.workload, args.seed, workdir)
        gen.self_check(workdir)
        command = [sys.executable, str(HERE / "client.py"), "--workdir", str(workdir),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if spec["live"]:
            stub, api_base = start_stub(workdir)
            command += ["--api-base", api_base]
        if args.trace:
            command += ["--spans", str(WORK / f"spans-{args.workload}-{args.seed}.jsonl")]
        client = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=max(1.0, DEADLINE_S - (time.perf_counter() - began)))
    finally:
        if stub is not None:
            stop(stub)
        shutil.rmtree(workdir, ignore_errors=True)
    if client.returncode != 0 or not client.stdout.strip():
        print(f"error: benchmark client failed with code {client.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(client.stdout.strip().splitlines()[-1])
    metrics = {name: {"value": raw["metrics"][name], "unit": unit}
               for name, unit in metric_units(args.trace).items()}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"samples {json.dumps(raw['samples'], sort_keys=True)}  "
          f"machine speed {raw['machine_speed']:.3f} of the reference")
    print(f"  attempted {raw['attempted']}  failed {raw['failed']}  "
          f"error_rate {raw['failed'] / max(1, raw['attempted']):.4f}")
    print(format_table(metrics))
    print(json.dumps({
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
