#!/usr/bin/env python3
"""One command for the whole lmpipe benchmark, with human-readable tables.

    python3 perfbench/report.py --seed 1 --seconds 15

For every workload it runs ``run.py`` untraced and then traced, and prints:
the machine (Python version, CPU model, CPU count); the end-to-end table,
one row per metric with its unit and one column per workload; and for each
workload the per-layer table, the self time per traced function, and the
tracing overhead. It exits non-zero when any run fails or reports incorrect
outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent


def compile_rows(metrics: dict, per_compile: int) -> list[tuple[str, str, float]]:
    """The per-compile rows of the end-to-end table, from the per-example
    metrics. A compile's examples are the train and dev examples it is given."""
    value = {name: m["value"] for name, m in metrics.items()}
    return [
        ("compile_s", "s", per_compile / value["examples_per_s"]),
        ("compile_lm_calls", "calls", per_compile * value["lm_calls_per_example"]),
        ("compile_prompt_kchars", "kchar", per_compile * value["prompt_kchars_per_example"]),
        ("compile_cpu_s", "s", per_compile * value["cpu_ms_per_example"] / 1000.0),
    ]


def machine() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"python {platform.python_version()}  cpu {cpu}  nproc {os.cpu_count()}"


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} trace={trace} failed with code {done.returncode}")
    return json.loads(lines[-1]), lines[0]


def self_time_table(path: Path) -> dict[str, float]:
    """Span name -> self milliseconds per traced pass, from a spans file."""
    import spans

    records = [SimpleNamespace(**json.loads(line)) for line in path.read_text().splitlines()]
    own = spans.self_times(records)
    totals: dict[str, float] = defaultdict(float)
    for record in records:
        totals[record.name] += own[record.id] * 1000.0
    n_passes = max(1, len({r.pass_no for r in records}))
    return {name: value / n_passes for name, value in sorted(totals.items(), key=lambda kv: -kv[1])}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    import gen

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    plain, traced, headers = {}, {}, {}
    for workload in workloads:
        plain[workload], headers[workload] = run(workload, args.seed, args.seconds, 0)
        traced[workload], _ = run(workload, args.seed, args.seconds, 1)

    print(machine())
    for workload in workloads:
        print(headers[workload])
    print()
    print(f"{'end-to-end metric':<28} {'unit':<6}" + "".join(f"{w:>16}" for w in workloads))
    table = {m["name"]: (m["unit"], {w: f"{plain[w]['metrics'][m['name']]['value']:.6g}"
                                     for w in workloads})
             for m in bench["end_to_end"]}
    for workload in workloads:
        spec = gen.WORKLOADS[workload]
        if spec["command"] == "compile":
            for name, unit, value in compile_rows(plain[workload]["metrics"],
                                                  spec["train"] + spec["dev"]):
                table.setdefault(name, (unit, {}))[1][workload] = f"{value:.6g}"
    table["error_rate"] = ("share", {w: f"{plain[w]['failed'] / plain[w]['attempted']:.4f}"
                                     for w in workloads})
    for name, (unit, cells) in table.items():
        print(f"{name:<28} {unit:<6}" + "".join(f"{cells.get(w, '-'):>16}" for w in workloads))

    for workload in workloads:
        print(f"\nper-layer metrics, {workload} (per workload pass unless the name says otherwise)")
        for name, metric in traced[workload]["metrics"].items():
            print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
        spans_file = HERE.parent / ".bench_work" / f"spans-{workload}-{args.seed}.jsonl"
        print(f"  self time per traced pass, by span ({spans_file.name})")
        for name, value in self_time_table(spans_file).items():
            print(f"    {name:<32} {value:>12.3f} ms")

    ok = all(plain[w]["correct"] and traced[w]["correct"] for w in workloads)
    print("\nall outputs correct" if ok else "\nINCORRECT OUTPUTS: see error_rate")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
