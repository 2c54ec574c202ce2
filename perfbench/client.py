"""Benchmark client: drives lmpipe's CLI commands over one generated workload.

Runs in its own process, so the CPU time it measures is lmpipe's alone, and
peak memory is lmpipe's plus the benchmark's own fixed share (about 2 MiB for
the reference scan's data). It times ``cli.make_backend`` plus ``cli.make_program`` for every task several
times (set-up), then runs passes over the workload's commands until the time
is up. A pass runs each task's ``cmd_eval`` or ``cmd_compile`` once, and
checks its outputs against the generator's expectation. Set-up and the
timings of a CPU-bound workload are scaled to a reference machine speed (see
``machine_speed``). With ``--trace 1`` untraced and traced passes alternate:
the traced ones give the per-layer metrics, and the difference in pass wall
time is the tracing overhead.

The last line of its output is one JSON object; ``run.py`` relays it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402  (puts the repo's src/ on sys.path)
import spans  # noqa: E402
from lmpipe import cli  # noqa: E402

SETUP_MIN_REPS = 7
SETUP_MAX_REPS = 500
SETUP_MIN_SECONDS = 3.0

# The speed of a shared host moves with its neighbours' load: the same
# pure-Python work takes up to half as long again from one minute to the
# next, and CPU-bound timings move with it. So a fixed scan, which belongs to
# the benchmark and not to lmpipe, is timed before and after each set-up and
# each command of a CPU-bound workload, and their timings are scaled by its
# speed to what they would be on a machine where it takes REFERENCE_SCAN_MS.
# The scan counts terms in lists of tokens, so it touches memory the way
# lmpipe's index build and BM25 scan do; a pure arithmetic loop tracked
# lmpipe's slowdowns far less closely. A change to lmpipe does not change the
# scan, so it shows in the scaled timings in full.
REFERENCE_SCAN_MS = 6.0
REFERENCE_SCAN_REPS = 3
REFERENCE_TERMS = ("word1", "word2", "word3")


def _reference_docs() -> list[list[str]]:
    rng = random.Random(0)
    words = [f"word{i}" for i in range(3000)]
    return [[rng.choice(words) for _ in range(25)] for _ in range(5000)]


REFERENCE_DOCS = _reference_docs()


def reference_scan() -> float:
    total = 0.0
    for doc in REFERENCE_DOCS:
        for term in REFERENCE_TERMS:
            tf = doc.count(term)
            if tf:
                total += tf / (tf + 1.2)
    return total


def machine_speed() -> float:
    """The machine's speed now, relative to the reference: 2.0 runs the
    reference scan twice as fast. Median of a few timings of the scan."""
    times = []
    for _ in range(REFERENCE_SCAN_REPS):
        start = time.perf_counter()
        reference_scan()
        times.append(time.perf_counter() - start)
    return REFERENCE_SCAN_MS / 1000.0 / statistics.median(times)


@dataclass
class PassResult:
    traced: bool
    wall: float = 0.0  # wall and cpu are at the reference speed when the
    cpu: float = 0.0  # workload is CPU-bound
    raw_wall: float = 0.0  # as measured, like the spans of a traced pass
    examples: int = 0
    lm_calls: int = 0
    prompt_chars: int = 0
    attempted: int = 0
    failed: int = 0


class Workload:
    def __init__(self, workdir: Path, api_base: str | None):
        self.workdir = workdir
        self.spec = json.loads((workdir / "workload.json").read_text(encoding="utf-8"))
        self.api_base = api_base
        self.tasks = self.spec["tasks"]
        self.compile = self.spec["command"] == "compile"
        self.configs = {
            task: gen.run_config(self.spec, workdir, task, workdir / "out" / task, api_base)
            for task in self.tasks
        }
        self.expected = {
            task: json.loads((workdir / task / "expected.json").read_text(encoding="utf-8"))
            for task in self.tasks
        }
        self.reference = {
            task: {n: (workdir / task / "reference" / n).read_bytes() for n in gen.COMPILE_OUTPUTS}
            for task in self.tasks
        } if self.compile else {}
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        # The offline workload waits for nothing, so its timings are scaled
        # like set-up. Live wall time is mostly LM waits, and live CPU time
        # comes in short bursts between waits, which the scan's speed does not
        # track: scaled, the CPU time of compile-live spread wider than raw.
        self.cpu_bound = not self.spec["live"]
        self.speed = machine_speed()
        self.speeds = [self.speed]

    def stub_stats(self) -> dict:
        with self._opener.open(self.api_base + "/stats", timeout=10) as response:
            return json.load(response)

    def scale_since(self, speed_before: float) -> float:
        """The factor that takes CPU-bound seconds spent since the speed was
        ``speed_before`` to the reference speed. Takes a new speed sample."""
        self.speed = machine_speed()
        self.speeds.append(self.speed)
        return (speed_before + self.speed) / 2

    def setup_once(self) -> float:
        """Seconds of set-up, at the reference speed."""
        speed, start = self.speed, time.perf_counter()
        for config in self.configs.values():
            cli.make_backend(config)
            cli.make_program(config)
        seconds = time.perf_counter() - start
        return seconds * self.scale_since(speed)

    def run_pass(self, probe: spans.Probe, traced: bool) -> PassResult:
        result = PassResult(traced=traced)
        for task in self.tasks:
            config = self.configs[task]
            before = self.stub_stats() if self.api_base else None
            probe.backends.clear()
            first, speed = len(probe.latencies), self.speed
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                gen.run_command(self.spec, self.workdir, task, config)
                error = None
            except Exception as exc:  # a failed command is a failed operation
                error = exc
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            result.raw_wall += wall
            if self.cpu_bound:
                scale = self.scale_since(speed)
                wall, cpu = wall * scale, cpu * scale
                probe.latencies[first:] = [t * scale for t in probe.latencies[first:]]
            result.wall += wall
            result.cpu += cpu
            if before is not None:
                after = self.stub_stats()
                result.lm_calls += after["requests"] - before["requests"]
                result.prompt_chars += after["prompt_chars"] - before["prompt_chars"]
            else:
                for made in probe.backends:
                    records = made.call_log.records()
                    result.lm_calls += len(records)
                    result.prompt_chars += sum(len(r.prompt) for r in records)
            if error is not None:
                print(f"{task}: {type(error).__name__}: {error}", file=sys.stderr)
            if self.compile:
                # a compile's examples are the train and dev examples it is
                # given, so the runs it makes per example show in every
                # per-example metric
                result.examples += self.spec["train"] + self.spec["dev"]
                result.attempted += 1
                result.failed += 1 if error else gen.compile_failures(
                    config.out_dir, self.reference[task], self.expected[task])
            else:
                expected = self.expected[task]
                result.examples += expected["n_examples"]
                result.attempted += expected["n_examples"]
                if error:
                    result.failed += expected["n_examples"]
                else:
                    report = json.loads((config.out_dir / "report.json").read_text(encoding="utf-8"))
                    result.failed += gen.eval_failures(report, expected)
        return result


def end_to_end(passes: list[PassResult], latencies: list[float], setups: list[float]) -> dict:
    def med(f):
        return statistics.median(f(p) for p in passes)

    return {
        "examples_per_s": med(lambda p: p.examples / p.wall),
        "example_ms_p50": spans.percentile(latencies, 0.5) * 1000.0,
        "example_ms_p90": spans.percentile(latencies, 0.9) * 1000.0,
        "lm_calls_per_example": med(lambda p: p.lm_calls / p.examples),
        "prompt_kchars_per_example": med(lambda p: p.prompt_chars / 1000.0 / p.examples),
        "cpu_ms_per_example": med(lambda p: p.cpu * 1000.0 / p.examples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--api-base", default=None)
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    if args.api_base:
        os.environ.setdefault("LM_API_KEY", "perfbench")
        os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    workload = Workload(Path(args.workdir), args.api_base)

    setups: list[float] = []
    setup_start = time.perf_counter()
    while len(setups) < SETUP_MIN_REPS or (
        time.perf_counter() - setup_start < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPS
    ):
        setups.append(workload.setup_once())

    probe = spans.Probe()
    probe.install()
    tracer = spans.Tracer() if args.trace else None
    passes: list[PassResult] = []
    latencies: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or (tracer and len(passes) < 2):
        traced = bool(tracer) and len(passes) % 2 == 1
        probe.latencies.clear()
        if traced:
            tracer.pass_no = len(passes)
            tracer.install()
        try:
            passes.append(workload.run_pass(probe, traced))
        finally:
            if traced:
                tracer.uninstall()
        if not traced:
            latencies.extend(probe.latencies)
    probe.uninstall()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    plain = [p for p in passes if not p.traced]
    counts = {"passes": len(plain), "example_samples": len(latencies), "setup_samples": len(setups)}
    if tracer:
        traced = {i: p.raw_wall for i, p in enumerate(passes) if p.traced}
        metrics = spans.layer_metrics(tracer.spans, traced)
        plain_wall = statistics.median(p.raw_wall for p in plain)
        overhead = statistics.median(traced.values()) - plain_wall
        metrics["trace.overhead_ms"] = overhead * 1000.0
        metrics["trace.overhead_share"] = overhead / plain_wall
        counts["traced_passes"] = len(traced)
        counts["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(Path(args.spans))
    else:
        metrics = end_to_end(plain, latencies, setups)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": counts,
        "machine_speed": statistics.median(workload.speeds),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
