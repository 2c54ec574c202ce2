"""Layer-boundary wrappers for the lmpipe benchmark.

``Probe`` is all that untraced runs install: it times each example run
and keeps the backend each command builds, nothing more.

``Tracer`` wraps the public functions at the bindings their callers use and
records one span per call: name, start, end, parent span, example id and the
pass it belongs to. Parent stacks are per thread, because eval fans examples
out over worker threads. Spans stay in memory until ``write``.
``layer_metrics`` turns the spans of the traced passes into per-layer numbers.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from pathlib import Path

from lmpipe import backend, cli, evaluation, modules, optimizers, retrieval, runtime, tasks


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, make_wrapper) -> None:
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, raw))
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(owner, name, make_wrapper(raw))

    def undo(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


RUN_BINDINGS = ((evaluation, "run_task_example"), (cli, "run_task_example"))


class Probe:
    """Per-example latency and the backends each command builds."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.backends: list = []
        self._patches = Patches()

    def install(self) -> None:
        def timed(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.latencies.append(time.perf_counter() - start)
            return wrapper

        def captured(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                made = fn(*args, **kwargs)
                self.backends.append(made)
                return made
            return wrapper

        for owner, name in RUN_BINDINGS:
            self._patches.replace(owner, name, timed)
        self._patches.replace(cli, "make_backend", captured)

    def uninstall(self) -> None:
        self._patches.undo()


class Span:
    __slots__ = ("id", "name", "parent", "example", "pass_no", "start", "end", "error", "size", "hits")

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Records spans at every layer boundary the benchmark names."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_no = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fan_out: Span | None = None
        self._patches = Patches()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _wrap(self, name: str, new_example: bool = False, size=None, fans_out: bool = False):
        """``fans_out`` marks a function that hands work to worker threads: a
        span opened on an otherwise idle worker thread is its child."""
        def make_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = self._stack()
                parent = stack[-1] if stack else self._fan_out
                span = Span()
                span.id = next(self._ids)
                span.name = name
                span.parent = parent.id if parent else 0
                span.example = span.id if new_example else (parent.example if parent else 0)
                span.pass_no = self.pass_no
                span.error = False
                span.size = 0
                span.hits = 0
                stack.append(span)
                if fans_out:
                    outer, self._fan_out = self._fan_out, span
                span.start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    if size is not None:
                        size(span, result)
                    return result
                except BaseException:
                    span.error = True
                    raise
                finally:
                    span.end = time.perf_counter()
                    if fans_out:
                        self._fan_out = outer
                    stack.pop()
                    self.spans.append(span)
            return wrapper
        return make_wrapper

    def _harvest_counter(self, make_metric):
        """Counts teacher runs that bootstrap keeps: the metric passes and,
        as with teacher assertions, every constraint site ended passed."""
        @functools.wraps(make_metric)
        def wrapper(*args, **kwargs):
            metric = make_metric(*args, **kwargs)

            def counted(example, prediction, trace):
                value = metric(example, prediction, trace)
                span = self.current()
                if (span is not None and span.name == "optimizers.bootstrap"
                        and optimizers._metric_passes(value)
                        and optimizers._all_sites_ultimately_passed(trace)):
                    span.hits += 1
                return value
            return counted
        return wrapper

    def install(self) -> None:
        p, w = self._patches, self._wrap

        def rows(span, result):
            span.size = len(result[0])
            span.hits = sum(1 for row in result[0] if "error" in row)

        p.replace(cli, "cmd_eval", w("cli.command"))
        p.replace(cli, "cmd_compile", w("cli.command"))
        p.replace(cli, "make_program", w("cli.make_program"))
        p.replace(cli, "make_backend", w("cli.make_backend"))
        for name in ("save_trace", "_write_json", "save_compiled_program"):
            p.replace(cli, name, w("cli.write"))
        p.replace(cli, "evaluate_dataset", w("evaluation.dataset", size=rows, fans_out=True))
        p.replace(cli, "random_search_compile", w("optimizers.search"))
        p.replace(cli, "bootstrap_metric", self._harvest_counter)
        p.replace(optimizers, "bootstrap_few_shot", w("optimizers.bootstrap"))
        for owner, name in RUN_BINDINGS:
            p.replace(owner, name, w("runtime.run", new_example=True))
        p.replace(evaluation, "score_example", w("evaluation.score"))
        for cls in vars(tasks).values():
            if isinstance(cls, type) and issubclass(cls, runtime.Program) and "forward" in vars(cls):
                p.replace(cls, "forward", w("runtime.forward"))
        p.replace(runtime.ExecutionContext, "call", w("runtime.call"))
        p.replace(modules.PredictModule, "render",
                  w("core.render", size=lambda span, prompt: setattr(span, "size", len(prompt))))
        p.replace(runtime, "parse_completion", w("modules.parse"))
        p.replace(backend.CachingBackend, "generate", w("backend.generate"))
        p.replace(backend.ScriptedBackend, "generate", w("backend.inner"))
        p.replace(backend.HTTPBackend, "generate", w("backend.inner"))
        p.replace(tasks, "retrieve", w("retrieval.retrieve"))
        p.replace(retrieval.RetrieverIndex, "build", w("retrieval.build"))

    def uninstall(self) -> None:
        self._patches.undo()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children on parallel worker threads overlap, so their union counts.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    own = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        own[s.id] = (s.end - s.start) - covered
    return own


def layer_metrics(spans: list[Span], pass_walls: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced passes.

    Counts and totals are per workload pass (the mean over traced passes);
    latency percentiles pool every call; ratios divide the pooled totals.
    """
    n_passes = max(1, len(pass_walls))
    wall = sum(pass_walls.values()) or 1.0
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_times(spans)

    def named(name):
        return by_name.get(name, [])

    def total(name, times=None):
        return sum((times or {}).get(s.id, s.end - s.start) for s in named(name))

    def ms(values):
        return [v * 1000.0 for v in values]

    runs, forwards = named("runtime.run"), named("runtime.forward")
    n_runs = max(1, len(runs))
    passes_of = {r.id: 0 for r in runs}
    for f in forwards:
        if f.parent in passes_of:
            passes_of[f.parent] += 1
    generated = {s.parent for s in named("backend.generate")}
    inner_parents = {s.parent for s in named("backend.inner")}
    gen_calls = named("backend.generate")
    in_run = {r.id for r in runs}
    engine_children = ("core.render", "backend.generate", "modules.parse", "retrieval.retrieve")
    outside_engine = sum(
        s.end - s.start for n in engine_children for s in named(n) if s.example in in_run
    )
    boots = named("optimizers.bootstrap")
    boot_ids = {b.id for b in boots}
    teacher_runs = [r for r in runs if r.parent in boot_ids]
    renders = named("core.render")
    datasets = named("evaluation.dataset")
    examples = sum(d.size for d in datasets) or len(runs)
    retrieves = named("retrieval.retrieve")
    inner = named("backend.inner")

    return {
        "retrieval.queries_per_example": len(retrieves) / max(1, examples),
        "retrieval.retrieve_ms_p50": percentile(ms(s.end - s.start for s in retrieves), 0.5),
        "retrieval.retrieve_ms_p90": percentile(ms(s.end - s.start for s in retrieves), 0.9),
        "retrieval.self_share": total("retrieval.retrieve", own) / wall,
        "retrieval.build_s": total("retrieval.build") / n_passes,
        "backend.generate_calls": len(gen_calls) / n_passes,
        "backend.inner_calls": len(inner) / n_passes,
        "backend.cache_hit_rate": (
            sum(1 for s in gen_calls if s.id not in inner_parents) / len(gen_calls) if gen_calls else 0.0
        ),
        "backend.inner_wait_ms_p50": percentile(ms(s.end - s.start for s in inner), 0.5),
        "backend.inner_wait_ms_p90": percentile(ms(s.end - s.start for s in inner), 0.9),
        "backend.inflight_mean": total("backend.inner") / wall,
        "backend.errors": sum(1 for s in inner if s.error) / n_passes,
        "runtime.runs": len(runs) / n_passes,
        "runtime.passes_per_run": len(forwards) / n_runs,
        "runtime.retry_example_share": sum(1 for c in passes_of.values() if c > 1) / n_runs,
        "runtime.replayed_calls": sum(1 for s in named("runtime.call") if s.id not in generated) / n_passes,
        "runtime.self_ms_per_run": (total("runtime.run") - outside_engine) * 1000.0 / n_runs,
        "core.render_calls": len(renders) / n_passes,
        "core.render_self_ms": total("core.render", own) * 1000.0 / n_passes,
        "core.prompt_chars_mean": statistics.fmean(s.size for s in renders) if renders else 0.0,
        "modules.parse_calls": len(named("modules.parse")) / n_passes,
        "modules.parse_self_ms": total("modules.parse", own) * 1000.0 / n_passes,
        "evaluation.examples": sum(d.size for d in datasets) / n_passes,
        "evaluation.score_self_ms": total("evaluation.score", own) * 1000.0 / n_passes,
        "evaluation.error_rows": sum(d.hits for d in datasets) / n_passes,
        "optimizers.candidates": len(boots) / n_passes,
        "optimizers.teacher_runs": len(teacher_runs) / n_passes,
        "optimizers.harvest_yield": (
            sum(b.hits for b in boots) / len(teacher_runs) if teacher_runs else 0.0
        ),
        "optimizers.bootstrap_s": total("optimizers.bootstrap") / n_passes,
        "optimizers.validate_s": (total("optimizers.search") - total("optimizers.bootstrap")) / n_passes,
        "cli.write_ms": total("cli.write") * 1000.0 / n_passes,
        "cli.make_program_s": total("cli.make_program") / n_passes,
        "cli.make_backend_s": total("cli.make_backend") / n_passes,
    }
