"""Command-line harness: compile, eval, inspect-trace.

Five strategies, each a row of ``_STRATEGIES`` keyed by the label that
``--strategy`` and ``RunConfig.strategy`` take, select where constraints are
active: in the student runs, in the teacher runs that compile harvests
demonstrations from, or neither. ``runtimes`` turns a label and the configured
``RuntimeConfig`` into the student's and the teacher's; a strategy without a
teacher (``vanilla``, ``infer_assert``) does not compile.

Scripted runs (--script, or backend.script in the config file) are fully
deterministic: repeated invocations produce byte-identical artifacts and reports.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from .backend import (
    BackendError,
    CachingBackend,
    EndpointConfig,
    HTTPBackend,
    ScriptedBackend,
    load_script,
)
from .core import INT, OBJECT, OPTIONAL_STR, STR, check_record, read_json
from .evaluation import (
    BOOTSTRAP_MAX_SCORE,
    bootstrap_metric,
    build_report,
    evaluate_dataset,
    run_task_example,
)
from .metrics import load_dataset
from .optimizers import CompileConfig, load_compiled_program, random_search_compile, save_compiled_program
from .retrieval import RetrieverIndex, load_corpus, load_index
from .runtime import (
    DISABLE_ALL,
    PassBudgetExceeded,
    RunResult,
    RuntimeConfig,
    load_trace,
    overwrite,
    save_trace,
    write_json as _write_json,
)
from .tasks import COMPLETE, TASKS, VARIANTS, build_program


# label -> (the student's runs assert, the teacher's runs assert); the
# teacher's is None for a strategy that does not compile
_STRATEGIES = {
    "vanilla": (False, None),
    "infer_assert": (True, None),
    "compile": (False, False),
    "compile_assert": (False, True),
    "compile_infer_assert": (True, True),
}

STRATEGY_LABELS = tuple(_STRATEGIES)


def runtimes(label: str, runtime: RuntimeConfig) -> tuple[RuntimeConfig, Optional[RuntimeConfig]]:
    """The student's and the teacher's runtime config under strategy
    ``label``, the teacher's ``None`` when it does not compile: ``runtime``
    for the runs that assert, else ``runtime`` under ``disable_all``, which
    keeps ``max_retries`` for the artifact to record."""
    def under(assertions: bool) -> RuntimeConfig:
        return runtime if assertions else replace(runtime, handler_policy=DISABLE_ALL)

    student, teacher = _STRATEGIES[label]
    return under(student), None if teacher is None else under(teacher)


@dataclass
class RunConfig:
    """Everything one compile or eval invocation needs."""

    task: str
    strategy: str  # a key of _STRATEGIES
    out_dir: Path
    corpus_path: Optional[Path] = None
    script_path: Optional[Path] = None  # scripted backend when set, else live
    model: str = "gpt-3.5-turbo"
    api_base: Optional[str] = None
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    compile_config: CompileConfig = field(default_factory=CompileConfig)
    instruction_variant: str = COMPLETE
    workers: int = 1

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGY_LABELS}")


def bundled_data_path(name: str) -> Path:
    return Path(str(resources.files("lmpipe").joinpath("data", name)))


# the keys a config file may set, each optional, by section
_CONFIG_SECTIONS = {
    "backend": {"script": OPTIONAL_STR, "model": STR, "api_base": OPTIONAL_STR},
    "runtime": {"max_retries": INT, "handler_policy": STR},
    "compile": {"max_bootstrapped_demos": INT, "num_candidates": INT, "rng_seed": INT},
}
_CONFIG_FIELDS = {**dict.fromkeys(_CONFIG_SECTIONS, OBJECT),
                  "instructions": (f"one of {VARIANTS}", lambda v: v in VARIANTS), "corpus": OPTIONAL_STR}


def load_run_config_file(path: Optional[Path]) -> dict:
    """Read a config file, or none; an unknown key at any level, or a value of
    the wrong type or out of range, raises ``ValueError`` naming the file and
    the key."""
    return read_json(path, _checked_config) if path is not None else _checked_config({})


def _checked_config(raw) -> dict:
    """``raw`` with its ``runtime`` and ``compile`` sections built into their
    configs, which check their values' ranges, and its ``corpus`` and
    ``backend.script`` made paths (``script`` at the top level)."""
    check_record(raw, _CONFIG_FIELDS, "config", optional=_CONFIG_FIELDS)  # top level first
    for section, fields in _CONFIG_SECTIONS.items():
        check_record(raw.get(section, {}), fields, f"config {section}", optional=fields)
    return {**raw, "runtime": RuntimeConfig(**raw.get("runtime", {})),
            "compile": CompileConfig(**raw.get("compile", {})),
            "corpus": _path(raw.get("corpus"), "config corpus"),
            "script": _path(raw.get("backend", {}).get("script"), "config backend script")}


def _path(value: Optional[str], name: str) -> Optional[Path]:
    """``value`` as a path, or None; an empty string is never a path."""
    if value == "":
        raise ValueError(f"{name} is an empty string, not a path")
    return None if value is None else Path(value)


def assemble_run_config(
    task: str,
    strategy_label: str,
    out_dir: str,
    config_file: Optional[str] = None,
    offline: bool = False,
    script: Optional[str] = None,
    workers: int = 1,
) -> RunConfig:
    raw = load_run_config_file(_path(config_file, "config_file"))
    backend_cfg = raw.get("backend", {})
    script_path = _path(script, "script") or raw["script"]
    if offline and script_path is None:
        raise ValueError("offline mode requires a script file")
    return RunConfig(
        task=task,
        strategy=strategy_label,
        out_dir=Path(out_dir),
        corpus_path=raw["corpus"],
        script_path=script_path,
        model=backend_cfg.get("model", RunConfig.model),
        api_base=backend_cfg.get("api_base"),
        runtime=raw["runtime"],
        compile_config=raw["compile"],
        instruction_variant=raw.get("instructions", RunConfig.instruction_variant),
        workers=workers,
    )


def make_backend(config: RunConfig) -> CachingBackend:
    if config.script_path is not None:
        return CachingBackend(ScriptedBackend(load_script(config.script_path)))
    return CachingBackend(HTTPBackend(EndpointConfig(model=config.model, api_base=config.api_base)))


def make_program(config: RunConfig):
    index = None
    if TASKS[config.task].uses_index:
        if config.corpus_path is None:
            # the bundled corpus loads and builds in under 2 ms, and the
            # package's data directory is never written to
            index = RetrieverIndex.build(load_corpus(bundled_data_path("corpus.jsonl")))
        else:
            index = load_index(config.corpus_path)
    return build_program(config.task, index, config.instruction_variant)


def cmd_compile(config: RunConfig, train_path: Path, dev_path: Path) -> Path:
    """Compile per the strategy and write the artifact plus candidate scores."""
    _, teacher = runtimes(config.strategy, config.runtime)
    if teacher is None:
        raise ValueError(f"strategy {config.strategy!r} does not compile; nothing to do")
    trainset = load_dataset(train_path)
    devset = load_dataset(dev_path)
    compile_config = replace(config.compile_config, teacher_runtime=teacher)
    backend = make_backend(config)
    try:
        compiled, candidates = random_search_compile(
            make_program(config), trainset, devset, bootstrap_metric(config.task),
            config=compile_config, backend=backend, run_example=run_task_example,
            max_score=BOOTSTRAP_MAX_SCORE,
        )
    finally:
        backend.close()
    config.out_dir.mkdir(parents=True, exist_ok=True)
    artifact_path = config.out_dir / "compiled_program.json"
    save_compiled_program(compiled, config.task, compile_config, artifact_path)
    _write_json(candidates, config.out_dir / "candidates.json")
    return artifact_path


def cmd_eval(config: RunConfig, test_path: Path, artifact_path: Optional[Path] = None) -> dict:
    """Evaluate the strategy over a dataset; writes report.json and summary.txt,
    and returns the report.json object."""
    runtime, teacher = runtimes(config.strategy, config.runtime)
    # an artifact is given exactly when the strategy has a teacher
    if teacher is not None and artifact_path is None:
        raise ValueError(f"strategy {config.strategy!r} needs a compiled artifact (--artifact)")
    if teacher is None and artifact_path is not None:
        raise ValueError(f"strategy {config.strategy!r} does not compile; it takes no artifact (--artifact)")
    examples = load_dataset(test_path)
    backend = make_backend(config)
    try:
        program = make_program(config)
        if teacher is not None:
            program = load_compiled_program(program, artifact_path, config.task)
        rows, results = evaluate_dataset(
            config.task, program, examples, runtime, backend, workers=config.workers
        )
    finally:
        backend.close()
    report = build_report(config.task, config.strategy, rows)

    config.out_dir.mkdir(parents=True, exist_ok=True)
    traces_dir = config.out_dir / "traces"
    traces_dir.mkdir(exist_ok=True)
    traces = {
        f"example_{index:03d}.json": result for index, result in enumerate(results) if result is not None
    }
    for stale in traces_dir.glob("example_*.json"):  # left by an earlier run into this directory
        if stale.name not in traces:
            stale.unlink()
    for name, result in traces.items():
        save_trace(result, traces_dir / name)
    _write_json(report, config.out_dir / "report.json")
    overwrite(format_summary(report).encode("utf-8"), config.out_dir / "summary.txt")
    return report


def format_summary(report: dict) -> str:
    lines = [
        f"task:     {report['task']}",
        f"strategy: {report['strategy']}",
        f"examples: {report['n_examples']}",
        "",
        f"{'metric':<24} {'mean':>8}",
        f"{'-' * 24} {'-' * 8}",
    ]
    for name in TASKS[report["task"]].columns:
        if name in report["metrics"]:
            lines.append(f"{name:<24} {report['metrics'][name]:>8.4f}")
    for flag in report["flags"]:
        lines.append(f"flag: {flag}")
    return "\n".join(lines) + "\n"


def format_trace(result: RunResult) -> str:
    """Each step with the outcomes that judged it; an outcome no call preceded
    comes before the first step."""
    judged: dict[Optional[int], list[str]] = {}
    for outcome in result.constraints:
        tag = "RETRY" if outcome.disposition == "retried" else outcome.disposition.upper()
        judged.setdefault(outcome.step, []).append(f"    [{outcome.kind}/{tag}] {outcome.message}")
    lines = judged.get(None, [])
    for index, step in enumerate(result.steps):
        lines.append(f"step {step.position}.{step.attempt}  {step.module_id}  "
                     f"prompt={step.prompt_digest[:12]}")
        for name, value in step.outputs.items():
            shown = value if len(value) <= 80 else value[:77] + "..."
            lines.append(f"    {name}: {shown}")
        lines.extend(judged.get(index, ()))
    for found in result.retrievals:
        lines.append(f"retrieve k={found.k}  {found.query}")
        lines.extend(f"    [{rank}] {title}" for rank, title in enumerate(found.titles, start=1))
    lines.append(f"passes: {result.passes}")
    if result.halted:
        lines.append(f"assertion failed: {result.error}")
        lines.append("HALTED")
    elif result.error:
        lines.append(f"error: {result.error}")
    else:
        lines.append("completed")
    return "\n".join(lines) + "\n"


def cmd_inspect_trace(path: Path) -> str:
    return format_trace(load_trace(path))


def _existing_path(value: str) -> str:
    if not value or not Path(value).exists():  # "" names no path, though Path("") is "."
        raise argparse.ArgumentTypeError(f"path {value!r} does not exist")
    return value


def _at_least_one(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a valid integer") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"{number} is not in the range x>=1")
    return number


def _run_compile(args) -> None:
    config = assemble_run_config(args.task, args.strategy, args.out, args.config, args.offline, args.script)
    print(f"wrote {cmd_compile(config, Path(args.train), Path(args.dev))}")


def _run_eval(args) -> None:
    config = assemble_run_config(args.task, args.strategy, args.out, args.config, args.offline, args.script,
                                 args.workers)
    report = cmd_eval(config, Path(args.test), Path(args.artifact) if args.artifact else None)
    print(format_summary(report))
    rows = report["rows"]
    if rows and all("error" in row for row in rows):
        sys.exit(1)


def _run_inspect_trace(args) -> None:
    sys.stdout.write(cmd_inspect_trace(Path(args.path)))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmpipe", allow_abbrev=False,
        description="Declarative LM pipelines with checked constraints and few-shot compilation.")
    commands = parser.add_subparsers(required=True, metavar="COMMAND")

    def command(name: str, summary: str, run) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=summary, description=summary, allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    def run_options(sub: argparse.ArgumentParser, *paths: str) -> None:
        sub.add_argument("--task", choices=list(TASKS), required=True)
        sub.add_argument("--strategy", choices=STRATEGY_LABELS, required=True)
        for name in paths:
            sub.add_argument(name, type=_existing_path, required=True)
        sub.add_argument("--config", type=_existing_path)
        sub.add_argument("--offline", action="store_true")
        sub.add_argument("--script", type=_existing_path)
        sub.add_argument("--out", required=True)

    compile_ = command("compile", "Bootstrap demonstrations and write a compiled-program artifact.",
                       _run_compile)
    run_options(compile_, "--train", "--dev")
    eval_ = command("eval", "Evaluate a strategy over a dataset and write the metric report.", _run_eval)
    run_options(eval_, "--test")
    eval_.add_argument("--artifact", type=_existing_path)
    eval_.add_argument("--workers", type=_at_least_one, default=1)
    inspect = command("inspect-trace", "Render a saved trace for humans.", _run_inspect_trace)
    inspect.add_argument("path", type=_existing_path)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> None:
    """The ``lmpipe`` console script; ``argv`` defaults to ``sys.argv[1:]``.

    A usage error exits 2. A command that fails prints one ``Error:`` line on
    stderr and exits 1: a bad input or file, or a backend error or
    over-budget run that stopped a compile (eval records those per row).
    """
    args = _parser().parse_args(argv)
    try:
        args.run(args)
        return
    except (ValueError, OSError) as exc:
        message = str(exc)
    except (BackendError, PassBudgetExceeded) as exc:
        message = f"{type(exc).__name__}: {exc}"
    print(f"Error: {message}", file=sys.stderr)
    sys.exit(1)


if __name__ == "__main__":
    main()
