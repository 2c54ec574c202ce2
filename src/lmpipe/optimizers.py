"""Few-shot compilation.

`bootstrap_few_shot` runs the program as its own teacher over the training
set, under ``CompileConfig.teacher_runtime``, and harvests per-module
input/output pairs from runs whose final metric passes. A teacher whose
handler policy is not ``disable_all`` runs with assertions: a run only
qualifies when every constraint site ultimately passed, so harvested demos
obey the intermediate constraints too, and its recovered failures are kept as
counterexamples: the failed output, the instruction that fixed it, and the
corrected output, rendered into prompts ahead of the ordinary demos. A
``disable_all`` teacher is naive: it never retries, and only the metric
filters its runs.

`random_search_compile` builds several candidates under different training
orders and keeps the one scoring best on the validation set. Given the
metric's maximum, it stops validating a candidate once that candidate can no
longer win. It returns the winner and the ``candidates.json`` object.
"""

from __future__ import annotations

import logging
import random
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from .core import (PASSED, RETRIED, Counterexample, RunResult, check_record, check_version,
                   payload_field, read_json)
from .core import INT, LIST, OBJECT, STR, STR_MAP
from .evaluation import run_task_example
from .metrics import TaskExample, mean_of
from .runtime import DISABLE_ALL, NO_CONSTRAINTS, Program, RuntimeConfig, write_json

logger = logging.getLogger(__name__)

ARTIFACT_VERSION = 2
CANDIDATES_VERSION = 2

# metric(example, final outputs, run) -> bool | float
Metric = Callable[[TaskExample, dict[str, str], RunResult], object]

# run_example(program, example, runtime config, backend) -> RunResult
RunExample = Callable[[Program, TaskExample, RuntimeConfig, object], RunResult]

DemoSet = dict[str, list[dict[str, str]]]

COUNTEREXAMPLES_PER_MODULE = 1


@dataclass(frozen=True)
class CompileConfig:
    max_bootstrapped_demos: int = 2
    num_candidates: int = 6
    rng_seed: int = 0
    # teachers run under it; validation runs under NO_CONSTRAINTS
    teacher_runtime: RuntimeConfig = NO_CONSTRAINTS

    def __post_init__(self) -> None:
        if self.max_bootstrapped_demos < 0:
            raise ValueError("max_bootstrapped_demos must be >= 0")
        if self.num_candidates < 1:
            raise ValueError("num_candidates must be >= 1")

    @property
    def teacher_assertions(self) -> bool:
        """Whether teachers run with assertions: under any policy but ``disable_all``."""
        return self.teacher_runtime.handler_policy != DISABLE_ALL


def _metric_passes(value: object) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value > 0
    return bool(value)


def _all_sites_ultimately_passed(run: RunResult) -> bool:
    return all(o.disposition == PASSED for o in run.final_outcomes())


def collect_counterexamples(program: Program, runs: Sequence[RunResult]) -> list[Counterexample]:
    """One counterexample per site of the surviving pass that retried and then
    passed: the output its first retry judged, that retry's message, and the
    output its final outcome judged.

    Each outcome names the step it judged, so both outputs are read from those
    two steps, in the field ``core.payload_field`` picks from the signature of
    that step's module in ``program``. A step of a module ``program`` does not
    register (a judge, say) gives no counterexample.
    """
    found = []
    for run in runs:
        for final in run.final_outcomes():
            retried = [o for o in run.constraints if o.site == final.site and o.disposition == RETRIED]
            if final.disposition != PASSED or not retried:
                continue
            failed_step, fixed_step = run.steps[retried[0].step], run.steps[final.step]
            module = program.modules.get(fixed_step.module_id)
            if module is None:
                continue
            field_name = payload_field(module.signature).name
            found.append(Counterexample(
                module_id=fixed_step.module_id,
                failed_output=failed_step.outputs.get(field_name, ""),
                message=retried[0].message,
                corrected_output=fixed_step.outputs.get(field_name, ""),
            ))
    return found


def bootstrap_few_shot(
    program: Program,
    trainset: Sequence[TaskExample],
    metric: Metric,
    config: CompileConfig = CompileConfig(),
    backend=None,
    run_example: RunExample = run_task_example,
) -> Program:
    """Compile the program by harvesting demos from its own passing runs.

    ``run_example`` executes one training example; the default passes the
    example fields the program names in ``inputs``. Teacher and student share
    `backend`. With ``config.teacher_assertions``, a run whose constraint sites
    did not all end passed is dropped, and each module keeps the first
    counterexample the kept runs recovered.
    """
    compiled = program.clone()
    demos: DemoSet = {module_id: [] for module_id in compiled.modules}
    counterexamples: dict[str, list[Counterexample]] = {m: [] for m in compiled.modules}
    harvested_any = False
    for example in trainset:
        if all(len(d) >= config.max_bootstrapped_demos for d in demos.values()):
            break
        result = run_example(program, example, config.teacher_runtime, backend)
        if result.final_outputs is None:  # halted
            continue
        value = metric(example, result.final_outputs, result)
        if not _metric_passes(value):
            continue
        if config.teacher_assertions and not _all_sites_ultimately_passed(result):
            continue
        harvested_any = True
        for step in result.final_steps():
            if step.module_id not in demos:
                continue  # auxiliary predictors (judges) never carry demos
            if len(demos[step.module_id]) >= config.max_bootstrapped_demos:
                continue
            demos[step.module_id].append({**step.inputs, **step.outputs})
        # a naive teacher never retries, so it recovers no failure
        for ce in collect_counterexamples(program, [result]):
            bucket = counterexamples[ce.module_id]
            if len(bucket) < COUNTEREXAMPLES_PER_MODULE:
                bucket.append(ce)

    if not harvested_any:
        logger.warning("bootstrap harvested no demonstrations; compiled program has none")
    for module_id, module in compiled.modules.items():
        module.demos = list(demos[module_id])
        module.counterexamples = list(counterexamples[module_id])
    return compiled


def random_search_compile(
    program: Program,
    trainset: Sequence[TaskExample],
    valset: Sequence[TaskExample],
    metric: Metric,
    config: CompileConfig = CompileConfig(),
    backend=None,
    run_example: RunExample = run_task_example,
    max_score: float | None = None,
) -> tuple[Program, dict]:
    """Bootstrap ``num_candidates`` variants under seeded shuffles and keep the
    one with the best mean validation metric (ties: lowest candidate index).
    Returns it and the ``candidates.json`` object, which lists each candidate
    once: under ``candidates`` with its ``score``, or under ``pruned``.

    Candidates are scored under ``NO_CONSTRAINTS``, so the extrinsic metric
    alone drives selection.

    ``max_score`` declares the most ``metric`` can score; a higher value
    raises ``ValueError``. With it, every candidate is still bootstrapped, but
    before a candidate scores dev example ``j`` its validation stops once
    ``mean_of(scores + [max_score] * (n - j))`` is at most the best mean so
    far; it is listed with ``dev_scored`` (``j``) and that ``bound``. The
    candidate's own mean is ``mean_of(scores)`` too, whose correctly rounded
    sum is monotone in each term, so a stopped candidate could not have won:
    the selected candidate is the one the full search selects.
    """
    if not valset:
        raise ValueError("valset must be nonempty")
    n = len(valset)

    rng = random.Random(config.rng_seed)
    candidates: list[dict] = []
    pruned: list[dict] = []
    best = best_score = best_index = None
    for index in range(config.num_candidates):
        order = list(trainset)
        rng.shuffle(order)
        compiled = bootstrap_few_shot(
            program, order, metric, config=config, backend=backend, run_example=run_example
        )
        demo_counts = {m: len(mod.demos) for m, mod in compiled.modules.items()}
        scores: list[float] = []
        for j, example in enumerate(valset):
            if best_score is not None and max_score is not None:
                bound = mean_of(scores + [max_score] * (n - j))
                if bound <= best_score:
                    pruned.append({"index": index, "demo_counts": demo_counts, "dev_scored": j, "bound": bound})
                    break
            result = run_example(compiled, example, NO_CONSTRAINTS, backend)
            value = 0.0  # halted
            if result.final_outputs is not None:
                value = float(metric(example, result.final_outputs, result))
            if max_score is not None and value > max_score:
                raise ValueError(f"metric scored {value}, above its declared maximum {max_score}")
            scores.append(value)
        else:
            score = mean_of(scores)
            candidates.append({"index": index, "score": score, "demo_counts": demo_counts})
            if best_score is None or score > best_score:  # a tie keeps the lower index
                best, best_score, best_index = compiled, score, index
    return best, {"version": CANDIDATES_VERSION, "rng_seed": config.rng_seed, "best_index": best_index,
                  "candidates": candidates, "pruned": pruned}


def compiled_program_to_dict(program: Program, task: str, config: CompileConfig) -> dict:
    modules = {}
    for module_id, module in program.modules.items():
        modules[module_id] = {
            "instructions": module.signature.instructions,
            "demos": [dict(demo) for demo in module.demos],
            "counterexamples": [asdict(ce) for ce in module.counterexamples],
        }
    return {
        "version": ARTIFACT_VERSION,
        "task": task,
        "compile_config": asdict(config),
        "modules": modules,
    }


def save_compiled_program(program: Program, task: str, config: CompileConfig, path: str | Path) -> None:
    write_json(compiled_program_to_dict(program, task, config), path)


def load_compiled_program(program: Program, path: str | Path, task: str) -> Program:
    """Attach a saved artifact's demos/counterexamples/instructions to a fresh
    program of ``task``; an artifact compiled for another task raises."""
    return read_json(path, lambda data: compiled_program_from_dict(program, data, task))


_PROGRAM_FIELDS = {"task": STR, "modules": OBJECT, "compile_config": OBJECT, "version": INT}
_MODULE_FIELDS = {"instructions": STR, "demos": LIST, "counterexamples": LIST}
_COUNTEREXAMPLE_FIELDS = dict.fromkeys(("module_id", "failed_output", "message", "corrected_output"), STR)


def compiled_program_from_dict(program: Program, data: dict, task: str) -> Program:
    check_version(data, ARTIFACT_VERSION, "artifact")
    check_record(data, _PROGRAM_FIELDS, "compiled program", optional=("compile_config",))
    if data["task"] != task:
        raise ValueError(f"artifact was compiled for task {data['task']!r}, not {task!r}")
    loaded = program.clone()
    check_record(data["modules"], dict.fromkeys(loaded.modules, OBJECT), "compiled program modules")
    for module_id, spec in data["modules"].items():
        check_record(spec, _MODULE_FIELDS, "module spec")
        module = loaded.modules[module_id]
        inputs = [f.name for f in module.signature.input_fields]
        module.signature = replace(module.signature, instructions=spec["instructions"])
        module.demos = []
        for demo in spec["demos"]:
            if not (STR_MAP[1](demo) and demo.keys() >= set(inputs)):
                raise ValueError(f"demo of module {module_id!r} must be an object of strings holding "
                                 f"its inputs {inputs}, got {demo!r}")
            module.demos.append(dict(demo))
        module.counterexamples = []
        for record in spec["counterexamples"]:
            ce = Counterexample(**check_record(record, _COUNTEREXAMPLE_FIELDS, "counterexample"))
            if ce.module_id != module_id:
                raise ValueError(f"counterexample of module {module_id!r} names module {ce.module_id!r}")
            module.counterexamples.append(ce)
    return loaded
