"""Dataset evaluation: run a task program over examples and score every row.

Rows keep the raw per-example predicate booleans so each reported mean can be
recomputed independently. Example fan-out uses threads sharing one backend and
cache; rows are assembled in dataset order regardless of worker count.
``build_report`` returns the ``report.json`` object over those rows.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from .backend import BackendError
from .core import RunResult
from .metrics import TaskExample, suggestions_passed, summarize_rows
from .runtime import PassBudgetExceeded, Program, RuntimeConfig, run_with_backtracking
from .tasks import TASKS

logger = logging.getLogger(__name__)

REPORT_VERSION = 1


def run_task_example(
    program: Program, example: TaskExample, config: RuntimeConfig, backend
) -> RunResult:
    """Run one example: forward() gets the example fields the program names in ``inputs``."""
    inputs = {name: getattr(example, name) for name in program.inputs}
    return run_with_backtracking(program, inputs, config, backend)


def error_row(example: TaskExample, error: str, error_type: str) -> dict:
    return {"question": example.question, "error": error, "error_type": error_type}


def score_example(task: str, example: TaskExample, run: RunResult) -> dict:
    """Build one report row from a run: the error of a run an error stopped,
    or else the run's scores, flagged ``halted`` for a halted run (which has
    no outputs)."""
    if run.error_type is not None:
        return error_row(example, run.error, run.error_type)
    sp, vacuous = suggestions_passed(run)
    row: dict = {"question": example.question, "suggestions_passed": sp}
    if vacuous:
        row["suggestions_vacuous"] = True
    row.update(TASKS[task].score(example, run.final_outputs or {}, run))
    if run.halted:
        row["halted"] = True
    return row


def evaluate_dataset(
    task: str,
    program: Program,
    examples: Sequence[TaskExample],
    config: RuntimeConfig,
    backend,
    workers: int = 1,
) -> tuple[list[dict], list[Optional[RunResult]]]:
    """Run and score every example. Any exception while running or scoring an
    example becomes that example's error row, with the exception's type and
    message; the other examples still run. For a backend error or a run over
    the pass budget, the error's ``partial_result`` (the run so far, with the
    error) is that example's result, and scores as its error row."""

    def run_one(index: int) -> tuple[dict, Optional[RunResult]]:
        example = examples[index]
        try:
            try:
                result = run_task_example(program, example, config, backend)
            except (BackendError, PassBudgetExceeded) as exc:
                result = exc.partial_result
            return score_example(task, example, result), result
        except Exception as exc:  # a bug in a program or predicate: keep evaluating
            logger.exception("example %d failed", index)
            return error_row(example, str(exc), type(exc).__name__), None

    indices = range(len(examples))
    if workers <= 1:
        outcomes = [run_one(i) for i in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_one, indices))
    rows = [row for row, _ in outcomes]
    results = [result for _, result in outcomes]
    return rows, results


def build_report(task: str, strategy: str, rows: Sequence[dict]) -> dict:
    """The ``report.json`` object: the task's column means over ``rows``
    (``metrics``), its flags and the rows themselves."""
    spec = TASKS[task]
    flags = []
    failures = sum(1 for row in rows if "error" in row)
    if not rows:
        flags.append("empty_dataset")
    if failures:
        flags.append(f"{failures}_examples_failed")
    if any(row.get("suggestions_vacuous") for row in rows):
        flags.append("some_examples_had_no_suggestions")
    return {"version": REPORT_VERSION, "strategy": strategy, "task": task, "n_examples": len(rows),
            "metrics": summarize_rows(rows, spec.columns), "flags": [*flags, *spec.flags], "rows": list(rows)}


# every task's bootstrap column scores in [0, 1]
BOOTSTRAP_MAX_SCORE = 1.0


def bootstrap_metric(task: str):
    """The extrinsic pass/fail metric used when harvesting demonstrations; it
    scores ``run``, at most ``BOOTSTRAP_MAX_SCORE``."""
    column = TASKS[task].bootstrap_column

    def metric(example: TaskExample, outputs: dict[str, str], run: RunResult) -> float:
        return score_example(task, example, run).get(column, 0.0)

    return metric
