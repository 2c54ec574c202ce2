"""Dataset evaluation: run a task program over examples and score every row.

Rows keep the raw per-example predicate booleans so each reported mean can be
recomputed independently. Example fan-out uses threads sharing one backend and
cache; rows are assembled in dataset order regardless of worker count.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from .backend import BackendError
from .checks import (
    format_checker,
    has_correct_answer,
    has_no_hashtags,
    is_correct_answer_included,
    is_within_length_limit,
)
from .metrics import (
    MetricReport,
    TaskExample,
    answer_em,
    citation_metrics,
    final_label_outcomes,
    quiz_validity,
    retrieval_recall,
    suggestions_passed,
    summarize_rows,
    tweet_quality,
)
from .runtime import Program, RunResult, RuntimeConfig, run_with_backtracking
from .tasks import CONTEXT_MODULE, TWEET_LIMIT, task_inputs

logger = logging.getLogger(__name__)

METRIC_COLUMNS = {
    "multihop": ["suggestions_passed", "answer_em", "retrieval_recall"],
    "longform": [
        "suggestions_passed", "citation_faithfulness", "citation_precision",
        "citation_recall", "has_answer",
    ],
    "quiz": ["suggestions_passed", "format", "has_answer", "plausible", "validity"],
    "tweet": [
        "suggestions_passed", "no_hashtags", "within_limit", "has_answer",
        "engaging", "faithful", "quality",
    ],
}


def run_task_example(
    task: str, program: Program, example: TaskExample, config: RuntimeConfig, backend
) -> RunResult:
    inputs = task_inputs(task, example.question, example.answer)
    return run_with_backtracking(program, inputs, config, backend)


def _first_true(flags: Sequence[bool], default: bool = False) -> bool:
    return flags[0] if flags else default


def score_example(task: str, example: TaskExample, result: RunResult) -> dict:
    """Build one report row from a finished run."""
    trace = result.trace
    sp, vacuous = suggestions_passed(trace)
    row: dict = {"question": example.question, "suggestions_passed": sp}
    if vacuous:
        row["suggestions_vacuous"] = True
    labels = final_label_outcomes(trace)
    outputs = result.prediction.outputs if result.prediction else {}

    if task == "multihop":
        row["answer_em"] = answer_em(outputs.get("answer", ""), example.answer)
        recall = retrieval_recall(trace, example.gold_titles,
                                 context_module=CONTEXT_MODULE[task])
        if recall is not None:
            row["retrieval_recall"] = recall
    elif task == "longform":
        paragraph = outputs.get("paragraph", "")
        context_titles = [title for title, _ in result.meta.get("context_passages", [])]
        faithful_flags = labels.get("citation_faithful", [])
        cm = citation_metrics(paragraph, context_titles, example.gold_titles,
                              faithful_flags=faithful_flags)
        if cm.faithfulness is not None:
            row["citation_faithfulness"] = cm.faithfulness
        if cm.precision is not None:
            row["citation_precision"] = cm.precision
        row["citation_recall"] = cm.recall
        # inferred metric: the gold answer appears somewhere in the paragraph
        row["has_answer"] = float(has_correct_answer(paragraph, example.answer))
        row["has_answer_definition"] = "inferred"
    elif task == "quiz":
        choices = outputs.get("answer_choices", "")
        fmt = format_checker(choices)
        inc = is_correct_answer_included(example.answer, choices)
        plausible = _first_true(labels.get("plausible", []))
        row["format"] = float(fmt)
        row["has_answer"] = float(inc)
        row["plausible"] = float(plausible)
        row["validity"] = quiz_validity(fmt, inc, plausible)
    elif task == "tweet":
        tweet = outputs.get("tweet", "")
        booleans = {
            "no_hashtags": has_no_hashtags(tweet),
            "within_limit": is_within_length_limit(tweet, TWEET_LIMIT),
            "has_answer": has_correct_answer(tweet, example.answer),
            "engaging": _first_true(labels.get("engaging", [])),
            "faithful": _first_true(labels.get("faithful", [])),
        }
        for name, value in booleans.items():
            row[name] = float(value)
        row["quality"] = tweet_quality(**booleans)
    else:
        raise ValueError(f"unknown task {task!r}")
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
    message; the other examples still run."""

    def error_row(example: TaskExample, exc: Exception) -> tuple[dict, None]:
        return {"question": example.question, "error": str(exc),
                "error_type": type(exc).__name__}, None

    def run_one(index: int) -> tuple[dict, Optional[RunResult]]:
        example = examples[index]
        try:
            result = run_task_example(task, program, example, config, backend)
            row = score_example(task, example, result)
        except BackendError as exc:
            return error_row(example, exc)
        except Exception as exc:  # a bug in a program or predicate: keep evaluating
            logger.exception("example %d failed", index)
            return error_row(example, exc)
        if result.halted:
            row["halted"] = True
        return row, result

    indices = range(len(examples))
    if workers <= 1:
        outcomes = [run_one(i) for i in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_one, indices))
    rows = [row for row, _ in outcomes]
    results = [result for _, result in outcomes]
    return rows, results


def build_report(task: str, strategy: str, rows: Sequence[dict]) -> MetricReport:
    report = MetricReport(strategy=strategy, task=task, n_examples=len(rows), rows=list(rows))
    report.metrics = summarize_rows(rows, METRIC_COLUMNS[task])
    failures = sum(1 for row in rows if "error" in row)
    if not rows:
        report.flags.append("empty_dataset")
    if failures:
        report.flags.append(f"{failures}_examples_failed")
    if any(row.get("suggestions_vacuous") for row in rows):
        report.flags.append("some_examples_had_no_suggestions")
    if task == "longform":
        report.flags.append("has_answer_definition_inferred")
    return report


def bootstrap_metric(task: str):
    """The extrinsic pass/fail metric used when harvesting demonstrations."""

    def metric(example: TaskExample, prediction, trace) -> float:
        row = score_example(task, example, RunResultView(prediction, trace, task))
        if task == "multihop":
            return row.get("answer_em", 0.0)
        if task == "longform":
            return row.get("has_answer", 0.0)
        if task == "quiz":
            return row.get("validity", 0.0)
        return row.get("quality", 0.0)

    return metric


class RunResultView:
    """Adapter giving score_example what it needs from a bare (prediction, trace)."""

    def __init__(self, prediction, trace, task: str):
        self.prediction = prediction
        self.trace = trace
        self.halted = False
        self.meta = _meta_from_trace(trace, task)


def _meta_from_trace(trace, task: str) -> dict:
    """Recover context passage titles from the recorded steps when no run meta exists."""
    from .core import titles_from_context

    wanted = CONTEXT_MODULE.get(task)
    for step in reversed(trace.steps):
        if wanted is not None and step.module_id != wanted:
            continue
        context = step.inputs.get("context")
        if context and context != "N/A":
            # bodies are not needed for scoring, titles are
            return {"context_passages": [(t, "") for t in titles_from_context(context)]}
    return {"context_passages": []}
