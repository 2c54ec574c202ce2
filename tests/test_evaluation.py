from __future__ import annotations

import json

import pytest

from lmpipe.backend import CachingBackend, ScriptEntry, ScriptedBackend, load_script
from lmpipe.checks import format_checker
from lmpipe.cli import bundled_data_path
from lmpipe.core import parse_signature
from lmpipe.evaluation import (
    bootstrap_metric,
    build_report,
    evaluate_dataset,
    run_task_example,
)
from lmpipe.metrics import TaskExample, load_dataset
from lmpipe.modules import PredictModule
from lmpipe.retrieval import Passage, RetrieverIndex, load_corpus
from lmpipe.runtime import BACKTRACK_DEFAULT, DISABLE_ALL, Program, RuntimeConfig
from lmpipe.tasks import MultiHopQA, QuizGen, TweetGen, LongFormQA


@pytest.fixture(scope="module")
def index():
    return RetrieverIndex.build(load_corpus(bundled_data_path("corpus.jsonl")))


@pytest.fixture(scope="module")
def testset():
    return load_dataset(bundled_data_path("test.jsonl"))


def script_backend(name: str) -> CachingBackend:
    return CachingBackend(ScriptedBackend(load_script(bundled_data_path(f"scripts/{name}"))))


def test_evaluate_dataset_full_testset(index, testset):
    rows, results = evaluate_dataset(
        "multihop", MultiHopQA(index), testset,
        RuntimeConfig(handler_policy=BACKTRACK_DEFAULT),
        script_backend("multihop_all_pass.json"),
    )
    assert len(rows) == len(results) == 6
    assert all(row["answer_em"] == 1.0 for row in rows)
    assert all(row["retrieval_recall"] == 1.0 for row in rows)
    report = build_report("multihop", "infer_assert", rows)
    assert report["metrics"]["answer_em"] == 1.0
    assert report["metrics"]["suggestions_passed"] == 1.0
    assert report["flags"] == []


def test_evaluate_dataset_error_rows(index, testset):
    backend = CachingBackend(ScriptedBackend([]))  # nothing scripted
    rows, results = evaluate_dataset(
        "multihop", MultiHopQA(index), testset, RuntimeConfig(), backend,
    )
    assert all("error" in row for row in rows)
    assert all(row["error_type"] == "UnscriptedPromptError" for row in rows)
    # each example keeps the steps completed before the error (none here) and the message
    assert all(result.steps == [] and result.error == row["error"]
               for row, result in zip(rows, results))
    report = build_report("multihop", "vanilla", rows)
    assert "6_examples_failed" in report["flags"]
    assert report["metrics"] == {}


class RaisingQA(MultiHopQA):
    """Multi-hop QA that raises on one question, as a buggy predicate would."""

    def __init__(self, index, bad_question: str):
        super().__init__(index)
        self.bad_question = bad_question

    def forward(self, ctx, question):
        if question == self.bad_question:
            raise ValueError("predicate got malformed input")
        return super().forward(ctx, question)


@pytest.mark.parametrize("workers", [1, 3])
def test_evaluate_dataset_isolates_any_exception(index, testset, workers):
    bad = 2
    rows, results = evaluate_dataset(
        "multihop", RaisingQA(index, testset[bad].question), testset,
        RuntimeConfig(handler_policy=BACKTRACK_DEFAULT),
        script_backend("multihop_all_pass.json"), workers=workers,
    )
    assert rows[bad] == {
        "question": testset[bad].question,
        "error": "predicate got malformed input",
        "error_type": "ValueError",
    }
    assert results[bad] is None
    others = [row for i, row in enumerate(rows) if i != bad]
    assert len(others) == len(testset) - 1
    assert all(row["answer_em"] == 1.0 for row in others)
    report = build_report("multihop", "infer_assert", rows)
    assert "1_examples_failed" in report["flags"]
    assert report["metrics"]["answer_em"] == 1.0


def test_multihop_recall_keeps_titles_containing_separator():
    # a title holding " | ", the separator of the rendered context lines, still
    # counts as retrieved
    index = RetrieverIndex.build([
        Passage("Gate | North Annex", "The north annex gate was built by Ilsa Varn."),
        Passage("Ilsa Varn", "Ilsa Varn was born in Corvale."),
        Passage("Harbor Lamp", "The harbor lamp burns through the night."),
        Passage("Mill Pond", "Ducks swim on the mill pond."),
    ])
    example = TaskExample("Where was the builder of the north annex gate born?", "Corvale",
                          frozenset({"Gate | North Annex", "Ilsa Varn"}))
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Query: ${query}",
                    responses=["Query: north annex gate", "Query: Ilsa Varn"]),
        ScriptEntry(match="Answer: ${answer}", responses=["Answer: Corvale"]),
    ]))
    rows, _ = evaluate_dataset("multihop", MultiHopQA(index), [example],
                               RuntimeConfig(), backend)
    report = build_report("multihop", "infer_assert", rows)
    assert report["metrics"]["retrieval_recall"] == 1.0
    assert report["metrics"]["answer_em"] == 1.0


def test_quiz_choices_nested_too_deep_fail_the_format_suggestion():
    # the parser's RecursionError is a failed check, which the retries get to
    # fix, not an error row
    too_deep = "[" * 100_000
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Assessment Question:", responses=["Assessment Answer: Yes"]),
        ScriptEntry(match="Question: Q?", responses=[f"Reasoning: r\nAnswer Choices: {too_deep}"]),
    ]))
    rows, results = evaluate_dataset("quiz", QuizGen(), [TaskExample("Q?", "Paris")],
                                     RuntimeConfig(), backend)
    assert "error" not in rows[0]
    assert rows[0]["format"] == 0.0 and rows[0]["validity"] == 0.0
    [final] = [o for o in results[0].final_outcomes() if o.label == "format"]
    assert final.disposition == "warned" and final.attempt == 2


class AssertedQuiz(Program):
    """Quiz choices asserted, not suggested, to be JSON: prose choices halt the run."""

    inputs = ("question", "answer")

    def __init__(self):
        super().__init__()
        self.gen = self.register(PredictModule(
            module_id="gen", signature=parse_signature("question -> answer_choices")))

    def forward(self, ctx, question, answer):
        pred = ctx.call(self.gen, question=question)
        ctx.check_assert(format_checker(pred["answer_choices"]), "The choices must be JSON.")
        return pred


def halted_quiz_row() -> tuple[dict, object]:
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Question: Q?", responses=["Answer Choices: Paris or Rome"]),
    ]))
    [row], [result] = evaluate_dataset("quiz", AssertedQuiz(), [TaskExample("Q?", "Paris")],
                                       RuntimeConfig(), backend)
    return row, result


def test_a_halted_run_is_a_scored_row_flagged_halted():
    # a halt is the program's verdict, not an error: its message stays in the
    # trace, and the row scores the run without a prediction
    row, result = halted_quiz_row()
    assert result.halted and result.error == "The choices must be JSON."
    assert row == {"question": "Q?", "suggestions_passed": 1.0, "suggestions_vacuous": True,
                   "format": 0.0, "has_answer": 0.0, "plausible": 0.0, "validity": 0.0,
                   "halted": True}
    assert "1_examples_failed" not in build_report("quiz", "infer_assert", [row])["flags"]


def test_report_flags_examples_that_had_no_suggestions(testset):
    vacuous, _ = halted_quiz_row()
    rows, _ = evaluate_dataset("quiz", QuizGen(), testset[:1], RuntimeConfig(),
                               script_backend("quiz_all_pass.json"))
    assert "suggestions_vacuous" not in rows[0]
    assert "some_examples_had_no_suggestions" not in build_report("quiz", "infer_assert", rows)["flags"]
    flags = build_report("quiz", "infer_assert", rows + [vacuous])["flags"]
    assert "some_examples_had_no_suggestions" in flags


def test_build_report_empty_dataset_flagged():
    report = build_report("quiz", "vanilla", [])
    assert report["n_examples"] == 0
    assert "empty_dataset" in report["flags"]


@pytest.mark.parametrize("task,script,program_factory,expected", [
    ("multihop", "multihop_all_pass.json", lambda idx: MultiHopQA(idx), 1.0),
    ("longform", "longform_all_pass.json", lambda idx: LongFormQA(idx), 1.0),
    ("quiz", "quiz_all_pass.json", lambda idx: QuizGen(), 1.0),
    ("tweet", "tweet_all_pass.json", lambda idx: TweetGen(idx), 1.0),
])
def test_bootstrap_metric_passes_on_clean_runs(index, testset, task, script, program_factory, expected):
    backend = script_backend(script)
    program = program_factory(index)
    example = testset[0]
    result = run_task_example(program, example, RuntimeConfig(), backend)
    metric = bootstrap_metric(task)
    assert metric(example, result.final_outputs, result) == expected


def test_bootstrap_metric_fails_on_wrong_answer(index, testset):
    backend = script_backend("multihop_all_pass.json")
    example = testset[0]
    other = testset[1]
    result = run_task_example(MultiHopQA(index), example, RuntimeConfig(), backend)
    metric = bootstrap_metric("multihop")
    # score the run against a different example's gold answer
    assert metric(other, result.final_outputs, result) == 0.0


def test_vanilla_vs_infer_assert_on_retry_fixture(index, testset, tmp_path):
    """The retry fixture shows the strategies apart: with assertions active the
    suggestion recovers (1.0); recorded-only runs stay strictly lower."""
    single = [testset[0]]

    def suggestions_mean(policy: str) -> float:
        rows, _ = evaluate_dataset(
            "multihop", MultiHopQA(index), single, RuntimeConfig(handler_policy=policy),
            script_backend("multihop_retry.json"),
        )
        return rows[0]["suggestions_passed"]

    assert suggestions_mean(BACKTRACK_DEFAULT) == 1.0
    assert suggestions_mean(DISABLE_ALL) < 1.0


def test_cli_eval_retry_fixture_both_strategies(index, testset, tmp_path):
    from cli_runner import invoke

    dataset = tmp_path / "one.jsonl"
    example = testset[0]
    dataset.write_text(json.dumps({
        "question": example.question, "answer": example.answer,
        "gold_titles": sorted(example.gold_titles),
    }) + "\n")

    def run(strategy: str, out: str) -> dict:
        result = invoke([
            "eval", "--task", "multihop", "--strategy", strategy,
            "--test", str(dataset), "--offline",
            "--script", str(bundled_data_path("scripts/multihop_retry.json")),
            "--out", str(tmp_path / out),
        ])
        assert result.exit_code == 0, result.output
        return json.loads((tmp_path / out / "report.json").read_text())

    with_assertions = run("infer_assert", "assertive")
    vanilla = run("vanilla", "vanilla")
    assert with_assertions["metrics"]["suggestions_passed"] == 1.0
    assert vanilla["metrics"]["suggestions_passed"] < 1.0
