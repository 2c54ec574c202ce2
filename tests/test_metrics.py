from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, strategies as st

from lmpipe.core import (
    ConstraintOutcome,
    Retrieval,
    RunResult,
    TraceStep,
)
from lmpipe.evaluation import score_example
from lmpipe.metrics import (
    CitationMetrics,
    TaskExample,
    answer_em,
    citation_metrics,
    final_label_outcomes,
    load_dataset,
    mean_of,
    quiz_validity,
    retrieval_recall,
    suggestions_passed,
    tweet_quality,
)


def outcome(kind: str, disposition: str, site: int, attempt: int = 0,
            label: str = "") -> ConstraintOutcome:
    return ConstraintOutcome(
        kind=kind, passed=disposition == "passed", message="m", label=label or f"c{site}",
        attempt=attempt, disposition=disposition, site=site, target_module="m", step=0,
    )


def trace_with(outcomes: list[ConstraintOutcome], inputs=None) -> RunResult:
    """A one-step run whose outcomes, in evaluation order, all judged its step
    and all belong to the surviving pass."""
    step = TraceStep(module_id="m", inputs=inputs or {}, outputs={})
    return RunResult(final_outputs=None, steps=[step], constraints=outcomes, calls=1,
                     sites=1 + max((o.site for o in outcomes), default=-1))


def test_suggestions_passed_all_final_pass():
    trace = trace_with([
        outcome("suggest", "retried", site=0),
        outcome("suggest", "passed", site=0, attempt=1),
        outcome("suggest", "passed", site=1),
    ])
    assert suggestions_passed(trace) == (1.0, False)


def test_suggestions_passed_counts_only_final_attempts():
    trace = trace_with([
        outcome("suggest", "retried", site=0),
        outcome("suggest", "retried", site=0, attempt=1),
        outcome("suggest", "warned", site=0, attempt=2),
        outcome("suggest", "passed", site=1),
    ])
    assert suggestions_passed(trace) == (0.5, False)


def test_suggestions_passed_vacuous():
    value, vacuous = suggestions_passed(trace_with([]))
    assert value == 1.0 and vacuous is True


def test_suggestions_passed_ignores_assert_sites():
    trace = trace_with([
        outcome("assert", "passed", site=0),
        outcome("suggest", "failed", site=1),
    ])
    assert suggestions_passed(trace) == (0.0, False)


def test_suggestions_passed_failed_disposition_not_passed():
    trace = trace_with([outcome("suggest", "failed", site=0)])
    assert suggestions_passed(trace) == (0.0, False)


@given(st.lists(st.lists(st.booleans(), min_size=1, max_size=3), min_size=1, max_size=6))
def test_suggestions_passed_matches_recount(site_patterns):
    """The metric equals an independent recount over final dispositions."""
    outcomes = []
    for site, pattern in enumerate(site_patterns):
        for attempt, passed in enumerate(pattern):
            if attempt < len(pattern) - 1:
                disposition = "retried" if not passed else "passed"
            else:
                disposition = "passed" if passed else "warned"
            outcomes.append(outcome("suggest", disposition, site=site, attempt=attempt))
    trace = trace_with(outcomes)
    expected = sum(1 for p in site_patterns if p[-1]) / len(site_patterns)
    assert suggestions_passed(trace)[0] == pytest.approx(expected)


def test_final_label_outcomes_groups_by_label():
    trace = trace_with([
        outcome("suggest", "retried", site=0, label="length"),
        outcome("suggest", "passed", site=0, attempt=1, label="length"),
        outcome("suggest", "warned", site=1, label="length"),
        outcome("suggest", "passed", site=2, label="distinct"),
    ])
    labels = final_label_outcomes(trace)
    assert labels == {"length": [True, False], "distinct": [True]}


def test_answer_em_normalizes():
    assert answer_em("The Treaty of Trianon", "Treaty of Trianon") == 1.0
    assert answer_em("treaty of trianon.", "Treaty of Trianon") == 1.0
    assert answer_em("Enterprise", "Budget Rent a Car") == 0.0
    assert answer_em("", "x") == 0.0


def test_retrieval_recall_counts_gold_titles():
    titles = ["A", "B", "C"]
    assert retrieval_recall(titles, {"A", "B"}) == 1.0
    assert retrieval_recall(titles, {"A", "Z"}) == 0.5
    assert retrieval_recall(titles, {"Y", "Z"}) == 0.0
    assert retrieval_recall([], {"A"}) == 0.0


def test_retrieval_recall_empty_gold_absent():
    assert retrieval_recall(["A"], frozenset()) is None


def test_multihop_recall_reads_context_titles_from_recorded_retrievals():
    # the last step is a judge with an "N/A" context; recall reads the titles
    # the surviving pass retrieved, verbatim
    judge_step = TraceStep(module_id="judge", inputs={"context": "N/A"}, outputs={})
    run = RunResult(final_outputs={"answer": "Paris"}, steps=[judge_step],
                    constraints=[], calls=1, sites=0,
                    retrievals=[Retrieval("q1", 1, ["Gold | Annex"]), Retrieval("q2", 1, ["Other"])])
    example = TaskExample("Q?", "Paris", frozenset({"Gold | Annex"}))
    row = score_example("multihop", example, run)
    assert row["retrieval_recall"] == 1.0
    assert row["answer_em"] == 1.0


# --- composite scores against a brute-force oracle ----------------------------

def quiz_oracle(fmt: bool, inc: bool, plausible: bool) -> float:
    booleans = [fmt, inc, plausible]
    return sum(map(float, booleans)) / 3.0 if fmt and inc else 0.0


def tweet_oracle(tags: bool, ans: bool, limit: bool, engaging: bool, faithful: bool) -> float:
    booleans = [tags, ans, limit, engaging, faithful]
    return sum(map(float, booleans)) / 5.0 if ans and limit else 0.0


def test_quiz_validity_oracle_sweep():
    rng = random.Random(0)
    for _ in range(200):
        fmt, inc, plausible = (rng.random() < 0.5 for _ in range(3))
        assert quiz_validity(fmt, inc, plausible) == pytest.approx(
            quiz_oracle(fmt, inc, plausible), abs=1e-12)


def test_tweet_quality_oracle_sweep():
    rng = random.Random(1)
    for _ in range(200):
        flags = tuple(rng.random() < 0.5 for _ in range(5))
        assert tweet_quality(*flags) == pytest.approx(tweet_oracle(*flags), abs=1e-12)


def test_gate_failures_default_to_zero():
    assert quiz_validity(False, True, True) == 0.0
    assert quiz_validity(True, False, True) == 0.0
    assert tweet_quality(True, False, True, True, True) == 0.0
    assert tweet_quality(True, True, False, True, True) == 0.0


def test_quiz_validity_partial():
    assert quiz_validity(True, True, False) == pytest.approx(2 / 3)
    assert quiz_validity(True, True, True) == 1.0


# --- citation metrics ----------------------------------------------------------

@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1),
       st.lists(st.none()))
@example([0.1] * 10, [])
def test_mean_of_is_the_correctly_rounded_sum_over_the_count(values, absent):
    # absent values do not count; a left-to-right sum would give 0.09999999999999999
    # for ten 0.1s
    assert mean_of(values + absent) == math.fsum(values) / len(values)
    assert mean_of(absent) is None


def test_citation_metrics_exact_gold():
    cm = citation_metrics("A [1]. B [2].", ["Gold1", "Gold2"], {"Gold1", "Gold2"},
                          faithful_flags=[True, True])
    assert cm == CitationMetrics(faithfulness=1.0, precision=1.0, recall=1.0)


def test_citation_metrics_half():
    cm = citation_metrics("A [1]. B [2].", ["Gold1", "Other"], {"Gold1", "Gold2"},
                          faithful_flags=[True, False])
    assert cm.precision == 0.5
    assert cm.recall == 0.5
    assert cm.faithfulness == 0.5


def test_citation_metrics_out_of_range_counts_against_precision():
    cm = citation_metrics("A [1]. B [9].", ["Gold1", "Gold2"], {"Gold1", "Gold2"},
                          faithful_flags=[True, False])
    # one valid gold citation plus one dangling marker
    assert cm.precision == 0.5
    assert cm.recall == 0.5
    assert cm.faithfulness == 0.5


def test_citation_metrics_no_citations():
    cm = citation_metrics("No markers here.", ["Gold1"], {"Gold1"})
    assert cm.precision is None
    assert cm.faithfulness is None
    assert cm.recall == 0.0


def test_dataset_loading(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"question": "Q1?", "answer": "A1", "gold_titles": ["T1", "T2"]}\n'
        '{"question": "Q2?", "answer": "A2", "gold_titles": []}\n'
    )
    examples = load_dataset(path)
    assert examples[0] == TaskExample(question="Q1?", answer="A1",
                                      gold_titles=frozenset({"T1", "T2"}))
    assert examples[1].gold_titles == frozenset()


@pytest.mark.parametrize("line", ["[]", "null", "1", '"s"'])
def test_dataset_record_not_an_object_names_path_and_line(tmp_path, line):
    path = tmp_path / "data.jsonl"
    path.write_text('{"question": "Q1?", "answer": "A1"}\n' + line + "\n")
    with pytest.raises(ValueError) as info:
        load_dataset(path)
    assert str(info.value) == f"bad dataset record at {path}:2: expected a JSON object, got {line}"


@pytest.mark.parametrize("line, message", [
    pytest.param('{"question": "Q2?", "answer": "A2", "gold_titles": "Oak"}',
                 "dataset record gold_titles must be a list of strings, got 'Oak'", id="gold-titles-a-string"),
    pytest.param('{"question": "Q2?", "answer": "A2", "gold_title": ["Oak"]}',
                 "unknown key 'gold_title' in dataset record", id="gold-title-typo"),
    pytest.param('{"question": 5, "answer": "A2"}', "dataset record question must be a string, got 5",
                 id="question-a-number"),
    pytest.param('{"question": "Q2?"}', "missing key 'answer'", id="answer-missing"),
])
def test_bad_dataset_record_names_path_line_and_key(tmp_path, line, message):
    path = tmp_path / "data.jsonl"
    path.write_text('{"question": "Q1?", "answer": "A1"}\n' + line + "\n")
    with pytest.raises(ValueError) as info:
        load_dataset(path)
    assert str(info.value) == f"bad dataset record at {path}:2: {message}"


def test_task_example_validation():
    with pytest.raises(ValueError):
        TaskExample(question="", answer="x")
