"""The acceptance gate: every criterion below runs offline against the bundled
scripts and fixtures, each at its stated tolerance. A per-criterion pass/fail
summary prints at the end of the pytest run."""

from __future__ import annotations

import itertools
import json
import logging
import random
from pathlib import Path

import pytest

from lmpipe.backend import CachingBackend, ScriptEntry, ScriptedBackend, load_script
from lmpipe.checks import (
    citations_check,
    format_checker,
    has_correct_answer,
    has_no_hashtags,
    is_query_distinct,
    is_within_length_limit,
)
from lmpipe.cli import bundled_data_path
from lmpipe.core import parse_signature, passages_to_text
from lmpipe.evaluation import bootstrap_metric, evaluate_dataset, run_task_example
from lmpipe.metrics import answer_em, retrieval_recall, suggestions_passed, quiz_validity, tweet_quality
from lmpipe.modules import PredictModule
from lmpipe.optimizers import (
    CompileConfig,
    bootstrap_few_shot,
    collect_counterexamples,
    random_search_compile,
    save_compiled_program,
)
from lmpipe.retrieval import RetrieverIndex, load_corpus, retrieve
from lmpipe.runtime import (
    BACKTRACK_DEFAULT,
    DISABLE_ALL,
    SUPPRESS_ASSERT_LOG,
    Program,
    RuntimeConfig,
    run_with_backtracking,
)
from lmpipe.metrics import load_dataset
from lmpipe.tasks import MultiHopQA

ASSERTIVE = RuntimeConfig(handler_policy=BACKTRACK_DEFAULT)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def index():
    return RetrieverIndex.build(load_corpus(bundled_data_path("corpus.jsonl")))


@pytest.fixture(scope="module")
def trainset():
    return load_dataset(bundled_data_path("train.jsonl"))


@pytest.fixture(scope="module")
def devset():
    return load_dataset(bundled_data_path("dev.jsonl"))


@pytest.fixture(scope="module")
def testset():
    return load_dataset(bundled_data_path("test.jsonl"))


def script_backend(name: str) -> CachingBackend:
    return CachingBackend(ScriptedBackend(load_script(bundled_data_path(f"scripts/{name}"))))


# --- criterion 1: transition-rule conformance ---------------------------------

class OneConstraintProgram(Program):
    """One module guarded by one constraint of the given kind."""

    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind
        self.gen = self.register(PredictModule(
            module_id="gen", signature=parse_signature("prompt -> value")))

    def forward(self, ctx, prompt):
        pred = ctx.call(self.gen, prompt=prompt)
        check = ctx.suggest if self.kind == "suggest" else ctx.check_assert
        check(pred["value"] == "ok", "Value should be ok", label="value_ok")
        return pred


def transition_rule_oracle(kind: str, fails: int, max_retries: int) -> list[str]:
    """Hand-executed transition rules, independent of the engine."""
    sequence = []
    retry_count = 0
    attempt = 0
    while True:
        condition_holds = attempt >= fails
        if condition_holds:
            sequence.append("passed")   # continue with the count reset to 0
            return sequence
        if retry_count < max_retries:
            sequence.append("retried")
            retry_count += 1
            attempt += 1
            continue
        sequence.append("halted" if kind == "assert" else "warned")
        return sequence


def run_one_constraint(kind: str, fails: int, max_retries: int):
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Value: bad"] * fails + ["Value: ok"]),
    ]))
    program = OneConstraintProgram(kind)
    result = run_with_backtracking(program, {"prompt": "go"},
                                   RuntimeConfig(max_retries=max_retries), backend)
    dispositions = [o.disposition for o in result.constraints if o.site == 0]
    return result, dispositions


@pytest.mark.criterion(1, "transition semantics match the hand-executed rule oracle")
def test_criterion_1_semantics_conformance():
    for kind in ("assert", "suggest"):
        for max_retries in (0, 1, 2, 3):
            for fails in range(0, max_retries + 3):
                result, observed = run_one_constraint(kind, fails, max_retries)
                expected = transition_rule_oracle(kind, fails, max_retries)
                assert observed == expected, (kind, fails, max_retries, observed, expected)
                assert result.halted == (kind == "assert" and fails > max_retries)

    # retry count resets on pass: a site that passed, then fails after a sibling
    # retry, records attempt 0 -> retried(1) again
    class TwoSiteProgram(Program):
        def __init__(self):
            super().__init__()
            self.gen = self.register(PredictModule(
                module_id="gen", signature=parse_signature("prompt -> value")))

        def forward(self, ctx, prompt):
            pred = ctx.call(self.gen, prompt=prompt)
            ctx.suggest("a" in pred["value"], "needs a", label="has_a")
            ctx.suggest("b" in pred["value"], "needs b", label="has_b")
            return pred

    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Value: a", "Value: b", "Value: ab"]),
    ]))
    result = run_with_backtracking(TwoSiteProgram(), {"prompt": "go"},
                                   RuntimeConfig(max_retries=2), backend)
    site_a = [o for o in result.constraints if o.site == 0]
    assert [o.disposition for o in site_a] == ["passed", "retried", "passed"]
    assert [o.attempt for o in site_a] == [0, 0, 1]


# --- criterion 2: the retry scenario end to end --------------------------------

def is_query_prompt(prompt: str) -> bool:
    return "Query: ${query}" in prompt


@pytest.mark.criterion(2, "fail-once-then-pass run: suggestions 1.0, one extra call, golden retry prompt")
def test_criterion_2_retry_end_to_end(index, testset):
    example = testset[0]

    clean_backend = script_backend("multihop_all_pass.json")
    run_task_example(MultiHopQA(index), example, ASSERTIVE, clean_backend)
    clean_calls = clean_backend.call_log.records()

    retry_backend = script_backend("multihop_retry.json")
    result = run_task_example(MultiHopQA(index), example, ASSERTIVE, retry_backend)
    retry_calls = retry_backend.call_log.records()

    value, vacuous = suggestions_passed(result)
    assert value == 1.0 and not vacuous

    clean_query_calls = [r for r in clean_calls if is_query_prompt(r.prompt)]
    retry_query_calls = [r for r in retry_calls if is_query_prompt(r.prompt)]
    assert len(retry_query_calls) == len(clean_query_calls) + 1
    assert len(retry_calls) == len(clean_calls) + 1

    retry_prompts = [r.prompt for r in retry_calls if "Past Query:" in r.prompt]
    assert len(retry_prompts) == 1
    golden = (GOLDEN / "retry_prompt.txt").read_bytes().decode("utf-8")
    assert retry_prompts[0] == golden
    assert "Past Query:" in retry_prompts[0]
    assert "Instruction: Query should be less than 100 characters" in retry_prompts[0]


# --- criterion 3: rollback of discarded state -----------------------------------

@pytest.mark.criterion(3, "after a retried hop-1 query the final context is 3+3 passages, none from the discarded query")
def test_criterion_3_rollback(index, testset):
    example = testset[0]
    script = json.loads(bundled_data_path("scripts/multihop_retry.json").read_text())
    past_match = next(e["match"] for e in script["entries"] if e["match"].startswith("\nPast Query: "))
    discarded_query = past_match[len("\nPast Query: "):]
    assert len(discarded_query) >= 100

    result = run_task_example(MultiHopQA(index), example, ASSERTIVE,
                              script_backend("multihop_retry.json"))
    hop1_query, hop2_query = [found.query for found in result.retrievals]
    hop1, hop2 = (retrieve(index, query, 3) for query in (hop1_query, hop2_query))
    assert result.steps[-1].inputs["context"] == passages_to_text(hop1 + hop2)
    titles = [title for found in result.retrievals for title in found.titles]
    assert len(titles) == 6

    would_have_retrieved = {p.title for p in retrieve(index, discarded_query, 3)}
    assert would_have_retrieved.isdisjoint(set(titles))

    # provenance: first three titles come from the fixed hop-1 query, last three
    # from the hop-2 query
    assert hop1_query != discarded_query
    assert titles == [p.title for p in hop1 + hop2]


# --- criteria 4 and 5: bootstrapping ---------------------------------------------

def demo_predicates_pass(module_id: str, demo) -> bool:
    if module_id != "generate_query":
        return True
    query = demo["query"]
    return len(query) < 100 and is_query_distinct(query, [demo["question"]])


@pytest.mark.criterion(4, "teacher assertions filter demos to 100% constraint-passing; the naive teacher keeps a violator")
def test_criterion_4_assertion_filter_soundness(index, trainset):
    metric = bootstrap_metric("multihop")
    with_filter = bootstrap_few_shot(
        MultiHopQA(index), trainset, metric, CompileConfig(teacher_runtime=RuntimeConfig()),
        script_backend("multihop_teacher_assert.json"), run_task_example,
    )
    query_demos = with_filter.modules["generate_query"].demos
    assert query_demos, "filter check must not be vacuous"
    total = sum(len(m.demos) for m in with_filter.modules.values())
    passing = sum(
        demo_predicates_pass(mid, demo)
        for mid, m in with_filter.modules.items() for demo in m.demos
    )
    assert passing == total  # 100%

    naive = bootstrap_few_shot(
        MultiHopQA(index), trainset, metric, CompileConfig(),
        script_backend("multihop_teacher_naive.json"), run_task_example,
    )
    failing = [
        demo for mid, m in naive.modules.items() for demo in m.demos
        if not demo_predicates_pass(mid, demo)
    ]
    assert len(failing) >= 1


@pytest.mark.criterion(5, "fail-then-fix run yields one counterexample per affected module, rendered into the prompt")
def test_criterion_5_counterexample_bootstrapping(index, trainset):
    backend = script_backend("multihop_teacher_assert.json")
    program = MultiHopQA(index)
    result = run_task_example(program, trainset[0], RuntimeConfig(), backend)
    counterexamples = collect_counterexamples(program, [result])
    by_module = {}
    for ce in counterexamples:
        by_module.setdefault(ce.module_id, []).append(ce)
    assert set(by_module) == {"generate_query"}          # the only affected module
    assert len(by_module["generate_query"]) == 1
    ce = by_module["generate_query"][0]
    assert len(ce.failed_output) >= 100                  # it violated the length predicate
    assert len(ce.corrected_output) < 100                # the fix satisfies it

    compiled = bootstrap_few_shot(
        MultiHopQA(index), trainset, bootstrap_metric("multihop"),
        CompileConfig(teacher_runtime=RuntimeConfig()),
        script_backend("multihop_teacher_assert.json"), run_task_example,
    )
    prompt = compiled.modules["generate_query"].render({"context": "N/A", "question": "Q?"})
    attached = compiled.modules["generate_query"].counterexamples[0]
    assert f"Past Query: {attached.failed_output}" in prompt
    assert f"Instruction: {attached.message}" in prompt


# --- criterion 6: seeded search determinism --------------------------------------

@pytest.mark.criterion(6, "equal seeds give byte-identical artifacts and reports; 6 candidates; demos <= 2")
def test_criterion_6_random_search_determinism(index, trainset, devset, tmp_path):
    config = CompileConfig(rng_seed=42)
    assert config.num_candidates == 6 and config.max_bootstrapped_demos == 2

    def compile_once(tag: str) -> tuple[bytes, bytes]:
        best, report = random_search_compile(
            MultiHopQA(index), trainset, devset, bootstrap_metric("multihop"),
            config, script_backend("multihop_all_pass.json"), run_task_example,
        )
        artifact = tmp_path / f"artifact_{tag}.json"
        save_compiled_program(best, "multihop", config, artifact)
        report_path = tmp_path / f"report_{tag}.json"
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True))
        return artifact.read_bytes(), report_path.read_bytes()

    artifact_a, report_a = compile_once("a")
    artifact_b, report_b = compile_once("b")
    assert artifact_a == artifact_b
    assert report_a == report_b

    report = json.loads(report_a)
    assert len(report["candidates"]) == 6
    for candidate in report["candidates"]:
        assert all(count <= 2 for count in candidate["demo_counts"].values())
    artifact = json.loads(artifact_a)
    for module in artifact["modules"].values():
        assert len(module["demos"]) <= 2


# --- criterion 7: metric oracles ---------------------------------------------------

@pytest.mark.criterion(7, "composite scores match brute force on 200 random vectors; EM/recall match hand-computed rows")
def test_criterion_7_metric_oracles():
    def quiz_oracle(fmt, inc, plausible):
        return (float(fmt) + float(inc) + float(plausible)) / 3.0 if (fmt and inc) else 0.0

    def tweet_oracle(tags, ans, limit, engaging, faithful):
        flags = (tags, ans, limit, engaging, faithful)
        return sum(map(float, flags)) / 5.0 if (ans and limit) else 0.0

    rng = random.Random(2024)
    quiz_vectors = [tuple(rng.random() < 0.5 for _ in range(3)) for _ in range(200)]
    quiz_vectors += list(itertools.product([False, True], repeat=3))  # every gate case
    tweet_vectors = [tuple(rng.random() < 0.5 for _ in range(5)) for _ in range(200)]
    tweet_vectors += list(itertools.product([False, True], repeat=5))

    quiz_impl, quiz_expected = [], []
    for fmt, inc, plausible in quiz_vectors:
        got = quiz_validity(fmt, inc, plausible)
        want = quiz_oracle(fmt, inc, plausible)
        if not (fmt and inc):
            assert got == 0.0
        assert abs(got - want) <= 1e-12
        quiz_impl.append(got)
        quiz_expected.append(want)
    assert abs(sum(quiz_impl) / len(quiz_impl) - sum(quiz_expected) / len(quiz_expected)) <= 1e-12

    tweet_impl, tweet_expected = [], []
    for flags in tweet_vectors:
        got = tweet_quality(*flags)
        want = tweet_oracle(*flags)
        if not (flags[1] and flags[2]):
            assert got == 0.0
        assert abs(got - want) <= 1e-12
        tweet_impl.append(got)
        tweet_expected.append(want)
    assert abs(sum(tweet_impl) / len(tweet_impl) - sum(tweet_expected) / len(tweet_expected)) <= 1e-12

    # ten rows with expected values computed by hand
    rows = [
        # (prediction, gold, retrieved titles, gold titles, expected em, expected recall)
        ("The Treaty of Trianon", "Treaty of Trianon", ["A", "B"], {"A", "B"}, 1.0, 1.0),
        ("Enterprise", "Budget Rent a Car", ["A", "B"], {"A", "B"}, 0.0, 1.0),
        ("maribel falls.", "Maribel Falls", ["A"], {"A", "B"}, 1.0, 0.5),
        ("Port  Ellery", "Port Ellery", [], {"A", "B"}, 1.0, 0.0),
        ("A Dunmore Vale", "Dunmore Vale", ["X", "Y", "Z"], {"X"}, 1.0, 1.0),
        ("wrong answer", "Sorren Gate", ["X", "Y"], {"X", "Y", "Z", "W"}, 0.0, 0.5),
        ("Lindenmere!", "Lindenmere", ["A", "X"], {"X", "Y"}, 1.0, 0.5),
        ("the quillan heath", "Quillan Heath", ["P", "Q", "R"], {"S", "T"}, 1.0, 0.0),
        ("Istria Point", "Istria  Point", ["A", "B", "C"], {"A", "B", "C"}, 1.0, 1.0),
        ("", "Noonvale", ["A"], {"A", "B", "C", "D"}, 0.0, 0.25),
    ]
    assert len(rows) == 10
    for prediction, gold, retrieved, gold_titles, want_em, want_recall in rows:
        assert abs(answer_em(prediction, gold) - want_em) <= 1e-12
        got_recall = retrieval_recall(retrieved, gold_titles)
        assert abs(got_recall - want_recall) <= 1e-12


# --- criterion 8: predicate tables --------------------------------------------------

@pytest.mark.criterion(8, "each constraint predicate passes a table of 8+ hand-made cases with boundaries")
def test_criterion_8_predicate_tables():
    format_cases = [
        ('{"A": "Paris", "B": "Rome"}', True),
        ('{"A": "one"}', True),
        ('  {"A": "x", "B": "y"} ', True),
        ("not json at all", False),
        ('["a", "b"]', False),
        ('{"A": 5}', False),
        ("{}", False),
        ('{"A": "x", }', False),
        ('{"A": {"n": "x"}}', False),
    ]
    hashtag_cases = [
        ("plain text", True),
        ("", True),
        ("ends with period.", True),
        ("# alone is not a tag", True),
        ("#History", False),
        ("middle #tag word", False),
        ("trailing #2024", False),
        ("two #a #b", False),
    ]
    length_cases = [
        ("", 280, True),
        ("x" * 279, 280, True),
        ("x" * 280, 280, True),      # inclusive boundary
        ("x" * 281, 280, False),
        ("x" * 500, 280, False),
        ("ab", 2, True),
        ("abc", 2, False),
        (" " * 281, 280, False),     # raw characters, whitespace counts
    ]
    inclusion_cases = [
        ("Paris", '{"A": "Paris"}', True),
        ("Paris", '{"A": "paris"}', True),
        ("The Hague", "seat: the hague", True),
        ("Paris", '{"A": "Rome"}', False),
        ("Paris", "", False),
        ("Budget Rent a Car", "Enterprise!", False),
        ("Kelvin Reach", "Born in Kelvin Reach.", True),
        ("A Coruna", "coruna", True),
    ]
    distinct_cases = [
        ("alpha beta", [], True),
        ("alpha beta", ["gamma delta"], True),
        ("alpha beta", ["alpha beta"], False),
        ("Alpha  Beta", ["alpha beta"], False),
        ("a b c d e", ["a b c d"], False),        # jaccard 4/5 = 0.8: boundary fails
        ("a b c d", ["a b c e"], True),           # jaccard 3/5 = 0.6
        ("one two", ["one two three four five six seven eight nine ten"], True),
        ("alpha beta", ["x y", "alpha beta"], False),
    ]
    citation_cases = [
        ("Fact one [1]. Fact two [2].", True),
        ("Fact one [1]. Fact two.", True),
        ("A [1]. B. C.", True),
        ("A [1]. B. C. D.", False),            # three consecutive uncited sentences
        ("No markers here.", False),
        ("", False),
        ("One [1]! Two [2]? Three [3].", True),
        ("A. B. C [1].", True),
        ("A. B. C. D [1].", False),
    ]
    for text, expected in format_cases:
        assert format_checker(text) is expected, text
    for text, expected in hashtag_cases:
        assert has_no_hashtags(text) is expected, text
    for text, limit, expected in length_cases:
        assert is_within_length_limit(text, limit) is expected, (len(text), limit)
    for answer, text, expected in inclusion_cases:
        assert has_correct_answer(text, answer) is expected, (answer, text)
    for query, previous, expected in distinct_cases:
        assert is_query_distinct(query, previous) is expected, (query, previous)
    for paragraph, expected in citation_cases:
        assert citations_check(paragraph) is expected, paragraph
    for cases in (format_cases, hashtag_cases, length_cases,
                  inclusion_cases, distinct_cases, citation_cases):
        assert len(cases) >= 8


# --- criterion 9: strategy transparency -----------------------------------------------

@pytest.mark.criterion(9, "with an all-passing script, vanilla and infer_assert agree on predictions and extrinsic metrics")
def test_criterion_9_strategy_transparency(index, testset):
    def evaluate(policy: str):
        config = RuntimeConfig(handler_policy=policy)
        rows, results = evaluate_dataset(
            "multihop", MultiHopQA(index), testset, config,
            script_backend("multihop_all_pass.json"),
        )
        predictions = [r.final_outputs for r in results]
        extrinsic = [(row["answer_em"], row["retrieval_recall"]) for row in rows]
        return predictions, extrinsic

    vanilla_predictions, vanilla_metrics = evaluate(DISABLE_ALL)
    assertive_predictions, assertive_metrics = evaluate("backtrack_default")
    assert vanilla_predictions == assertive_predictions
    assert vanilla_metrics == assertive_metrics


# --- criterion 10: handler policies ---------------------------------------------------

@pytest.mark.criterion(10, "disable_all does zero retries; suppress_assert_log completes the halting run with a log")
def test_criterion_10_handler_policies(index, testset, caplog):
    backend = script_backend("multihop_retry.json")
    result = run_task_example(MultiHopQA(index), testset[0],
                              RuntimeConfig(handler_policy=DISABLE_ALL), backend)
    module_invocations = len(result.steps)
    assert len(backend.call_log) == module_invocations == 3
    assert all(step.attempt == 0 for step in result.steps)

    # the halting scenario from criterion 1 (assert, fails > R) completes instead
    halting_fails, max_retries = 3, 1
    halted, _ = run_one_constraint("assert", halting_fails, max_retries)
    assert halted.halted

    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Value: bad"] * halting_fails + ["Value: ok"]),
    ]))
    program = OneConstraintProgram("assert")
    config = RuntimeConfig(max_retries=max_retries, handler_policy=SUPPRESS_ASSERT_LOG)
    with caplog.at_level(logging.WARNING, logger="lmpipe.runtime"):
        suppressed = run_with_backtracking(program, {"prompt": "go"}, config, backend)
    assert not suppressed.halted
    assert suppressed.final_outputs is not None
    assert any("Value should be ok" in message for message in caplog.messages)
    dispositions = [o.disposition for o in suppressed.constraints if o.site == 0]
    assert dispositions == ["retried", "failed"]
