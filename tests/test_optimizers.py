from __future__ import annotations

import json
import logging

import pytest
from hypothesis import example, given, strategies as st

from lmpipe.backend import CachingBackend, ScriptEntry, ScriptedBackend, load_script
from lmpipe.checks import is_query_distinct
from lmpipe.core import Counterexample, RunResult, TraceStep, parse_signature
from lmpipe.metrics import TaskExample, load_dataset
from lmpipe.modules import PredictModule, chain_of_thought
from lmpipe.evaluation import BOOTSTRAP_MAX_SCORE, bootstrap_metric, run_task_example
from lmpipe.optimizers import (
    CompileConfig,
    bootstrap_few_shot,
    collect_counterexamples,
    compiled_program_to_dict,
    load_compiled_program,
    random_search_compile,
    save_compiled_program,
)
from lmpipe.retrieval import RetrieverIndex, load_corpus
from lmpipe.runtime import NO_CONSTRAINTS, Program, RuntimeConfig, load_trace, run_with_backtracking, save_trace
from lmpipe.tasks import MultiHopQA, QuizGen, TweetGen

from lmpipe.cli import bundled_data_path


@pytest.fixture(scope="module")
def index():
    return RetrieverIndex.build(load_corpus(bundled_data_path("corpus.jsonl")))


@pytest.fixture(scope="module")
def trainset():
    return load_dataset(bundled_data_path("train.jsonl"))


@pytest.fixture(scope="module")
def devset():
    return load_dataset(bundled_data_path("dev.jsonl"))


def script_backend(name: str) -> CachingBackend:
    return CachingBackend(ScriptedBackend(load_script(bundled_data_path(f"scripts/{name}"))))


METRIC = bootstrap_metric("multihop")


def test_bootstrap_with_assertions_filters_to_passing_demos(index, trainset):
    compiled = bootstrap_few_shot(
        MultiHopQA(index), trainset, METRIC,
        CompileConfig(teacher_runtime=RuntimeConfig()), script_backend("multihop_teacher_assert.json"),
        run_task_example,
    )
    demos = compiled.modules["generate_query"].demos
    assert 1 <= len(demos) <= 2
    for demo in demos:
        assert len(demo["query"]) < 100
        assert is_query_distinct(demo["query"], [demo["question"]])
    assert 1 <= len(compiled.modules["generate_answer"].demos) <= 2


def test_bootstrap_naive_keeps_violating_demo(index, trainset):
    compiled = bootstrap_few_shot(
        MultiHopQA(index), trainset, METRIC,
        CompileConfig(), script_backend("multihop_teacher_naive.json"),
        run_task_example,
    )
    queries = [d["query"] for d in compiled.modules["generate_query"].demos]
    assert any(len(q) >= 100 for q in queries)


def test_bootstrap_does_not_mutate_input_program(index, trainset):
    program = MultiHopQA(index)
    bootstrap_few_shot(program, trainset, METRIC, CompileConfig(teacher_runtime=RuntimeConfig()),
                       script_backend("multihop_teacher_assert.json"), run_task_example)
    assert program.modules["generate_query"].demos == []


def test_bootstrap_empty_trainset_warns(index, caplog):
    with caplog.at_level(logging.WARNING, logger="lmpipe.optimizers"):
        compiled = bootstrap_few_shot(
            MultiHopQA(index), [], METRIC, CompileConfig(),
            script_backend("multihop_all_pass.json"), run_task_example,
        )
    assert compiled.modules["generate_query"].demos == []
    assert any("no demonstrations" in m for m in caplog.messages)


def test_bootstrap_respects_demo_budget(index, trainset):
    compiled = bootstrap_few_shot(
        MultiHopQA(index), trainset, METRIC, CompileConfig(max_bootstrapped_demos=1),
        script_backend("multihop_all_pass.json"), run_task_example,
    )
    for module in compiled.modules.values():
        assert len(module.demos) <= 1


def test_bootstrap_failing_metric_harvests_nothing(index, trainset):
    compiled = bootstrap_few_shot(
        MultiHopQA(index), trainset, lambda e, p, t: 0.0, CompileConfig(),
        script_backend("multihop_all_pass.json"), run_task_example,
    )
    assert all(not m.demos for m in compiled.modules.values())


def test_counterexamples_from_recovered_failure(index, trainset):
    backend = script_backend("multihop_teacher_assert.json")
    program = MultiHopQA(index)
    result = run_task_example(program, trainset[0], RuntimeConfig(), backend)
    counterexamples = collect_counterexamples(program, [result])
    assert len(counterexamples) == 1
    ce = counterexamples[0]
    assert ce.module_id == "generate_query"
    assert len(ce.failed_output) >= 100
    assert len(ce.corrected_output) < 100      # the fix satisfies the violated predicate
    assert ce.message == "Query should be less than 100 characters"


def test_counterexamples_all_pass_trace_empty(index, trainset):
    backend = script_backend("multihop_all_pass.json")
    program = MultiHopQA(index)
    result = run_task_example(program, trainset[0], RuntimeConfig(), backend)
    assert collect_counterexamples(program, [result]) == []


def test_counterexamples_unrecovered_failure_empty(index, trainset):
    # never fixed: budget exhausts, the site warns, no counterexample exists
    backend = script_backend("multihop_teacher_naive.json")
    program = MultiHopQA(index)
    result = run_task_example(program, trainset[0], RuntimeConfig(), backend)
    assert collect_counterexamples(program, [result]) == []


def test_bootstrap_attaches_counterexamples_and_renders_them(index, trainset):
    compiled = bootstrap_few_shot(
        MultiHopQA(index), trainset, METRIC,
        CompileConfig(teacher_runtime=RuntimeConfig()),
        script_backend("multihop_teacher_assert.json"), run_task_example,
    )
    ces = compiled.modules["generate_query"].counterexamples
    assert len(ces) == 1
    prompt = compiled.modules["generate_query"].render({"context": "N/A", "question": "Q?"})
    assert f"Past Query: {ces[0].failed_output}" in prompt
    assert f"Instruction: {ces[0].message}" in prompt
    assert f"Query: {ces[0].corrected_output}" in prompt
    # counterexample block precedes the first ordinary demo block
    demo_q = compiled.modules["generate_query"].demos[0]["question"]
    assert prompt.index("Past Query:") < prompt.index(demo_q)


def test_random_search_deterministic_and_budgeted(index, trainset, devset):
    def compile_once():
        best, report = random_search_compile(
            MultiHopQA(index), trainset, devset, METRIC, CompileConfig(rng_seed=13),
            script_backend("multihop_all_pass.json"), run_task_example, max_score=BOOTSTRAP_MAX_SCORE,
        )
        return compiled_program_to_dict(best, "multihop", CompileConfig(rng_seed=13)), report

    first, report1 = compile_once()
    second, report2 = compile_once()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert report1 == report2
    # every candidate is bootstrapped, and reported scored in full or pruned
    searched = report1["candidates"] + report1["pruned"]
    assert sorted(c["index"] for c in searched) == list(range(6))
    for candidate in searched:
        assert all(count <= 2 for count in candidate["demo_counts"].values())


def test_random_search_tie_breaks_to_lowest_index(index, trainset, devset):
    _, report = random_search_compile(
        MultiHopQA(index), trainset, devset, METRIC, CompileConfig(rng_seed=13),
        script_backend("multihop_all_pass.json"), run_task_example,
    )
    scores = [c["score"] for c in report["candidates"]]
    assert report["best_index"] == scores.index(max(scores))


def test_random_search_single_candidate(index, trainset, devset):
    best, report = random_search_compile(
        MultiHopQA(index), trainset, devset, METRIC,
        CompileConfig(rng_seed=3, num_candidates=1),
        script_backend("multihop_all_pass.json"), run_task_example, max_score=BOOTSTRAP_MAX_SCORE,
    )
    assert len(report["candidates"]) + len(report["pruned"]) == 1
    assert len(report["candidates"]) == 1
    assert report["best_index"] == 0
    assert best.modules["generate_query"].demos


# --- branch and bound: the pruned search selects what the full search selects ------

class OneModuleProgram(Program):
    inputs = ("question",)

    def __init__(self):
        super().__init__()
        self.register(PredictModule(module_id="gen", signature=parse_signature("question -> answer")))


class TableRunner:
    """A stub ``run_example``. A teacher run scores 1.0 and harvests its
    question as a demo; candidate c's run on dev example ``qj`` scores
    ``table[c][j]``. With one demo per module, each bootstrap makes exactly one
    teacher run, so the teacher runs so far name the candidate."""

    def __init__(self, teacher: Program, table: list[list[float]]):
        self.teacher, self.table = teacher, table
        self.teacher_runs = self.runs = 0

    def __call__(self, program, example, config, backend):
        self.runs += 1
        if program is self.teacher:
            self.teacher_runs += 1
            score = 1.0
        else:
            score = self.table[self.teacher_runs - 1][int(example.question[1:])]
        outputs = {"answer": example.answer, "score": repr(score)}
        step = TraceStep(module_id="gen", inputs={"question": example.question}, outputs=outputs)
        return RunResult(final_outputs=outputs, steps=[step], constraints=[], calls=1, sites=0)


def table_score(example, outputs, run):
    return float(outputs["score"])


def table_search(table, max_score):
    program = OneModuleProgram()
    runner = TableRunner(program, table)
    trainset = [TaskExample(question=f"t{i}", answer="a") for i in range(5)]
    valset = [TaskExample(question=f"q{j}", answer="a") for j in range(len(table[0]))]
    config = CompileConfig(max_bootstrapped_demos=1, num_candidates=len(table), rng_seed=7)
    compiled, report = random_search_compile(program, trainset, valset, table_score, config,
                                             run_example=runner, max_score=max_score)
    return compiled, report, runner.runs


SCORES = st.sampled_from([0.0, 1.0, 1 / 3, 2 / 3, 1 / 5, 2 / 5, 3 / 5, 4 / 5]) | st.floats(0.0, 1.0)


@st.composite
def score_tables(draw):
    """One row of dev scores per candidate; some rows repeat an earlier one,
    permuted, so means tie or differ only by rounding."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(SCORES, min_size=n, max_size=n), min_size=1, max_size=6))
    for i in range(1, len(rows)):
        if draw(st.booleans()):
            rows[i] = draw(st.permutations(rows[draw(st.integers(0, i - 1))]))
    return rows


@given(score_tables())
@example([[0.0] * 3] * 4)
@example([[1.0] * 3] * 3)
@example([[1 / 3, 2 / 3, 1.0], [1.0, 1 / 3, 2 / 3], [2 / 3, 1.0, 1 / 3]])
def test_pruned_search_selects_what_the_full_search_selects(table):
    pruned_program, pruned, pruned_runs = table_search(table, 1.0)
    full_program, full, full_runs = table_search(table, None)  # no declared maximum: never pruned
    assert not full["pruned"] and [c["index"] for c in full["candidates"]] == list(range(len(table)))
    assert pruned["best_index"] == full["best_index"]
    assert pruned_program.modules["gen"].demos == full_program.modules["gen"].demos
    assert pruned_runs == full_runs - sum(len(table[0]) - p["dev_scored"] for p in pruned["pruned"])
    assert pruned_runs <= full_runs
    assert sorted(c["index"] for c in pruned["candidates"] + pruned["pruned"]) == list(range(len(table)))
    assert all(c == full["candidates"][c["index"]] for c in pruned["candidates"])
    full_scores = [c["score"] for c in full["candidates"]]
    for stopped in pruned["pruned"]:
        # the bound holds the full mean and loses to an earlier candidate
        assert full_scores[stopped["index"]] <= stopped["bound"] <= max(full_scores[:stopped["index"]])


def test_metric_above_its_declared_maximum_raises():
    with pytest.raises(ValueError, match="above its declared maximum 1.0"):
        table_search([[0.5, 1.5]], 1.0)
    _, report, _ = table_search([[0.5, 1.5]], None)
    assert report["candidates"][0]["score"] == 1.0


def test_random_search_requires_valset(index, trainset):
    with pytest.raises(ValueError, match="valset"):
        random_search_compile(MultiHopQA(index), trainset, [], METRIC, CompileConfig(),
                              script_backend("multihop_all_pass.json"), run_task_example)


def test_compiled_artifact_round_trip(index, trainset, tmp_path):
    config = CompileConfig(teacher_runtime=RuntimeConfig())
    compiled = bootstrap_few_shot(
        MultiHopQA(index), trainset, METRIC, config,
        script_backend("multihop_teacher_assert.json"), run_task_example,
    )
    path = tmp_path / "artifact.json"
    save_compiled_program(compiled, "multihop", config, path)
    loaded = load_compiled_program(MultiHopQA(index), path, "multihop")
    for module_id, module in compiled.modules.items():
        other = loaded.modules[module_id]
        assert other.demos == module.demos
        assert other.counterexamples == module.counterexamples
        assert other.signature.instructions == module.signature.instructions


def test_artifact_version_mismatch(index, tmp_path):
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps({"version": 42, "task": "multihop", "modules": {}}))
    with pytest.raises(ValueError, match="42"):
        load_compiled_program(MultiHopQA(index), path, "multihop")


def test_example_input_keys_must_exist(index, tmp_path):
    # a demo that lacks an input field is rejected, naming the module and its inputs
    demo = {"question": "Q", "rationale": "r", "query": "q"}
    module = {"instructions": "i", "demos": [demo], "counterexamples": []}
    path = tmp_path / "artifact.json"
    answer = {"instructions": "i", "demos": [], "counterexamples": []}
    path.write_text(json.dumps({"version": 2, "task": "multihop",
                                "modules": {"generate_query": module, "generate_answer": answer}}))
    with pytest.raises(ValueError, match=r"demo of module 'generate_query' must be an object of strings "
                                         r"holding its inputs \['context', 'question'\]"):
        load_compiled_program(MultiHopQA(index), path, "multihop")


def test_collect_counterexamples_respects_payload_fields():
    # synthetic traces: the payload is the last output field of the module's
    # signature, not the rationale, in whatever order the step keys its outputs
    from lmpipe.core import ConstraintOutcome, RunResult, TraceStep

    program = Program()
    program.register(chain_of_thought("prompt -> answer", "gen"))
    outcomes = [
        ConstraintOutcome(kind="suggest", passed=False, message="be good", label="be good",
                          attempt=0, disposition="retried", site=0, target_module="gen", step=0),
        ConstraintOutcome(kind="suggest", passed=True, message="be good", label="be good",
                          attempt=1, disposition="passed", site=0, target_module="gen", step=1),
    ]
    signature_order = ("rationale", "answer")
    trace_order = ("answer", "rationale")  # sorted, as load_trace reads a step back
    for order in (signature_order, trace_order):
        def step(attempt, value):
            outputs = {"rationale": f"r{attempt}", "answer": value}
            return TraceStep(
                module_id="gen", inputs={},
                outputs={name: outputs[name] for name in order},
                attempt=attempt, position=0,
            )

        run = RunResult(final_outputs=None, steps=[step(0, "bad"), step(1, "good")],
                        constraints=outcomes, calls=1, sites=1)
        assert collect_counterexamples(program, [run]) == [
            Counterexample(module_id="gen", failed_output="bad", message="be good",
                           corrected_output="good")]
    # a step of a module the program does not register gives none
    assert collect_counterexamples(Program(), [run]) == []


@pytest.mark.parametrize("script,dataset,make_program", [
    ("multihop_retry.json", "test.jsonl", MultiHopQA),
    ("multihop_teacher_assert.json", "train.jsonl", MultiHopQA),
    ("quiz_fix.json", "test.jsonl", lambda index: QuizGen()),
])
def test_counterexamples_survive_a_trace_round_trip(index, tmp_path, script, dataset, make_program):
    # load_trace reads a step's outputs in sorted key order, not signature order
    program = make_program(index)
    example = load_dataset(bundled_data_path(dataset))[0]
    result = run_task_example(program, example, RuntimeConfig(), script_backend(script))
    save_trace(result, tmp_path / "trace.json")
    expected = collect_counterexamples(program, [result])
    assert expected
    assert collect_counterexamples(program, [load_trace(tmp_path / "trace.json")]) == expected


class TwoSiteProgram(Program):
    """One call judged by two suggestions, each rejecting one value."""

    def __init__(self):
        super().__init__()
        self.gen = self.register(PredictModule(
            module_id="gen", signature=parse_signature("prompt -> value")))

    def forward(self, ctx, prompt):
        pred = ctx.call(self.gen, prompt=prompt)
        ctx.suggest(pred["value"] != "v0", "not v0")
        ctx.suggest(pred["value"] != "v1", "not v1")
        return pred


def test_counterexamples_of_two_sites_retrying_one_call():
    # v0 fails the first site; its retry v1 passes it but fails the second; v2
    # passes both. Each site's first retry and final pass judged different steps.
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Value: v0", "Value: v1", "Value: v2"]),
    ]))
    program = TwoSiteProgram()
    result = run_with_backtracking(program, {"prompt": "go"}, RuntimeConfig(), backend)
    assert result.final_outputs["value"] == "v2"
    assert collect_counterexamples(program, [result]) == [
        Counterexample(module_id="gen", failed_output="v0", message="not v0", corrected_output="v2"),
        Counterexample(module_id="gen", failed_output="v1", message="not v1", corrected_output="v2"),
    ]


@pytest.mark.parametrize("task,make_program", [
    ("quiz", lambda index: QuizGen()),
    ("tweet", lambda index: TweetGen(index)),
])
def test_random_search_default_runner_passes_declared_inputs(index, trainset, devset,
                                                             task, make_program):
    # quiz and tweet take the gold answer as an input too; the default runner
    # must pass it
    compiled, report = random_search_compile(
        make_program(index), trainset, devset, bootstrap_metric(task),
        CompileConfig(teacher_runtime=RuntimeConfig(), num_candidates=2),
        script_backend(f"{task}_all_pass.json"),
    )
    assert [c["score"] for c in report["candidates"]] == [1.0, 1.0]
    assert all(module.demos for module in compiled.modules.values())


class PerWordProgram(Program):
    """One echo call per word of a draft; a later suggestion retries the draft
    into one word, so the retried pass makes fewer calls than the first."""

    inputs = ("question",)

    def __init__(self):
        super().__init__()
        self.draft = self.register(PredictModule(
            module_id="draft", signature=parse_signature("question -> words")))
        self.echo = self.register(PredictModule(
            module_id="echo", signature=parse_signature("word -> echo")))

    def forward(self, ctx, question):
        draft = ctx.call(self.draft, question=question)
        for word in draft["words"].split():
            ctx.call(self.echo, word=word)
        ctx.suggest(len(draft["words"].split()) == 1, "Use one word.", backtrack="draft")
        return draft


def test_bootstrap_harvests_no_step_of_a_discarded_pass():
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Word: alpha\n", responses=["Echo: alpha"]),
        ScriptEntry(match="Word: beta\n", responses=["Echo: beta"]),
        ScriptEntry(match="Question: Q?", responses=["Words: alpha beta", "Words: alpha"]),
    ]))
    compiled = bootstrap_few_shot(PerWordProgram(), [TaskExample("Q?", "alpha")],
                                  lambda example, outputs, run: True,
                                  CompileConfig(teacher_runtime=RuntimeConfig()), backend)
    assert compiled.modules["draft"].demos == [{"question": "Q?", "words": "alpha"}]
    # the echo of "beta" belongs to the first pass only
    assert compiled.modules["echo"].demos == [{"word": "alpha", "echo": "alpha"}]

    result = run_with_backtracking(PerWordProgram(), {"question": "Q?"}, RuntimeConfig(), backend)
    assert [(s.module_id, s.position) for s in result.steps] == \
        [("draft", 0), ("echo", 1), ("echo", 2), ("draft", 0), ("echo", 1)]
    assert result.final_steps() == [result.steps[3], result.steps[4]]


# --- the teacher filter: which runs give no demo ------------------------------

class CheckedAnswerProgram(Program):
    """One call whose answer must not be "bad", checked by a suggestion or an assertion."""

    inputs = ("question",)

    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind
        self.gen = self.register(PredictModule(
            module_id="gen", signature=parse_signature("question -> answer")))

    def forward(self, ctx, question):
        pred = ctx.call(self.gen, question=question)
        check = ctx.suggest if self.kind == "suggest" else ctx.check_assert
        check(pred["answer"] != "bad", "The answer must not be bad.")
        return pred


def bad_then_good_backend() -> CachingBackend:
    # every attempt at "alpha" answers "bad", retries included
    return CachingBackend(ScriptedBackend([
        ScriptEntry(match="Question: alpha", responses=["Answer: bad"]),
        ScriptEntry(match="Question: beta", responses=["Answer: good"]),
    ]))


BAD_THEN_GOOD = [TaskExample("alpha", "bad"), TaskExample("beta", "good")]


@pytest.mark.parametrize("teacher_assertions,answers", [(True, ["good"]), (False, ["bad", "good"])])
def test_bootstrap_drops_a_warned_run_only_under_teacher_assertions(teacher_assertions, answers):
    # the metric passes both runs, but alpha's suggestion warned after its retries
    compiled = bootstrap_few_shot(CheckedAnswerProgram("suggest"), BAD_THEN_GOOD,
                                  lambda example, outputs, run: True,
                                  CompileConfig(teacher_runtime=RuntimeConfig() if teacher_assertions else NO_CONSTRAINTS),
                                  bad_then_good_backend())
    assert [demo["answer"] for demo in compiled.modules["gen"].demos] == answers


def test_bootstrap_skips_a_halted_teacher_run():
    # the metric reads the final outputs, which a halted run does not have
    def metric(example, outputs, run):
        return outputs["answer"] == example.answer

    compiled = bootstrap_few_shot(CheckedAnswerProgram("assert"), BAD_THEN_GOOD, metric,
                                  CompileConfig(teacher_runtime=RuntimeConfig()), bad_then_good_backend())
    assert compiled.modules["gen"].demos == [{"question": "beta", "answer": "good"}]
