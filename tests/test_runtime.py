from __future__ import annotations

import json
import logging
import os

import pytest
from hypothesis import given, settings, strategies as st

from lmpipe import runtime, tasks
from lmpipe.backend import BackendError, CachingBackend, ScriptEntry, ScriptedBackend, load_script
from lmpipe.cli import bundled_data_path
from lmpipe.core import (
    FAILED,
    HALTED,
    PASSED,
    RETRIED,
    WARNED,
    Retrieval,
    RunResult,
    parse_signature,
    passages_to_text,
)
from lmpipe.evaluation import evaluate_dataset
from lmpipe.metrics import load_dataset
from lmpipe.modules import PredictModule, chain_of_thought
from lmpipe.retrieval import Passage, RetrieverIndex, load_corpus, retrieve
from lmpipe.runtime import (
    BACKTRACK_DEFAULT,
    BYPASS_SUGGEST_ONLY,
    DISABLE_ALL,
    SUPPRESS_ASSERT_LOG,
    PassBudgetExceeded,
    Program,
    RuntimeConfig,
    check_constraint,
    load_trace,
    overwrite,
    run_with_backtracking,
    save_trace,
    trace_from_dict,
    trace_to_dict,
    write_json,
)

VALUE_MESSAGE = "Value should be ok"


# --- check_constraint: the transition rule as a pure function -----------------

# (kind, passed, can_retry) -> the disposition under each policy, in the order
# backtrack_default, suppress_assert_log, disable_all, bypass_suggest_only
DISPOSITIONS = {
    ("assert", True, True): (PASSED, PASSED, PASSED, PASSED),
    ("assert", True, False): (PASSED, PASSED, PASSED, PASSED),
    ("assert", False, True): (RETRIED, RETRIED, FAILED, RETRIED),
    ("assert", False, False): (HALTED, FAILED, FAILED, HALTED),
    ("suggest", True, True): (PASSED, PASSED, PASSED, PASSED),
    ("suggest", True, False): (PASSED, PASSED, PASSED, PASSED),
    ("suggest", False, True): (RETRIED, RETRIED, FAILED, WARNED),
    ("suggest", False, False): (WARNED, WARNED, FAILED, WARNED),
}


def test_check_constraint_follows_the_disposition_table():
    policies = (BACKTRACK_DEFAULT, SUPPRESS_ASSERT_LOG, DISABLE_ALL, BYPASS_SUGGEST_ONLY)
    assert policies == runtime.HANDLER_POLICIES
    results = {(kind, passed, can_retry): tuple(check_constraint(kind, passed, can_retry, policy)
                                                for policy in policies)
               for kind in ("assert", "suggest") for passed in (True, False)
               for can_retry in (True, False)}
    assert results == DISPOSITIONS


# --- the execution engine ------------------------------------------------------

class EchoProgram(Program):
    """One module guarded by one constraint: the value must equal 'ok'."""

    def __init__(self, kind: str = "suggest"):
        super().__init__()
        self.kind = kind
        self.echo = self.register(PredictModule(
            module_id="echo", signature=parse_signature("prompt -> value")))

    def forward(self, ctx, prompt):
        pred = ctx.call(self.echo, prompt=prompt)
        check = ctx.suggest if self.kind == "suggest" else ctx.check_assert
        check(pred["value"] == "ok", VALUE_MESSAGE, label="value_ok")
        return pred


def echo_backend(fails: int) -> CachingBackend:
    responses = ["Value: bad"] * fails + ["Value: ok"]
    return CachingBackend(ScriptedBackend([ScriptEntry(match="Prompt: go", responses=responses)]))


# --- the transition rule, case by case: the disposition and what the engine keeps

def scripted_run(program: Program, responses: list[str],
                 config: RuntimeConfig) -> tuple[RunResult, list[str]]:
    """``program`` on prompt "go" answered by ``responses``; the run and every prompt sent."""
    backend = CachingBackend(ScriptedBackend([ScriptEntry(match="Prompt: go", responses=responses)]))
    result = run_with_backtracking(program, {"prompt": "go"}, config, backend)
    return result, [r.prompt for r in backend.call_log.records()]


def test_pass_resets_retry_count():
    for can_retry in (True, False):
        assert check_constraint("assert", True, can_retry, BACKTRACK_DEFAULT) == PASSED
    # R=1. has_a fails, passes, then fails again: the pass emptied its failures,
    # so the second failure retries too, and its retry quotes one failure only
    result, _ = scripted_run(TwoConstraintProgram(), ["Value: b", "Value: a", "Value: b"],
                             RuntimeConfig(max_retries=1))
    outcomes_a = [o for o in result.constraints if o.site == 0]
    assert [(o.disposition, o.attempt) for o in outcomes_a] == [
        (RETRIED, 0), (PASSED, 1), (RETRIED, 0), (PASSED, 1),
    ]
    assert result.steps[3].prompt_digest == result.steps[1].prompt_digest


def test_suggest_failure_under_budget_retries():
    assert check_constraint("suggest", False, True, BACKTRACK_DEFAULT) == RETRIED
    result, prompts = scripted_run(EchoProgram("suggest"), ["Value: toolong", "Value: ok"],
                                   RuntimeConfig(max_retries=2))
    assert [(o.disposition, o.attempt) for o in result.constraints] == [(RETRIED, 0), (PASSED, 1)]
    assert "Past Value: toolong" in prompts[1]
    assert f"Instruction: {VALUE_MESSAGE}" in prompts[1]


def test_assert_failure_at_budget_halts():
    assert check_constraint("assert", False, False, BACKTRACK_DEFAULT) == HALTED
    result, _ = scripted_run(EchoProgram("assert"), ["Value: a", "Value: b", "Value: c"],
                             RuntimeConfig(max_retries=2))
    assert [(o.disposition, o.attempt) for o in result.constraints] == [
        (RETRIED, 0), (RETRIED, 1), (HALTED, 2),
    ]
    assert result.halted and result.final_outputs is None


def test_suggest_failure_at_budget_warns_and_resets():
    assert check_constraint("suggest", False, False, BACKTRACK_DEFAULT) == WARNED
    # R=1. has_a warns at its budget; has_b's retry re-enters it, and the warn
    # emptied its failures, so it counts from 0 again
    result, _ = scripted_run(TwoConstraintProgram(), ["Value: x", "Value: x2", "Value: b"],
                             RuntimeConfig(max_retries=1))
    outcomes_a = [o for o in result.constraints if o.site == 0]
    assert [(o.disposition, o.attempt) for o in outcomes_a] == [
        (RETRIED, 0), (WARNED, 1), (RETRIED, 0), (WARNED, 1),
    ]
    assert result.final_outputs is not None


def test_zero_budget_goes_straight_to_terminal():
    assert check_constraint("assert", False, False, BACKTRACK_DEFAULT) == HALTED
    assert check_constraint("suggest", False, False, BACKTRACK_DEFAULT) == WARNED
    for kind, terminal in (("assert", HALTED), ("suggest", WARNED)):
        result, prompts = scripted_run(EchoProgram(kind), ["Value: bad", "Value: ok"],
                                       RuntimeConfig(max_retries=0))
        assert [o.disposition for o in result.constraints] == [terminal]
        assert len(prompts) == 1


def test_disable_all_records_failure_without_retry():
    for can_retry in (True, False):
        assert check_constraint("assert", False, can_retry, DISABLE_ALL) == FAILED
        assert check_constraint("suggest", False, can_retry, DISABLE_ALL) == FAILED
        assert check_constraint("suggest", True, can_retry, DISABLE_ALL) == PASSED
    result, prompts = scripted_run(EchoProgram("assert"), ["Value: bad", "Value: ok"],
                                   RuntimeConfig(handler_policy=DISABLE_ALL))
    assert [o.disposition for o in result.constraints] == [FAILED]
    assert len(prompts) == 1
    assert not result.halted and result.final_outputs == {"value": "bad"}


def test_suppress_assert_log_converts_halt():
    assert check_constraint("assert", False, False, SUPPRESS_ASSERT_LOG) == FAILED
    # under budget the retry path is untouched
    assert check_constraint("assert", False, True, SUPPRESS_ASSERT_LOG) == RETRIED
    result, _ = scripted_run(EchoProgram("assert"), ["Value: bad", "Value: ok"],
                             RuntimeConfig(max_retries=0, handler_policy=SUPPRESS_ASSERT_LOG))
    assert [o.disposition for o in result.constraints] == [FAILED]
    assert not result.halted and result.final_outputs is not None
    result, _ = scripted_run(EchoProgram("assert"), ["Value: bad", "Value: ok"],
                             RuntimeConfig(max_retries=2, handler_policy=SUPPRESS_ASSERT_LOG))
    assert [o.disposition for o in result.constraints] == [RETRIED, PASSED]


def test_bypass_suggest_only():
    assert check_constraint("suggest", False, True, BYPASS_SUGGEST_ONLY) == WARNED
    assert check_constraint("assert", False, True, BYPASS_SUGGEST_ONLY) == RETRIED
    config = RuntimeConfig(max_retries=2, handler_policy=BYPASS_SUGGEST_ONLY)
    result, prompts = scripted_run(EchoProgram("suggest"), ["Value: bad", "Value: ok"], config)
    assert [o.disposition for o in result.constraints] == [WARNED]
    assert len(prompts) == 1
    result, _ = scripted_run(EchoProgram("assert"), ["Value: bad", "Value: ok"], config)
    assert [o.disposition for o in result.constraints] == [RETRIED, PASSED]


def test_retry_state_invariants():
    # an outcome's attempt is the number of failures its evaluation held for its
    # (site, target), and those are exactly the failures the judged call's prompt quotes
    for kind in ("suggest", "assert"):
        for max_retries in range(4):
            for fails in range(5):
                result, prompts = scripted_run(EchoProgram(kind),
                                               ["Value: bad"] * fails + ["Value: ok"],
                                               RuntimeConfig(max_retries=max_retries))
                attempts = [o.attempt for o in result.constraints]
                assert attempts == [prompts[o.step].count("Past Value: bad")
                                    for o in result.constraints]
                assert attempts == list(range(min(fails, max_retries) + 1))


# --- retry feedback in the call path --------------------------------------------

class QueryProgram(Program):
    """One query module; the query must stay under 100 characters."""

    def __init__(self):
        super().__init__()
        self.qa = self.register(PredictModule(
            module_id="qa", signature=parse_signature("question -> query")))

    def forward(self, ctx, question):
        query = ctx.call(self.qa, question=question)["query"]
        ctx.suggest(len(query) < 100, f"Query has {len(query)} characters, keep it under 100",
                    label="query_length")
        return query


def query_prompts(queries: list[str]) -> tuple[PredictModule, list[str]]:
    """Run QueryProgram over scripted queries; the module and every prompt sent."""
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Question: Q", responses=[f"Query: {q}" for q in queries]),
    ]))
    program = QueryProgram()
    run_with_backtracking(program, {"question": "Q"}, RuntimeConfig(max_retries=2), backend)
    return program.qa, [r.prompt for r in backend.call_log.records()]


def test_call_first_attempt_prompt_has_no_feedback():
    module, prompts = query_prompts(["short"])
    assert prompts == [module.render({"question": "Q"})]


def test_call_retry_prompt_carries_past_failure():
    long_query = "x" * 120
    _, prompts = query_prompts([long_query, "short"])
    assert len(prompts) == 2
    assert f"Past Query: {long_query}" in prompts[1]
    assert "Instruction: Query has 120 characters, keep it under 100" in prompts[1]


def test_call_retry_prompt_lists_failures_in_order():
    first, second = "a" * 120, "b" * 130
    _, prompts = query_prompts([first, second, "short"])
    retry = prompts[2]
    assert retry.index(f"Past Query: {first}") < retry.index(f"Past Query: {second}")
    assert retry.index("Query has 120 characters") < retry.index("Query has 130 characters")


def site_dispositions(run) -> dict[int, list[str]]:
    sites: dict[int, list[str]] = {}
    for outcome in run.constraints:
        sites.setdefault(outcome.site, []).append(outcome.disposition)
    return sites


def transition_oracle(kind: str, fails: int, max_retries: int) -> list[str]:
    """Direct iteration of the three transition rules, independent of the engine."""
    dispositions = []
    r = 0
    attempt = 0
    while True:
        if attempt >= fails:
            dispositions.append("passed")
            return dispositions
        if r < max_retries:
            dispositions.append("retried")
            r += 1
            attempt += 1
            continue
        dispositions.append("halted" if kind == "assert" else "warned")
        return dispositions


@pytest.mark.parametrize("kind", ["suggest", "assert"])
@pytest.mark.parametrize("fails", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("max_retries", [0, 1, 2, 3])
def test_engine_matches_transition_oracle(kind, fails, max_retries):
    program = EchoProgram(kind)
    backend = echo_backend(fails)
    result = run_with_backtracking(program, {"prompt": "go"},
                                   RuntimeConfig(max_retries=max_retries), backend)
    assert site_dispositions(result)[0] == transition_oracle(kind, fails, max_retries)
    should_halt = kind == "assert" and fails > max_retries
    assert result.halted == should_halt
    if should_halt:
        assert result.final_outputs is None
        assert result.error == VALUE_MESSAGE
        last = result.constraints[-1]
        assert last.disposition == HALTED and last.step == len(result.steps) - 1
    else:
        assert result.final_outputs is not None


def test_suggest_never_prevents_final_prediction():
    result = run_with_backtracking(EchoProgram("suggest"), {"prompt": "go"},
                                   RuntimeConfig(max_retries=1), echo_backend(5))
    assert result.final_outputs is not None
    assert not result.halted and result.error is None


def test_retry_attempts_recorded_with_distinct_prompts():
    result = run_with_backtracking(EchoProgram("suggest"), {"prompt": "go"},
                                   RuntimeConfig(max_retries=2), echo_backend(2))
    steps = result.steps
    assert [s.attempt for s in steps] == [0, 1, 2]
    assert len({s.prompt_digest for s in steps}) == 3  # feedback changes the prompt
    assert steps[-1].outputs["value"] == "ok"


def test_feedback_count_matches_attempt_index():
    backend = echo_backend(2)
    run_with_backtracking(EchoProgram("suggest"), {"prompt": "go"},
                          RuntimeConfig(max_retries=2), backend)
    prompts = [r.prompt for r in backend.call_log.records()]
    assert [p.count("Past Value:") for p in prompts] == [0, 1, 2]
    assert [p.count("Instruction:") for p in prompts] == [0, 1, 2]


class TwoConstraintProgram(Program):
    """One module guarded by two sites: value must contain 'a', then 'b'."""

    def __init__(self):
        super().__init__()
        self.echo = self.register(PredictModule(
            module_id="echo", signature=parse_signature("prompt -> value")))

    def forward(self, ctx, prompt):
        pred = ctx.call(self.echo, prompt=prompt)
        ctx.suggest("a" in pred["value"], "Value should contain a", label="has_a")
        ctx.suggest("b" in pred["value"], "Value should contain b", label="has_b")
        return pred


def test_first_failing_constraint_skips_later_ones():
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Value: x", "Value: ab"]),
    ]))
    result = run_with_backtracking(TwoConstraintProgram(), {"prompt": "go"},
                                   RuntimeConfig(max_retries=2), backend)
    sites = site_dispositions(result)
    assert sites[0] == ["retried", "passed"]   # has_a failed once
    assert sites[1] == ["passed"]              # has_b only ever saw the fixed value


def test_retry_count_resets_after_pass_at_same_site():
    # attempt 0: has_a passes, has_b fails; attempt 1: has_a fails (fresh budget);
    # attempt 2: both pass
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Value: a", "Value: b", "Value: ab"]),
    ]))
    result = run_with_backtracking(TwoConstraintProgram(), {"prompt": "go"},
                                   RuntimeConfig(max_retries=2), backend)
    sites = site_dispositions(result)
    assert sites[0] == ["passed", "retried", "passed"]
    assert sites[1] == ["retried", "passed"]
    outcomes_a = [o for o in result.constraints if o.site == 0]
    # the failure after a pass records retry count 0 and transitions to r=1
    assert [o.attempt for o in outcomes_a] == [0, 0, 1]


class PipelineProgram(Program):
    """Two modules in sequence; the second one's output is constrained."""

    def __init__(self):
        super().__init__()
        self.first = self.register(PredictModule(
            module_id="first", signature=parse_signature("prompt -> draft")))
        self.second = self.register(PredictModule(
            module_id="second", signature=parse_signature("draft -> value")))

    def forward(self, ctx, prompt):
        draft = ctx.call(self.first, prompt=prompt)
        pred = ctx.call(self.second, draft=draft["draft"])
        ctx.suggest(pred["value"] == "ok", VALUE_MESSAGE, label="value_ok")
        return pred


def test_backtracking_replays_upstream_without_duplicates():
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Draft: d1"]),
        ScriptEntry(match="Draft: d1", responses=["Value: bad", "Value: ok"]),
    ]))
    result = run_with_backtracking(PipelineProgram(), {"prompt": "go"},
                                   RuntimeConfig(max_retries=2), backend)
    assert [(s.module_id, s.attempt) for s in result.steps] == [
        ("first", 0), ("second", 0), ("second", 1),
    ]
    # upstream module was executed by the backend exactly once
    first_prompts = [r for r in backend.call_log.records() if "Prompt: go" in r.prompt]
    assert len(first_prompts) == 1


def echo_search(index, query: str, k: int) -> list[Passage]:
    """A search that finds k passages titled after the query."""
    return [Passage(f"{query} {rank}", index) for rank in range(k)]


class AccumulatingProgram(Program):
    """Loop that accumulates state; retries must rebuild it from scratch."""

    def __init__(self):
        super().__init__()
        self.gen = self.register(PredictModule(
            module_id="gen", signature=parse_signature("prompt -> value")))

    def forward(self, ctx, prompt):
        collected = []
        for i in range(2):
            pred = ctx.call(self.gen, prompt=f"{prompt} step{i}")
            ctx.suggest("bad" not in pred["value"], "Value should not be bad",
                        label="not_bad")
            collected += ctx.retrieve(echo_search, "", pred["value"], 1)
        return pred


def test_rollback_discards_state_from_failed_attempts():
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go step0", responses=["Value: fine"]),
        ScriptEntry(match="Prompt: go step1", responses=["Value: bad thing", "Value: better"]),
    ]))
    result = run_with_backtracking(AccumulatingProgram(), {"prompt": "go"},
                                   RuntimeConfig(max_retries=2), backend)
    # the run records only the surviving pass's searches
    assert result.retrievals == [Retrieval("fine", 1, ["fine 0"]), Retrieval("better", 1, ["better 0"])]


class JudgedProgram(Program):
    """The constraint's condition comes from an unregistered judge module, so a
    failure must still backtrack to the registered generator."""

    def __init__(self):
        super().__init__()
        self.gen = self.register(PredictModule(
            module_id="gen", signature=parse_signature("prompt -> value")))
        self.judge = PredictModule(
            module_id="judge", signature=parse_signature("value -> verdict"))

    def forward(self, ctx, prompt):
        pred = ctx.call(self.gen, prompt=prompt)
        verdict = ctx.call(self.judge, value=pred["value"])
        ctx.suggest(verdict["verdict"] == "yes", "Value should please the judge",
                    label="judged")
        return pred


def test_register_rejects_a_second_module_with_one_id():
    program = JudgedProgram()
    with pytest.raises(ValueError, match="duplicate module id 'gen'"):
        program.register(PredictModule(module_id="gen", signature=parse_signature("a -> b")))
    assert program.modules == {"gen": program.gen}


def test_default_backtrack_target_skips_unregistered_judges():
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Value: draft one", "Value: draft two"]),
        ScriptEntry(match="Value: draft one", responses=["Verdict: no"]),
        ScriptEntry(match="Value: draft two", responses=["Verdict: yes"]),
    ]))
    result = run_with_backtracking(JudgedProgram(), {"prompt": "go"},
                                   RuntimeConfig(max_retries=2), backend)
    assert [(s.module_id, s.attempt) for s in result.steps] == [
        ("gen", 0), ("judge", 0), ("gen", 1), ("judge", 1),
    ]
    # the retry prompt carries the generator's failed output, not the judge's
    retry_prompt = backend.call_log.records()[2].prompt
    assert "Past Value: draft one" in retry_prompt
    assert site_dispositions(result)[0] == ["retried", "passed"]


class ExplicitTargetProgram(Program):
    """A downstream constraint that names an upstream module as its target."""

    def __init__(self):
        super().__init__()
        self.first = self.register(PredictModule(
            module_id="first", signature=parse_signature("prompt -> draft")))
        self.second = self.register(PredictModule(
            module_id="second", signature=parse_signature("draft -> value")))

    def forward(self, ctx, prompt):
        draft = ctx.call(self.first, prompt=prompt)
        pred = ctx.call(self.second, draft=draft["draft"])
        ctx.suggest(pred["value"] == "ok", "Draft should lead to ok",
                    backtrack="first", label="value_ok")
        return pred


def test_explicit_backtrack_target_reruns_downstream():
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Draft: d1", "Draft: d2"]),
        ScriptEntry(match="Draft: d1", responses=["Value: bad"]),
        ScriptEntry(match="Draft: d2", responses=["Value: ok"]),
    ]))
    result = run_with_backtracking(ExplicitTargetProgram(), {"prompt": "go"},
                                   RuntimeConfig(max_retries=2), backend)
    assert [(s.module_id, s.attempt) for s in result.steps] == [
        ("first", 0), ("second", 0), ("first", 1), ("second", 1),
    ]
    retry_prompt = backend.call_log.records()[2].prompt
    assert "Past Draft: d1" in retry_prompt


class SharedSiteProgram(Program):
    """Site 0 judges `first` while it says "x"; once it says something else,
    `second` runs and site 0 judges `second` instead."""

    def __init__(self):
        super().__init__()
        self.first = self.register(PredictModule(
            module_id="first", signature=parse_signature("prompt -> draft")))
        self.second = self.register(PredictModule(
            module_id="second", signature=parse_signature("draft -> value")))

    def forward(self, ctx, prompt):
        draft = ctx.call(self.first, prompt=prompt)
        if draft["draft"] == "x":
            ctx.suggest(False, "first must not say x", backtrack="first", label="not_x")
            return draft
        pred = ctx.call(self.second, draft=draft["draft"])
        ctx.suggest(pred["value"] == "ok", VALUE_MESSAGE, label="value_ok")
        return pred


def run_shared_site(max_retries: int = 2) -> tuple[RunResult, list[str]]:
    """SharedSiteProgram's run and every prompt it sent."""
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Draft: x", "Draft: y"]),
        ScriptEntry(match="Draft: y", responses=["Value: bad", "Value: ok"]),
    ]))
    result = run_with_backtracking(SharedSiteProgram(), {"prompt": "go"},
                                   RuntimeConfig(max_retries=max_retries), backend)
    return result, [r.prompt for r in backend.call_log.records()]


def test_site_feedback_and_budget_belong_to_its_target():
    result, prompts = run_shared_site()
    assert [(s.module_id, s.attempt) for s in result.steps] == [
        ("first", 0), ("first", 1), ("second", 0), ("second", 1),
    ]
    # `second`'s retry quotes its own failure only, not `first`'s
    retry = prompts[-1]
    assert "Past Value: bad" in retry
    assert "Past Value: x" not in retry and "first must not say x" not in retry
    # and `second`'s first failure starts a fresh budget
    assert [(o.disposition, o.attempt) for o in result.constraints] == [
        (RETRIED, 0), (RETRIED, 0), (PASSED, 1),
    ]
    assert result.final_outputs == {"value": "ok"}


def test_each_target_of_a_site_gets_the_whole_budget():
    # R=1: the retry of `first` spends site 0's budget for `first` only
    result, _ = run_shared_site(max_retries=1)
    assert [(o.target_module, o.disposition) for o in result.constraints] == [
        ("first", RETRIED), ("second", RETRIED), ("second", PASSED),
    ]


def test_outcome_names_the_target_of_its_own_evaluation():
    result, _ = run_shared_site()
    assert [(o.site, o.target_module, o.step) for o in result.constraints] == [
        (0, "first", 0), (0, "second", 2), (0, "second", 3),
    ]


def test_warned_site_gets_fresh_budget_on_reentry():
    # R=1. Site has_a exhausts and warns, then a later site's backtrack re-enters
    # it: the warn reset the count, so it may retry again.
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Value: x", "Value: x2", "Value: b"]),
    ]))
    result = run_with_backtracking(TwoConstraintProgram(), {"prompt": "go"},
                                   RuntimeConfig(max_retries=1), backend)
    sites = site_dispositions(result)
    assert sites[0] == ["retried", "warned", "retried", "warned"]
    assert sites[1] == ["retried", "passed"]
    assert result.final_outputs["value"] == "b"


def test_replay_does_not_duplicate_warned_outcomes():
    # the first module's constraint warns; a later retry replays past it without
    # recording the warn twice
    class TwoModuleProgram(Program):
        def __init__(self):
            super().__init__()
            self.first = self.register(PredictModule(
                module_id="first", signature=parse_signature("prompt -> draft")))
            self.second = self.register(PredictModule(
                module_id="second", signature=parse_signature("draft -> value")))

        def forward(self, ctx, prompt):
            draft = ctx.call(self.first, prompt=prompt)
            ctx.suggest(draft["draft"] == "good", "Draft should be good",
                        label="draft_ok")
            pred = ctx.call(self.second, draft=draft["draft"])
            ctx.suggest(pred["value"] == "ok", VALUE_MESSAGE, label="value_ok")
            return pred

    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Draft: meh", "Draft: meh2"]),
        ScriptEntry(match="Draft: meh2", responses=["Value: bad", "Value: ok"]),
    ]))
    result = run_with_backtracking(TwoModuleProgram(), {"prompt": "go"},
                                   RuntimeConfig(max_retries=1), backend)
    sites = site_dispositions(result)
    assert sites[0] == ["retried", "warned"]   # not re-recorded by the replay
    assert sites[1] == ["retried", "passed"]
    assert [(s.module_id, s.attempt) for s in result.steps] == [
        ("first", 0), ("first", 1), ("second", 0), ("second", 1),
    ]


class DriftingProgram(Program):
    """Breaks the replay invariant on purpose: the first call's input reads a
    pass counter, and the first constraint reads verdicts kept outside the run."""

    def __init__(self, verdicts: list[bool]):
        super().__init__()
        self.passes = 0
        self.verdicts = verdicts
        self.first = self.register(PredictModule(
            module_id="first", signature=parse_signature("prompt -> draft")))
        self.second = self.register(PredictModule(
            module_id="second", signature=parse_signature("draft -> value")))

    def forward(self, ctx, prompt):
        self.passes += 1
        draft = ctx.call(self.first, prompt=f"{prompt} {self.passes}")
        ctx.suggest(self.verdicts.pop(0), "Draft should please the outside", label="outside")
        pred = ctx.call(self.second, draft=draft["draft"])
        ctx.suggest(pred["value"] == "ok", VALUE_MESSAGE, label="value_ok")
        return pred


def test_replay_ends_at_a_call_whose_inputs_changed():
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Draft: d"]),
        ScriptEntry(match="Draft: d", responses=["Value: bad", "Value: ok"]),
    ]))
    program = DriftingProgram([True, False, True, True])
    result = run_with_backtracking(program, {"prompt": "go"}, RuntimeConfig(max_retries=2), backend)
    # pass 1: value_ok fails and retries `second`. Pass 2: `first` sees a new
    # input, so it runs fresh and the replay ends; `outside` is evaluated again,
    # fails and retries `first`. Pass 3: `first` takes that feedback and the
    # rest runs fresh (`second`'s prompt is pass 1's, a cache hit), value_ok
    # retries `second` again. Pass 4: `first` drifts again, and `second` still
    # takes value_ok's feedback, now two failures long.
    assert program.passes == 4 and program.verdicts == []
    assert [(s.module_id, s.attempt, s.inputs) for s in result.steps] == [
        ("first", 0, {"prompt": "go 1"}), ("second", 0, {"draft": "d"}),
        ("first", 1, {"prompt": "go 2"}), ("first", 2, {"prompt": "go 3"}),
        ("second", 1, {"draft": "d"}), ("first", 3, {"prompt": "go 4"}),
        ("second", 2, {"draft": "d"}),
    ]
    assert site_dispositions(result) == {
        0: ["passed", "retried", "passed", "passed"],
        1: ["retried", "retried", "passed"],
    }
    assert [s.outputs.get("value") for s in result.steps if s.module_id == "second"] \
        == ["bad", "bad", "ok"]
    assert len(backend.call_log) == 6  # `second` attempt 1 came from the cache
    assert backend.call_log.records()[-1].prompt.count("Past Value: bad") == 2
    assert result.final_outputs == {"value": "ok"}


class SiteAddingProgram(Program):
    """Breaks the replay invariant on purpose: from its second pass on, it
    evaluates a constraint before the middle call, where no earlier pass did."""

    def __init__(self):
        super().__init__()
        self.passes = 0
        self.first = self.register(PredictModule(
            module_id="first", signature=parse_signature("prompt -> draft")))
        self.middle = self.register(PredictModule(
            module_id="middle", signature=parse_signature("draft -> note")))
        self.second = self.register(PredictModule(
            module_id="second", signature=parse_signature("note -> value")))

    def forward(self, ctx, prompt):
        self.passes += 1
        draft = ctx.call(self.first, prompt=prompt)
        if self.passes > 1:
            ctx.suggest(True, "An added site", label="added")
        note = ctx.call(self.middle, draft=draft["draft"])
        pred = ctx.call(self.second, note=note["note"])
        ctx.suggest(pred["value"] == "ok", VALUE_MESSAGE, label="value_ok", backtrack="second")
        return pred


def test_replay_ends_at_a_site_beyond_those_recorded_before_the_target():
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Draft: d"]),
        ScriptEntry(match="Draft: d", responses=["Note: n"]),
        ScriptEntry(match="Note: n", responses=["Value: bad", "Value: ok"]),
    ]))
    result = run_with_backtracking(SiteAddingProgram(), {"prompt": "go"}, RuntimeConfig(), backend)
    # pass 2 replays `first`; the added site is judged fresh and ends the
    # replay, so `middle` runs fresh (a cache hit), and `second` still takes
    # value_ok's feedback
    assert [(o.label, o.site, o.disposition) for o in result.constraints] == [
        ("value_ok", 0, "retried"), ("added", 0, "passed"), ("value_ok", 1, "passed")]
    assert [(s.module_id, s.attempt) for s in result.steps] == [
        ("first", 0), ("middle", 0), ("second", 0), ("middle", 1), ("second", 1)]
    last_prompt = backend.call_log.records()[-1].prompt
    assert "Past Value: bad" in last_prompt and VALUE_MESSAGE in last_prompt
    assert result.final_outputs == {"value": "ok"}


def test_handler_policy_disable_all_performs_zero_retries():
    backend = echo_backend(5)
    result = run_with_backtracking(EchoProgram("suggest"), {"prompt": "go"},
                                   RuntimeConfig(handler_policy=DISABLE_ALL), backend)
    assert len(backend.call_log) == 1
    assert site_dispositions(result)[0] == ["failed"]
    assert result.final_outputs is not None


def test_handler_policy_suppress_assert_completes_with_log(caplog):
    backend = echo_backend(5)
    config = RuntimeConfig(max_retries=1, handler_policy=SUPPRESS_ASSERT_LOG)
    with caplog.at_level(logging.WARNING, logger="lmpipe.runtime"):
        result = run_with_backtracking(EchoProgram("assert"), {"prompt": "go"}, config, backend)
    assert not result.halted and result.final_outputs is not None
    assert site_dispositions(result)[0] == ["retried", "failed"]
    assert any(VALUE_MESSAGE in message for message in caplog.messages)


class NoTargetProgram(Program):
    """A constraint evaluated before any module has run has nothing to retry."""

    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind
        self.echo = self.register(PredictModule(
            module_id="echo", signature=parse_signature("prompt -> value")))

    def forward(self, ctx, prompt):
        check = ctx.suggest if self.kind == "suggest" else ctx.check_assert
        check(False, "Input should be well-formed", label="input_ok")
        return ctx.call(self.echo, prompt=prompt)


def test_suggest_without_target_warns_and_continues(caplog):
    backend = echo_backend(0)
    with caplog.at_level(logging.WARNING, logger="lmpipe.runtime"):
        result = run_with_backtracking(NoTargetProgram("suggest"), {"prompt": "go"},
                                       RuntimeConfig(max_retries=2), backend)
    assert not result.halted and result.final_outputs is not None
    assert any("well-formed" in message for message in caplog.messages)


def test_assert_without_target_halts():
    result = run_with_backtracking(NoTargetProgram("assert"), {"prompt": "go"},
                                   RuntimeConfig(max_retries=2), echo_backend(0))
    assert result.halted
    assert result.error == "Input should be well-formed"


def test_assert_without_target_under_suppress_assert_log_logs_and_completes(caplog):
    config = RuntimeConfig(max_retries=2, handler_policy=SUPPRESS_ASSERT_LOG)
    with caplog.at_level(logging.WARNING, logger="lmpipe.runtime"):
        result = run_with_backtracking(NoTargetProgram("assert"), {"prompt": "go"}, config,
                                       echo_backend(0))
    assert not result.halted and result.final_outputs is not None
    assert caplog.messages == ["assertion failure suppressed: Input should be well-formed"]


def test_handler_policy_default_is_identity():
    result = run_with_backtracking(EchoProgram("suggest"), {"prompt": "go"},
                                   RuntimeConfig(max_retries=2, handler_policy=BACKTRACK_DEFAULT),
                                   echo_backend(1))
    assert site_dispositions(result)[0] == ["retried", "passed"]


def test_warned_suggestion_logs(caplog):
    with caplog.at_level(logging.WARNING, logger="lmpipe.runtime"):
        run_with_backtracking(EchoProgram("suggest"), {"prompt": "go"},
                              RuntimeConfig(max_retries=0), echo_backend(1))
    assert any(VALUE_MESSAGE in message for message in caplog.messages)


def test_replay_determinism():
    def run_once():
        result = run_with_backtracking(EchoProgram("suggest"), {"prompt": "go"},
                                       RuntimeConfig(max_retries=2), echo_backend(2))
        return trace_to_dict(result)

    assert run_once() == run_once()


def test_a_fresh_cached_call_hashes_its_prompt_once(monkeypatch):
    # the trace's prompt digest is the one sha256; the cache keys on the text
    from lmpipe import backend as backend_module

    hashed = []

    def counting(text):
        hashed.append(text)
        return digest(text)

    digest = backend_module.stable_digest
    monkeypatch.setattr(backend_module, "stable_digest", counting)
    monkeypatch.setattr(runtime, "stable_digest", counting)
    backend = echo_backend(0)
    result = run_with_backtracking(EchoProgram("suggest"), {"prompt": "go"}, RuntimeConfig(), backend)
    [prompt] = [r.prompt for r in backend.call_log.records()]
    assert hashed == [prompt]
    assert result.steps[0].prompt_digest == digest(prompt)


def test_pass_budget_carries_the_run_so_far(monkeypatch):
    monkeypatch.setattr(runtime, "_MAX_PASSES", 3)
    with pytest.raises(PassBudgetExceeded) as err:
        run_with_backtracking(EchoProgram("suggest"), {"prompt": "go"},
                              RuntimeConfig(max_retries=5), echo_backend(10))
    partial = err.value.partial_result
    assert partial.passes == 3 and [s.attempt for s in partial.steps] == [0, 1, 2]
    assert partial.final_outputs is None and not partial.halted
    assert partial.error == str(err.value)


def test_backend_errors_carry_partial_trace():
    from lmpipe.backend import UnscriptedPromptError

    # the first module is scripted, the second is not: the error surfaces with
    # the work completed so far attached
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Draft: d1"]),
    ]))
    with pytest.raises(UnscriptedPromptError) as err:
        run_with_backtracking(PipelineProgram(), {"prompt": "go"},
                              RuntimeConfig(max_retries=2), backend)
    partial = err.value.partial_result
    assert [s.module_id for s in partial.steps] == ["first"]
    assert partial.final_outputs is None and not partial.halted
    assert partial.error == str(err.value)


class BadThenBrokenBackend:
    """Answers "Value: bad" once; every later call raises a BackendError."""

    def __init__(self):
        self.answered = False

    def generate(self, prompt):
        if self.answered:
            raise BackendError("endpoint went away")
        self.answered = True
        return ["Value: bad"]


def test_call_position_counts_only_once_its_call_returns():
    # the retried call raises: the surviving pass reached no call position,
    # so the discarded first pass's step is not one of its final steps
    with pytest.raises(BackendError) as err:
        run_with_backtracking(EchoProgram("suggest"), {"prompt": "go"},
                              RuntimeConfig(), BadThenBrokenBackend())
    partial = err.value.partial_result
    assert (partial.calls, partial.passes) == (0, 2)
    assert partial.final_steps() == []
    assert [step.outputs["value"] for step in partial.steps] == ["bad"]


# --- searches as engine steps ----------------------------------------------------

class SearchingProgram(Program):
    """Two hops of query then search, then an answer; a query or an answer
    holding "bad" is retried. ``mangle`` makes forward reorder and extend each
    list a search returns, after keeping a copy of it."""

    def __init__(self, mangle: bool = False):
        super().__init__()
        self.mangle = mangle
        self.searched: list[str] = []
        self.returned: list[tuple[list, list]] = []  # (list returned, its contents then)
        self.query = self.register(PredictModule(
            module_id="query", signature=parse_signature("context, question -> query")))
        self.answer = self.register(PredictModule(
            module_id="answer", signature=parse_signature("context, question -> answer")))

    def search(self, index, query, k):
        self.searched.append(query)
        return echo_search(index, query, k)

    def forward(self, ctx, question):
        context = []
        for _hop in range(2):
            query = ctx.call(self.query, context=passages_to_text(context),
                             question=question)["query"]
            ctx.suggest("bad" not in query, "Query should not be bad", label="query_ok")
            found = ctx.retrieve(self.search, "text", query, 2)
            self.returned.append((found, list(found)))
            if self.mangle:
                found.reverse()
                found.append(Passage("Made", "up"))
            context += self.returned[-1][1]
        answer = ctx.call(self.answer, context=passages_to_text(context), question=question)
        ctx.suggest("bad" not in answer["answer"], "Answer should not be bad",
                    label="answer_ok")
        return answer


def searching_backend(hop_2_queries: list[str], answers: list[str]) -> CachingBackend:
    return CachingBackend(ScriptedBackend([
        ScriptEntry(match="Answer: ${answer}", responses=[f"Answer: {a}" for a in answers]),
        ScriptEntry(match="Context: N/A", responses=["Query: first"]),
        ScriptEntry(match="[2] first 1", responses=[f"Query: {q}" for q in hop_2_queries]),
    ]))


def run_searching(hop_2_queries: list[str], answers: list[str], mangle: bool = False):
    program = SearchingProgram(mangle)
    result = run_with_backtracking(program, {"question": "Q"}, RuntimeConfig(max_retries=2),
                                   searching_backend(hop_2_queries, answers))
    return program, result


FOUND_FIRST = Retrieval("first", 2, ["first 0", "first 1"])
FOUND_SECOND = Retrieval("second", 2, ["second 0", "second 1"])


def test_retried_pass_does_not_search_before_its_target():
    # the answer is retried: both searches come before its call, and replay
    program, result = run_searching(["second"], ["bad", "good"])
    assert result.passes == 2 and result.final_outputs == {"answer": "good"}
    assert program.searched == ["first", "second"]
    assert result.retrievals == [FOUND_FIRST, FOUND_SECOND]
    # the replayed passages are the ones the first pass found
    assert [copy for _, copy in program.returned[2:]] == [copy for _, copy in program.returned[:2]]


def test_two_deep_retries_replay_from_the_pass_before():
    # pass 1 retries hop 2's query; pass 2 searches the new query fresh and
    # retries the answer; pass 3 replays both searches, hop 2's from pass 2
    program, result = run_searching(["bad second", "second"], ["bad", "good"])
    assert result.passes == 3 and result.final_outputs == {"answer": "good"}
    assert program.searched == ["first", "second"]
    assert result.retrievals == [FOUND_FIRST, FOUND_SECOND]


def test_every_search_returns_a_new_list():
    # forward reorders and extends each list it gets; the replayed lists are
    # new, and hold what the searches found
    program, result = run_searching(["second"], ["bad", "good"], mangle=True)
    assert program.searched == ["first", "second"]
    lists = [found for found, _ in program.returned]
    assert len({id(found) for found in lists}) == 4
    assert [copy for _, copy in program.returned] == [echo_search("text", q, 2)
                                                       for q in ("first", "second") * 2]
    assert result.retrievals == [FOUND_FIRST, FOUND_SECOND]


class UpperCasingProgram(EchoProgram):
    """Edits the outputs its one call returned."""

    def forward(self, ctx, prompt):
        out = ctx.call(self.echo, prompt=prompt)
        out["value"] = out["value"].upper()
        return out


def test_editing_what_a_call_returned_leaves_its_step_alone():
    result, _ = scripted_run(UpperCasingProgram(), ["Value: ok"], RuntimeConfig())
    assert result.steps[0].outputs == {"value": "ok"}
    assert result.final_outputs == {"value": "OK"}


class DriftingSearchProgram(Program):
    """Breaks the replay invariant on purpose: the search's query reads a
    pass counter."""

    def __init__(self):
        super().__init__()
        self.passes = 0
        self.searched: list[str] = []
        self.first = self.register(PredictModule(
            module_id="first", signature=parse_signature("prompt -> draft")))
        self.second = self.register(PredictModule(
            module_id="second", signature=parse_signature("draft -> value")))

    def search(self, index, query, k):
        self.searched.append(query)
        return echo_search(index, query, k)

    def forward(self, ctx, prompt):
        self.passes += 1
        draft = ctx.call(self.first, prompt=prompt)["draft"]
        found = ctx.retrieve(self.search, "", f"{draft} {self.passes}", 1)
        ctx.suggest(found[0].title.startswith("d"), "Draft should be found", label="found")
        pred = ctx.call(self.second, draft=draft)
        ctx.suggest(pred["value"] == "ok", VALUE_MESSAGE, label="value_ok")
        return pred


def test_replay_ends_at_a_search_whose_query_changed():
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Draft: d"]),
        ScriptEntry(match="Draft: d", responses=["Value: bad", "Value: ok"]),
    ]))
    program = DriftingSearchProgram()
    result = run_with_backtracking(program, {"prompt": "go"}, RuntimeConfig(max_retries=2), backend)
    # pass 2 replays `first`, but its search has a new query: it runs fresh
    # and ends the replay, so `found` is evaluated again before `second`
    # takes value_ok's feedback
    assert program.passes == 2 and program.searched == ["d 1", "d 2"]
    assert [(s.module_id, s.attempt) for s in result.steps] == [
        ("first", 0), ("second", 0), ("second", 1),
    ]
    assert site_dispositions(result) == {0: ["passed", "passed"], 1: ["retried", "passed"]}
    assert result.retrievals == [Retrieval("d 2", 1, ["d 2 0"])]
    assert result.final_outputs == {"value": "ok"}


def test_workers_share_one_index_and_rank_as_one_worker():
    index = RetrieverIndex.build(load_corpus(bundled_data_path("corpus.jsonl")))
    fresh = RetrieverIndex.build(load_corpus(bundled_data_path("corpus.jsonl")))
    examples = load_dataset(bundled_data_path("test.jsonl")) * 4
    script = load_script(bundled_data_path("scripts/multihop_retry.json"))
    runs = {}
    for workers in (1, 4):
        program = tasks.MultiHopQA(index)
        rows, results = evaluate_dataset("multihop", program, examples, RuntimeConfig(),
                                         CachingBackend(ScriptedBackend(script)), workers=workers)
        runs[workers] = (rows, [r.retrievals for r in results])
    assert runs[4] == runs[1]
    retrievals = [found for run in runs[1][1] for found in run]
    assert len(retrievals) == 8  # two hops in each of the four runs the script answers
    for found in retrievals:
        assert found.titles == [p.title for p in retrieve(fresh, found.query, found.k)]


# --- trace serialization -------------------------------------------------------

def test_trace_save_load_round_trip(tmp_path):
    result = run_with_backtracking(EchoProgram("suggest"), {"prompt": "go"},
                                   RuntimeConfig(max_retries=2), echo_backend(1))
    path = tmp_path / "trace.json"
    save_trace(result, path)
    loaded = load_trace(path)
    assert not loaded.halted and loaded.error is None and loaded.passes == result.passes == 2
    assert [(s.module_id, s.attempt) for s in loaded.steps] == \
        [(s.module_id, s.attempt) for s in result.steps]
    assert loaded.constraints == result.constraints
    assert (loaded.calls, loaded.sites) == (result.calls, result.sites)
    assert loaded.final_outputs == result.final_outputs


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=15,
)


@settings(deadline=None)
@given(json_values)
def test_write_json_bytes_equal_text_mode_dump(tmp_path_factory, payload):
    # the writer every artifact used before: json.dump into a text-mode file
    old, new = (tmp_path_factory.getbasetemp() / name for name in ("old.json", "new.json"))
    with open(old, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, ensure_ascii=False, sort_keys=True)
        handle.write("\n")
    write_json(payload, new)
    assert new.read_bytes() == old.read_bytes()


# every code point, lone surrogates included
any_text = st.text(st.characters(blacklist_categories=()))
json_keys = any_text | st.integers() | st.floats() | st.booleans() | st.none()
any_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | any_text,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(any_text, inner) | st.dictionaries(json_keys, inner, max_size=3)),
    max_leaves=20,
)


def json_dumps_outcome(payload, **layout):
    """``json.dumps``'s text of ``payload`` plus a newline as UTF-8, or the type
    of the error: a dict whose keys do not sort (say, str beside int) raises
    ``TypeError``, and a lone surrogate ``UnicodeEncodeError``."""
    try:
        return (json.dumps(payload, ensure_ascii=False, sort_keys=True, **layout) + "\n").encode("utf-8")
    except (TypeError, UnicodeEncodeError) as exc:
        return type(exc)


def written_outcome(write, payload, path):
    """The bytes ``write(payload, path)`` leaves at a new ``path``, or the type
    of the error it raised; a write that raises must not create the file."""
    path.unlink(missing_ok=True)
    try:
        write(payload, path)
    except (TypeError, UnicodeEncodeError) as exc:
        assert not path.exists()
        return type(exc)
    return path.read_bytes()


# write_json writes json.dumps(indent=2)'s text, or raises what encoding it raises
@settings(max_examples=200, deadline=None)
@given(any_json)
def test_dumps_json_equals_json_dumps(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "artifact.json"
    assert written_outcome(write_json, payload, path) == json_dumps_outcome(payload, indent=2)


@pytest.mark.parametrize("payload", [
    {}, [], (), "", {"a": {}, "b": [], "c": [{}]}, [float("nan"), float("inf"), -float("inf"), -0.0],
    {"\ud800": "\udfff x \u2028 \x00"}, {1: "a", 2.5: "b"}, {True: 1}, {None: None}, 10 ** 30,
])
def test_dumps_json_examples(tmp_path, payload):
    assert written_outcome(write_json, payload, tmp_path / "artifact.json") == \
        json_dumps_outcome(payload, indent=2)


@pytest.mark.parametrize("payload", [
    object(), {1, 2}, b"bytes", 1j, {"nested": [1, {"deep": frozenset()}]}, {(1, 2): "tuple key"},
])
def test_dumps_json_rejects_other_types(tmp_path, payload):
    path = tmp_path / "artifact.json"
    write_json({"value": "ok"}, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(payload, path)
    assert path.read_bytes() == before


def test_write_json_keeps_old_file_when_payload_cannot_be_encoded(tmp_path):
    path = tmp_path / "trace.json"
    write_json({"value": "ok"}, path)
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        write_json({"value": "lone \ud800 surrogate"}, path)
    assert path.read_bytes() == before


def text_result(text: str) -> RunResult:
    return RunResult(final_outputs={"value": text},
                     steps=[], constraints=[], calls=0, sites=0, error=text)


@settings(max_examples=100, deadline=None)
@given(any_text)
def test_save_trace_writes_one_json_line(tmp_path_factory, text):
    result = text_result(text)
    path = tmp_path_factory.getbasetemp() / "trace.json"
    expected = json_dumps_outcome(trace_to_dict(result))
    assert written_outcome(save_trace, result, path) == expected
    if expected is not UnicodeEncodeError:
        assert expected.count(b"\n") == 1  # JSON escapes every newline inside a string


def test_save_trace_keeps_old_file_when_result_cannot_be_encoded(tmp_path):
    path = tmp_path / "trace.json"
    save_trace(text_result("ok"), path)
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        save_trace(text_result("lone \ud800 surrogate"), path)
    assert path.read_bytes() == before


def test_overwrite_trims_a_longer_file(tmp_path):
    path = tmp_path / "file"
    path.write_bytes(b"x" * 100)
    overwrite(b"short", path)
    assert path.read_bytes() == b"short"
    overwrite(b"", path)
    assert path.read_bytes() == b""
    overwrite(b"longer again", path)
    assert path.read_bytes() == b"longer again"


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_overwrite_new_file_gets_the_mode_of_write_bytes(tmp_path, umask):
    previous = os.umask(umask)
    try:
        overwrite(b"data", tmp_path / "new")
        (tmp_path / "reference").write_bytes(b"data")
    finally:
        os.umask(previous)
    assert (tmp_path / "new").stat().st_mode == (tmp_path / "reference").stat().st_mode


def test_trace_version_mismatch_names_versions():
    with pytest.raises(ValueError, match="7"):
        trace_from_dict({"version": 7, "steps": []})


def test_chain_of_thought_module_in_engine():
    program = Program()
    module = program.register(chain_of_thought("question -> answer", module_id="qa"))
    program.forward = lambda ctx, question: ctx.call(module, question=question)
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Question: Where", responses=["Reasoning: easy\nAnswer: Paris"]),
    ]))
    result = run_with_backtracking(program, {"question": "Where?"}, RuntimeConfig(), backend)
    assert result.final_outputs == {"rationale": "easy", "answer": "Paris"}


class SuggestBeforeCallProgram(Program):
    """A suggestion on the input, evaluated before any call."""

    def __init__(self):
        super().__init__()
        self.gen = self.register(PredictModule(
            module_id="gen", signature=parse_signature("prompt -> value")))

    def forward(self, ctx, prompt):
        ctx.suggest(prompt == "ok", "Prompt should be ok", label="prompt_ok")
        return ctx.call(self.gen, prompt=prompt)


def test_suggestion_before_any_call_is_recorded_and_scored(tmp_path):
    from lmpipe.cli import format_trace
    from lmpipe.metrics import suggestions_passed

    result = run_with_backtracking(SuggestBeforeCallProgram(), {"prompt": "go"}, RuntimeConfig(),
                                   echo_backend(0))
    assert suggestions_passed(result) == (0.0, False)
    # nothing to retry: the terminal rule warns, and the outcome judged no step
    assert [(o.disposition, o.step) for o in result.constraints] == [(WARNED, None)]
    path = tmp_path / "trace.json"
    save_trace(result, path)
    loaded = load_trace(path)
    assert loaded.constraints == result.constraints
    assert format_trace(loaded).startswith("    [suggest/WARNED] Prompt should be ok\nstep 0.0  gen")
