from __future__ import annotations

import inspect

import pytest

from lmpipe.backend import CachingBackend, ScriptEntry, ScriptedBackend, load_script
from lmpipe.cli import bundled_data_path
from lmpipe.core import passages_to_text
from lmpipe.evaluation import run_task_example, score_example
from lmpipe.metrics import answer_em, load_dataset, retrieval_recall, suggestions_passed
from lmpipe.retrieval import RetrieverIndex, load_corpus, retrieve
from lmpipe.runtime import BACKTRACK_DEFAULT, DISABLE_ALL, RuntimeConfig
from lmpipe.tasks import (
    COMPLETE,
    PRIMITIVE,
    TASKS,
    LongFormQA,
    MultiHopQA,
    QuizGen,
    TweetGen,
    build_program,
)

ASSERTIVE = RuntimeConfig(handler_policy=BACKTRACK_DEFAULT)
RECORD_ONLY = RuntimeConfig(handler_policy=DISABLE_ALL)


@pytest.fixture(scope="module")
def index():
    return RetrieverIndex.build(load_corpus(bundled_data_path("corpus.jsonl")))


@pytest.fixture(scope="module")
def test_examples():
    return load_dataset(bundled_data_path("test.jsonl"))


def script_backend(name: str) -> CachingBackend:
    return CachingBackend(ScriptedBackend(load_script(bundled_data_path(f"scripts/{name}"))))


def test_multihop_clean_run_retrieves_six_passages(index, test_examples):
    ex = test_examples[1]
    result = run_task_example(MultiHopQA(index), ex, ASSERTIVE,
                              script_backend("multihop_all_pass.json"))
    assert not result.halted
    passages = [p for found in result.retrievals for p in retrieve(index, found.query, found.k)]
    assert len(passages) == 6
    assert [p.title for p in passages] == [t for found in result.retrievals for t in found.titles]
    assert result.steps[-1].inputs["context"] == passages_to_text(passages)
    assert suggestions_passed(result) == (1.0, False)
    assert answer_em(result.final_outputs["answer"], ex.answer) == 1.0
    assert retrieval_recall([p.title for p in passages], ex.gold_titles) == 1.0


def test_multihop_evaluates_four_suggestion_sites(index, test_examples):
    result = run_task_example(MultiHopQA(index), test_examples[1], ASSERTIVE,
                              script_backend("multihop_all_pass.json"))
    sites = result.final_outcomes()
    assert len(sites) == result.sites == 4  # length and distinctness per hop
    labels = [o.label for o in sites]
    assert labels == ["query_length", "query_distinct"] * 2


def test_multihop_retry_scenario(index, test_examples):
    ex = test_examples[0]
    backend = script_backend("multihop_retry.json")
    result = run_task_example(MultiHopQA(index), ex, ASSERTIVE, backend)
    dispositions = [o.disposition for o in result.constraints if o.site == 0]
    assert dispositions == ["retried", "passed"]
    assert [s.attempt for s in result.steps if s.module_id == "generate_query"] == [0, 1, 0]
    assert len(backend.call_log) == 4


def test_multihop_duplicate_second_query_fixed_on_retry(index, test_examples):
    # hop 2 first repeats the hop-1 query; the distinctness suggestion retries it
    from lmpipe.retrieval import retrieve

    ex = test_examples[0]
    subject = "Oakhaven Amphitheatre"
    person = "Anton Marwick"
    hop2_ctx_line = passages_to_text(retrieve(index, subject, 3)).split("\n")[-1]
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match=f"\nPast Query: {subject}",
                    responses=[f"Reasoning: r\nQuery: {person}"]),
        ScriptEntry(match=f"Context: N/A\nQuestion: {ex.question}",
                    responses=[f"Reasoning: r\nQuery: {subject}"]),
        ScriptEntry(match=f"{hop2_ctx_line}\nQuestion: {ex.question}",
                    responses=[f"Reasoning: r\nQuery: {subject}"]),
        ScriptEntry(match=f"Question: {ex.question}",
                    responses=[f"Reasoning: r\nAnswer: {ex.answer}"]),
    ]))
    result = run_task_example(MultiHopQA(index), ex, ASSERTIVE, backend)
    site_3 = [o for o in result.constraints if o.site == 3]
    # site 3 is hop-2 distinctness: the duplicate retried, the fix passed
    assert [o.disposition for o in site_3] == ["retried", "passed"]
    assert [o.label for o in site_3] == ["query_distinct", "query_distinct"]
    assert [found.query for found in result.retrievals] == [subject, person]


def test_multihop_without_assertions_records_but_never_retries(index, test_examples):
    ex = test_examples[0]
    backend = script_backend("multihop_retry.json")
    result = run_task_example(MultiHopQA(index), ex, RECORD_ONLY, backend)
    assert len(backend.call_log) == 3  # one call per module invocation
    dispositions = [o.disposition for o in result.constraints if o.site == 0]
    assert dispositions == ["failed"]
    value, vacuous = suggestions_passed(result)
    assert not vacuous and value < 1.0


def test_longform_citations_pass(index, test_examples):
    ex = test_examples[0]
    result = run_task_example(LongFormQA(index), ex, ASSERTIVE,
                              script_backend("longform_all_pass.json"))
    assert not result.halted
    row = score_example("longform", ex, result)
    assert row["citation_faithfulness"] == 1.0
    assert row["citation_precision"] == 1.0
    assert row["citation_recall"] == 1.0
    assert row["has_answer"] == 1.0
    assert suggestions_passed(result) == (1.0, False)


def test_longform_judge_steps_are_traced_but_not_demo_modules(index, test_examples):
    result = run_task_example(LongFormQA(index), test_examples[0], ASSERTIVE,
                              script_backend("longform_all_pass.json"))
    module_ids = [s.module_id for s in result.steps]
    assert module_ids.count("faithfulness_judge") == 2  # one per citation pair
    program = LongFormQA(index)
    assert "faithfulness_judge" not in program.modules


def test_quiz_all_checks_pass(index, test_examples):
    ex = test_examples[0]
    result = run_task_example(QuizGen(), ex, ASSERTIVE, script_backend("quiz_all_pass.json"))
    row = score_example("quiz", ex, result)
    assert row["format"] == 1.0
    assert row["has_answer"] == 1.0
    assert row["plausible"] == 1.0
    assert row["validity"] == 1.0


def test_quiz_fix_scenario_retries_then_passes(index, test_examples):
    ex = test_examples[0]
    backend = script_backend("quiz_fix.json")
    result = run_task_example(QuizGen(), ex, ASSERTIVE, backend)
    sites = [[o.disposition for o in result.constraints if o.site == site] for site in range(result.sites)]
    assert sites == [["retried", "passed"],  # format site
                     ["passed"],             # inclusion
                     ["passed"]]             # plausibility
    row = score_example("quiz", ex, result)
    assert row["validity"] == 1.0
    # first failing constraint short-circuits: the judge never saw the bad attempt
    judge_steps = [s for s in result.steps if s.module_id == "plausibility_judge"]
    assert len(judge_steps) == 1


def test_quiz_without_assertions_single_attempt(index, test_examples):
    ex = test_examples[0]
    backend = script_backend("quiz_fix.json")
    result = run_task_example(QuizGen(), ex, RECORD_ONLY, backend)
    row = score_example("quiz", ex, result)
    assert row["format"] == 0.0
    assert row["validity"] == 0.0
    # constraints recorded on the single attempt; judge still consulted once
    assert [s.module_id for s in result.steps] == ["generate_choices", "plausibility_judge"]


def test_tweet_all_checks_pass(index, test_examples):
    ex = test_examples[0]
    result = run_task_example(TweetGen(index), ex, ASSERTIVE, script_backend("tweet_all_pass.json"))
    row = score_example("tweet", ex, result)
    for name in ("no_hashtags", "within_limit", "has_answer", "engaging", "faithful"):
        assert row[name] == 1.0
    assert row["quality"] == 1.0
    assert suggestions_passed(result) == (1.0, False)


def test_tweet_uses_per_hop_query_modules(index, test_examples):
    result = run_task_example(TweetGen(index), test_examples[0], ASSERTIVE,
                              script_backend("tweet_all_pass.json"))
    module_ids = [s.module_id for s in result.steps]
    assert "generate_query_0" in module_ids and "generate_query_1" in module_ids
    assert module_ids.count("engaging_judge") == 1
    assert module_ids.count("faithful_judge") == 1


def test_tweet_deduplicates_context(index, test_examples):
    result = run_task_example(TweetGen(index), test_examples[0], ASSERTIVE,
                              script_backend("tweet_all_pass.json"))
    # the tweet's context holds each retrieved passage once
    titles = [title for found in result.retrievals for title in found.titles]
    context = next(s for s in result.steps if s.module_id == "generate_tweet").inputs["context"]
    assert len(titles) == 6 and len(set(titles)) < 6
    assert [line.split(" | ")[0] for line in context.split("\n")] == [
        f"[{rank}] {title}" for rank, title in enumerate(dict.fromkeys(titles), start=1)
    ]


def test_tweet_suggestion_order(index, test_examples):
    result = run_task_example(TweetGen(index), test_examples[0], ASSERTIVE,
                              script_backend("tweet_all_pass.json"))
    labels = [o.label for o in result.final_outcomes()]
    assert labels == ["no_hashtags", "within_limit", "has_answer", "engaging", "faithful"]


def test_recorded_outcomes_match_predicate_recount(index, test_examples):
    """Final-attempt dispositions replay exactly through the raw predicates."""
    from lmpipe.checks import is_query_distinct

    ex = test_examples[0]
    result = run_task_example(MultiHopQA(index), ex, ASSERTIVE,
                              script_backend("multihop_retry.json"))
    queries = [found.query for found in result.retrievals]
    history = [ex.question]
    recounted = []
    for query in queries:
        recounted.append(len(query) < 100)
        recounted.append(is_query_distinct(query, history))
        history.append(query)
    recorded = [o.disposition == "passed" for o in result.final_outcomes()]
    assert recorded == recounted


def test_transparency_assertions_inactive_vs_active_when_all_pass(index, test_examples):
    ex = test_examples[2]
    with_a = run_task_example(MultiHopQA(index), ex, ASSERTIVE,
                              script_backend("multihop_all_pass.json"))
    without = run_task_example(MultiHopQA(index), ex, RECORD_ONLY,
                               script_backend("multihop_all_pass.json"))
    assert with_a.final_outputs == without.final_outputs


def test_clone_shares_immutable_parts_and_owns_its_modules(index):
    program = build_program("tweet", index)
    for module in program.modules.values():
        module.demos = [{"question": f"q{i}", "tweet": f"t{i}"} for i in range(2)]
    clone = program.clone()
    assert clone.generate_tweet is clone.modules["generate_tweet"]
    assert all(clone.query_modules[hop] is clone.modules[f"generate_query_{hop}"] for hop in range(2))
    assert clone.index is program.index
    for name, module in program.modules.items():
        copied = clone.modules[name]
        assert copied is not module
        assert copied.signature is module.signature
        assert copied.demos == module.demos and copied.demos is not module.demos
        assert all(a is not b for a, b in zip(copied.demos, module.demos))
    assert clone.faithful_judge.signature is program.faithful_judge.signature
    field = program.generate_tweet.signature.output_fields[0]
    assert clone.generate_tweet.signature.output_fields[0] is field
    clone.generate_tweet.demos.append({"question": "q", "tweet": "t"})
    assert len(program.generate_tweet.demos) == 2


def test_build_program_dispatch(index):
    assert isinstance(build_program("multihop", index), MultiHopQA)
    assert isinstance(build_program("longform", index), LongFormQA)
    assert isinstance(build_program("quiz"), QuizGen)
    assert isinstance(build_program("tweet", index), TweetGen)
    with pytest.raises(ValueError):
        build_program("unknown", index)


@pytest.mark.parametrize("task", sorted(TASKS))
def test_program_inputs_name_forward_arguments(task):
    program = TASKS[task].program
    names = list(inspect.signature(program.forward).parameters)
    assert tuple(names[2:]) == program.inputs  # after self and ctx
    assert TASKS[task].bootstrap_column in TASKS[task].columns


def test_instruction_variants_differ(index):
    primitive = build_program("quiz", instruction_variant=PRIMITIVE)
    complete = build_program("quiz", instruction_variant=COMPLETE)
    p_text = primitive.modules["generate_choices"].signature.instructions
    c_text = complete.modules["generate_choices"].signature.instructions
    assert p_text != c_text
    assert "JSON" in c_text and "JSON" not in p_text


def test_longform_out_of_range_citation_counts_failed(index, test_examples):
    ex = test_examples[0]
    # paragraph citing [9]: no such passage, the pair is recorded failed without a judge call
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Context: N/A\nQuestion: " + ex.question,
                    responses=["Reasoning: r\nQuery: Oakhaven Amphitheatre"]),
        ScriptEntry(match="Question: " + ex.question,
                    responses=["Reasoning: r\nQuery: Anton Marwick",
                               "Reasoning: r\nParagraph: A fact [9]. Another [1]."]),
        ScriptEntry(match="Assessment Question:", responses=["Assessment Answer: Yes"]),
    ]))
    result = run_task_example(LongFormQA(index), ex, RECORD_ONLY, backend)
    row = score_example("longform", ex, result)
    labels = {o.label for o in result.constraints}
    assert "citation_faithful" in labels
    assert row["citation_faithfulness"] == 0.5  # [9] failed, [1] judged yes
    assert row["citation_precision"] == 0.5     # one gold title, one dangling marker


def test_longform_retried_into_fewer_citations_scores_only_its_answer(index, test_examples):
    # three citations, the third judged unfaithful; the retry cites once, faithfully.
    # The discarded pass's citation sites (2 and 3) are not the answer's.
    from lmpipe.optimizers import _all_sites_ultimately_passed

    ex = test_examples[0]
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Past Paragraph:", responses=["Reasoning: r\nParagraph: One fact [1]."]),
        ScriptEntry(match="Context: N/A\nQuestion: " + ex.question,
                    responses=["Reasoning: r\nQuery: Oakhaven Amphitheatre"]),
        ScriptEntry(match="Question: " + ex.question,
                    responses=["Reasoning: r\nQuery: Anton Marwick",
                               "Reasoning: r\nParagraph: Fact one [1]. Fact two [2]. Fact three [3]."]),
        ScriptEntry(match="Assessed Text: Fact three", responses=["Assessment Answer: No"]),
        ScriptEntry(match="Assessment Question:", responses=["Assessment Answer: Yes"]),
    ]))
    result = run_task_example(LongFormQA(index), ex, ASSERTIVE, backend)
    assert result.final_outputs["paragraph"] == "One fact [1]."
    row = score_example("longform", ex, result)
    assert row["suggestions_passed"] == 1.0
    assert row["citation_faithfulness"] == 1.0
    assert _all_sites_ultimately_passed(result)
    assert [o.disposition for o in result.constraints] == ["passed"] * 3 + ["retried"] + ["passed"] * 2
    assert result.sites == 2
