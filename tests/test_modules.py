from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, strategies as st

from lmpipe.backend import CachingBackend, ScriptEntry, ScriptedBackend
from lmpipe.core import SignatureError, render_prompt
from lmpipe.modules import (
    RATIONALE_PREFIX,
    chain_of_thought,
    parse_completion,
)
from lmpipe.retrieval import Passage, RetrieverIndex, deduplicate, load_corpus, retrieve
from lmpipe.runtime import Program, RuntimeConfig, run_with_backtracking


def test_chain_of_thought_prepends_rationale():
    module = chain_of_thought("context, question -> query", module_id="gen")
    assert [f.name for f in module.signature.output_fields] == ["rationale", "query"]
    assert module.signature.output_fields[0].prefix == RATIONALE_PREFIX


def test_chain_of_thought_is_pure():
    a = chain_of_thought("q -> a", module_id="m")
    b = chain_of_thought("q -> a", module_id="m")
    assert a.signature == b.signature and a.module_id == b.module_id


def test_chain_of_thought_propagates_parse_errors():
    with pytest.raises(SignatureError):
        chain_of_thought("->", module_id="m")


def cot_signature(spec: str):
    return chain_of_thought(spec, module_id="m").signature


def test_parse_completion_both_fields():
    sig = cot_signature("question -> answer")
    pred = parse_completion(sig, "Reasoning: because X\nAnswer: Paris")
    assert pred == {"rationale": "because X", "answer": "Paris"}


def test_parse_completion_missing_later_field_is_empty():
    sig = cot_signature("question -> answer")
    pred = parse_completion(sig, "Reasoning: partial thought only")
    assert pred["rationale"] == "partial thought only"
    assert pred["answer"] == ""


def test_parse_completion_full_prefix_wins_over_truncated():
    sig = cot_signature("question -> answer")
    pred = parse_completion(
        sig, "Reasoning: Think step by step. the long way\nAnswer: 42"
    )
    assert pred["rationale"] == "the long way"


def test_parse_completion_cue_continuation_goes_to_first_field():
    # a live model continues right after the generation cue without re-printing it
    sig = cot_signature("question -> answer")
    pred = parse_completion(sig, "thinking out loud\nAnswer: Rome")
    assert pred == {"rationale": "thinking out loud", "answer": "Rome"}


def test_parse_completion_multiline_value():
    sig = cot_signature("question -> answer")
    pred = parse_completion(sig, "Reasoning: line one\nline two\nAnswer: done")
    assert pred["rationale"] == "line one\nline two"


def test_parse_completion_prefix_must_start_line():
    sig = cot_signature("question -> answer")
    pred = parse_completion(sig, "Reasoning: the Answer: token inline\nAnswer: real")
    assert pred["answer"] == "real"


def test_parse_round_trips_rendered_demo():
    module = chain_of_thought("context, question -> query", module_id="gen")
    demo = {"context": "N/A", "question": "Q?", "rationale": "step", "query": "find it"}
    block = "\n".join(
        f"{f.prefix} {demo[f.name]}" for f in module.signature.fields
    )
    pred = parse_completion(module.signature, block)
    assert pred == {"rationale": "step", "query": "find it"}


def predict(module, inputs, backend):
    """One module call through the execution engine's call path."""
    program = Program()
    program.forward = lambda ctx, **kwargs: ctx.call(module, **kwargs)
    return run_with_backtracking(program, inputs, RuntimeConfig(), backend)


def test_predict_renders_calls_and_parses():
    module = chain_of_thought("question -> answer", module_id="qa")
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Question: Where", responses=["Reasoning: easy\nAnswer: Paris"]),
    ]))
    run = predict(module, {"question": "Where is it?"}, backend)
    assert run.final_outputs["answer"] == "Paris"
    assert run.steps[0].raw_completion.startswith("Reasoning:")


def test_predict_prompt_matches_render():
    module = chain_of_thought("question -> answer", module_id="qa")
    inner = ScriptedBackend([ScriptEntry(match="Question:", responses=["Answer: hi"])])
    predict(module, {"question": "Q"}, CachingBackend(inner))
    prompt = inner.call_log.records()[0].prompt
    assert prompt == render_prompt(module.signature, inputs={"question": "Q"})


# --- retrieval ---------------------------------------------------------------

CORPUS = [
    Passage("Red Bridge", "The red bridge crosses the north river."),
    Passage("Blue Tower", "A tower of blue stone guards the harbor."),
    Passage("Green Mill", "The green mill grinds grain by the river."),
]


def brute_force_bm25(passages, query, k1=1.5, b=0.75):
    """Independent literal transcription of the scoring formula."""

    def tokenize(text):
        return re.findall(r"[a-z0-9]+", text.lower())

    docs = [tokenize(p.title + " " + p.text) for p in passages]
    avg = sum(len(d) for d in docs) / len(docs)
    n = len(docs)
    scores = []
    for tokens in docs:
        score = 0.0
        for term in set(tokenize(query)):
            tf = tokens.count(term)
            if tf == 0:
                continue
            df = sum(1 for d in docs if term in d)
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            score += idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * len(tokens) / avg))
        scores.append(score)
    return scores


def test_retrieve_matches_brute_force_ranking():
    index = RetrieverIndex.build(CORPUS)
    query = "red bridge river"
    scores = brute_force_bm25(CORPUS, query)
    expected = [CORPUS[i] for i in sorted(range(3), key=lambda i: (-scores[i], i))]
    assert retrieve(index, query, 3) == expected
    assert retrieve(index, query, 1) == [expected[0]]


def test_retrieve_title_words_rank_first():
    index = RetrieverIndex.build(CORPUS)
    top = retrieve(index, "Blue Tower", 1)
    assert top[0].title == "Blue Tower"


def test_retrieve_k_larger_than_corpus():
    index = RetrieverIndex.build(CORPUS)
    assert len(retrieve(index, "river", 10)) == 3


def test_retrieve_empty_query_returns_insertion_order():
    index = RetrieverIndex.build(CORPUS)
    assert retrieve(index, "", 2) == CORPUS[:2]


def test_retrieve_deterministic():
    index = RetrieverIndex.build(CORPUS)
    assert retrieve(index, "river", 3) == retrieve(index, "river", 3)


def test_retrieve_scores_non_increasing():
    index = RetrieverIndex.build(CORPUS)
    ranked = retrieve(index, "river stone", 3)
    scores = [index.scores("river stone").get(index.passages.index(p), 0.0) for p in ranked]
    assert scores == sorted(scores, reverse=True)


@given(st.text(alphabet="abrit red bridge river ", max_size=40))
def test_retrieve_deterministic_property(query):
    index = RetrieverIndex.build(CORPUS)
    assert retrieve(index, query, 3) == retrieve(index, query, 3)


def test_retrieve_rejects_bad_args():
    index = RetrieverIndex.build(CORPUS)
    with pytest.raises(ValueError):
        retrieve(index, "x", 0)
    with pytest.raises(ValueError):
        retrieve(RetrieverIndex.build([]), "x", 1)


def test_duplicate_titles_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        RetrieverIndex.build([Passage("Same", "a"), Passage("Same", "b")])


def test_deduplicate_exact_text():
    a = Passage("T", "same text")
    b = Passage("T", "same text")
    c = Passage("U", "other")
    assert deduplicate([a, b, c, a]) == [a, c]


def test_load_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"title": "A", "text": "alpha"}\n{"title": "B", "text": "beta"}\n')
    passages = load_corpus(path)
    assert passages == [Passage("A", "alpha"), Passage("B", "beta")]
