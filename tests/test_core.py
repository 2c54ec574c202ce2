from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from lmpipe.core import (
    ConstraintOutcome,
    Counterexample,
    FieldSpec,
    PromptError,
    Signature,
    SignatureError,
    default_prefix,
    parse_signature,
    passages_to_text,
    render_prompt,
)
from lmpipe.modules import PredictModule, chain_of_thought
from lmpipe.runtime import Program

GOLDEN = Path(__file__).parent / "golden"

RATIONALE = FieldSpec(name="rationale", prefix="Reasoning: Think step by step.")


def test_parse_signature_single_pair():
    sig = parse_signature("question -> answer")
    assert [f.name for f in sig.input_fields] == ["question"]
    assert [f.name for f in sig.output_fields] == ["answer"]


def test_parse_signature_two_inputs():
    sig = parse_signature("context,question -> query")
    assert [f.name for f in sig.input_fields] == ["context", "question"]
    assert [f.name for f in sig.output_fields] == ["query"]


def test_parse_signature_empty_output_side_errors():
    with pytest.raises(SignatureError, match="output"):
        parse_signature("question ->")


@pytest.mark.parametrize("bad", [
    "question answer",          # no arrow
    "a -> b -> c",              # two arrows
    "-> answer",                # empty input side
    "a, a -> b",                # duplicate
    "a -> a",                   # same name both sides
    "9lives -> answer",         # invalid identifier
])
def test_parse_signature_rejects_malformed(bad):
    with pytest.raises(SignatureError):
        parse_signature(bad)


def test_parse_error_names_offending_token():
    with pytest.raises(SignatureError, match="9lives"):
        parse_signature("9lives -> answer")


def test_default_prefix_title_cases():
    assert default_prefix("question") == "Question:"
    assert default_prefix("answer_choices") == "Answer Choices:"


def test_prefix_key_truncates_at_first_colon():
    assert RATIONALE.prefix_key == "Reasoning:"
    assert FieldSpec(name="query").prefix_key == "Query:"


def test_prepend_output_field_orders_rationale_first():
    sig = chain_of_thought("question -> answer", "qa").signature
    assert [f.name for f in sig.output_fields] == ["rationale", "answer"]
    assert [f.name for f in sig.input_fields] == ["question"]


def test_prepend_output_field_keeps_instructions():
    sig = chain_of_thought("question -> answer", "qa", instructions="Answer briefly.").signature
    assert sig.instructions == "Answer briefly."


def test_prepend_duplicate_name_errors():
    with pytest.raises(SignatureError, match="rationale"):
        chain_of_thought("question -> rationale", "qa")


def test_signature_fields_are_its_inputs_then_its_outputs():
    sig = Signature("x", (FieldSpec("a"), FieldSpec("b")), (FieldSpec("c"),))
    assert [f.name for f in sig.fields] == ["a", "b", "c"]
    assert sig == parse_signature("a, b -> c", instructions="x")
    with pytest.raises(SignatureError, match="duplicate field name 'a'"):
        Signature("x", (FieldSpec("a"),), (FieldSpec("a"),))


def shorthand(sig: Signature) -> str:
    """The 'a, b -> c' form of a signature's field names."""
    ins = ", ".join(f.name for f in sig.input_fields)
    outs = ", ".join(f.name for f in sig.output_fields)
    return f"{ins} -> {outs}"


def test_shorthand_reparse_round_trip():
    sig = parse_signature("context, question -> query")
    assert parse_signature(shorthand(sig)) == sig


 # identifier fragments for property-style round trips
_ident = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)


@given(st.lists(_ident, min_size=1, max_size=4, unique=True),
       st.lists(_ident, min_size=1, max_size=4, unique=True))
def test_shorthand_round_trip_property(inputs, outputs):
    if set(inputs) & set(outputs):
        return
    spec = ", ".join(inputs) + " -> " + ", ".join(outputs)
    sig = parse_signature(spec)
    assert parse_signature(shorthand(sig)) == sig


def test_render_minimal_prompt():
    sig = parse_signature("question -> answer")
    prompt = render_prompt(sig, inputs={"question": "Q"})
    assert "Follow the following format." in prompt
    assert "Question: Q" in prompt
    assert prompt.endswith("Answer: ")


def test_render_missing_input_names_field():
    sig = parse_signature("context, question -> answer")
    with pytest.raises(PromptError, match="context"):
        render_prompt(sig, inputs={"question": "Q"})


def test_render_is_pure():
    sig = chain_of_thought("context, question -> query", "q").signature
    args = dict(
        demos=[{"context": "N/A", "question": "Q1", "rationale": "R", "query": "X"}],
        inputs={"context": "N/A", "question": "Q2"},
        feedback=[("too long", "shorter please")],
    )
    assert render_prompt(sig, **args) == render_prompt(sig, **args)


def test_feedback_lines_appear_iff_feedback_nonempty():
    sig = parse_signature("question -> query")
    without = render_prompt(sig, inputs={"question": "Q"})
    assert "Past Query:" not in without and "Instruction:" not in without
    with_fb = render_prompt(sig, inputs={"question": "Q"},
                            feedback=[("bad one", "make it shorter"),
                                      ("still bad", "make it distinct")])
    assert with_fb.count("Past Query:") == 2
    assert with_fb.count("Instruction:") == 2


def test_feedback_sits_between_inputs_and_generation_cue():
    sig = parse_signature("question -> query")
    prompt = render_prompt(sig, inputs={"question": "Q"}, feedback=[("bad", "fix")])
    live = prompt.split("\n\n---\n\n")[-1]
    lines = live.split("\n")
    assert lines == ["Question: Q", "Past Query: bad", "Instruction: fix", "Query: "]


def test_two_demo_golden_prompt():
    sig = parse_signature("question -> answer")
    demos = [
        {"question": "What color is a clear daytime sky?", "answer": "Blue"},
        {"question": "How many legs does a spider have?", "answer": "Eight"},
    ]
    rendered = render_prompt(sig, demos=demos, inputs={"question": "Where is the Eiffel Tower?"})
    golden = (GOLDEN / "two_demo_prompt.txt").read_bytes().decode("utf-8")
    assert rendered == golden


def test_demo_order_preserved():
    sig = parse_signature("question -> answer")
    demos = [{"question": f"Q{i}", "answer": f"A{i}"} for i in range(2)]
    prompt = render_prompt(sig, demos=demos, inputs={"question": "live"})
    assert prompt.index("Q0") < prompt.index("Q1") < prompt.index("live")


def test_counterexample_blocks_render_before_demos():
    sig = parse_signature("question -> query")
    ce = Counterexample(module_id="m", failed_output="way too long",
                        message="shorter", corrected_output="short")
    demo = {"question": "Qd", "query": "qd"}
    prompt = render_prompt(sig, demos=[demo], counterexamples=[ce], inputs={"question": "Q"})
    past = prompt.index("Past Query: way too long")
    assert past < prompt.index("Qd")
    assert "Instruction: shorter" in prompt
    assert "Query: short" in prompt


def test_output_prefixes_once_in_header_and_cue_once_in_live_block():
    sig = chain_of_thought("context, question -> query", "q").signature
    prompt = render_prompt(sig, inputs={"context": "N/A", "question": "Q"})
    header, live = prompt.split("\n\n---\n\n")
    for f in sig.output_fields:
        assert header.count(f.prefix) == 1
    assert live.count(sig.output_fields[0].prefix) == 1
    assert live.endswith(sig.output_fields[0].prefix + " ")


def header_of(sig: Signature) -> str:
    """The header section as the README's prompt format spells it, built from
    the signature's own instructions and fields, and its separator."""
    lines = "\n".join(f"{f.prefix} {f.description}" for f in sig.fields)
    return f"{sig.instructions}\n\nFollow the following format.\n\n{lines}\n\n---\n\n"


def test_every_signature_renders_its_own_header():
    # a signature renders its header once; each way of deriving one must
    # render the derived signature's header, never its source's
    base = parse_signature("context, question -> query")
    program = Program()
    module = program.register(PredictModule("m", base))
    clone = program.clone()
    cloned = clone.modules["m"].signature  # the clone shares base
    clone.modules["m"].signature = replace(cloned, instructions="Cloned.")
    signatures = [
        base,
        replace(base, instructions="Write a search query."),
        chain_of_thought("context, question -> query", "q").signature,
        replace(base, input_fields=(FieldSpec("question", prefix="Ask:"),)),
        replace(base, output_fields=(FieldSpec("query", description="a short query"),)),
        cloned,
        clone.modules["m"].signature,
    ]
    for sig in signatures:
        prompt = render_prompt(sig, inputs={"context": "N/A", "question": "Q"})
        assert prompt.startswith(header_of(sig))
    assert len({header_of(sig) for sig in signatures}) == 6  # base and its copy share one
    assert module.signature is base


@given(st.dictionaries(_ident, st.text(alphabet=st.characters(blacklist_characters="\n"),
                                       max_size=20), min_size=1, max_size=3))
def test_render_prompt_deterministic_bytes(inputs):
    names = sorted(inputs)
    sig = parse_signature(", ".join(names) + " -> out")
    a = render_prompt(sig, inputs=inputs)
    b = render_prompt(sig, inputs=dict(inputs))
    assert a == b


@pytest.mark.parametrize("change, error", [
    ({"kind": "require"}, "constraint kind must be assert or suggest, got 'require'"),
    ({"message": ""}, "constraint message must be nonempty"),
    ({"disposition": "halted"}, "only assert constraints can halt"),
])
def test_constraint_outcome_rejects_bad_records(change, error):
    fields = dict(kind="suggest", passed=False, message="m", label="m", attempt=2,
                  disposition="warned", site=0, target_module="m", step=0)
    ConstraintOutcome(**fields)
    with pytest.raises(ValueError, match=error):
        ConstraintOutcome(**{**fields, **change})


def test_passages_to_text_numbering_and_empty():
    assert passages_to_text([]) == "N/A"
    text = passages_to_text([("T1", "body one"), ("T2", "line\nbreak")])
    assert text == "[1] T1 | body one\n[2] T2 | line break"
