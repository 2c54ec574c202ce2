from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from lmpipe.checks import (
    citations_check,
    format_checker,
    get_lines_and_citations,
    has_correct_answer,
    has_no_hashtags,
    is_assessment_yes,
    is_query_distinct,
    is_within_length_limit,
    normalize_answer,
    split_sentences,
)


@pytest.mark.parametrize("text,expected", [
    ('{"A": "Paris", "B": "Rome"}', True),
    ('{"A": "Paris", "B": "Rome", "C": "Berlin", "D": "Madrid"}', True),
    ('  {"A": "Paris"}  ', True),                      # surrounding whitespace is fine
    ("The choices are Paris and Rome.", False),        # prose, not JSON
    ('["Paris", "Rome"]', False),                      # array, not an object
    ('{"A": 1}', False),                               # values must be text
    ('{"A": {"nested": "x"}}', False),
    ("{}", False),                                     # empty object has no choices
    ('{"A": "Paris",}', False),                        # trailing comma breaks parsing
    pytest.param('{"A": ' + "[" * 100_000 + "}", False, id="nested-too-deep"),
])
def test_format_checker_table(text, expected):
    assert format_checker(text) is expected


@pytest.mark.parametrize("text,expected", [
    ("No tags here at all", True),
    ("Ends cleanly.", True),
    ("#History starts with one", False),
    ("middle #tag here", False),
    ("trailing #2024", False),
    ("two #one #two", False),
    ("number sign alone # is fine", True),
    ("", True),
])
def test_has_no_hashtags_table(text, expected):
    assert has_no_hashtags(text) is expected


@pytest.mark.parametrize("text,limit,expected", [
    ("", 280, True),
    ("x" * 279, 280, True),
    ("x" * 280, 280, True),     # boundary is inclusive
    ("x" * 281, 280, False),
    ("ok", 2, True),
    ("three", 2, False),
    ("  padded  ", 8, False),   # raw characters, no trimming
    ("  padded ", 9, True),
])
def test_is_within_length_limit_table(text, limit, expected):
    assert is_within_length_limit(text, limit) is expected


@pytest.mark.parametrize("answer,text,expected", [
    ("Paris", '{"A": "Paris", "B": "Rome"}', True),
    ("Paris", '{"A": "paris"}', True),                          # case-insensitive
    ("The Hague", "the hague is included", True),               # article stripped
    ("Paris", '{"A": "Rome", "B": "Berlin"}', False),
    ("Treaty of Trianon", "It was the Treaty of Trianon.", True),
    ("Paris", "", False),
    ("Budget Rent a Car", "Enterprise is the member.", False),
    ("Kelvin Reach", "born in Kelvin Reach!", True),
])
def test_is_correct_answer_included_table(answer, text, expected):
    # quiz's has_answer rule: the gold answer inside the answer choices
    assert has_correct_answer(text, answer) is expected


@pytest.mark.parametrize("query,previous,expected", [
    ("alpha beta", [], True),
    ("alpha beta", ["gamma delta"], True),
    ("alpha beta", ["alpha beta"], False),                     # exact duplicate
    ("Alpha  Beta", ["alpha beta"], False),                    # case/space-insensitive dup
    ("alpha beta gamma delta", ["alpha beta gamma epsilon"], True),   # overlap 3/5 = 0.6
    ("alpha beta gamma delta epsilon", ["alpha beta gamma delta"], False),  # 4/5 = 0.8 boundary
    ("alpha beta gamma", ["alpha delta epsilon"], True),       # 1/5 = 0.2
    ("one two", ["one two three four five six seven eight nine ten"], True),  # 2/10
    ("alpha beta", ["gamma delta", "alpha beta"], False),      # any prior dup fails
])
def test_is_query_distinct_table(query, previous, expected):
    assert is_query_distinct(query, previous) is expected


@pytest.mark.parametrize("paragraph,expected", [
    ("Fact one [1]. Fact two [2].", True),
    ("Fact one [1]. Fact two.", True),                          # one uncited sentence is fine
    ("Alpha [1]. Beta. Gamma.", True),                          # run of two uncited
    ("Alpha [1]. Beta. Gamma. Delta.", False),                  # run of three uncited
    ("No citations at all.", False),
    ("", False),
    ("One [1]! Two [2]? Three [3].", True),                     # ! and ? terminate sentences
    ("Start. Middle. End [1].", True),                          # run of two before a citation
    ("A. B. C. D [1].", False),                                 # three uncited before the cite
])
def test_citations_check_table(paragraph, expected):
    assert citations_check(paragraph) is expected


def test_split_sentences_drops_empty_pieces():
    assert split_sentences("One. Two!  Three?  ") == ["One", "Two", "Three"]


def test_get_lines_and_citations_orders_pairs():
    pairs = get_lines_and_citations("Alpha [1]. Beta [2] and also [3].")
    assert pairs == [("Alpha [1]", 1), ("Beta [2] and also [3]", 2),
                     ("Beta [2] and also [3]", 3)]


@given(st.text(alphabet="[]0123456789.!? a\n") | st.text())
def test_get_lines_and_citations_finds_every_marker(paragraph):
    # a marker holds no sentence end, so splitting into sentences cuts none
    assert [k for _, k in get_lines_and_citations(paragraph)] == \
        [int(m) for m in re.findall(r"\[(\d+)\]", paragraph)]


@pytest.mark.parametrize("answer,expected", [
    ("Yes", True),
    ("yes", True),
    ("Yes, it is engaging.", True),
    ("yes.", True),
    ("No", False),
    ("Not really, yes and no.", False),
    ("", False),
    ("Maybe yes", False),
])
def test_is_assessment_yes_table(answer, expected):
    assert is_assessment_yes(answer) is expected


def test_normalize_answer():
    assert normalize_answer("The Treaty of Trianon") == "treaty of trianon"
    assert normalize_answer("  A   spaced,  answer!  ") == "spaced answer"
    assert normalize_answer("An Apple") == "apple"
