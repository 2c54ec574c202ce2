"""Constraint predicates used by the bundled task programs.

Every predicate is a pure function of its text arguments. LM-judged checks
(plausibility, engagement, faithfulness) live in the task programs; here is
only the final yes/no reading of a judge's answer.
"""

from __future__ import annotations

import json
import re
import string

from .retrieval import tokenize

_ARTICLES_RE = re.compile(r"\b(a|an|the)\b", re.IGNORECASE)
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
_HASHTAG_RE = re.compile(r"#\w+")
_CITATION_RE = re.compile(r"\[(\d+)\]")


def normalize_answer(text: str) -> str:
    """Lowercase, drop punctuation and articles, collapse whitespace."""
    text = text.lower()
    text = _ARTICLES_RE.sub(" ", text)
    text = text.translate(_PUNCT_TABLE)
    return " ".join(text.split())


def has_correct_answer(text: str, answer: str) -> bool:
    """The normalized gold answer appears inside the normalized text."""
    return normalize_answer(answer) in normalize_answer(text)


def has_no_hashtags(text: str) -> bool:
    return _HASHTAG_RE.search(text) is None


def is_within_length_limit(text: str, limit: int) -> bool:
    """Raw character count, inclusive boundary: exactly `limit` chars passes."""
    return len(text) <= limit


def format_checker(choices_text: str) -> bool:
    """True when the text parses as a JSON object of label -> choice text."""
    try:
        parsed = json.loads(choices_text)
    except (ValueError, TypeError, RecursionError):  # the last: nested too deep to parse
        return False
    if not isinstance(parsed, dict) or not parsed:
        return False
    return all(isinstance(v, str) for v in parsed.values())


def _normalized_query(text: str) -> str:
    return " ".join(text.lower().split())


def is_query_distinct(query: str, previous_queries: list[str]) -> bool:
    """Distinct from every prior query: normalized strings differ and the
    Jaccard overlap of their word sets (``retrieval.tokenize``, as BM25 reads
    them) stays below 0.8."""
    q_norm = _normalized_query(query)
    q_words = set(tokenize(query))
    for prior in previous_queries:
        if q_norm == _normalized_query(prior):
            return False
        p_words = set(tokenize(prior))
        union = q_words | p_words
        if union:
            overlap = len(q_words & p_words) / len(union)
            if overlap >= 0.8:
                return False
    return True


def split_sentences(text: str) -> list[str]:
    """Split on sentence-ending punctuation, keeping nonempty pieces."""
    pieces = re.split(r"[.!?]", text)
    return [p.strip() for p in pieces if p.strip()]


def citations_check(paragraph: str) -> bool:
    """Citations at least every 1-2 sentences.

    Fails when the paragraph has no [k] markers at all, or any run of 3+
    consecutive sentences carries none.
    """
    if not _CITATION_RE.search(paragraph):
        return False
    uncited_run = 0
    for sentence in split_sentences(paragraph):
        if _CITATION_RE.search(sentence):
            uncited_run = 0
        else:
            uncited_run += 1
            if uncited_run >= 3:
                return False
    return True


def get_lines_and_citations(paragraph: str) -> list[tuple[str, int]]:
    """(sentence, k) for every [k] marker, in reading order."""
    pairs = []
    for sentence in split_sentences(paragraph):
        for marker in _CITATION_RE.findall(sentence):
            pairs.append((sentence, int(marker)))
    return pairs


def is_assessment_yes(assessment_answer: str) -> bool:
    """True when the answer's first word normalizes to 'yes'."""
    words = assessment_answer.strip().split()
    if not words:
        return False
    return words[0].strip(string.punctuation).lower() == "yes"
