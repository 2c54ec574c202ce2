"""Intrinsic and extrinsic evaluation metrics.

Intrinsic metrics measure conformance to the declared constraints (e.g. the
fraction of suggestion sites whose final attempt passed). Extrinsic metrics
measure downstream quality against gold labels: exact-match answers, retrieval
recall, citation precision/recall, and the gated composite scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .checks import get_lines_and_citations, normalize_answer
from .core import PASSED, STR, STR_LIST, RunResult, read_jsonl


@dataclass(frozen=True)
class TaskExample:
    """One dataset record: a question, its gold answer, and gold passage titles."""

    question: str
    answer: str
    gold_titles: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.question or not self.answer:
            raise ValueError("question and answer must be nonempty")
        object.__setattr__(self, "gold_titles", frozenset(self.gold_titles))


_DATASET_FIELDS = {"question": STR, "answer": STR, "gold_titles": STR_LIST}


def load_dataset(path: str | Path) -> list[TaskExample]:
    """One JSON record per line with fields {question, answer, gold_titles},
    the last optional."""
    return read_jsonl(path, "dataset record", _DATASET_FIELDS, TaskExample, optional=("gold_titles",))


def answer_em(prediction_text: str, gold: str) -> float:
    """Normalized exact match: 1.0 or 0.0."""
    return 1.0 if normalize_answer(prediction_text) == normalize_answer(gold) else 0.0


def suggestions_passed(run: RunResult) -> tuple[float, bool]:
    """Fraction of the surviving pass's suggestion sites whose final outcome passed.

    Only the last run of the self-refinement loop at each site counts, and a
    site only a discarded pass reached does not count (``RunResult.final_outcomes``).
    With no suggestion sites the value is vacuously 1.0, flagged by the second
    element.
    """
    final = [o for o in run.final_outcomes() if o.kind == "suggest"]
    if not final:
        return 1.0, True
    return mean_of(float(o.disposition == PASSED) for o in final), False


def final_label_outcomes(run: RunResult) -> dict[str, list[bool]]:
    """Final-attempt pass/fail per constraint label over the surviving pass's
    sites, in site order.

    A label guarding several sites (one per loop iteration, say) contributes
    one boolean per site.
    """
    results: dict[str, list[bool]] = {}
    for last in run.final_outcomes():
        results.setdefault(last.label, []).append(last.disposition == PASSED)
    return results


def retrieval_recall(
    context_titles: Iterable[str], gold_titles: frozenset[str] | set[str]
) -> Optional[float]:
    """Fraction of gold titles among the titles of the final retrieved context.

    Returns None when there are no gold titles.
    """
    if not gold_titles:
        return None
    return len(set(context_titles) & set(gold_titles)) / len(gold_titles)


def _gated_mean(gate: bool, flags: Iterable[bool]) -> float:
    """0 unless ``gate`` holds, else the mean of ``flags``."""
    return mean_of(map(float, flags)) if gate else 0.0


def quiz_validity(format_ok: bool, answer_included: bool, plausible: bool) -> float:
    """Mean of the three intrinsic booleans, gated: 0 unless format and inclusion hold."""
    return _gated_mean(format_ok and answer_included, (format_ok, answer_included, plausible))


def tweet_quality(
    no_hashtags: bool, has_answer: bool, within_limit: bool, engaging: bool, faithful: bool
) -> float:
    """Mean of the five intrinsic booleans, gated: 0 unless the tweet has the
    answer and fits the length limit."""
    return _gated_mean(has_answer and within_limit,
                       (no_hashtags, has_answer, within_limit, engaging, faithful))


@dataclass(frozen=True)
class CitationMetrics:
    faithfulness: Optional[float]
    precision: Optional[float]
    recall: float


def citation_metrics(
    paragraph: str,
    context_titles: Sequence[str],
    gold_titles: frozenset[str] | set[str],
    faithful_flags: Optional[Sequence[bool]] = None,
) -> CitationMetrics:
    """Map [k] markers to the k-th context passage title (1-based) and score.

    Precision counts distinct cited titles against gold; an out-of-range k is
    an incorrect citation. Recall covers gold titles. ``faithful_flags`` are
    the per-citation judged booleans (out-of-range citations must already be
    False there); their mean is the faithfulness score. With no citations,
    precision and faithfulness are absent and recall is 0.
    """
    ks = [k for _, k in get_lines_and_citations(paragraph)]
    if not ks:
        return CitationMetrics(faithfulness=None, precision=None, recall=0.0)
    cited_titles = set()
    valid = 0
    for k in ks:
        if 1 <= k <= len(context_titles):
            cited_titles.add(context_titles[k - 1])
            valid += 1
    gold = set(gold_titles)
    hits = len(cited_titles & gold)
    # every distinct in-range title counts once; each out-of-range marker counts
    # as one incorrect citation, so with any citation the denominator is >= 1
    precision = hits / (len(cited_titles) + len(ks) - valid)
    recall = hits / len(gold) if gold else 0.0
    faithfulness = mean_of(float(bool(flag)) for flag in faithful_flags or ())
    return CitationMetrics(faithfulness=faithfulness, precision=precision, recall=recall)


def mean_of(values: Iterable[Optional[float]]) -> Optional[float]:
    """Mean over the non-absent values; None when every value is absent.

    The sum is ``math.fsum``'s, correctly rounded, so the mean does not depend
    on the order of the values or on the Python version."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    return math.fsum(present) / len(present)


def summarize_rows(rows: Sequence[Mapping[str, object]], metric_names: Sequence[str]) -> dict[str, float]:
    """Column means over per-example rows, skipping absent values."""
    summary = {}
    for name in metric_names:
        value = mean_of(
            [row.get(name) if isinstance(row.get(name), (int, float)) else None for row in rows]
        )
        if value is not None:
            summary[name] = value
    return summary
