"""The linear-scan BM25 scorer that ``lmpipe.retrieval`` replaced, kept as an
oracle: the postings index must rank and score exactly as this does.

``score`` counts every query token in the passage's token list, and
``retrieve`` scores every passage and sorts them all. Both are the original
code, unchanged apart from the names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from lmpipe.retrieval import BM25_B, BM25_K1, Passage, tokenize


@dataclass
class OracleIndex:
    passages: list[Passage]
    _doc_tokens: list[list[str]] = field(default_factory=list, repr=False)
    _doc_freq: dict[str, int] = field(default_factory=dict, repr=False)
    _avg_len: float = 0.0

    @classmethod
    def build(cls, passages: Iterable[Passage]) -> "OracleIndex":
        passages = list(passages)
        titles = [p.title for p in passages]
        if len(set(titles)) != len(titles):
            dupe = next(t for t in titles if titles.count(t) > 1)
            raise ValueError(f"duplicate passage title {dupe!r}")
        index = cls(passages=passages)
        for passage in passages:
            tokens = tokenize(passage.title + " " + passage.text)
            index._doc_tokens.append(tokens)
            for term in set(tokens):
                index._doc_freq[term] = index._doc_freq.get(term, 0) + 1
        total = sum(len(toks) for toks in index._doc_tokens)
        index._avg_len = total / len(passages) if passages else 0.0
        return index

    def __len__(self) -> int:
        return len(self.passages)

    def score(self, query: str, doc_index: int) -> float:
        tokens = self._doc_tokens[doc_index]
        doc_len = len(tokens)
        n_docs = len(self.passages)
        score = 0.0
        for term in tokenize(query):
            df = self._doc_freq.get(term, 0)
            if df == 0:
                continue
            tf = tokens.count(term)
            if tf == 0:
                continue
            idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            denom = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * doc_len / self._avg_len)
            score += idf * tf * (BM25_K1 + 1.0) / denom
        return score


def oracle_retrieve(index: OracleIndex, query: str, k: int) -> list[Passage]:
    """Top-k passages by BM25 score; for an empty or unseen query, the first k
    passages in insertion order (everything scores zero and ties keep order)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not index.passages:
        raise ValueError("retriever index is empty")
    scored = [(index.score(query, i), i) for i in range(len(index.passages))]
    # sort by descending score, ascending insertion index on ties
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [index.passages[i] for _, i in scored[:k]]
