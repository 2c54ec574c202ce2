"""The retrieval code that ``lmpipe.retrieval`` replaced, kept as oracles:
the postings index must rank and score exactly as the linear-scan scorer
does, ``tokenize`` must split text exactly as the regex did, and
``load_corpus`` must return and raise exactly what the ``json.loads`` loader
did.

``score`` counts every query token in the passage's token list, and
``retrieve`` scores every passage and sorts them all. All of it is the
original code, unchanged apart from the names, and none of it calls the code
under test.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from lmpipe.retrieval import BM25_B, BM25_K1, Passage

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def oracle_tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def oracle_load_corpus(path: str | Path) -> list[Passage]:
    """Read one JSON record per line with the fields {title, text} and no
    others, both strings. A line that is not an object raises ``TypeError``."""
    passages = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise TypeError(f"not an object: {line}")
                unknown = sorted(set(record) - {"title", "text"})
                if unknown:
                    raise ValueError(f"unknown key {unknown[0]!r} in corpus record")
                passage = Passage(title=record["title"], text=record["text"])
                for key, value in passage._asdict().items():
                    if not isinstance(value, str):
                        raise ValueError(f"corpus record {key} must be a string, got {value!r}")
                passages.append(passage)
            except KeyError as exc:
                raise ValueError(f"bad corpus record at {path}:{lineno}: missing key {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"bad corpus record at {path}:{lineno}: {exc}") from exc
    return passages


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
            tokens = oracle_tokenize(passage.title + " " + passage.text)
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
        for term in oracle_tokenize(query):
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
