"""In-memory lexical retrieval: BM25 over an inverted index.

Passages are scored with BM25 (k1=1.5, b=0.75, Robertson & Zaragoza 2009)
over the tokens of ``title + " " + text``: the runs of ASCII ``a-z0-9`` in
its ``str.lower()``, every other character separating tokens.

Index layout: ``build`` makes one pass over each passage's tokens and
appends the passage's index to the postings list of each token, so
``term -> [doc index, ...]`` holds one entry per occurrence, in passage
order. It also keeps every passage's token count and the mean count.

Per-term weights are lazy: the first query that uses a term counts its
postings into term frequencies and document frequency, computes its BM25
weight in every passage that holds it, and keeps the weights for later
queries. A query sums the weights of its tokens, in query order and counting
a repeated token again, over only the passages that share a token with it.
Each weight is the same expression, evaluated in the same order, as in a
linear scan that scores every passage (kept as the test oracle in
``tests/bm25_oracle.py``), so every score is the same float, bit for bit.

Ranking: scores are non-increasing and ties break by insertion order, so
equal (index, query, k) always give equal ranked lists. Matched passages
always score above zero, so when fewer than k passages match, the rest of the
list is the unmatched passages in insertion order.

Thread safety: after ``build``, postings and lengths are never written. The
weight memo only grows, through ``dict.setdefault``, which is atomic; two
threads that race on a new term compute equal weights, and both go on with
the one dict that was stored. So threads may share one index.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

BM25_K1 = 1.5
BM25_B = 0.75

# Byte table for ``bytes.translate``: ASCII a-z and 0-9 stay, every other byte
# becomes a space.
_TOKEN_BYTES = bytes(
    byte if (0x61 <= byte <= 0x7A or 0x30 <= byte <= 0x39) else 0x20 for byte in range(256)
)


def tokenize(text: str) -> list[str]:
    """The runs of ASCII ``a-z0-9`` in ``text.lower()``, in order.

    Equal to ``re.findall(r"[a-z0-9]+", text.lower())``: UTF-8 encodes every
    non-ASCII character, a lone surrogate included under ``surrogatepass``,
    as bytes >= 0x80 only, so no such character adds to or joins a token.
    """
    return text.lower().encode("utf-8", "surrogatepass").translate(_TOKEN_BYTES).decode("ascii").split()


@dataclass(frozen=True)
class Passage:
    title: str
    text: str


@dataclass
class RetrieverIndex:
    passages: list[Passage]
    _postings: dict[str, list[int]] = field(default_factory=dict, repr=False)
    _doc_lens: list[int] = field(default_factory=list, repr=False)
    _avg_len: float = 0.0
    _weights: dict[str, dict[int, float]] = field(default_factory=dict, repr=False)

    def __deepcopy__(self, memo):  # programs share one index; after build only the memo grows
        return self

    @classmethod
    def build(cls, passages: Iterable[Passage]) -> "RetrieverIndex":
        passages = list(passages)
        titles = [p.title for p in passages]
        if len(set(titles)) != len(titles):
            dupe = next(t for t in titles if titles.count(t) > 1)
            raise ValueError(f"duplicate passage title {dupe!r}")
        index = cls(passages=passages)
        postings = index._postings
        for doc, passage in enumerate(passages):
            tokens = tokenize(passage.title + " " + passage.text)
            index._doc_lens.append(len(tokens))
            for term in tokens:
                docs = postings.get(term)
                if docs is None:
                    postings[term] = [doc]
                else:
                    docs.append(doc)
        index._avg_len = sum(index._doc_lens) / len(passages) if passages else 0.0
        return index

    def __len__(self) -> int:
        return len(self.passages)

    def _term_weights(self, term: str) -> dict[int, float]:
        """BM25 weight of ``term`` in every passage that holds it; {} if none does."""
        weights = self._weights.get(term)
        if weights is not None:
            return weights
        docs = self._postings.get(term)
        if docs is None:
            return {}
        tfs = Counter(docs)
        n_docs = len(self.passages)
        df = len(tfs)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        doc_lens, avg_len = self._doc_lens, self._avg_len
        weights = {
            doc: idf * tf * (BM25_K1 + 1.0)
            / (tf + BM25_K1 * (1.0 - BM25_B + BM25_B * doc_lens[doc] / avg_len))
            for doc, tf in tfs.items()
        }
        return self._weights.setdefault(term, weights)

    def scores(self, query: str) -> dict[int, float]:
        """BM25 score of every passage that shares a token with ``query``;
        every other passage scores 0.0."""
        scores: dict[int, float] = {}
        for term in tokenize(query):
            weights = self._term_weights(term)
            if not scores:
                # every weight is > 0, so 0.0 + weight == weight: a copy sums the same
                scores = dict(weights)
                continue
            for doc, weight in weights.items():
                scores[doc] = scores.get(doc, 0.0) + weight
        return scores

    def score(self, query: str, doc_index: int) -> float:
        return self.scores(query).get(doc_index, 0.0)


def retrieve(index: RetrieverIndex, query: str, k: int) -> list[Passage]:
    """Top-k passages by BM25 score; for an empty or unseen query, the first k
    passages in insertion order (everything scores zero and ties keep order)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not index.passages:
        raise ValueError("retriever index is empty")
    scores = index.scores(query)
    top = [doc for _, doc in heapq.nsmallest(k, [(-s, doc) for doc, s in scores.items()])]
    if len(top) < k:
        unmatched = (doc for doc in range(len(index.passages)) if doc not in scores)
        top += islice(unmatched, k - len(top))
    return [index.passages[doc] for doc in top]


def deduplicate(passages: Sequence[Passage]) -> list[Passage]:
    """Drop exact-text duplicates, keeping first occurrences."""
    seen: set[tuple[str, str]] = set()
    unique = []
    for passage in passages:
        key = (passage.title, passage.text)
        if key not in seen:
            seen.add(key)
            unique.append(passage)
    return unique


# json.loads without its two whitespace scans; shared, as json.loads shares its
# own decoder
_raw_decode = json.JSONDecoder().raw_decode


def load_corpus(path: str | Path) -> list[Passage]:
    """Read one JSON record per line with fields {title, text}; blank lines are
    skipped. A bad record raises ``ValueError`` naming the path and line."""
    passages = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                try:
                    record, end = _raw_decode(line)
                except ValueError:
                    end = -1
                if end != len(line):
                    # invalid, trailing data or a BOM: json.loads raises its own message
                    record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(f"expected a JSON object, got {line[:40]}")
                passages.append(Passage(title=record["title"], text=record["text"]))
            except (ValueError, KeyError) as exc:
                raise ValueError(f"bad corpus record at {path}:{lineno}: {exc}") from exc
    return passages
