"""In-memory lexical retrieval: BM25 over an inverted index.

Passages are scored with BM25 (k1=1.5, b=0.75, Robertson & Zaragoza 2009)
over the tokens of ``title + " " + text``: the runs of ASCII ``a-z0-9`` in
its ``str.lower()``, every other character separating tokens.

Index layout: ``build`` makes one pass over each passage's tokens and
appends the passage's index to the postings array of each token, so
``term -> array('I', [doc index, ...])`` holds one entry per occurrence, in
passage order. It also keeps every passage's token count and the mean count.

Persistence: ``load_index`` keeps a built index in a sidecar file next to a
corpus file (``<corpus>.bm25idx``) and loads it on later calls instead of
re-reading and re-tokenizing the corpus. The sidecar is keyed by the
corpus's sha256, the tokenizer version and the format version; any mismatch,
or a sidecar that does not parse, means a rebuild and a rewrite. The loaded
index has the same postings, lengths and passages as a build, so it scores
and ranks the same.

Per-term weights are lazy: the first query that uses a term counts its
postings into term frequencies and document frequency, computes its BM25
weight in every passage that holds it, and keeps the weights for later
queries. A query sums the weights of its tokens, in query order and counting
a repeated token again, over only the passages that share a token with it.
Each weight is the same expression, evaluated in the same order, as in a
linear scan that scores every passage (kept as the test oracle in
``tests/bm25_oracle.py``), so every score is the same float, bit for bit.

Ranking: scores are non-increasing and ties break by insertion order, so
equal (index, query, k) always give equal ranked lists. When more than k
passages match, ``heapq.nlargest`` finds the k-th best score, the cut; only
the passages that score at least the cut are sorted, by score and then by
insertion order, and the first k kept. Every passage that ties at the cut is
among those sorted, so ties at the cut still break by insertion order.
Matched passages always score above zero, so when fewer than k passages
match, the rest of the list is the unmatched passages in insertion order.

Thread safety: after ``build`` or a load, postings and lengths are never
written. The weight memo only grows, through ``dict.setdefault``, which is
atomic; two threads that race on a new term compute equal weights, and both
go on with the one dict that was stored. So threads may share one index.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import json
import math
import os
import shutil
import sys
import tempfile
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

BM25_K1 = 1.5
BM25_B = 0.75

# Sidecar key parts. Bump TOKENIZER_VERSION whenever ``tokenize`` could
# return other tokens for some text, and INDEX_FORMAT whenever the sidecar's
# layout changes: either makes every existing sidecar stale.
TOKENIZER_VERSION = 1
INDEX_FORMAT = 1
SIDECAR_SUFFIX = ".bm25idx"
_PASSAGES_PER_LINE = 512

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
    _postings: dict[str, array] = field(default_factory=dict, repr=False)
    _doc_lens: array = field(default_factory=lambda: array("I"), repr=False)
    _avg_len: float = 0.0
    # every doc index boxed once, to key the weight memos: keys boxed from the
    # postings arrays would each be a new int object, held as long as the memo
    _doc_ids: list[int] = field(default_factory=list, repr=False)
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
                    postings[term] = array("I", (doc,))
                else:
                    docs.append(doc)
        index._finish()
        return index

    def _finish(self) -> None:
        """Set what follows from the passages and doc lengths."""
        self._avg_len = sum(self._doc_lens) / len(self.passages) if self.passages else 0.0
        self._doc_ids = list(range(len(self.passages)))

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
        doc_ids, doc_lens, avg_len = self._doc_ids, self._doc_lens, self._avg_len
        weights = {
            doc_ids[doc]: idf * tf * (BM25_K1 + 1.0)
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
    if len(scores) > k:
        # only a passage that scores at least the k-th best score can rank
        cut = heapq.nlargest(k, scores.values())[-1]
        top = [doc for doc, score in scores.items() if score >= cut]
    else:
        top = list(scores)
    top.sort(key=lambda doc: (-scores[doc], doc))
    del top[k:]
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


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def load_index(corpus_path: str | Path) -> RetrieverIndex:
    """The index of the JSONL corpus at ``corpus_path``.

    Loaded from the sidecar ``<corpus_path>.bm25idx`` when its key matches
    the corpus; otherwise built from the corpus, and the sidecar written
    (only after a successful build, so a bad corpus never gets one). The
    sidecar is written to a temp file in the same directory and moved into
    place, so a reader sees the old file or the new one, never part of one;
    if it cannot be written the built index is returned all the same.
    """
    corpus_path = Path(corpus_path)
    sidecar = corpus_path.with_name(corpus_path.name + SIDECAR_SUFFIX)
    key = {"format": INDEX_FORMAT, "tokenizer": TOKENIZER_VERSION,
           "byteorder": sys.byteorder, "sha256": _sha256(corpus_path)}
    index = _read_sidecar(sidecar, key)
    if index is None:
        index = RetrieverIndex.build(load_corpus(corpus_path))
        if _sha256(corpus_path) == key["sha256"]:  # unchanged while it was read
            _write_sidecar(sidecar, key, index, corpus_path)
    return index


def _read_sidecar(path: Path, key: dict) -> RetrieverIndex | None:
    """The index a sidecar holds, or None if it is missing, stale or malformed.

    Layout: a line of JSON, ``{"key", "passages", "terms": {term: postings
    count}}``; the passages, as lines of JSON that each hold up to
    ``_PASSAGES_PER_LINE`` of them as ``[title, text, title, text, ...]``, so
    that no line costs memory in proportion to the corpus; then the doc
    lengths and each term's postings, in header order, as raw ``array('I')``
    bytes.
    """
    try:
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            if not isinstance(header, dict) or header.get("key") != key:
                return None
            n_docs, counts = header["passages"], header["terms"]
            passages: list[Passage] = []
            while len(passages) < n_docs:
                fields = iter(json.loads(handle.readline()))
                passages += map(Passage, fields, fields)
            if len(passages) != n_docs:
                return None
            if not all(type(count) is int and count > 0 for count in counts.values()):
                return None
            # every count is checked against the bytes left before any is read
            left = os.fstat(handle.fileno()).st_size - handle.tell()
            if left != array("I").itemsize * (n_docs + sum(counts.values())):
                return None
            index = RetrieverIndex(passages=passages)
            index._doc_lens.fromfile(handle, n_docs)
            for term, count in counts.items():
                docs = index._postings[term] = array("I")
                docs.fromfile(handle, count)
    except (OSError, EOFError, ValueError, TypeError, KeyError, AttributeError, RecursionError):
        return None
    index._finish()
    return index


def _write_sidecar(path: Path, key: dict, index: RetrieverIndex, corpus_path: Path) -> None:
    passages = index.passages
    header = {
        "key": key,
        "passages": len(passages),
        "terms": {term: len(docs) for term, docs in index._postings.items()},
    }
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
        with os.fdopen(fd, "wb") as handle:
            handle.write(json.dumps(header).encode("ascii") + b"\n")
            for start in range(0, len(passages), _PASSAGES_PER_LINE):
                chunk = passages[start:start + _PASSAGES_PER_LINE]
                fields = [field for p in chunk for field in (p.title, p.text)]
                handle.write(json.dumps(fields).encode("ascii") + b"\n")
            index._doc_lens.tofile(handle)
            for docs in index._postings.values():
                docs.tofile(handle)
        shutil.copymode(corpus_path, tmp)  # readable by exactly who can read the corpus
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
