"""In-memory lexical retrieval: BM25 over an inverted index.

Passages are scored with BM25 (k1=1.5, b=0.75, Robertson & Zaragoza 2009)
over the tokens of ``title + " " + text``: the runs of ASCII ``a-z0-9`` in
its ``str.lower()``, every other character separating tokens.

Index layout: ``build`` computes every BM25 weight once. Each term maps to
a ``(start, end)`` span of two flat arrays: ``_docs`` (``array('I')``, the
passages that hold the term, ascending) and ``_weights`` (``array('d')``,
the term's weight in each of them). Each weight is the same expression,
evaluated in the same order, as in a linear scan that scores every passage
(kept as the test oracle in ``tests/bm25_oracle.py``); only each passage's
length norm, which does not depend on the term, is computed once. A query
sums the weights of its tokens, in query order and counting a repeated token
again, over only the passages that share a token with it, so every score is
the same float as the oracle's, bit for bit.

Persistence: ``load_index`` keeps a built index in a sidecar file next to a
corpus file (``<corpus>.bm25idx``) and loads it on later calls instead of
re-reading and re-tokenizing the corpus. The sidecar is keyed by the
corpus's sha256, the tokenizer version, the format version and the byte
order; any mismatch, or a sidecar whose sizes, passage offsets or doc-id
checksum (CRC-32) do not check out, means a rebuild and a rewrite. It
stores the index's arrays as
raw bytes and every passage in one UTF-8 block, so a load reads them into
arrays sized in advance and decodes the block with one call, and builds
nothing per passage: ``Passages`` slices a passage out of the block when it
is read. The loaded index has the same passages, spans, doc ids and weights
as a build, so it scores and ranks the same.

Ranking: scores are non-increasing and ties break by insertion order, so
equal (index, query, k) always give equal ranked lists. When more than k
passages match, ``heapq.nlargest`` finds the k-th best score, the cut; only
the passages that score at least the cut are sorted, by score and then by
insertion order, and the first k kept. Every passage that ties at the cut is
among those sorted, so ties at the cut still break by insertion order.
Matched passages always score above zero, so when fewer than k passages
match, the rest of the list is the unmatched passages in insertion order.

Thread safety: an index never changes after ``build`` or a load, so threads
share one without a lock. A retried run's earlier searches are replayed by
the engine (``ExecutionContext.retrieve``), not remembered by the index.
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
import zlib
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple

from .core import STR, read_jsonl

BM25_K1 = 1.5
BM25_B = 0.75

# Sidecar key parts. Bump TOKENIZER_VERSION whenever ``tokenize`` could
# return other tokens for some text, and INDEX_FORMAT whenever the sidecar's
# layout changes: either makes every existing sidecar stale.
TOKENIZER_VERSION = 1
INDEX_FORMAT = 4
SIDECAR_SUFFIX = ".bm25idx"
# sidecar bytes per passage offset, and per (term, passage) entry: its doc id
# and its weight
_OFFSET_BYTES = array("I").itemsize
_ENTRY_BYTES = array("I").itemsize + array("d").itemsize
# code points of the block that a sidecar write encodes at a time
_ENCODE_CHUNK = 1 << 16

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


class Passage(NamedTuple):
    title: str
    text: str


class Passages(Sequence):
    """An index's passages, held as one string and one offset array.

    Passage ``i`` is ``Passage(block[ends[2i]:ends[2i+1]],
    block[ends[2i+1]:ends[2i+2]])``: ``ends`` starts at 0 and holds the end
    of every title and text, in code points of ``block``. A passage is
    sliced out of the block when it is read. Equal contents compare equal.
    Immutable; a block of 2**32 code points or more does not fit the offsets
    and raises ``OverflowError``.
    """

    __slots__ = ("_block", "_ends")

    def __init__(self, block: str, ends: array):
        self._block, self._ends = block, ends

    @classmethod
    def of(cls, passages: Iterable[Passage]) -> "Passages":
        fields = list(chain.from_iterable(passages))
        return cls("".join(fields), array("I", accumulate(map(len, fields), initial=0)))

    def __len__(self) -> int:
        return len(self._ends) // 2

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[doc] for doc in range(len(self))[i]]
        n = len(self._ends) // 2
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("passage index out of range")
        start, mid, end = self._ends[2 * i:2 * i + 3]
        return Passage(self._block[start:mid], self._block[mid:end])

    def __eq__(self, other):  # and so unhashable, as a list is
        if not isinstance(other, Passages):
            return NotImplemented
        return self._ends == other._ends and self._block == other._block


@dataclass
class RetrieverIndex:
    passages: Passages
    # term -> (start, end): its slice of _docs and _weights
    _spans: dict[str, tuple[int, int]] = field(repr=False)
    _docs: array = field(repr=False)  # array('I')
    _weights: array = field(repr=False)  # array('d')

    def __deepcopy__(self, memo):  # immutable: program copies share one index
        return self

    @classmethod
    def build(cls, passages: Iterable[Passage]) -> "RetrieverIndex":
        passages = list(passages)
        titles = [p.title for p in passages]
        if len(set(titles)) != len(titles):
            dupe = next(t for t in titles if titles.count(t) > 1)
            raise ValueError(f"duplicate passage title {dupe!r}")
        postings: dict[str, list[int]] = {}  # term -> doc index per occurrence
        doc_lens = []
        for doc, passage in enumerate(passages):
            tokens = tokenize(passage.title + " " + passage.text)
            doc_lens.append(len(tokens))
            for term in tokens:
                docs = postings.get(term)
                if docs is None:
                    postings[term] = [doc]
                else:
                    docs.append(doc)
        n_docs = len(passages)
        avg_len = sum(doc_lens) / n_docs if n_docs else 0.0
        # with no tokens at all there are no terms, and no norm is read
        norms = [BM25_K1 * (1.0 - BM25_B + BM25_B * n / avg_len) for n in doc_lens] if avg_len else []
        spans: dict[str, tuple[int, int]] = {}
        doc_ids, weights = array("I"), array("d")
        k1_plus_1 = BM25_K1 + 1.0
        for term, docs in postings.items():
            tfs = Counter(docs)
            docs.clear()  # counted: free it before the arrays grow
            df = len(tfs)
            idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            start = len(doc_ids)
            doc_ids.extend(tfs)
            weights.extend([idf * tf * k1_plus_1 / (tf + norms[doc]) for doc, tf in tfs.items()])
            spans[term] = (start, len(doc_ids))
        # the block is made last, once the occurrence lists are freed
        return cls(Passages.of(passages), spans, doc_ids, weights)

    def scores(self, query: str) -> dict[int, float]:
        """BM25 score of every passage that shares a token with ``query``;
        every other passage scores 0.0."""
        scores: dict[int, float] = {}
        for term in tokenize(query):
            span = self._spans.get(term)
            if span is None:
                continue
            start, end = span
            weights = zip(self._docs[start:end], self._weights[start:end])
            if not scores:
                # every weight is > 0, so 0.0 + weight == weight: a copy sums the same
                scores = dict(weights)
                continue
            get = scores.get
            for doc, weight in weights:
                scores[doc] = get(doc, 0.0) + weight
        return scores


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
        ranked = [doc for doc, score in scores.items() if score >= cut]
    else:
        ranked = list(scores)
    ranked.sort(key=lambda doc: (-scores[doc], doc))
    del ranked[k:]
    if len(ranked) < k:
        unmatched = (doc for doc in range(len(index.passages)) if doc not in scores)
        ranked += islice(unmatched, k - len(ranked))
    return [index.passages[doc] for doc in ranked]


def deduplicate(passages: Sequence[Passage]) -> list[Passage]:
    """Drop exact-text duplicates, keeping first occurrences."""
    return list(dict.fromkeys(passages))


def load_corpus(path: str | Path) -> list[Passage]:
    """Read one JSON record per line with fields {title, text}; blank lines are
    skipped. A bad record raises ``ValueError`` naming the path and line."""
    return read_jsonl(path, "corpus record", {"title": STR, "text": STR}, Passage)


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

    Layout: a line of JSON, ``{"key", "passages", "block_bytes", "terms":
    {term: document frequency}, "docs_crc32"}``, the last the CRC-32 of the
    doc-id bytes; the passages' offsets (``Passages``'s
    ``ends``, ``2 * passages + 1`` of them) as raw ``array('I')`` bytes; the
    passages' block, ``block_bytes`` of UTF-8 (``surrogatepass``); then every
    term's doc ids, in header order, as raw ``array('I')`` bytes, and after
    them every term's weights, in the same order, as raw ``array('d')`` bytes.
    """
    try:
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            if not isinstance(header, dict) or header.get("key") != key:
                return None
            n_docs, n_bytes, counts = header["passages"], header["block_bytes"], header["terms"]
            crc = header["docs_crc32"]
            if not all(type(size) is int and size >= 0 for size in (n_docs, n_bytes)):
                return None
            if not all(type(count) is int and count > 0 for count in counts.values()):
                return None
            # every size is checked against the bytes left before anything is read
            n_ends, total = 2 * n_docs + 1, sum(counts.values())
            left = os.fstat(handle.fileno()).st_size - handle.tell()
            if left != _OFFSET_BYTES * n_ends + n_bytes + _ENTRY_BYTES * total:
                return None
            ends = _read_array(handle, "I", n_ends)
            block = handle.read(n_bytes).decode("utf-8", "surrogatepass")
            docs = _read_array(handle, "I", total)
            weights = _read_array(handle, "d", total)
    except (OSError, EOFError, ValueError, TypeError, KeyError, AttributeError, RecursionError):
        return None
    bounds = ends.tolist()
    if bounds[0] != 0 or bounds[-1] != len(block) or bounds != sorted(bounds):
        return None
    if zlib.crc32(docs) != crc:  # a damaged doc id would drop or misplace a passage
        return None
    spans, end = {}, 0
    for term, count in counts.items():
        spans[term] = (end, end + count)
        end += count
    return RetrieverIndex(Passages(block, ends), spans, docs, weights)


def _read_array(handle: BinaryIO, typecode: str, count: int) -> array:
    """``count`` items read straight into an array made at full size."""
    items = array(typecode, [0]) * count
    if handle.readinto(items) != items.itemsize * count:
        raise EOFError
    return items


def _utf8_chunks(text: str) -> Iterator[bytes]:
    """``text.encode("utf-8", "surrogatepass")`` in pieces of at most
    ``_ENCODE_CHUNK`` code points. UTF-8 encodes each code point alone, a
    lone surrogate too, so the pieces join to the whole encoding."""
    for start in range(0, len(text), _ENCODE_CHUNK):
        yield text[start:start + _ENCODE_CHUNK].encode("utf-8", "surrogatepass")


def _write_sidecar(path: Path, key: dict, index: RetrieverIndex, corpus_path: Path) -> None:
    """The block is encoded a chunk at a time, so the write never holds a
    second copy of the passages' text."""
    passages = index.passages
    block = passages._block
    header = {
        "key": key,
        "passages": len(passages),
        # an ASCII block is one byte per code point; any other is counted
        "block_bytes": len(block) if block.isascii() else sum(map(len, _utf8_chunks(block))),
        "terms": {term: end - start for term, (start, end) in index._spans.items()},
        "docs_crc32": zlib.crc32(index._docs),
    }
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
        with os.fdopen(fd, "wb") as handle:
            handle.write(json.dumps(header).encode("ascii") + b"\n")
            passages._ends.tofile(handle)
            handle.writelines(_utf8_chunks(block))
            index._docs.tofile(handle)
            index._weights.tofile(handle)
        shutil.copymode(corpus_path, tmp)  # readable by exactly who can read the corpus
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
