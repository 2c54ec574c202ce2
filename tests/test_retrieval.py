"""The BM25 postings index, the tokenizer, the corpus loader and the index
sidecar against the oracles they replaced.

Rankings must be equal, ties included, and every score the same float;
tokens must be equal on any text; the loader must return the same passages
and raise the same messages; an index loaded from its sidecar must be the
index a build gives.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import sys
import os
import threading
import tracemalloc
import zlib
from array import array
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from bm25_oracle import OracleIndex, oracle_load_corpus, oracle_retrieve, oracle_tokenize
from lmpipe import retrieval, tasks
from lmpipe.backend import CachingBackend, ScriptEntry, ScriptedBackend
from lmpipe.cli import assemble_run_config, bundled_data_path, make_program
from lmpipe.core import passages_to_text
from lmpipe.evaluation import run_task_example
from lmpipe.metrics import load_dataset
from lmpipe.retrieval import (
    SIDECAR_SUFFIX, Passage, RetrieverIndex, load_corpus, load_index, retrieve, tokenize,
)
from lmpipe.runtime import BACKTRACK_DEFAULT, RuntimeConfig

ROOT = Path(__file__).resolve().parent.parent

# A few words repeated across passages, so many passages tie on score.
WORDS = ["oak", "river", "stone", "red", "the", "a", "mill"]
UNSEEN = ["zebra", "q9", "unseen"]

word_lists = st.lists(st.sampled_from(WORDS), max_size=8)


@st.composite
def corpora(draw) -> list[Passage]:
    """1-12 passages of repeated words. The stars keep titles unique without
    adding a token, so passages can have equal token lists."""
    texts = draw(st.lists(st.tuples(word_lists, word_lists), min_size=1, max_size=12))
    return [
        Passage(" ".join(title).title() + "*" * i, " ".join(text))
        for i, (title, text) in enumerate(texts)
    ]


queries = st.one_of(
    st.lists(st.sampled_from(WORDS + UNSEEN + ["OAK", "River"]), max_size=6).map(" ".join),
    st.just(""),
    st.just("oak oak river oak"),  # a repeated term counts again
    st.text(alphabet="oak river stone zebra,.! ", max_size=30),
)


def assert_matches_oracle(passages, query, ks):
    index, oracle = RetrieverIndex.build(passages), OracleIndex.build(passages)
    scores = index.scores(query)
    for doc in range(len(passages)):
        assert scores.get(doc, 0.0) == oracle.score(query, doc)
    for k in ks:
        assert retrieve(index, query, k) == oracle_retrieve(oracle, query, k)


# for "oak river", five passages tie at the 3rd best score; "Oak River"
# scores above them and comes between two of them, and "Mill" below them
TIES_AT_THE_CUT = [
    Passage("Red", "stone"), Passage("Oak", "river"), Passage("Oak River", "oak river"),
    Passage("Oak*", "river"), Passage("Mill", "oak the a river stone"),
    Passage("Oak**", "river"), Passage("Oak***", "river"), Passage("Oak****", "river"),
]


@settings(max_examples=300, deadline=None)
@given(corpora(), queries, st.integers(min_value=1, max_value=14))  # up to 2 past 12 passages
@example(TIES_AT_THE_CUT, "oak river", 3)
@example([Passage("", ""), Passage("*", "!")], "oak", 2)  # no tokens at all: mean length 0
def test_postings_match_oracle(passages, query, k):
    assert_matches_oracle(passages, query, [k])


def test_bundled_corpus_titles_match_oracle():
    passages = load_corpus(bundled_data_path("corpus.jsonl"))
    for passage in passages:
        assert_matches_oracle(passages, passage.title, [1, 3, len(passages) + 1])


def test_concurrent_queries_on_fresh_index_match_oracle():
    passages = load_corpus(bundled_data_path("corpus.jsonl"))
    queries = [p.title for p in passages] + [p.text for p in passages[:10]]
    oracle = OracleIndex.build(passages)
    expected = [oracle_retrieve(oracle, q, 3) for q in queries]
    index = RetrieverIndex.build(passages)  # shared by every thread
    n_threads = 8

    def run_threads() -> list:
        start = threading.Barrier(n_threads)
        results: list = [None] * n_threads

        def worker(slot: int) -> None:
            start.wait(timeout=10)
            # each thread walks the queries from a different point
            order = queries[slot:] + queries[:slot]
            got = {q: retrieve(index, q, 3) for q in order}
            results[slot] = [got[q] for q in queries]

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        return results

    assert run_threads() == [expected] * n_threads
    assert run_threads() == [expected] * n_threads  # the queries again, on the same index


def bundled_index() -> RetrieverIndex:
    return RetrieverIndex.build(load_corpus(bundled_data_path("corpus.jsonl")))


def test_retried_run_scores_each_distinct_query_once(monkeypatch):
    # hop 2 first repeats the hop-1 query; the distinctness suggestion sends
    # the run back, and the second pass replays its hop-1 search
    example = load_dataset(bundled_data_path("test.jsonl"))[0]
    subject, person = "Oakhaven Amphitheatre", "Anton Marwick"
    hop2_ctx_line = passages_to_text(retrieve(bundled_index(), subject, 3)).split("\n")[-1]
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match=f"\nPast Query: {subject}", responses=[f"Reasoning: r\nQuery: {person}"]),
        ScriptEntry(match=f"Context: N/A\nQuestion: {example.question}",
                    responses=[f"Reasoning: r\nQuery: {subject}"]),
        ScriptEntry(match=f"{hop2_ctx_line}\nQuestion: {example.question}",
                    responses=[f"Reasoning: r\nQuery: {subject}"]),
        ScriptEntry(match=f"Question: {example.question}",
                    responses=[f"Reasoning: r\nAnswer: {example.answer}"]),
    ]))
    retrieved, scored = Counter(), Counter()
    monkeypatch.setattr(tasks, "retrieve",
                        lambda index, query, k: retrieved.update([query]) or retrieve(index, query, k))
    scores = RetrieverIndex.scores
    monkeypatch.setattr(RetrieverIndex, "scores",
                        lambda self, query: scored.update([query]) or scores(self, query))
    result = run_task_example(tasks.MultiHopQA(bundled_index()), example,
                              RuntimeConfig(handler_policy=BACKTRACK_DEFAULT), backend)
    assert [o.disposition for o in result.constraints if o.site == 3] == ["retried", "passed"]
    assert retrieved == {subject: 1, person: 1}  # pass 2 replays hop 1, then searches hop 2
    assert scored == {subject: 1, person: 1}
    assert [(r.query, r.titles) for r in result.retrievals] == [
        (q, [p.title for p in retrieve(bundled_index(), q, 3)]) for q in (subject, person)
    ]


# Characters whose lowercase or UTF-8 form could trip a byte-level tokenizer:
# U+0130 lowers to "i" plus a combining dot, the Kelvin sign lowers to ASCII
# "k", and a lone surrogate has no strict UTF-8 form.
TRICKY = ["\u0130", "\u212a", "\x00", "\r", "\n", "\t", "\ud800", "\udfff", "\xdf", "\u00a0", "\x7f"]

any_text = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=()),  # every code point, surrogates included
        st.sampled_from(TRICKY + list("aZ9 _-")),
    )
)


@settings(max_examples=300, deadline=None)
@given(any_text)
@example("Caf\u00e9 No\u00ebl")
@example("\u0130stanbul \u212aelvin")
@example("a\ud800b\x00c\r\nd\te")
def test_tokenize_matches_regex(text):
    assert tokenize(text) == oracle_tokenize(text)


def test_tokenize_contract_example():
    assert tokenize("Caf\u00e9 No\u00ebl") == ["caf", "no", "l"]


GOOD = '{"title": "A", "text": "x"}'


@pytest.mark.parametrize("body, lineno, message", [
    pytest.param(GOOD + '\n{"title": "B", "text": }\n', 2,
                 "Expecting value: line 1 column 24 (char 23)", id="invalid-json"),
    pytest.param(GOOD + ' {"title": "B", "text": "y"}\n', 1,
                 "Extra data: line 1 column 29 (char 28)", id="two-records-one-line"),
    pytest.param('{"title": "A"}\n', 1, "missing key 'text'", id="missing-text"),
    pytest.param('{"title": 5, "text": "x"}\n', 1, "corpus record title must be a string, got 5",
                 id="title-not-a-string"),
    pytest.param("\ufeff" + GOOD + "\n", 1,
                 "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)", id="bom"),
    pytest.param(GOOD + '\n\n   \t\n{"title": "B", "text": "y"}\n \n{"title": "C", "text": 1,}\n', 6,
                 "Expecting property name enclosed in double quotes: line 1 column 26 (char 25)",
                 id="blank-lines"),
    pytest.param(GOOD + '\r\n{"title": "B", "text": "y"}\r\n\r\n[1, 2\r\n', 4,
                 "Expecting ',' delimiter: line 1 column 6 (char 5)", id="crlf"),
    *(pytest.param(GOOD + "\n" + line + "\n", 2, f"expected a JSON object, got {line}",
                   id=f"non-object-{line}") for line in ["null", "[]", '"s"', "1"]),
])
def test_load_corpus_error_messages(tmp_path, body, lineno, message):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(body.encode("utf-8"))
    with pytest.raises(ValueError) as info:
        load_corpus(path)
    assert str(info.value) == f"bad corpus record at {path}:{lineno}: {message}"


def test_load_corpus_crlf_and_blank_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b'\r\n' + GOOD.encode() + b'\r\n \t\r\n{"title": "B", "text": "y"}\r\n')
    assert load_corpus(path) == [Passage("A", "x"), Passage("B", "y")]


# Corpus lines: valid records, alone or with JSON-like debris around them, and
# valid JSON that is not an object.
record_lines = st.builds(
    lambda title, text: json.dumps({"title": title, "text": text}, ensure_ascii=False),
    st.text(max_size=5), st.text(max_size=5),
)
debris = st.sampled_from(["", " ", "\t", "\ufeff", "\u00a0", "x", "{}", "[]", '"s"', "1", ",", "}", "null"])
non_objects = st.sampled_from(["null", "[]", '"s"', "1"])
corpus_lines = st.one_of(
    record_lines,
    non_objects,
    st.tuples(debris, record_lines, debris).map("".join),
    st.just('{"title": "A"}'),
    st.text(alphabet='{}[]":, \tatitlextn1', max_size=30),
)


def outcome(load, path):
    try:
        return load(path)
    except Exception as exc:  # the kind and text of any error must match too
        return type(exc), str(exc), type(exc.__cause__), str(exc.__cause__)


def first_non_object(path):
    """(line number, stripped line) of the first nonblank line of valid JSON
    that is not an object."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if line and not isinstance(json.loads(line), dict):
                return lineno, line


@settings(max_examples=300, deadline=None)
@given(st.lists(corpus_lines, max_size=6), st.sampled_from(["\n", "\r\n"]))
def test_load_corpus_matches_oracle(tmp_path_factory, lines, newline):
    # the oracle lets a line of JSON that is not an object escape as a bare
    # TypeError; load_corpus reports it as a bad record, like any other
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    path.write_bytes(newline.join(lines).encode("utf-8"))
    expected = outcome(oracle_load_corpus, path)
    if isinstance(expected, tuple) and expected[0] is TypeError:
        lineno, line = first_non_object(path)
        cause = f"expected a JSON object, got {line[:40]}"
        message = f"bad corpus record at {path}:{lineno}: {cause}"
        expected = ValueError, message, ValueError, cause
    assert outcome(load_corpus, path) == expected


def readme_table(header_start: str) -> tuple[list[str], dict[str, dict[str, str]]]:
    """The README table whose header starts ``header_start``: its column
    names as JSON keys, and {passages cell: {column: cell}}."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = readme[readme.index(header_start):].splitlines()
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    columns = [name.lower().replace(" ", "_") for name in header[1:]]
    table = {}
    for line in lines[2:]:  # after the header and its rule
        if not line.startswith("|"):
            break
        size, *cells = [cell.strip() for cell in line.strip("|").split("|")]
        table[size] = dict(zip(columns, cells))
    return columns, table


def bench_sizes() -> list[dict]:
    return json.loads((ROOT / "BENCH_retrieval.json").read_text(encoding="utf-8"))["sizes"]


def test_readme_cost_table_matches_bench_json():
    columns, table = readme_table("| passages | build ms ")
    assert all(columns == list(row["after_over_before"]) for row in bench_sizes())
    assert table == {
        f"{row['passages']:,}": {
            column: f"{row['before'][column]} \u2192 {row['after'][column]}" for column in columns
        }
        for row in bench_sizes()
    }


def test_readme_sidecar_table_matches_bench_json():
    columns, table = readme_table("| passages | load build ms ")
    assert {"cold_ms", "warm_ms", "cold_peak_rss_mib", "warm_peak_rss_mib"} <= set(columns)
    assert table == {
        f"{row['passages']:,}": {column: str(row["sidecar"][column]) for column in columns}
        for row in bench_sizes()
    }


def load_bench_tool():
    spec = importlib.util.spec_from_file_location("bench_retrieval", ROOT / "tools" / "bench_retrieval.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_make_chains_rejects_more_than_the_vocabulary_gives():
    tool = load_bench_tool()
    limit = tool.max_chains(tool.gen._vocabulary())
    with pytest.raises(ValueError, match=f"at most {limit} chains"):
        tool.make_chains(random.Random(0), limit + 1)


# --- the index sidecar --------------------------------------------------------

def write_corpus(path: Path, passages) -> Path:
    path.write_text("".join(json.dumps({"title": p.title, "text": p.text}) + "\n" for p in passages),
                    encoding="utf-8")
    return path


def sidecar_of(corpus: Path) -> Path:
    return corpus.with_name(corpus.name + SIDECAR_SUFFIX)


def counting_build():
    """Wraps ``RetrieverIndex.build`` in a mock that counts its calls."""
    return mock.patch.object(RetrieverIndex, "build", wraps=RetrieverIndex.build)


def index_state(index: RetrieverIndex):
    return index.passages, index._spans, index._docs, index._weights


def through_json(text: str) -> str:
    """``text`` as a corpus file gives it back: JSON joins an escaped
    surrogate pair into one character."""
    return json.loads(json.dumps(text))


@st.composite
def any_text_corpora(draw) -> list[Passage]:
    """1-8 passages of any text, lone surrogates, NUL, newlines and empty
    strings included, with unique titles."""
    fields = st.tuples(any_text.map(through_json), any_text.map(through_json))
    pairs = draw(st.lists(fields, min_size=1, max_size=8, unique_by=lambda pair: pair[0]))
    return [Passage(title, text) for title, text in pairs]


def assert_passages_match_oracle(passages, oracle: OracleIndex) -> None:
    """An index's ``passages`` against the oracle's list, item by item and by
    ``len``, iteration and ``index``."""
    expected = oracle.passages
    assert len(passages) == len(expected)
    assert list(passages) == expected
    assert [passages[i] for i in range(len(expected))] == expected
    assert [passages.index(p) for p in expected] == [expected.index(p) for p in expected]


@settings(max_examples=150, deadline=None)
@given(st.one_of(corpora(), any_text_corpora()), st.lists(queries, min_size=1, max_size=4), st.data())
def test_sidecar_index_matches_build_and_oracle(tmp_path_factory, passages, query_list, data):
    corpus = write_corpus(tmp_path_factory.mktemp("corpus") / "corpus.jsonl", passages)
    with counting_build() as builds:
        first = load_index(corpus)
        loaded = load_index(corpus)
    assert builds.call_count == 1 and sidecar_of(corpus).exists()
    built, oracle = RetrieverIndex.build(passages), OracleIndex.build(passages)
    assert index_state(loaded) == index_state(first) == index_state(built)
    assert_passages_match_oracle(loaded.passages, oracle)
    for query in query_list:
        scores = loaded.scores(query)
        assert scores == built.scores(query)
        for doc in range(len(passages)):
            assert scores.get(doc, 0.0) == oracle.score(query, doc)
        k = data.draw(st.integers(min_value=1, max_value=len(passages) + 2), label="k")
        assert retrieve(loaded, query, k) == retrieve(built, query, k) == oracle_retrieve(oracle, query, k)
    assert loaded == first == built and index_state(loaded) == index_state(built)


ROUND_TRIP = TRICKY + ["Caf\u00e9 No\u00ebl", "line\nbreak", '"quoted" \\ back', "\U0001f600"]


ROUND_TRIP_CORPORA = {
    "any text": [Passage(f"T{i} {text}", f"{text} body {i % 7}") for i, text in enumerate(ROUND_TRIP)],
    "text as title": [Passage(text, f"body {i}") for i, text in enumerate(ROUND_TRIP)],
    "empty fields": [Passage("", "empty title"), Passage("empty text", ""), Passage("\x00", "\x00")],
    "one empty passage": [Passage("", "")],
    # a surrogate pair split between title and text is two characters in the block
    "split surrogate pair": [Passage("\ud800", "\udfff"), Passage("x\udbff", "\udc00y")],
    "empty corpus": [],
}


def test_sidecar_round_trips_any_text(tmp_path):
    for name, passages in ROUND_TRIP_CORPORA.items():
        corpus = write_corpus(tmp_path / f"{name}.jsonl", passages)
        load_index(corpus)
        with counting_build() as builds:
            loaded = load_index(corpus)
        assert builds.call_count == 0, name
        built, oracle = RetrieverIndex.build(passages), OracleIndex.build(passages)
        assert index_state(loaded) == index_state(built), name
        assert_passages_match_oracle(loaded.passages, oracle)
        assert_passages_match_oracle(built.passages, oracle)
        for query in ["body", "caf no l", "empty", ""]:
            for k in (1, 3, len(passages) + 1):
                assert outcome(lambda i: retrieve(i, query, k), loaded) == \
                    outcome(lambda i: oracle_retrieve(i, query, k), oracle), (name, query, k)


def test_sidecar_write_encodes_the_block_a_chunk_at_a_time(tmp_path):
    chunk = retrieval._ENCODE_CHUNK
    # the first chunk ends between the halves of a surrogate pair, the second
    # inside a run of "é€"; the block is several MiB of UTF-8
    text = "a" * (chunk - 1) + "\ud83d\ude00" + "é€" * chunk + "€" * (24 * chunk) + "\udfff oak"
    index = RetrieverIndex.build([Passage("", text), Passage("Elm", "elm \ud800")])
    block = index.passages._block
    assert block[chunk - 1:chunk + 1] == "\ud83d\ude00" and block[2 * chunk - 1:2 * chunk + 1] == "é€"
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("")
    path, key = tmp_path / "corpus.jsonl.bm25idx", {"format": retrieval.INDEX_FORMAT}

    tracemalloc.start()
    try:
        retrieval._write_sidecar(path, key, index, corpus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    encoded = block.encode("utf-8", "surrogatepass")
    assert len(encoded) > 4 << 20
    # a slice of the block and its encoding, each at most 4 bytes a code point
    assert peak < 2 * 4 * chunk + (256 << 10), peak

    header = {
        "key": key, "passages": 2, "block_bytes": len(encoded),
        "terms": {term: end - start for term, (start, end) in index._spans.items()},
        "docs_crc32": zlib.crc32(index._docs),
    }
    assert path.read_bytes() == b"".join([
        json.dumps(header).encode("ascii") + b"\n", index.passages._ends.tobytes(), encoded,
        index._docs.tobytes(), index._weights.tobytes(),
    ])
    assert retrieval._read_sidecar(path, key).passages == index.passages


def test_passages_sequence():
    passages = [Passage("A", "x"), Passage("B", ""), Passage("", "y")]
    seq = RetrieverIndex.build(passages).passages
    assert seq[-1] == passages[-1] and seq[1:] == passages[1:] and seq[::-2] == passages[::-2]
    assert ("B", "") in seq and Passage("B", "x") not in seq and seq.count(passages[0]) == 1
    assert list(reversed(seq)) == passages[::-1]
    with pytest.raises(IndexError):
        seq[3]
    with pytest.raises(IndexError):
        seq[-4]
    assert seq == retrieval.Passages.of(passages) and seq != RetrieverIndex.build(passages[:2]).passages
    assert seq != passages  # a Passages equals only a Passages, as a range equals only a range
    with pytest.raises(AttributeError):
        seq.extra = 1
    with pytest.raises(TypeError):
        hash(seq)


def same_size_edit(corpus: Path, sidecar: Path) -> None:
    body = corpus.read_bytes()
    edited = body.replace(b"viaduct", b"viaduck", 1)
    assert edited != body and len(edited) == len(body)
    corpus.write_bytes(edited)


def truncate(corpus: Path, sidecar: Path) -> None:
    sidecar.write_bytes(sidecar.read_bytes()[:-3])


def append_byte(corpus: Path, sidecar: Path) -> None:
    sidecar.write_bytes(sidecar.read_bytes() + b"\0")


def garbage(corpus: Path, sidecar: Path) -> None:
    sidecar.write_bytes(random.Random(0).randbytes(sidecar.stat().st_size))


def not_an_object(corpus: Path, sidecar: Path) -> None:
    sidecar.write_bytes(b"[1, 2]\n")


def deeply_nested(corpus: Path, sidecar: Path) -> None:
    sidecar.write_bytes(b"[" * 100_000 + b"\n")


def bigger_count(corpus: Path, sidecar: Path) -> None:
    header, rest = sidecar.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    term = next(iter(fields["terms"]))
    fields["terms"][term] += 2**40
    sidecar.write_bytes(json.dumps(fields).encode() + b"\n" + rest)


def fewer_passages(corpus: Path, sidecar: Path) -> None:
    header, rest = sidecar.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    fields["passages"] -= 1
    sidecar.write_bytes(json.dumps(fields).encode() + b"\n" + rest)


def negative_passages(corpus: Path, sidecar: Path) -> None:
    header, rest = sidecar.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    fields["passages"] = -1
    sidecar.write_bytes(json.dumps(fields).encode() + b"\n" + rest)


def zero_term_count(corpus: Path, sidecar: Path) -> None:
    header, rest = sidecar.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    fields["terms"][next(iter(fields["terms"]))] = 0
    sidecar.write_bytes(json.dumps(fields).encode() + b"\n" + rest)


def sidecar_parts(sidecar: Path) -> tuple[dict, array, bytes, bytes]:
    """A format-4 sidecar's header, passage offsets, block, and the doc id and
    weight bytes after them."""
    line, rest = sidecar.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    ends = array("I")
    ends.frombytes(rest[:ends.itemsize * (2 * header["passages"] + 1)])
    rest = rest[ends.itemsize * len(ends):]
    return header, ends, rest[:header["block_bytes"]], rest[header["block_bytes"]:]


def write_sidecar_parts(sidecar: Path, header: dict, ends: array, block: bytes, rest: bytes) -> None:
    sidecar.write_bytes(json.dumps(header).encode() + b"\n" + ends.tobytes() + block + rest)


def offsets_out_of_order(corpus: Path, sidecar: Path) -> None:
    header, ends, block, rest = sidecar_parts(sidecar)
    assert ends[1] < ends[2]  # the first title ends before the first text
    ends[1], ends[2] = ends[2], ends[1]
    write_sidecar_parts(sidecar, header, ends, block, rest)


def first_offset_not_zero(corpus: Path, sidecar: Path) -> None:
    header, ends, block, rest = sidecar_parts(sidecar)
    ends[0] = 1
    write_sidecar_parts(sidecar, header, ends, block, rest)


def offset_past_the_block(corpus: Path, sidecar: Path) -> None:
    header, ends, block, rest = sidecar_parts(sidecar)
    ends[-1] += 1
    write_sidecar_parts(sidecar, header, ends, block, rest)


def last_offset_short_of_the_block(corpus: Path, sidecar: Path) -> None:
    header, ends, block, rest = sidecar_parts(sidecar)
    ends[-1] -= 1
    write_sidecar_parts(sidecar, header, ends, block, rest)


def block_not_utf8(corpus: Path, sidecar: Path) -> None:
    header, ends, block, rest = sidecar_parts(sidecar)
    write_sidecar_parts(sidecar, header, ends, b"\xff" + block[1:], rest)


def block_bytes_disagree(corpus: Path, sidecar: Path) -> None:
    header, ends, block, rest = sidecar_parts(sidecar)
    header["block_bytes"] += 1
    write_sidecar_parts(sidecar, header, ends, block, rest)


STALE = [same_size_edit, truncate, append_byte, garbage, not_an_object, deeply_nested,
         bigger_count, fewer_passages, offsets_out_of_order, first_offset_not_zero,
         offset_past_the_block, last_offset_short_of_the_block, block_not_utf8, block_bytes_disagree,
         negative_passages, zero_term_count]


@pytest.fixture()
def corpus(tmp_path) -> Path:
    return write_corpus(tmp_path / "corpus.jsonl", load_corpus(bundled_data_path("corpus.jsonl")))


@pytest.mark.parametrize("damage", STALE, ids=[f.__name__ for f in STALE])
def test_stale_or_damaged_sidecar_is_rebuilt_and_rewritten(corpus, damage):
    load_index(corpus)
    damage(corpus, sidecar_of(corpus))
    expected = index_state(RetrieverIndex.build(load_corpus(corpus)))
    with counting_build() as builds:
        assert index_state(load_index(corpus)) == expected
        assert builds.call_count == 1
        assert index_state(load_index(corpus)) == expected  # from the rewritten sidecar
        assert builds.call_count == 1


# the passages per JSON line in a format-1 or format-2 sidecar
PASSAGES_PER_LINE = 512


def legacy_key(corpus: Path, index_format: int) -> dict:
    return {"format": index_format, "tokenizer": retrieval.TOKENIZER_VERSION,
            "byteorder": sys.byteorder, "sha256": hashlib.sha256(corpus.read_bytes()).hexdigest()}


def write_passage_lines(handle, passages) -> None:
    """The passages as formats 1 and 2 kept them: JSON lines of up to
    ``PASSAGES_PER_LINE`` passages, each ``[title, text, title, text, ...]``."""
    for start in range(0, len(passages), PASSAGES_PER_LINE):
        chunk = passages[start:start + PASSAGES_PER_LINE]
        handle.write(json.dumps([field for p in chunk for field in p]).encode("ascii") + b"\n")


def write_format_1_sidecar(corpus: Path) -> None:
    """The sidecar as format 1 laid it out: the passage lines, then doc lengths
    and each term's postings (one doc index per occurrence) as ``array('I')``."""
    passages = load_corpus(corpus)
    doc_lens, postings = array("I"), {}
    for doc, passage in enumerate(passages):
        tokens = tokenize(passage.title + " " + passage.text)
        doc_lens.append(len(tokens))
        for term in tokens:
            postings.setdefault(term, array("I")).append(doc)
    header = {"key": legacy_key(corpus, 1), "passages": len(passages),
              "terms": {term: len(docs) for term, docs in postings.items()}}
    with open(sidecar_of(corpus), "wb") as handle:
        handle.write(json.dumps(header).encode("ascii") + b"\n")
        write_passage_lines(handle, passages)
        doc_lens.tofile(handle)
        for docs in postings.values():
            docs.tofile(handle)


def write_format_2_sidecar(corpus: Path) -> None:
    """The sidecar as format 2 laid it out: the passage lines, then every
    term's doc ids and after them every term's weights."""
    passages = load_corpus(corpus)
    index = RetrieverIndex.build(passages)
    header = {"key": legacy_key(corpus, 2), "passages": len(passages),
              "terms": {term: end - start for term, (start, end) in index._spans.items()}}
    with open(sidecar_of(corpus), "wb") as handle:
        handle.write(json.dumps(header).encode("ascii") + b"\n")
        write_passage_lines(handle, passages)
        index._docs.tofile(handle)
        index._weights.tofile(handle)


def write_format_3_sidecar(corpus: Path) -> None:
    """The sidecar as format 3 laid it out: format 4's, without the doc-id
    checksum."""
    load_index(corpus)
    header, ends, block, rest = sidecar_parts(sidecar_of(corpus))
    del header["docs_crc32"]
    header["key"] = legacy_key(corpus, 3)
    write_sidecar_parts(sidecar_of(corpus), header, ends, block, rest)


def test_format_1_2_and_3_sidecars_are_rebuilt_as_format_4(corpus):
    oracle = OracleIndex.build(load_corpus(corpus))
    for write_legacy in (write_format_1_sidecar, write_format_2_sidecar, write_format_3_sidecar):
        write_legacy(corpus)
        with counting_build() as builds:
            index = load_index(corpus)
            assert builds.call_count == 1
            assert index_state(load_index(corpus)) == index_state(index)  # from the rewritten sidecar
            assert builds.call_count == 1
        header = json.loads(sidecar_of(corpus).read_bytes().split(b"\n", 1)[0])
        assert header["key"]["format"] == 4
        for passage in index.passages:
            assert retrieve(index, passage.title, 3) == oracle_retrieve(oracle, passage.title, 3)


def test_sidecar_with_a_doc_id_out_of_range_is_rebuilt(tmp_path):
    # one doc id of "oak" rewritten to 99 in a 4-passage index keeps every size
    # and offset check, and "oak" would rank without the passage it replaced
    passages = [Passage("T0", "oak"), Passage("T1", "oak river"), Passage("T2", "mill"),
                Passage("T3", "oak oak stone")]
    corpus = write_corpus(tmp_path / "corpus.jsonl", passages)
    load_index(corpus)
    header, ends, block, rest = sidecar_parts(sidecar_of(corpus))
    start = 0
    for term, count in header["terms"].items():
        if term == "oak":
            break
        start += count
    docs = array("I")
    docs.frombytes(rest[:docs.itemsize * sum(header["terms"].values())])
    assert docs[start] == 0  # oak's first passage, T0
    docs[start] = 99
    write_sidecar_parts(sidecar_of(corpus), header, ends, block,
                        docs.tobytes() + rest[len(docs.tobytes()):])
    built = RetrieverIndex.build(passages)
    with counting_build() as builds:
        loaded = load_index(corpus)
        assert builds.call_count == 1
    assert index_state(loaded) == index_state(built)
    assert retrieve(loaded, "oak", 3) == retrieve(built, "oak", 3)
    assert retrieve(loaded, "oak", 3) == oracle_retrieve(OracleIndex.build(passages), "oak", 3)


@pytest.mark.parametrize("constant", ["TOKENIZER_VERSION", "INDEX_FORMAT"])
def test_sidecar_of_another_version_is_rebuilt(corpus, monkeypatch, constant):
    load_index(corpus)
    monkeypatch.setattr(retrieval, constant, getattr(retrieval, constant) + 1)
    with counting_build() as builds:
        load_index(corpus)
        load_index(corpus)
    assert builds.call_count == 1


@pytest.mark.parametrize("target", ["os.replace", "tempfile.mkstemp", "shutil.copymode"])
def test_failed_sidecar_write_falls_back_to_the_built_index(corpus, monkeypatch, target):
    def fail(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(target, fail)
    expected = index_state(RetrieverIndex.build(load_corpus(corpus)))
    assert index_state(load_index(corpus)) == expected
    assert sorted(os.listdir(corpus.parent)) == ["corpus.jsonl"]  # no sidecar, no temp file


def test_corpus_changed_while_read_gets_no_sidecar(corpus, monkeypatch):
    real = retrieval.load_corpus

    def load_then_edit(path):
        passages = real(path)
        same_size_edit(path, sidecar_of(path))
        return passages

    monkeypatch.setattr(retrieval, "load_corpus", load_then_edit)
    load_index(corpus)
    assert not sidecar_of(corpus).exists()


def test_sidecar_keeps_the_corpus_mode(corpus):
    corpus.chmod(0o640)
    load_index(corpus)
    assert sidecar_of(corpus).stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("line", ['{"title": "A", "text": "x"}', '{"title": "B"}'])
def test_bad_corpus_gets_no_sidecar(tmp_path, line):
    # a duplicate title, then a record without text
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"title": "A", "text": "x"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_index(corpus)
    assert not sidecar_of(corpus).exists()


def test_make_program_writes_a_configured_corpus_sidecar_only(corpus, tmp_path):
    data_dir = bundled_data_path("corpus.jsonl").parent
    before = sorted(data_dir.rglob("*"))
    config = assemble_run_config("multihop", "vanilla", str(tmp_path / "out"))
    make_program(config)  # the bundled corpus
    config.corpus_path = corpus
    make_program(config)
    assert sorted(data_dir.rglob("*")) == before
    assert sidecar_of(corpus).exists()
