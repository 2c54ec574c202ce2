"""The BM25 postings index, the tokenizer and the corpus loader against the
oracles they replaced.

Rankings must be equal, ties included, and every score the same float;
tokens must be equal on any text; the loader must return the same passages
and raise the same messages.
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bm25_oracle import OracleIndex, oracle_load_corpus, oracle_retrieve, oracle_tokenize
from lmpipe.cli import bundled_data_path
from lmpipe.retrieval import Passage, RetrieverIndex, load_corpus, retrieve, tokenize

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
    for doc in range(len(passages)):
        assert index.score(query, doc) == oracle.score(query, doc)
    for k in ks:
        assert retrieve(index, query, k) == oracle_retrieve(oracle, query, k)


@settings(max_examples=300, deadline=None)
@given(corpora(), queries, st.data())
def test_postings_match_oracle(passages, query, data):
    k = data.draw(st.integers(min_value=1, max_value=len(passages) + 2), label="k")
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
    index = RetrieverIndex.build(passages)  # empty weight memo: threads race to fill it
    n_threads = 8
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
    assert results == [expected] * n_threads


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
    pytest.param('{"title": "A"}\n', 1, "'text'", id="missing-text"),
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


def test_readme_cost_table_matches_bench_json():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    bench = json.loads((ROOT / "BENCH_retrieval.json").read_text(encoding="utf-8"))
    lines = readme[readme.index("| passages "):].splitlines()
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    columns = [name.lower().replace(" ", "_") for name in header[1:]]
    assert all(columns == list(row["after_over_before"]) for row in bench["sizes"])
    table = {}
    for line in lines[2:]:  # after the header and its rule
        if not line.startswith("|"):
            break
        size, *cells = [cell.strip() for cell in line.strip("|").split("|")]
        table[size] = dict(zip(columns, cells))
    assert table == {
        f"{row['passages']:,}": {
            column: f"{row['before'][column]} \u2192 {row['after'][column]}" for column in columns
        }
        for row in bench["sizes"]
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
