"""The BM25 postings index against the linear-scan oracle it replaced.

Rankings must be equal, ties included, and every score the same float.
"""

from __future__ import annotations

import sys
import threading

from hypothesis import given, settings, strategies as st

from bm25_oracle import OracleIndex, oracle_retrieve
from lmpipe.cli import bundled_data_path
from lmpipe.retrieval import Passage, RetrieverIndex, load_corpus, retrieve

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
