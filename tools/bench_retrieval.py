"""Retrieval microbenchmark: ``lmpipe.retrieval`` against the code it replaced.

    python3 tools/bench_retrieval.py            # writes BENCH_retrieval.json

On seeded corpora of 50, 2k, 5k and 20k passages it times, for the oracles kept
in ``tests/bm25_oracle.py`` (before) and ``lmpipe.retrieval`` (after): the
index build (linear scan before, postings index after), tokenizing every
passage (regex before, byte table after) and loading the corpus from a JSONL
file (``json.loads`` per line before, ``raw_decode`` after), each the median
over repetitions; top-3 queries at p50 and p90; and the memory the built
index holds, measured with ``tracemalloc`` in a separate build. The queries
are distinct, so each is one sample of BM25 scoring and ranking (an index
keeps no ranked results; a retried run replays its searches in the engine,
not here). Before and after alternate, run by run and
query by query, so drifts in the host's speed hit both sides alike. Every
query's ranked list is checked against the oracle's. The 20k row's absolute
milliseconds move between runs with the host's load; its
``after_over_before`` ratios, taken within one run, are the figures to
compare.

The index sidecar (``load_index``) is timed beside what every command paid
before it: ``load_build_ms`` is ``load_corpus`` plus ``build``, ``cold_ms`` is
``load_index`` with no sidecar (hash, load, build, hash again and write the
sidecar: what the first command pays) and ``warm_ms`` is ``load_index`` from
the sidecar (what every later command pays), medians over alternating
repetitions. The peak RSS of each is taken in a fresh process that does
nothing else, beside that of a process that only imports lmpipe
(``import_peak_rss_mib``).

Passages are recombined from the bundled vocabulary like the benchmark's
corpora (``perfbench/gen.py``): each chain gives a landmark passage and a
person passage, plus the fixture distractors. Subjects take three stems and
people two middle names, so that 20k passages still get unique titles. The
queries are the titles of 50 seeded chains, landmark and person, as the
multi-hop task's two hops send them. Not part of the tier-1 tests.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import gen  # noqa: E402  (perfbench's workload generator: vocabulary and fixtures)
from bm25_oracle import (  # noqa: E402
    OracleIndex, oracle_load_corpus, oracle_retrieve, oracle_tokenize,
)
from lmpipe.retrieval import (  # noqa: E402
    SIDECAR_SUFFIX, Passage, RetrieverIndex, load_corpus, load_index, retrieve, tokenize,
)

SIZES = (50, 2000, 5000, 20000)
QUERY_CHAINS = 50  # two queries each: 100 samples, 10 beyond the p90
K = 3
SEED = 1


def max_chains(vocab: dict) -> int:
    """Chains with unique subjects and people: (3 stems, kind) and
    (first, 2 middle names from the other firsts, last)."""
    subjects = math.comb(len(vocab["stems"]), 3) * len(vocab["kinds"])
    people = len(vocab["firsts"]) * math.comb(len(vocab["firsts"]) - 1, 2) * len(vocab["lasts"])
    return min(subjects, people)


def make_chains(rng: random.Random, count: int) -> list:
    vocab = gen._vocabulary()
    limit = max_chains(vocab)
    if count > limit:
        raise ValueError(f"the vocabulary gives at most {limit} chains, not {count}")
    chains, subjects, people = [], set(), set()
    while len(chains) < count:
        stems = rng.sample(vocab["stems"], 3)
        kind = rng.choice(vocab["kinds"])
        first, *middles = rng.sample(vocab["firsts"], 3)
        last = rng.choice(vocab["lasts"])
        subject_key = (frozenset(stems), kind)
        person_key = (first, frozenset(middles), last)
        if subject_key in subjects or person_key in people:
            continue
        subjects.add(subject_key)
        people.add(person_key)
        role, verb = rng.choice(vocab["deeds"])
        chains.append(gen.mf.Chain(
            kind=kind, subject=f"{' '.join(stems)} {kind.title()}",
            person=f"{first} {' '.join(middles)} {last}",
            city=rng.choice(vocab["cities"]), role=role, verb=verb,
            profession=rng.choice(vocab["professions"]),
        ))
    return chains


def workload(size: int) -> tuple[list[Passage], list[str]]:
    rng = random.Random(f"bench-retrieval:{size}:{SEED}")
    chains = make_chains(rng, (size - len(gen.mf.DISTRACTORS)) // 2)
    passages = [Passage(r["title"], r["text"]) for r in gen.corpus_records(chains)]
    assert len(passages) == size
    queries = [q for c in rng.sample(chains, min(QUERY_CHAINS, len(chains)))
               for q in (c.subject, c.person)]
    if len(set(queries)) != len(queries):  # a repeat would weigh one query twice
        raise AssertionError("the queries are not distinct")
    return passages, queries


def timed_ms(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return (time.perf_counter() - start) * 1000.0, result


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def index_mib(build, passages) -> float:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = build(passages)  # alive while the memory is read
        return (tracemalloc.get_traced_memory()[0] - before) / 2**20
    finally:
        tracemalloc.stop()


def measure(size: int) -> dict:
    passages, queries = workload(size)
    texts = [p.title + " " + p.text for p in passages]
    reps = max(9, 15000 // size)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.jsonl"
        with open(corpus, "w", encoding="utf-8") as handle:
            for p in passages:
                handle.write(json.dumps({"title": p.title, "text": p.text}) + "\n")
        if load_corpus(corpus) != passages or oracle_load_corpus(corpus) != passages:
            raise AssertionError("the corpus file does not load back as written")
        sides = {
            "build_ms": (lambda: OracleIndex.build(passages), lambda: RetrieverIndex.build(passages)),
            "tokenize_ms": (lambda: [oracle_tokenize(t) for t in texts], lambda: [tokenize(t) for t in texts]),
            "load_ms": (lambda: oracle_load_corpus(corpus), lambda: load_corpus(corpus)),
        }
        times = {key: {"before": [], "after": []} for key in sides}
        for _ in range(reps):
            for key, (before, after) in sides.items():
                times[key]["before"].append(timed_ms(before)[0])
                times[key]["after"].append(timed_ms(after)[0])
        sidecar = measure_sidecar(corpus, passages, reps)

    oracle = OracleIndex.build(passages)
    index = RetrieverIndex.build(passages)
    query_ms = {"before": [], "after": []}
    for query in queries:
        ms_before, expected = timed_ms(oracle_retrieve, oracle, query, K)
        ms_after, got = timed_ms(retrieve, index, query, K)
        if got != expected:
            raise AssertionError(f"ranking differs from the oracle for {query!r}")
        query_ms["before"].append(ms_before)
        query_ms["after"].append(ms_after)

    def row(side: str) -> dict:
        return {
            **{key: round(statistics.median(times[key][side]), 3) for key in times},
            "query_ms_p50": round(percentile(query_ms[side], 0.5), 4),
            "query_ms_p90": round(percentile(query_ms[side], 0.9), 4),
        }

    before, after = row("before"), row("after")
    before["index_mib"] = round(index_mib(OracleIndex.build, passages), 3)
    after["index_mib"] = round(index_mib(RetrieverIndex.build, passages), 3)
    return {
        "passages": size, "queries": len(queries), "reps": reps,
        "before": before, "after": after, "sidecar": sidecar,
        "after_over_before": {
            key: round(after[key] / before[key], 3)
            for key in ("build_ms", "tokenize_ms", "load_ms", "query_ms_p50", "query_ms_p90", "index_mib")
        },
    }


SIDECAR_MODES = {
    "import": lambda corpus: None,
    "load_build": lambda corpus: RetrieverIndex.build(load_corpus(corpus)),
    "cold": load_index,  # peak_rss_mib deletes the sidecar first
    "warm": load_index,
}


def own_peak_rss_mib() -> float:
    """This process's peak RSS. On Linux ``ru_maxrss`` carries over the
    parent's peak through fork and exec, so read VmHWM, which does not."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def peak_rss_mib(mode: str, corpus: Path) -> float:
    """Peak RSS of a fresh process that imports lmpipe and runs ``mode`` once."""
    sidecar = corpus.with_name(corpus.name + SIDECAR_SUFFIX)
    if mode == "cold":
        sidecar.unlink(missing_ok=True)
    elif mode == "warm" and not sidecar.exists():
        load_index(corpus)
    out = subprocess.run([sys.executable, __file__, "--peak-rss", mode, str(corpus)],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return float(out.split()[-1])


def measure_sidecar(corpus: Path, passages: list[Passage], reps: int) -> dict:
    sidecar = corpus.with_name(corpus.name + SIDECAR_SUFFIX)
    times = {"load_build_ms": [], "cold_ms": [], "warm_ms": []}
    for _ in range(reps):
        times["load_build_ms"].append(timed_ms(lambda: RetrieverIndex.build(load_corpus(corpus)))[0])
        sidecar.unlink(missing_ok=True)
        times["cold_ms"].append(timed_ms(load_index, corpus)[0])
        ms, index = timed_ms(load_index, corpus)
        times["warm_ms"].append(ms)
    built = RetrieverIndex.build(passages)
    fields = ("passages", "_spans", "_docs", "_weights")
    if any(getattr(index, name) != getattr(built, name) for name in fields):
        raise AssertionError("the sidecar does not load back as the built index")
    row = {key: round(statistics.median(values), 3) for key, values in times.items()}
    row["cold_over_load_build"] = round(row["cold_ms"] / row["load_build_ms"], 3)
    row["warm_over_load_build"] = round(row["warm_ms"] / row["load_build_ms"], 3)
    row["sidecar_mib"] = round(sidecar.stat().st_size / 2**20, 3)
    for mode in SIDECAR_MODES:
        row[f"{mode}_peak_rss_mib"] = round(peak_rss_mib(mode, corpus), 2)
    return row


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> None:
    report = {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "k": K,
        "seed": SEED,
        "sizes": [measure(size) for size in SIZES],
    }
    out = ROOT / "BENCH_retrieval.json"
    if out.exists():  # end-to-end pairs recorded beside this tool's rows
        kept = json.loads(out.read_text(encoding="utf-8")).get("perfbench")
        if kept is not None:
            report["perfbench"] = kept
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--peak-rss"]:
        SIDECAR_MODES[sys.argv[2]](Path(sys.argv[3]))
        print(own_peak_rss_mib())
    else:
        main()
