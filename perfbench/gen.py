"""Seeded workload generator for the lmpipe benchmark.

From a workload name and a seed this writes everything one benchmark run
feeds the program: the corpus, the per-task train/dev/test sets, the per-task
LM scripts and the per-task expected results. The same (workload, seed) gives
byte-identical files.

Chains (a landmark, the person behind it, that person's birth city) and the
per-call prompt matchers come from ``tools/make_fixtures.py``, which is
imported, not copied. The names are recombined from the bundled vocabulary so
that a corpus of any size has unique titles.

A seeded, fixed share of examples gets a retry-inducing first completion: its
first answer breaks one suggestion, and the fix arrives on the first or the
second retry. Every example still ends with every suggestion passed, so the
expected report rows are known exactly: every metric column is 1.0.

``self_check`` runs each task once offline, through the CLI with the scripted
backend, and proves that every prompt the workload sends is scripted and that
the reports equal the expected ones. For compile workloads it keeps the
offline artifacts as the reference the live compiles must reproduce byte for
byte.
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_fixtures():
    path = ROOT / "tools" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve through sys.modules
    spec.loader.exec_module(module)  # also puts src/ on sys.path
    return module


mf = _import_fixtures()

from lmpipe.retrieval import Passage, RetrieverIndex  # noqa: E402

# Share of a task's examples whose first completion breaks a suggestion and is
# fixed on the first retry, and on the second retry. These shares are
# assumptions, not measurements: the source paper's abstract gives no
# per-example retry rates. They make retries a large part of every pass (3 in
# 8 examples retry) and cover both depths the default budget of 2 retries
# allows, so second-retry prompts and two-deep journal replay are exercised.
# The counts are exact, so LM calls per example do not move with the seed.
RETRY_ONCE_SHARE = 0.25
RETRY_TWICE_SHARE = 0.125

WORKLOADS = {
    # 4 tasks x 16 test examples over a 50-passage corpus, 2 clients, live stub
    "eval-live": {
        "command": "eval", "strategy": "infer_assert", "live": True, "workers": 2,
        "tasks": ["multihop", "longform", "quiz", "tweet"],
        "chains": 20, "test": 16,
    },
    # teacher-asserted compile of 2 tasks, 8 train / 6 dev, 1 client, live stub.
    # Compile shuffles the train set with a fixed seed, so the retry layout is
    # fixed too, and LM calls per compile do not move with the seed. It has
    # the same shares as RETRY_ONCE_SHARE and RETRY_TWICE_SHARE. The
    # winning candidate harvests train examples 4 and 1, so its artifact
    # carries counterexamples.
    "compile-live": {
        "command": "compile", "strategy": "compile_infer_assert", "live": True, "workers": 1,
        "tasks": ["multihop", "tweet"],
        "chains": 20, "train": 8, "dev": 6, "train_retries": [0, 1, 0, 0, 2, 1, 0, 0],
    },
    # 3 retrieval tasks x 24 test examples over a 5000-passage corpus,
    # offline. Example latency falls into groups by the retries an example
    # makes. With 24 per task the p90 lies well inside the group of examples
    # that retry once, away from the gap below the group that retries twice,
    # so run-to-run noise cannot move it across that gap.
    "eval-bigcorpus": {
        "command": "eval", "strategy": "infer_assert", "live": False, "workers": 1,
        "tasks": ["multihop", "longform", "tweet"],
        "chains": 2495, "test": 24,
    },
}

# Expected report columns per task; a correct run scores 1.0 in every one.
EXPECTED_COLUMNS = {
    "multihop": ["suggestions_passed", "answer_em", "retrieval_recall"],
    "longform": [
        "suggestions_passed", "citation_faithfulness", "citation_precision",
        "citation_recall", "has_answer",
    ],
    "quiz": ["suggestions_passed", "format", "has_answer", "plausible", "validity"],
    "tweet": [
        "suggestions_passed", "no_hashtags", "within_limit", "has_answer",
        "engaging", "faithful", "quality",
    ],
}
EXPECTED_FLAGS = {"longform": ["has_answer_definition_inferred"]}


# --- vocabulary ------------------------------------------------------------

def _vocabulary() -> dict:
    chains = mf.CHAINS
    return {
        "stems": [c.subject.split()[0] for c in chains],
        # one-word kinds only: every subject query is three tokens, so the
        # cost of a BM25 query does not move with the seed
        "kinds": [c.kind for c in chains if " " not in c.kind],
        "firsts": [c.person.split()[0] for c in chains],
        "lasts": [c.person.split()[-1] for c in chains],
        "cities": [c.city for c in chains],
        "deeds": sorted({(c.role, c.verb) for c in chains}),
        "professions": sorted({c.profession for c in chains}),
    }


def make_chains(rng: random.Random, count: int) -> list:
    """``count`` chains with unique subjects and people.

    Subjects are two stems plus a kind, people are first, middle and last
    name: three tokens each. No two share a token set, so BM25 can tell any
    two apart.
    """
    vocab = _vocabulary()
    chains, subjects, people = [], set(), set()
    while len(chains) < count:
        a, b = rng.sample(vocab["stems"], 2)
        kind = rng.choice(vocab["kinds"])
        first, middle = rng.sample(vocab["firsts"], 2)
        last = rng.choice(vocab["lasts"])
        subject_key = (frozenset((a, b)), kind)
        person_key = (frozenset((first, middle)), last)
        if subject_key in subjects or person_key in people:
            continue
        subjects.add(subject_key)
        people.add(person_key)
        role, verb = rng.choice(vocab["deeds"])
        chains.append(mf.Chain(
            kind=kind, subject=f"{a} {b} {kind.title()}", person=f"{first} {middle} {last}",
            city=rng.choice(vocab["cities"]), role=role, verb=verb,
            profession=rng.choice(vocab["professions"]),
        ))
    return chains


def corpus_records(chains: list) -> list[dict]:
    records = [{"title": c.subject, "text": c.subject_text} for c in chains]
    records += [{"title": c.person, "text": c.person_text} for c in chains]
    records += [{"title": t, "text": x} for t, x in mf.DISTRACTORS]
    return records


class CachedMatchers(mf.Matchers):
    """The fixture matchers, with each retrieval made once per chain."""

    def __init__(self, index):
        super().__init__(index)
        self._hop1: dict = {}
        self._full: dict = {}

    def hop1_passages(self, chain, query=None):
        key = (chain, query)
        if key not in self._hop1:
            self._hop1[key] = super().hop1_passages(chain, query)
        return self._hop1[key]

    def full_context(self, chain, hop1_query=None, dedupe=False):
        key = (chain, hop1_query, dedupe)
        if key not in self._full:
            self._full[key] = super().full_context(chain, hop1_query, dedupe)
        return self._full[key]


def usable(m: CachedMatchers, chain) -> bool:
    """The retrieval and constraint assumptions every scripted call relies on."""
    hop1 = [p.title for p in m.hop1_passages(chain)]
    full = [p.title for p in m.full_context(chain)]
    return (
        hop1[0] == chain.subject
        and chain.person in full[3:]
        and mf.is_query_distinct(chain.subject, [chain.question])
        and mf.is_query_distinct(chain.person, [chain.question, chain.subject])
        and len(mf.TEACHER_BAD_TEMPLATE.format(subject=chain.subject)) >= 100
        and len(mf.BAD_EFFECTIVE_TEMPLATE.format(subject=chain.subject)) >= 100
        and mf.is_within_length_limit(mf.tweet_text(chain), 280)
        and mf.has_no_hashtags(mf.tweet_text(chain))
    )


# --- completions -----------------------------------------------------------

def quiz_choices(chain, cities: list[str]) -> str:
    others = [c for c in cities if c != chain.city]
    start = sum(map(ord, chain.subject)) % len(others)
    picks = [others[(start + i) % len(others)] for i in range(3)]
    return json.dumps({"A": chain.city, "B": picks[0], "C": picks[1], "D": picks[2]})


def paragraph(chain, m: CachedMatchers) -> str:
    titles = [p.title for p in m.full_context(chain)]
    return (
        f"The {chain.subject} was {chain.verb} by {chain.person} "
        f"[{titles.index(chain.subject) + 1}]. "
        f"{chain.person} was born in {chain.city} [{titles.index(chain.person) + 1}]."
    )


def bad_outputs(task: str, chain) -> tuple[str, str, str]:
    """(feedback label, first bad output, second bad output) for a retry example."""
    if task == "multihop":
        return ("Query:", mf.TEACHER_BAD_TEMPLATE.format(subject=chain.subject),
                mf.BAD_EFFECTIVE_TEMPLATE.format(subject=chain.subject))
    if task == "longform":
        return ("Paragraph:",
                f"The {chain.subject} was {chain.verb} by {chain.person}. "
                f"{chain.person} was born in {chain.city}.",
                f"{chain.person} {chain.verb} the {chain.subject} and was born in {chain.city}.")
    if task == "quiz":
        return ("Answer Choices:",
                f"The plausible choices for the {chain.subject} are {chain.city} and three others.",
                f"Choose between {chain.city} and cities near the {chain.subject}.")
    return ("Tweet:", mf.tweet_text(chain) + " #history", mf.tweet_text(chain) + " #landmarks")


def retry_entries(task: str, chain, good: str, failures: int) -> tuple[list[dict], str]:
    """Entries answering the retry prompts, and the first completion to serve.

    The entry matching the latest feedback line comes first, because a second
    retry prompt carries both feedback lines.
    """
    label, bad1, bad2 = bad_outputs(task, chain)
    rationale = "My first attempt broke a constraint, so I revise it."
    fix = mf.completion(rationale, label, good)
    if failures == 1:
        entries = [mf.entry(f"\nPast {label} {bad1}\nInstruction:", [fix])]
    else:
        entries = [
            mf.entry(f"\nPast {label} {bad2}\nInstruction:", [fix]),
            mf.entry(f"\nPast {label} {bad1}\nInstruction:", [mf.completion(rationale, label, bad2)]),
        ]
    return entries, mf.completion("A first attempt.", label, bad1)


def example_entries(task: str, chain, m: CachedMatchers, cities: list[str], failures: int) -> list[dict]:
    """Script entries for one example of one task."""
    retries: list[dict] = []
    if task == "multihop":
        hop1 = mf.hop1_completion(chain)
        if failures:
            retries, hop1 = retry_entries(task, chain, chain.subject, failures)
        return retries + [
            mf.entry(m.hop1(chain), [hop1]),
            mf.entry(m.hop2(chain), [mf.hop2_completion(chain)]),
            mf.entry(m.final(chain), [mf.answer_completion(chain)]),
        ]
    if task == "longform":
        text = paragraph(chain, m)
        final = mf.completion("Cite the passage that supports each fact.", "Paragraph:", text)
        if failures:
            retries, final = retry_entries(task, chain, text, failures)
        return retries + [
            mf.entry(m.hop1(chain), [mf.hop1_completion(chain)]),
            mf.entry(m.hop2(chain), [mf.hop2_completion(chain)]),
            mf.entry(m.final(chain), [final]),
        ]
    if task == "quiz":
        choices = quiz_choices(chain, cities)
        final = mf.completion("Plausible distractors should be other cities of the same era.",
                              "Answer Choices:", choices)
        if failures:
            retries, final = retry_entries(task, chain, choices, failures)
        return retries + [mf.entry(m.quiz(chain), [final])]
    final = mf.tweet_completion(chain)
    if failures:
        retries, final = retry_entries(task, chain, mf.tweet_text(chain), failures)
    return retries + [
        mf.entry(m.hop1(chain), [mf.hop1_completion(chain)]),
        mf.entry(m.hop2(chain), [mf.hop2_completion(chain)]),
        mf.entry(m.tweet(chain), [final]),
    ]


JUDGE_ENTRIES = {
    "multihop": [],
    "longform": [mf.FAITHFUL_MATCH],
    "quiz": [mf.PLAUSIBILITY_MATCH],
    "tweet": [mf.ENGAGING_MATCH, mf.FAITHFUL_MATCH],
}


def expected_row(task: str, chain) -> dict:
    row = {"question": chain.question}
    row.update({name: 1.0 for name in EXPECTED_COLUMNS[task]})
    if task == "longform":
        row["has_answer_definition"] = "inferred"
    return row


def retry_plan(rng: random.Random, n: int) -> list[int]:
    """Failures before the fix, per example: an exact seeded share of 1s and 2s."""
    once, twice = round(n * RETRY_ONCE_SHARE), round(n * RETRY_TWICE_SHARE)
    plan = [1] * once + [2] * twice + [0] * (n - once - twice)
    rng.shuffle(plan)
    return plan


# --- files -----------------------------------------------------------------

def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                    encoding="utf-8")


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs under ``out``; returns the workload spec."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    spec = dict(WORKLOADS[workload], name=workload, seed=seed)
    rng = random.Random(f"{workload}:{seed}")
    chains = make_chains(rng, spec["chains"])
    records = corpus_records(chains)
    index = RetrieverIndex.build(Passage(r["title"], r["text"]) for r in records)
    m = CachedMatchers(index)
    cities = _vocabulary()["cities"]

    splits = ["test"] if spec["command"] == "eval" else ["dev", "train"]
    need = sum(spec[s] for s in splits)
    picked = []
    for chain in rng.sample(chains, len(chains)):
        if usable(m, chain):
            picked.append(chain)
            if len(picked) == need:
                break
    else:
        raise RuntimeError(f"only {len(picked)} of {need} chains pass the retrieval checks")

    out.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out / "corpus.jsonl", records)
    for task in spec["tasks"]:
        task_dir = out / task
        task_dir.mkdir(exist_ok=True)
        entries = [mf.entry(match, [mf.JUDGE_YES]) for match in JUDGE_ENTRIES[task]]
        start = 0
        # test/dev entries precede train entries, so a demo or counterexample
        # quoting a train question can never steal a dev prompt's match
        for split in splits:
            members = picked[start:start + spec[split]]
            start += spec[split]
            if split == "dev":
                plan = [0] * len(members)
            elif split == "train":
                plan = spec["train_retries"]
            else:
                plan = retry_plan(rng, len(members))
            for chain, failures in zip(members, plan):
                entries += example_entries(task, chain, m, cities, failures)
            _write_jsonl(task_dir / f"{split}.jsonl", [mf.dataset_record(c) for c in members])
            if split == "test":
                rows = [expected_row(task, c) for c in members]
                _write_json(task_dir / "expected.json", {
                    "n_examples": len(rows),
                    "metrics": {name: 1.0 for name in EXPECTED_COLUMNS[task]},
                    "flags": EXPECTED_FLAGS.get(task, []),
                    "rows": rows,
                })
        if spec["command"] == "compile":
            # clean dev set: every candidate scores 1.0 on validation
            _write_json(task_dir / "expected.json", {"candidate_score": 1.0})
        _write_json(task_dir / "script.json", {"version": 1, "entries": entries})
    _write_json(out / "workload.json", spec)
    return spec


# --- self-check ------------------------------------------------------------

def run_config(spec: dict, workdir: Path, task: str, out_dir: Path, api_base: str | None = None):
    """The CLI run config for one task: offline over its script, or live."""
    from lmpipe import cli

    corpus = str(workdir / "corpus.jsonl")
    if api_base is None:
        config_file = workdir / task / "offline_config.json"
        _write_json(config_file, {"corpus": corpus})
        script = str(workdir / task / "script.json")
        return cli.assemble_run_config(task, spec["strategy"], str(out_dir), str(config_file),
                                       offline=True, script=script, workers=spec["workers"])
    config_file = workdir / task / "live_config.json"
    _write_json(config_file, {"corpus": corpus, "backend": {"model": task, "api_base": api_base}})
    return cli.assemble_run_config(task, spec["strategy"], str(out_dir), str(config_file),
                                   workers=spec["workers"])


def run_command(spec: dict, workdir: Path, task: str, config) -> None:
    from lmpipe import cli

    task_dir = workdir / task
    if spec["command"] == "eval":
        cli.cmd_eval(config, task_dir / "test.jsonl")
    else:
        cli.cmd_compile(config, task_dir / "train.jsonl", task_dir / "dev.jsonl")


def eval_failures(report: dict, expected: dict) -> int:
    """Examples whose report row differs from the expected one (error rows
    included); at least 1 when the summary differs."""
    rows, want = report.get("rows", []), expected["rows"]
    failed = sum(1 for i, row in enumerate(want) if i >= len(rows) or rows[i] != row)
    failed += max(0, len(rows) - len(want))
    summary_ok = all(report.get(k) == expected[k] for k in ("n_examples", "metrics", "flags"))
    return failed if summary_ok else max(failed, 1)


def compile_failures(out_dir: Path, reference: dict[str, bytes], expected: dict) -> int:
    """1 when the artifacts differ from the reference bytes or a candidate
    scores other than expected, else 0."""
    for name, data in reference.items():
        path = out_dir / name
        if not path.exists() or path.read_bytes() != data:
            return 1
    candidates = json.loads((out_dir / "candidates.json").read_text(encoding="utf-8"))
    scores = [c["score"] for c in candidates["candidates"]]
    return 0 if scores and all(s == expected["candidate_score"] for s in scores) else 1


COMPILE_OUTPUTS = ("compiled_program.json", "candidates.json")


def self_check(workdir: Path) -> None:
    """Run every task once offline and require exactly the expected outputs.

    Keeps the offline compile artifacts under ``<task>/reference/``.
    """
    spec = json.loads((workdir / "workload.json").read_text(encoding="utf-8"))
    for task in spec["tasks"]:
        out_dir = workdir / task / "reference"
        run_command(spec, workdir, task, run_config(spec, workdir, task, out_dir))
        expected = json.loads((workdir / task / "expected.json").read_text(encoding="utf-8"))
        if spec["command"] == "eval":
            report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
            failed = eval_failures(report, expected)
        else:
            reference = {n: (out_dir / n).read_bytes() for n in COMPILE_OUTPUTS}
            failed = compile_failures(out_dir, reference, expected)
        if failed:
            raise RuntimeError(f"self-check failed for {spec['name']}/{task}: "
                               f"{failed} outputs differ from the generator's expectation")
