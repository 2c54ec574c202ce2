#!/usr/bin/env python3
"""Regenerate the bundled desk-scale fixtures.

Writes the synthetic corpus, the train/dev/test question sets, the scenario
scripts for the offline backend, and the golden prompt files. Run from the
repo root after `pip install -e .`:

    python3 tools/make_fixtures.py

Script entries match one specific call each (hop-1, hop-2, final generation,
judge, or retry) and carry a single repeating response, so response caching
and candidate search can replay calls in any order without desynchronizing a
queue. Retry attempts are distinguished by the "Past <Field>:" line that only
retry prompts contain; judge calls by their assessment question; hops by the
shape of the live context block (N/A for hop 1, three passages for hop 2, the
full context for final generation).

The generator self-checks everything it emits: retrieval rankings, constraint
boundaries, and matcher/prompt assumptions. Fixture edits go here, never in
the emitted files.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "src" / "lmpipe" / "data"
SCRIPTS = DATA / "scripts"
GOLDEN = REPO / "tests" / "golden"

sys.path.insert(0, str(REPO / "src"))

from lmpipe.checks import has_no_hashtags, is_query_distinct, is_within_length_limit  # noqa: E402
from lmpipe.core import passages_to_text  # noqa: E402
from lmpipe.retrieval import Passage, RetrieverIndex, deduplicate, retrieve  # noqa: E402
from lmpipe.tasks import (  # noqa: E402
    COMPLETE, INSTRUCTIONS, QUERY_LENGTH_LIMIT, QUERY_LENGTH_MESSAGE, TWEET_LIMIT,
)


@dataclass(frozen=True)
class Chain:
    kind: str
    subject: str
    person: str
    city: str
    role: str
    verb: str
    profession: str

    @property
    def question(self) -> str:
        return f"In which city was the {self.role} of the {self.subject} born?"

    @property
    def subject_text(self) -> str:
        return (
            f"The {self.subject} is a celebrated {self.kind}. "
            f"It was {self.verb} by {self.person} and remains a landmark of its era."
        )

    @property
    def person_text(self) -> str:
        return (
            f"{self.person} was a renowned {self.profession} of the nineteenth century. "
            f"{self.person} was born in {self.city}."
        )


CHAINS = [
    Chain("viaduct", "Aldermoor Viaduct", "Casper Vellum", "Maribel Falls", "designer", "designed", "architect"),
    Chain("observatory", "Brightwater Observatory", "Odile Brennard", "Port Ellery", "designer", "designed", "architect"),
    Chain("lighthouse", "Corvane Lighthouse", "Tobias Quill", "Dunmore Vale", "builder", "built", "engineer"),
    Chain("concert hall", "Delverton Concert Hall", "Ingrid Malvas", "Sorren Gate", "designer", "designed", "architect"),
    Chain("museum", "Eastgrove Museum", "Ferdinand Holt", "Lindenmere", "founder", "founded", "collector"),
    Chain("library", "Farrowfield Library", "Beatrix Sorrel", "Quillan Heath", "founder", "founded", "scholar"),
    Chain("botanical garden", "Glassmere Botanical Garden", "Laszlo Ferrin", "Istria Point", "founder", "founded", "botanist"),
    Chain("clock tower", "Hartwell Clock Tower", "Miriam Calloway", "Verlaine Hollow", "designer", "designed", "architect"),
    Chain("opera house", "Ironbridge Opera House", "Edmund Pryce", "Caldera Bay", "designer", "designed", "architect"),
    Chain("aqueduct", "Juniper Aqueduct", "Sibyl Tarrant", "Elm Sutton", "builder", "built", "engineer"),
    Chain("planetarium", "Kestrel Planetarium", "Viktor Ashby", "Noonvale", "founder", "founded", "astronomer"),
    Chain("gallery", "Lakewood Gallery", "Eleanora Whitlock", "Tarn Abbey", "founder", "founded", "painter"),
    Chain("railway station", "Marlowe Railway Station", "Rustam Veles", "Gorsefen", "designer", "designed", "architect"),
    Chain("windmill", "Netherby Windmill", "Philippa Drossel", "Wrenfield", "builder", "built", "millwright"),
    Chain("amphitheatre", "Oakhaven Amphitheatre", "Anton Marwick", "Seabrink", "designer", "designed", "architect"),
    Chain("archive", "Pellbrook Archive", "Celeste Fanning", "Halverton", "founder", "founded", "historian"),
    Chain("conservatory", "Quarrydown Conservatory", "Gregor Hale", "Mistral Cove", "designer", "designed", "architect"),
    Chain("arboretum", "Ravensholt Arboretum", "Rosalind Veck", "Bramble Tor", "founder", "founded", "botanist"),
    Chain("fountain", "Silverdale Fountain", "Hubert Linden", "Ashenport", "designer", "designed", "sculptor"),
    Chain("suspension bridge", "Thornmere Suspension Bridge", "Greta Sandoval", "Kelvin Reach", "designer", "designed", "engineer"),
]

TRAIN = CHAINS[0:8]
DEV = CHAINS[8:14]
TEST = CHAINS[14:20]
RETRY_CHAIN = TEST[0]  # Oakhaven Amphitheatre

DISTRACTORS = [
    ("Municipal Infrastructure Review",
     "This municipal infrastructure review presents a comprehensive overview of regional "
     "projects with complete historical documentation and planning records."),
    ("Regional Planning Records",
     "The regional planning records gather municipal documentation covering infrastructure "
     "projects, historical surveys, and a complete overview of public works."),
    ("Historical Documentation Survey",
     "A historical documentation survey of municipal planning, including records of "
     "infrastructure projects and a comprehensive regional overview."),
    ("Public Works Overview",
     "An overview of public works projects with municipal planning records, historical "
     "documentation, and comprehensive infrastructure summaries."),
    ("Survey Office Annual Report",
     "The survey office annual report compiles planning records, municipal documentation, "
     "and a comprehensive overview of infrastructure projects."),
    ("Civic Records Digest",
     "The civic records digest preserves municipal planning documentation and a historical "
     "overview of regional infrastructure projects."),
    ("Town Charter Proceedings",
     "Proceedings of the town charter commission, with planning records, municipal "
     "documentation, and an overview of historical infrastructure projects."),
    ("County Gazetteer Appendix",
     "The county gazetteer appendix lists municipal planning records alongside historical "
     "documentation of infrastructure projects."),
    ("Preservation Board Minutes",
     "Minutes of the preservation board, recording municipal planning decisions, historical "
     "documentation, and infrastructure project overviews."),
    ("Cartographic Bulletin",
     "The cartographic bulletin annotates municipal maps with planning records, historical "
     "documentation, and infrastructure project overviews."),
]

BAD_QUERY = (
    "Please compile an exhaustively comprehensive municipal infrastructure projects "
    "overview including complete historical documentation and planning records"
)

BAD_EFFECTIVE_TEMPLATE = (
    "I require comprehensive detailed information regarding the complete construction "
    "history of the {subject} including all documented records available"
)

TEACHER_BAD_TEMPLATE = (
    "Tell me absolutely everything there is to know about the entire documented history "
    "and the complete legacy of the {subject}"
)

JUDGE_YES = "Assessment Answer: Yes"
PLAUSIBILITY_MATCH = "Assessment Question: Are the distractors"
ENGAGING_MATCH = "Assessment Question: Does the assessed text make"
FAITHFUL_MATCH = "Assessment Question: Is the assessed text grounded"


def completion(rationale: str, prefix: str, value: str) -> str:
    return f"Reasoning: {rationale}\n{prefix} {value}"


def hop1_completion(chain: Chain, query: str | None = None, rationale: str | None = None) -> str:
    query = query if query is not None else chain.subject
    rationale = rationale or f"The question mentions the {chain.subject}, so I should look up its entry."
    return completion(rationale, "Query:", query)


def hop2_completion(chain: Chain) -> str:
    return completion(
        f"The context says it was {chain.verb} by {chain.person}, so I should look up {chain.person}.",
        "Query:", chain.person,
    )


def answer_completion(chain: Chain) -> str:
    return completion(
        f"The context shows that {chain.person} was born in {chain.city}.",
        "Answer:", chain.city,
    )


def retry_completion(chain: Chain) -> str:
    return hop1_completion(
        chain, rationale="The previous query was too long, so a short name works better."
    )


def quiz_choices(chain: Chain) -> str:
    cities = [c.city for c in CHAINS]
    index = CHAINS.index(chain)
    picks = [cities[(index + offset) % len(cities)] for offset in (1, 2, 3)]
    return json.dumps({"A": chain.city, "B": picks[0], "C": picks[1], "D": picks[2]})


def quiz_completion(chain: Chain) -> str:
    return completion(
        "Plausible distractors should be other cities of the same era.",
        "Answer Choices:", quiz_choices(chain),
    )


def tweet_text(chain: Chain) -> str:
    return (
        f"Did you know? The {chain.subject} owes its existence to {chain.person}, "
        f"who was born in {chain.city}. History hides in plain sight!"
    )


def tweet_completion(chain: Chain) -> str:
    return completion("Lead with the surprising fact and keep it short.", "Tweet:", tweet_text(chain))


def corpus_records() -> list[dict]:
    records = [{"title": c.subject, "text": c.subject_text} for c in CHAINS]
    records += [{"title": c.person, "text": c.person_text} for c in CHAINS]
    records += [{"title": t, "text": x} for t, x in DISTRACTORS]
    return records


def build_index() -> RetrieverIndex:
    # exact same insertion order as corpus.jsonl so tie-breaking matches runtime
    return RetrieverIndex.build(Passage(r["title"], r["text"]) for r in corpus_records())


def last_line(text: str) -> str:
    return text.split("\n")[-1]


class Matchers:
    """Per-question matchers pinned to one call each, derived from the exact
    context block the runtime will render for that call."""

    def __init__(self, index: RetrieverIndex):
        self.index = index

    def hop1(self, chain: Chain, query: str | None = None) -> str:
        return f"Context: N/A\nQuestion: {chain.question}"

    def hop1_passages(self, chain: Chain, query: str | None = None) -> list[Passage]:
        return retrieve(self.index, query or chain.subject, 3)

    def hop2(self, chain: Chain, hop1_query: str | None = None) -> str:
        ctx = passages_to_text(self.hop1_passages(chain, hop1_query))
        return f"{last_line(ctx)}\nQuestion: {chain.question}"

    def full_context(self, chain: Chain, hop1_query: str | None = None,
                     dedupe: bool = False) -> list[Passage]:
        passages = self.hop1_passages(chain, hop1_query) + retrieve(self.index, chain.person, 3)
        return deduplicate(passages) if dedupe else passages

    def final(self, chain: Chain, hop1_query: str | None = None) -> str:
        ctx = passages_to_text(self.full_context(chain, hop1_query))
        return f"{last_line(ctx)}\nQuestion: {chain.question}"

    def tweet(self, chain: Chain) -> str:
        # the tweet signature orders question before context
        return f"Question: {chain.question}\nContext: [1]"

    def quiz(self, chain: Chain) -> str:
        return f"Question: {chain.question}\nCorrect Answer:"


def entry(match: str, responses: list[str], mode: str = "substring") -> dict:
    return {"match": match, "mode": mode, "responses": responses}


def clean_multihop_entries(m: Matchers, chains: list[Chain]) -> list[dict]:
    entries = []
    for c in chains:
        entries.append(entry(m.hop1(c), [hop1_completion(c)]))
        entries.append(entry(m.hop2(c), [hop2_completion(c)]))
        entries.append(entry(m.final(c), [answer_completion(c)]))
    return entries


def write_script(name: str, entries: list[dict]) -> None:
    payload = {"version": 1, "entries": entries}
    path = SCRIPTS / name
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(REPO)} ({len(entries)} entries)")


def jsonl(path: Path, records: list[dict]) -> None:
    lines = [json.dumps(r, ensure_ascii=False) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(REPO)} ({len(records)} records)")


def dataset_record(chain: Chain) -> dict:
    return {
        "question": chain.question,
        "answer": chain.city,
        "gold_titles": [chain.subject, chain.person],
    }


def sanity_checks(index: RetrieverIndex) -> None:
    for chain in CHAINS:
        top_subject = [p.title for p in retrieve(index, chain.subject, 3)]
        assert top_subject[0] == chain.subject, (chain.subject, top_subject)
        top_person = [p.title for p in retrieve(index, chain.person, 3)]
        assert chain.person in top_person, (chain.person, top_person)
        assert is_query_distinct(chain.subject, [chain.question])
        assert is_query_distinct(chain.person, [chain.question, chain.subject])
        assert len(TEACHER_BAD_TEMPLATE.format(subject=chain.subject)) >= QUERY_LENGTH_LIMIT
        assert len(BAD_EFFECTIVE_TEMPLATE.format(subject=chain.subject)) >= QUERY_LENGTH_LIMIT
        tweet = tweet_text(chain)
        assert is_within_length_limit(tweet, TWEET_LIMIT) and has_no_hashtags(tweet), tweet
    bad_top = {p.title for p in retrieve(index, BAD_QUERY, 3)}
    chain_titles = {c.subject for c in CHAINS} | {c.person for c in CHAINS}
    assert bad_top.isdisjoint(chain_titles), bad_top
    assert len(BAD_QUERY) >= QUERY_LENGTH_LIMIT, len(BAD_QUERY)
    bad_effective_top = [
        p.title for p in retrieve(index, BAD_EFFECTIVE_TEMPLATE.format(subject=CHAINS[0].subject), 3)
    ]
    assert CHAINS[0].subject in bad_effective_top, bad_effective_top
    # matcher uniqueness: no question text occurs inside another chain's passages
    for chain in CHAINS:
        for other in CHAINS:
            if other is not chain:
                assert chain.question not in other.subject_text
                assert chain.question not in other.person_text


def main() -> None:
    SCRIPTS.mkdir(parents=True, exist_ok=True)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for stale in SCRIPTS.glob("*.json"):
        stale.unlink()
    index = build_index()
    m = Matchers(index)
    sanity_checks(index)

    jsonl(DATA / "corpus.jsonl", corpus_records())
    jsonl(DATA / "train.jsonl", [dataset_record(c) for c in TRAIN])
    jsonl(DATA / "dev.jsonl", [dataset_record(c) for c in DEV])
    jsonl(DATA / "test.jsonl", [dataset_record(c) for c in TEST])

    # --- multihop ------------------------------------------------------------
    # every question passes on the first attempt; test/dev entries come first
    # so demo blocks quoting train questions can never steal a match
    write_script(
        "multihop_all_pass.json",
        clean_multihop_entries(m, TEST) + clean_multihop_entries(m, DEV)
        + clean_multihop_entries(m, TRAIN),
    )

    # one question; hop-1 query is over-long once, fixed on retry. The last two
    # entries cover policies that never retry: there the bad query reaches the
    # retriever, so hop 2 and the final answer see distractor context.
    retry = RETRY_CHAIN
    write_script("multihop_retry.json", [
        entry(f"\nPast Query: {BAD_QUERY}", [retry_completion(retry)]),
        entry(m.hop1(retry), [hop1_completion(
            retry, query=BAD_QUERY,
            rationale="A thorough query should mention every aspect of the question.",
        )]),
        entry(m.hop2(retry), [hop2_completion(retry)]),
        entry(m.final(retry), [answer_completion(retry)]),
        entry(m.hop2(retry, hop1_query=BAD_QUERY), [hop2_completion(retry)]),
        entry(m.final(retry, hop1_query=BAD_QUERY), [answer_completion(retry)]),
    ])

    # teacher fixture: first two train questions fail once then fix; the rest
    # are clean. Meant for runs with teacher assertions active; the last
    # entries cover a naive teacher, whose bad first query reaches the
    # retriever, as in the retry fixture.
    teacher_entries = []
    for chain in TRAIN[:2]:
        bad = TEACHER_BAD_TEMPLATE.format(subject=chain.subject)
        teacher_entries.append(entry(f"\nPast Query: {bad}", [retry_completion(chain)]))
        teacher_entries.append(entry(m.hop1(chain), [hop1_completion(
            chain, query=bad, rationale="Every detail of the question should go into the query.",
        )]))
        teacher_entries.append(entry(m.hop2(chain), [hop2_completion(chain)]))
        teacher_entries.append(entry(m.final(chain), [answer_completion(chain)]))
    teacher_entries += clean_multihop_entries(m, TRAIN[2:])
    for chain in TRAIN[:2]:
        bad = TEACHER_BAD_TEMPLATE.format(subject=chain.subject)
        teacher_entries.append(entry(m.hop2(chain, hop1_query=bad), [hop2_completion(chain)]))
        teacher_entries.append(entry(m.final(chain, hop1_query=bad), [answer_completion(chain)]))
    write_script("multihop_teacher_assert.json", teacher_entries)

    # naive teacher fixture: the first train question answers correctly but its
    # hop-1 query violates the length constraint and is never fixed. Meant for
    # runs with teacher assertions off (one attempt per call).
    naive = TRAIN[0]
    bad_effective = BAD_EFFECTIVE_TEMPLATE.format(subject=naive.subject)
    naive_entries = [
        entry(m.hop1(naive), [hop1_completion(
            naive, query=bad_effective,
            rationale="More detail in the query should help the retriever.",
        )]),
        entry(m.hop2(naive, hop1_query=bad_effective), [hop2_completion(naive)]),
        entry(m.final(naive, hop1_query=bad_effective), [answer_completion(naive)]),
    ]
    naive_entries += clean_multihop_entries(m, TRAIN[1:])
    write_script("multihop_teacher_naive.json", naive_entries)

    # --- longform ------------------------------------------------------------
    longform_entries = [entry(FAITHFUL_MATCH, [JUDGE_YES])]
    for chain in TEST + DEV + TRAIN:
        context = m.full_context(chain)
        titles = [p.title for p in context]
        subject_at = titles.index(chain.subject) + 1
        person_at = titles.index(chain.person) + 1
        paragraph = (
            f"The {chain.subject} was {chain.verb} by {chain.person} [{subject_at}]. "
            f"{chain.person} was born in {chain.city} [{person_at}]."
        )
        longform_entries.append(entry(m.hop1(chain), [hop1_completion(chain)]))
        longform_entries.append(entry(m.hop2(chain), [hop2_completion(chain)]))
        longform_entries.append(entry(m.final(chain), [completion(
            "Cite the passage that supports each fact.", "Paragraph:", paragraph,
        )]))
    write_script("longform_all_pass.json", longform_entries)

    # --- quiz ----------------------------------------------------------------
    quiz_entries = [entry(PLAUSIBILITY_MATCH, [JUDGE_YES])]
    for chain in TEST + DEV + TRAIN:
        quiz_entries.append(entry(m.quiz(chain), [quiz_completion(chain)]))
    write_script("quiz_all_pass.json", quiz_entries)

    # quiz retry: first answer is prose, fixed to JSON on retry
    fix = RETRY_CHAIN
    bad_choices = f"The plausible choices are {fix.city}, Gorsefen, Noonvale, and Wrenfield."
    write_script("quiz_fix.json", [
        entry(PLAUSIBILITY_MATCH, [JUDGE_YES]),
        entry("\nPast Answer Choices: The plausible choices are", [quiz_completion(fix)]),
        entry(m.quiz(fix), [completion(
            "A list of cities reads naturally.", "Answer Choices:", bad_choices,
        )]),
    ])

    # --- tweet ---------------------------------------------------------------
    tweet_entries = [
        entry(ENGAGING_MATCH, [JUDGE_YES]),
        entry(FAITHFUL_MATCH, [JUDGE_YES]),
    ]
    for chain in TEST + DEV + TRAIN:
        tweet_entries.append(entry(m.hop1(chain), [hop1_completion(chain)]))
        tweet_entries.append(entry(m.hop2(chain), [hop2_completion(chain)]))
        tweet_entries.append(entry(m.tweet(chain), [tweet_completion(chain)]))
    write_script("tweet_all_pass.json", tweet_entries)

    # --- golden prompts (hand-composed, never rendered by the library) ------
    query_instructions = INSTRUCTIONS["multihop"]["query"][COMPLETE]
    golden_retry = (
        f"{query_instructions}\n"
        "\n"
        "Follow the following format.\n"
        "\n"
        "Context: ${context}\n"
        "Question: ${question}\n"
        "Reasoning: Think step by step. ${rationale}\n"
        "Query: ${query}"
        "\n\n---\n\n"
        "Context: N/A\n"
        f"Question: {RETRY_CHAIN.question}\n"
        f"Past Query: {BAD_QUERY}\n"
        f"Instruction: {QUERY_LENGTH_MESSAGE}\n"
        "Reasoning: Think step by step. "
    )
    (GOLDEN / "retry_prompt.txt").write_bytes(golden_retry.encode("utf-8"))
    print("wrote tests/golden/retry_prompt.txt")

    golden_two_demos = (
        "Given the fields `question`, produce the fields `answer`.\n"
        "\n"
        "Follow the following format.\n"
        "\n"
        "Question: ${question}\n"
        "Answer: ${answer}"
        "\n\n---\n\n"
        "Question: What color is a clear daytime sky?\n"
        "Answer: Blue"
        "\n\n---\n\n"
        "Question: How many legs does a spider have?\n"
        "Answer: Eight"
        "\n\n---\n\n"
        "Question: Where is the Eiffel Tower?\n"
        "Answer: "
    )
    (GOLDEN / "two_demo_prompt.txt").write_bytes(golden_two_demos.encode("utf-8"))
    print("wrote tests/golden/two_demo_prompt.txt")


if __name__ == "__main__":
    main()
