"""The bundled task programs and their constraints.

Four question-answering variants over the same corpus:

* multihop  -- two query/retrieve hops, then a short answer; suggestions keep
               queries short (under ``QUERY_LENGTH_LIMIT`` chars) and distinct
               from earlier queries.
* longform  -- two hops, then a cited paragraph; suggestions require citations
               every 1-2 sentences and per-citation faithfulness (LM-judged).
* quiz      -- answer-choice generation; suggestions require JSON formatting,
               inclusion of the correct answer, and plausible distractors
               (LM-judged).
* tweet     -- two hops with per-hop query modules and context deduplication,
               then a tweet; suggestions cover hashtags, length, answer
               inclusion, engagement and faithfulness (the last two LM-judged).

Each program carries a primitive and a complete instruction variant; the
complete one spells out the constraints the suggestions encode. ``TASKS`` maps
each task name to its program class, report columns and row scorer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .checks import (
    citations_check,
    format_checker,
    get_lines_and_citations,
    has_correct_answer,
    has_no_hashtags,
    is_assessment_yes,
    is_query_distinct,
    is_within_length_limit,
)
from .core import RunResult, passages_to_text
from .metrics import (
    TaskExample,
    answer_em,
    citation_metrics,
    final_label_outcomes,
    quiz_validity,
    retrieval_recall,
    tweet_quality,
)
from .modules import PredictModule, chain_of_thought, parse_signature
from .retrieval import RetrieverIndex, deduplicate, retrieve
from .runtime import ExecutionContext, Program

PASSAGES_PER_HOP = 3
HOPS = 2
TWEET_LIMIT = 280
QUERY_LENGTH_LIMIT = 100
DEFAULT_CHOICE_COUNT = 4

QUERY_LENGTH_MESSAGE = f"Query should be less than {QUERY_LENGTH_LIMIT} characters"

QUERY_SIGNATURE = "context, question -> query"
JUDGE_SIGNATURE = "context, assessed_text, assessment_question -> assessment_answer"

PRIMITIVE = "primitive"
COMPLETE = "complete"
VARIANTS = (PRIMITIVE, COMPLETE)

_QUERY = "Write a simple search query that will help answer a complex question."
_QUERY_COMPLETE = (
    f"{_QUERY} Keep the query under {QUERY_LENGTH_LIMIT} characters and distinct from "
    "earlier queries."
)
_ANSWER = "Answer questions with short factoid answers."

INSTRUCTIONS = {
    "multihop": {
        "query": {PRIMITIVE: _QUERY, COMPLETE: _QUERY_COMPLETE},
        "answer": {PRIMITIVE: _ANSWER, COMPLETE: _ANSWER},
    },
    "longform": {
        "query": {PRIMITIVE: _QUERY, COMPLETE: _QUERY_COMPLETE},
        "paragraph": {
            PRIMITIVE: "Write a paragraph that answers the question using the context.",
            COMPLETE: (
                "Write a paragraph that answers the question using the context, citing "
                "passages as [k] after every 1-2 sentences and staying faithful to the "
                "cited text."
            ),
        },
    },
    "quiz": {
        "choices": {
            PRIMITIVE: "Generate answer choices for the specified question.",
            COMPLETE: (
                "Generate answer choices in JSON format that include the correct answer "
                "and plausible distractors for the specified question."
            ),
        },
    },
    "tweet": {
        "query": {PRIMITIVE: _QUERY, COMPLETE: _QUERY},
        "tweet": {
            PRIMITIVE: "Generate a tweet that effectively answers a question.",
            COMPLETE: (
                "Generate an engaging tweet that effectively answers a question staying "
                f"faithful to the context, is less than {TWEET_LIMIT} characters, and has no "
                "hashtags."
            ),
        },
    },
}

JUDGE_INSTRUCTIONS = "Assess the quality of a text along the specified dimension."

PLAUSIBILITY_QUESTION = (
    "Are the distractors in the answer choices plausible and not easily identifiable "
    "as incorrect?"
)
ENGAGING_QUESTION = (
    "Does the assessed text make for a self-contained, engaging tweet? Say no if it "
    "is not engaging."
)
FAITHFUL_QUESTION = (
    "Is the assessed text grounded in the context? Say no if it includes significant "
    "facts not in the context."
)


def _judge_module(module_id: str, spec: str = JUDGE_SIGNATURE) -> PredictModule:
    return PredictModule(
        module_id=module_id,
        signature=parse_signature(spec, instructions=JUDGE_INSTRUCTIONS),
    )


def _query_module(module_id: str, task: str, instruction_variant: str) -> PredictModule:
    return chain_of_thought(QUERY_SIGNATURE, module_id=module_id,
                            instructions=INSTRUCTIONS[task]["query"][instruction_variant])


class MultiHopQA(Program):
    inputs = ("question",)

    def __init__(self, index: RetrieverIndex, instruction_variant: str = COMPLETE):
        super().__init__()
        self.index = index
        self.generate_query = self.register(
            _query_module("generate_query", "multihop", instruction_variant))
        self.generate_answer = self.register(chain_of_thought(
            "context, question -> answer", module_id="generate_answer",
            instructions=INSTRUCTIONS["multihop"]["answer"][instruction_variant],
        ))

    def forward(self, ctx: ExecutionContext, question: str) -> dict[str, str]:
        context, queries = [], [question]
        for _hop in range(HOPS):
            pred = ctx.call(self.generate_query,
                            context=passages_to_text(context), question=question)
            query = pred["query"]
            ctx.suggest(len(query) < QUERY_LENGTH_LIMIT, QUERY_LENGTH_MESSAGE,
                        label="query_length")
            ctx.suggest(is_query_distinct(query, queries),
                        f"Query should be distinct from {queries}",
                        label="query_distinct")
            context += ctx.retrieve(retrieve, self.index, query, PASSAGES_PER_HOP)
            queries.append(query)
        return ctx.call(self.generate_answer,
                        context=passages_to_text(context), question=question)


class LongFormQA(Program):
    inputs = ("question",)

    def __init__(self, index: RetrieverIndex, instruction_variant: str = COMPLETE):
        super().__init__()
        self.index = index
        self.generate_query = self.register(
            _query_module("generate_query", "longform", instruction_variant))
        self.generate_cited_paragraph = self.register(chain_of_thought(
            "context, question -> paragraph", module_id="generate_cited_paragraph",
            instructions=INSTRUCTIONS["longform"]["paragraph"][instruction_variant],
        ))
        self.faithfulness_judge = _judge_module("faithfulness_judge")

    def forward(self, ctx: ExecutionContext, question: str) -> dict[str, str]:
        context = []
        for _hop in range(HOPS):
            pred = ctx.call(self.generate_query,
                            context=passages_to_text(context), question=question)
            context += ctx.retrieve(retrieve, self.index, pred["query"], PASSAGES_PER_HOP)
        pred = ctx.call(self.generate_cited_paragraph,
                        context=passages_to_text(context), question=question)
        paragraph = pred["paragraph"]
        ctx.suggest(citations_check(paragraph),
                    "Every 1-2 sentences should have citations: 'text... [x].'",
                    label="citations_format")
        for line, k in get_lines_and_citations(paragraph):
            if not 1 <= k <= len(context):
                # a citation pointing outside the context cannot be checked;
                # it counts as an unfaithful pair
                ctx.suggest(False,
                            f"Your output cites [{k}], which is not in the context.",
                            label="citation_faithful")
                continue
            cited = passages_to_text([context[k - 1]])
            verdict = ctx.call(self.faithfulness_judge, context=cited,
                               assessed_text=line, assessment_question=FAITHFUL_QUESTION)
            ctx.suggest(is_assessment_yes(verdict["assessment_answer"]),
                        f"Your output should be based on the context: '{cited}'.",
                        label="citation_faithful")
        return pred


class QuizGen(Program):
    inputs = ("question", "answer")

    def __init__(self, instruction_variant: str = COMPLETE):
        super().__init__()
        self.generate_choices = self.register(chain_of_thought(
            "question, correct_answer, number_of_choices -> answer_choices",
            module_id="generate_choices",
            instructions=INSTRUCTIONS["quiz"]["choices"][instruction_variant],
        ))
        self.plausibility_judge = _judge_module(
            "plausibility_judge", "question, answer_choices, assessment_question -> assessment_answer"
        )

    def forward(self, ctx: ExecutionContext, question: str, answer: str) -> dict[str, str]:
        pred = ctx.call(self.generate_choices, question=question, correct_answer=answer,
                        number_of_choices=str(DEFAULT_CHOICE_COUNT))
        choices = pred["answer_choices"]
        ctx.suggest(format_checker(choices),
                    "The format of the answer choices should be in JSON format. "
                    "Please revise accordingly.",
                    label="format")
        ctx.suggest(has_correct_answer(choices, answer),
                    "The answer choices do not include the correct answer to the question. "
                    "Please revise accordingly.",
                    label="has_answer")
        verdict = ctx.call(self.plausibility_judge, question=question,
                           answer_choices=choices, assessment_question=PLAUSIBILITY_QUESTION)
        ctx.suggest(is_assessment_yes(verdict["assessment_answer"]),
                    "The answer choices are not plausible distractors or are too easily "
                    "identifiable as incorrect. Please revise to provide more challenging "
                    "and plausible distractors.",
                    label="plausible")
        return pred


class TweetGen(Program):
    inputs = ("question", "answer")

    def __init__(self, index: RetrieverIndex, instruction_variant: str = COMPLETE):
        super().__init__()
        self.index = index
        # one query module per hop; each can carry its own demos
        self.query_modules = [
            self.register(_query_module(f"generate_query_{hop}", "tweet", instruction_variant))
            for hop in range(HOPS)
        ]
        self.generate_tweet = self.register(chain_of_thought(
            "question, context -> tweet", module_id="generate_tweet",
            instructions=INSTRUCTIONS["tweet"]["tweet"][instruction_variant],
        ))
        self.engaging_judge = _judge_module("engaging_judge")
        self.faithful_judge = _judge_module("faithful_judge")

    def forward(self, ctx: ExecutionContext, question: str, answer: str) -> dict[str, str]:
        context = []
        for hop in range(HOPS):
            pred = ctx.call(self.query_modules[hop],
                            context=passages_to_text(context), question=question)
            passages = ctx.retrieve(retrieve, self.index, pred["query"], PASSAGES_PER_HOP)
            context = deduplicate(context + passages)
        context_text = passages_to_text(context)
        pred = ctx.call(self.generate_tweet, question=question, context=context_text)
        tweet = pred["tweet"]
        ctx.suggest(has_no_hashtags(tweet),
                    "Please revise the tweet to remove hashtag phrases following it.",
                    label="no_hashtags")
        ctx.suggest(is_within_length_limit(tweet, TWEET_LIMIT),
                    f"Please ensure the tweet is within {TWEET_LIMIT} characters.",
                    label="within_limit")
        ctx.suggest(has_correct_answer(tweet, answer),
                    "The tweet does not include the correct answer to the question. "
                    "Please revise accordingly.",
                    label="has_answer")
        engaging = ctx.call(self.engaging_judge, context=context_text,
                            assessed_text=tweet, assessment_question=ENGAGING_QUESTION)
        ctx.suggest(is_assessment_yes(engaging["assessment_answer"]),
                    "The text is not engaging enough. Please revise to make it more "
                    "captivating.",
                    label="engaging")
        faithful = ctx.call(self.faithful_judge, context="N/A",
                            assessed_text=tweet, assessment_question=FAITHFUL_QUESTION)
        ctx.suggest(is_assessment_yes(faithful["assessment_answer"]),
                    "The text contains unfaithful elements or significant facts not in "
                    "the context. Please revise for accuracy.",
                    label="faithful")
        return pred


def _context_titles(run: RunResult) -> list[str]:
    """The answer's context: every title the surviving pass retrieved, in order."""
    return [title for found in run.retrievals for title in found.titles]


def _first_true(flags: Sequence[bool]) -> bool:
    return flags[0] if flags else False


def _score_multihop(example: TaskExample, outputs: Mapping[str, str], run: RunResult) -> dict:
    row = {"answer_em": answer_em(outputs.get("answer", ""), example.answer)}
    recall = retrieval_recall(_context_titles(run), example.gold_titles)
    if recall is not None:
        row["retrieval_recall"] = recall
    return row


def _score_longform(example: TaskExample, outputs: Mapping[str, str], run: RunResult) -> dict:
    paragraph = outputs.get("paragraph", "")
    faithful_flags = final_label_outcomes(run).get("citation_faithful", [])
    cm = citation_metrics(paragraph, _context_titles(run), example.gold_titles,
                          faithful_flags=faithful_flags)
    row = {}
    if cm.faithfulness is not None:
        row["citation_faithfulness"] = cm.faithfulness
    if cm.precision is not None:
        row["citation_precision"] = cm.precision
    row["citation_recall"] = cm.recall
    # inferred metric: the gold answer appears somewhere in the paragraph
    row["has_answer"] = float(has_correct_answer(paragraph, example.answer))
    row["has_answer_definition"] = "inferred"
    return row


def _score_quiz(example: TaskExample, outputs: Mapping[str, str], run: RunResult) -> dict:
    choices = outputs.get("answer_choices", "")
    fmt = format_checker(choices)
    inc = has_correct_answer(choices, example.answer)
    plausible = _first_true(final_label_outcomes(run).get("plausible", []))
    return {
        "format": float(fmt),
        "has_answer": float(inc),
        "plausible": float(plausible),
        "validity": quiz_validity(fmt, inc, plausible),
    }


def _score_tweet(example: TaskExample, outputs: Mapping[str, str], run: RunResult) -> dict:
    tweet = outputs.get("tweet", "")
    labels = final_label_outcomes(run)
    booleans = {
        "no_hashtags": has_no_hashtags(tweet),
        "within_limit": is_within_length_limit(tweet, TWEET_LIMIT),
        "has_answer": has_correct_answer(tweet, example.answer),
        "engaging": _first_true(labels.get("engaging", [])),
        "faithful": _first_true(labels.get("faithful", [])),
    }
    row = {name: float(value) for name, value in booleans.items()}
    row["quality"] = tweet_quality(**booleans)
    return row


@dataclass(frozen=True)
class TaskSpec:
    """Everything the CLI, evaluation and compilation know about one task.

    ``score`` turns a run's final outputs and the run into the task's report
    columns; ``bootstrap_column`` is the column whose value decides whether a
    teacher run passes; ``flags`` are added to every report of the task.
    """

    program: type[Program]
    uses_index: bool
    columns: tuple[str, ...]
    score: Callable[[TaskExample, Mapping[str, str], RunResult], dict]
    bootstrap_column: str
    flags: tuple[str, ...] = ()


TASKS: dict[str, TaskSpec] = {
    "multihop": TaskSpec(
        MultiHopQA, uses_index=True,
        columns=("suggestions_passed", "answer_em", "retrieval_recall"),
        score=_score_multihop, bootstrap_column="answer_em",
    ),
    "longform": TaskSpec(
        LongFormQA, uses_index=True,
        columns=("suggestions_passed", "citation_faithfulness", "citation_precision",
                 "citation_recall", "has_answer"),
        score=_score_longform, bootstrap_column="has_answer",
        flags=("has_answer_definition_inferred",),
    ),
    "quiz": TaskSpec(
        QuizGen, uses_index=False,
        columns=("suggestions_passed", "format", "has_answer", "plausible", "validity"),
        score=_score_quiz, bootstrap_column="validity",
    ),
    "tweet": TaskSpec(
        TweetGen, uses_index=True,
        columns=("suggestions_passed", "no_hashtags", "within_limit", "has_answer",
                 "engaging", "faithful", "quality"),
        score=_score_tweet, bootstrap_column="quality",
    ),
}


def build_program(task: str, index: Optional[RetrieverIndex] = None,
                  instruction_variant: str = COMPLETE) -> Program:
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {tuple(TASKS)}")
    if instruction_variant not in VARIANTS:
        raise ValueError(
            f"unknown instruction variant {instruction_variant!r}; expected one of {VARIANTS}"
        )
    spec = TASKS[task]
    if spec.uses_index:
        return spec.program(index, instruction_variant)
    return spec.program(instruction_variant)
