"""Declarative LM pipelines with checked constraints, self-refining retries,
and few-shot compilation."""

from .backend import (
    CachingBackend,
    EndpointConfig,
    HTTPBackend,
    ScriptEntry,
    ScriptedBackend,
    UnscriptedPromptError,
    load_script,
)
from .core import (
    ConstraintOutcome,
    Counterexample,
    FieldSpec,
    Retrieval,
    RunResult,
    Signature,
    TraceStep,
    parse_signature,
    passages_to_text,
    render_prompt,
)
from .metrics import TaskExample, answer_em, retrieval_recall, suggestions_passed
from .modules import PredictModule, chain_of_thought, parse_completion
from .optimizers import (
    CompileConfig,
    bootstrap_few_shot,
    collect_counterexamples,
    load_compiled_program,
    random_search_compile,
    save_compiled_program,
)
from .retrieval import Passage, RetrieverIndex, deduplicate, load_corpus, load_index, retrieve
from .runtime import (
    AssertionHalt,
    ExecutionContext,
    PassBudgetExceeded,
    Program,
    RuntimeConfig,
    check_constraint,
    run_with_backtracking,
)
from .tasks import LongFormQA, MultiHopQA, QuizGen, TweetGen, build_program

__version__ = "0.1.0"

__all__ = [
    "AssertionHalt",
    "CachingBackend",
    "CompileConfig",
    "ConstraintOutcome",
    "Counterexample",
    "EndpointConfig",
    "ExecutionContext",
    "FieldSpec",
    "HTTPBackend",
    "LongFormQA",
    "MultiHopQA",
    "PassBudgetExceeded",
    "Passage",
    "PredictModule",
    "Program",
    "QuizGen",
    "Retrieval",
    "RetrieverIndex",
    "RunResult",
    "RuntimeConfig",
    "ScriptEntry",
    "ScriptedBackend",
    "Signature",
    "TaskExample",
    "TraceStep",
    "TweetGen",
    "UnscriptedPromptError",
    "answer_em",
    "bootstrap_few_shot",
    "build_program",
    "chain_of_thought",
    "check_constraint",
    "collect_counterexamples",
    "deduplicate",
    "load_compiled_program",
    "load_corpus",
    "load_index",
    "load_script",
    "parse_completion",
    "parse_signature",
    "passages_to_text",
    "random_search_compile",
    "render_prompt",
    "retrieval_recall",
    "retrieve",
    "run_with_backtracking",
    "save_compiled_program",
    "suggestions_passed",
]
