"""Per-call framework cost: the microseconds lmpipe spends in one ``ExecutionContext.call``.

    python3 tools/bench_call.py [SRC]      # SRC: the lmpipe source tree to time, default ./src

Times ``ExecutionContext.call`` of a chain-of-thought module with two demos
and three passages of context, behind ``CachingBackend`` over an inner
backend that does no work: what one LM call costs lmpipe itself (prompt
render, cache key, single-flight bookkeeping, parse, trace step). Every
question is distinct, so each call is a cache miss, as almost every call of
the eval-bigcorpus workload is. It prints one JSON line: the median and the
quartiles, over REPS repetitions of CALLS calls each, of the microseconds per
call. Give another checkout's ``src`` to time that code with this script;
where that code's backends need more than ``generate``, run that checkout's
own copy of it.
Not part of the tier-1 tests.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

SRC = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC.resolve()))

from lmpipe import CachingBackend, passages_to_text  # noqa: E402
from lmpipe.modules import chain_of_thought  # noqa: E402
from lmpipe.runtime import ExecutionContext, Program, RuntimeConfig  # noqa: E402

REPS = 15
CALLS = 2000
COMPLETION = "Reasoning: Think step by step. The passage names the city.\nAnswer: Lisbon"
PASSAGES = [
    ("Harbor Stone Bridge", "The Harbor Stone Bridge was designed by the engineer Ana Vidal in Lisbon."),
    ("Ana Vidal", "Ana Vidal was an engineer born in Porto who built bridges across the Tagus."),
    ("Tagus", "The Tagus is the longest river of the Iberian Peninsula, reaching the sea at Lisbon."),
]


class NoOpBackend:
    """The whole backend contract: ``generate(prompt)`` returns the completions.
    ``params`` is accepted for trees whose cache still passes generation params."""

    def generate(self, prompt, params=None):
        return [COMPLETION]


def make_module():
    module = chain_of_thought("context, question -> answer", "answer")
    context = passages_to_text(PASSAGES)
    module.demos = [
        {"context": context, "question": f"Which city holds demo {i}?",
         "rationale": "The passage says so.", "answer": "Lisbon"}
        for i in range(2)
    ]
    return module


def us_per_call(module, rep: int) -> float:
    program = Program()
    program.register(module)
    ctx = ExecutionContext(program, CachingBackend(NoOpBackend()), RuntimeConfig())
    context = passages_to_text(PASSAGES)
    questions = [f"Where was bridge {rep}-{i} built?" for i in range(CALLS)]
    start = time.perf_counter()
    for question in questions:
        ctx.call(module, context=context, question=question)
    return (time.perf_counter() - start) / CALLS * 1e6


def main() -> None:
    module = make_module()
    us_per_call(module, -1)  # warm-up
    runs = [us_per_call(module, rep) for rep in range(REPS)]
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    print(json.dumps({"src": str(SRC), "reps": REPS, "calls": CALLS,
                      "us_per_call": {"q1": round(q1, 2), "median": round(median, 2), "q3": round(q3, 2)}}))


if __name__ == "__main__":
    main()
