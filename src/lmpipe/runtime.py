"""Hard and soft constraints with retrying, backtracking execution.

A constraint evaluation gets one disposition, which ``check_constraint``
reads off this table by whether it passed, whether a retry is left, its kind
and the handler policy (``*``: any):

    passed  retry  kind     backtrack_default  suppress_assert_log  disable_all  bypass_suggest_only
    yes     *      *        passed             passed               passed       passed
    no      yes    assert   retried            retried              failed       retried
    no      yes    suggest  retried            retried              failed       warned
    no      no     assert   halted             failed               failed       halted
    no      no     suggest  warned             warned               failed       warned

``retried`` hands control back to the target with the failures in its prompt,
``halted`` ends the run with the message, ``warned`` logs and goes on, and
``failed`` only records the failure (``suppress_assert_log`` logs it).

A retry's feedback and budget belong to its site and target. A site is one
evaluation slot of a forward pass (the second hop of a loop is a fresh one);
the target is the latest call of the backtrack module, or of any registered
module when none is named. A retry is left when there is a target and the
(site, target) pair holds fewer than R failures (the retry budget, default 2).
A retry appends its failure, which the target call's prompt then quotes after
the older ones; a pass, a warning or a recorded failure empties the pair.

The engine re-runs the program's forward pass to hand control back to a
failing module. Each call position keeps its latest fresh invocation in a
slot, so the work before the backtrack target replays from the slots (and
searches from the previous pass) without re-recording trace steps or
re-invoking the backend; everything at and after the target re-executes
fresh, which rolls back any downstream state the discarded attempt produced.

Replay relies on one invariant: ``forward`` is a function of its inputs and of
the outputs and passages its calls and searches return. A replayed constraint
keeps its recorded outcome and is not evaluated again. A call or search whose
arguments differ from the previous pass's runs fresh and ends the replay; from
there on everything runs fresh, and the target call still takes the retry's
feedback.

A call returns its module's outputs, a dict of output field name to text, and
``forward`` returns the program's. Every run ends in one ``RunResult``: those
outputs, a halt, or an error (a backend's, or the pass budget's) that carries
the run so far. ``save_trace`` writes a ``RunResult`` as a trace file and
``load_trace`` reads it back as an equal ``RunResult``.
"""

from __future__ import annotations

import copy
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from .backend import BackendError, stable_digest
from .core import (
    FAILED,
    HALTED,
    PASSED,
    RETRIED,
    WARNED,
    ConstraintOutcome,
    Retrieval,
    RunResult,
    TraceStep,
    check_record,
    check_version,
    payload_field,
    read_json,
)
from .core import BOOL, COUNT, INT, LIST, OPTIONAL_STR, POSITIVE, STR, STR_LIST, STR_MAP
from .modules import PredictModule, parse_completion

logger = logging.getLogger(__name__)

TRACE_VERSION = 3

BACKTRACK_DEFAULT = "backtrack_default"
SUPPRESS_ASSERT_LOG = "suppress_assert_log"
DISABLE_ALL = "disable_all"
BYPASS_SUGGEST_ONLY = "bypass_suggest_only"

HANDLER_POLICIES = (BACKTRACK_DEFAULT, SUPPRESS_ASSERT_LOG, DISABLE_ALL, BYPASS_SUGGEST_ONLY)

# Generous bound on forward passes; retry budgets already force termination
# for deterministic backends, this only guards pathological programs.
_MAX_PASSES = 10_000


@dataclass(frozen=True)
class RuntimeConfig:
    max_retries: int = 2
    handler_policy: str = BACKTRACK_DEFAULT

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.handler_policy not in HANDLER_POLICIES:
            raise ValueError(f"unknown handler policy {self.handler_policy!r}")


# records every constraint and never retries, halts or warns
NO_CONSTRAINTS = RuntimeConfig(handler_policy=DISABLE_ALL)


def check_constraint(kind: str, passed: bool, can_retry: bool, policy: str) -> str:
    """The disposition of one evaluation of a ``kind`` constraint: the
    transition rule, adjusted by the handler ``policy``. ``can_retry`` says
    whether a retry is left: a target to return to, with budget left for this
    site and that target."""
    if passed:
        return PASSED
    if policy == DISABLE_ALL:
        return FAILED
    if policy == BYPASS_SUGGEST_ONLY and kind == "suggest":
        return WARNED
    if can_retry:
        return RETRIED
    if kind == "assert":
        return FAILED if policy == SUPPRESS_ASSERT_LOG else HALTED
    return WARNED


class AssertionHalt(RuntimeError):
    """An assert constraint exhausted its retries; the run stops here with its message."""


class PassBudgetExceeded(RuntimeError):
    """A run still backtracked after ``_MAX_PASSES`` passes; ``partial_result`` is the run so far."""


class _Backtrack(Exception):
    """A retry; its argument is the (site, target position) key of its feedback."""


class Program:
    """Base class for pipelines: register modules, then implement forward(ctx, ...).

    Registered modules are the backtrack-eligible, demo-carrying parts of the
    program. Auxiliary predictors (e.g. LM judges inside constraint checks)
    stay unregistered: they are still traced but never become retry targets.
    ``inputs`` names forward()'s keyword arguments, which a dataset example
    supplies from its fields of the same names.
    """

    inputs: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.modules: dict[str, PredictModule] = {}

    def register(self, module: PredictModule) -> PredictModule:
        if module.module_id in self.modules:
            raise ValueError(f"duplicate module id {module.module_id!r}")
        self.modules[module.module_id] = module
        return module

    def forward(self, ctx: "ExecutionContext", **inputs: str) -> dict[str, str]:
        raise NotImplementedError

    def clone(self) -> "Program":
        return copy.deepcopy(self)


@dataclass
class _Slot:
    """The latest fresh invocation at one call position."""

    module: PredictModule
    step: TraceStep
    index: int  # the step's index in the run's steps
    sites_before: int  # constraint sites evaluated earlier in that pass


class ExecutionContext:
    """Per-run state handed to Program.forward.

    ``call`` invokes a module; ``retrieve`` searches; ``suggest`` /
    ``check_assert`` evaluate constraints. After a backtrack the pass replays
    up to the target call: a call or search whose arguments equal the
    previous pass's returns a copy of its outputs or passages, and a constraint
    evaluated before the target call keeps its recorded outcome. A call or
    search that differs runs fresh and ends the replay.
    """

    def __init__(self, program: Program, backend, config: RuntimeConfig):
        self._backend = backend
        self._config = config
        self._registered = set(program.modules)
        # run-level state
        self.steps: list[TraceStep] = []
        self.constraints: list[ConstraintOutcome] = []
        self._slots: dict[int, _Slot] = {}
        # (site, target position) -> its failures, oldest first: (payload output, message)
        self._failures: dict[tuple[int, int], tuple[tuple[str, str], ...]] = {}
        self._passes = 0
        self._found: list[tuple[Retrieval, tuple]] = []  # this pass's searches
        self._begin_pass(None)

    def _begin_pass(self, backtrack: Optional[tuple[int, int]]) -> None:
        """Start a pass; ``backtrack`` is the retry's (site, target position) key."""
        self._passes += 1
        self._found_before, self._found = self._found, []
        self._pos = 0
        self._site_counter = 0
        self._backtrack = backtrack
        self._replaying = backtrack is not None

    def call(self, module: PredictModule, **inputs: str) -> dict[str, str]:
        """Invoke a module and return a copy of its outputs, so that editing
        it leaves the trace alone; replays the previous pass's when possible.
        The position counts toward the pass's ``calls`` once the call returns."""
        position = self._pos
        feedback = ()
        if self._backtrack is not None and position == self._backtrack[1]:
            # feedback consumed here; nothing after this point replays
            feedback = self._failures[self._backtrack]
            self._backtrack = None
            self._replaying = False
        elif self._replaying:
            step = self._slots[position].step
            if step.module_id == module.module_id and step.inputs == inputs:
                self._pos += 1
                return dict(step.outputs)
            self._replaying = False

        prompt = module.render(inputs, feedback=feedback)
        completions = self._backend.generate(prompt)
        slot = self._slots.get(position)
        attempt = slot.step.attempt + 1 if slot is not None else 0
        outputs = parse_completion(module.signature, completions[0])
        step = TraceStep(
            module_id=module.module_id,
            inputs=dict(inputs),
            outputs=outputs,
            raw_completion=completions[0],
            attempt=attempt,
            position=position,
            prompt_digest=stable_digest(prompt),
        )
        self.steps.append(step)
        self._slots[position] = _Slot(module, step, len(self.steps) - 1, self._site_counter)
        self._pos += 1
        return dict(outputs)

    def retrieve(self, search: Callable, index: Any, query: str, k: int) -> list:
        """``search(index, query, k)``'s passages as a new list, recorded on the run.
        Before the backtrack target, the previous pass's for this (query, k) instead."""
        if self._replaying and len(self._found) < len(self._found_before):
            found, passages = self._found_before[len(self._found)]
            if (found.query, found.k) == (query, k):
                self._found.append((found, passages))
                return list(passages)
        self._replaying = False
        passages = tuple(search(index, query, k))
        self._found.append((Retrieval(query, k, [p.title for p in passages]), passages))
        return list(passages)

    def _result(self, final_outputs: Optional[dict[str, str]], **ending: Any) -> RunResult:
        return RunResult(final_outputs=final_outputs, steps=self.steps, constraints=self.constraints,
                         calls=self._pos, sites=self._site_counter,
                         retrievals=[found for found, _ in self._found], passes=self._passes,
                         **ending)

    def suggest(
        self, condition: bool, message: str, backtrack: Optional[str] = None, label: str = ""
    ) -> None:
        self._check("suggest", condition, message, backtrack, label)

    def check_assert(
        self, condition: bool, message: str, backtrack: Optional[str] = None, label: str = ""
    ) -> None:
        self._check("assert", condition, message, backtrack, label)

    def _resolve_target(self, backtrack: Optional[str]) -> Optional[_Slot]:
        """The invocation a retry returns to: the most recent call of the named
        module, or of any registered module when no name was given."""
        for position in range(self._pos - 1, -1, -1):
            module_id = self._slots[position].module.module_id
            if module_id == backtrack or (backtrack is None and module_id in self._registered):
                return self._slots[position]
        return None

    def _check(
        self, kind: str, condition: bool, message: str, backtrack: Optional[str], label: str
    ) -> None:
        site = self._site_counter
        self._site_counter += 1
        if self._replaying:
            if site < self._slots[self._backtrack[1]].sites_before:
                return  # outcome already recorded on an earlier pass
            self._replaying = False

        passed = bool(condition)
        target = self._resolve_target(backtrack)
        if target is None:  # nothing to hand control back to, so no retry is left
            key, module_id, judged = None, "", len(self.steps) - 1 if self.steps else None
        else:
            key, module_id, judged = (site, target.step.position), target.module.module_id, target.index
        failures = self._failures.get(key, ())
        can_retry = target is not None and len(failures) < self._config.max_retries
        disposition = check_constraint(kind, passed, can_retry, self._config.handler_policy)
        self.constraints.append(ConstraintOutcome(
            kind=kind, passed=passed, message=message, label=label or message, attempt=len(failures),
            disposition=disposition, site=site, target_module=module_id, step=judged))

        if disposition == RETRIED:
            payload = payload_field(target.module.signature).name
            failed_output = target.step.outputs.get(payload, "")
            self._failures[key] = failures + ((failed_output, message),)
            raise _Backtrack(key)
        self._failures.pop(key, None)
        if disposition == HALTED:
            raise AssertionHalt(message)
        if disposition == WARNED:
            logger.warning("suggestion not satisfied after %d retries: %s", len(failures), message)
        elif disposition == FAILED and self._config.handler_policy == SUPPRESS_ASSERT_LOG:
            logger.warning("assertion failure suppressed: %s", message)


def run_with_backtracking(
    program: Program,
    inputs: Mapping[str, str],
    config: RuntimeConfig = RuntimeConfig(),
    backend=None,
) -> RunResult:
    """Execute a program, backtracking on failed constraints per the transition rules.

    A backend error, or ``PassBudgetExceeded``, propagates with the run so far
    as its ``partial_result``."""
    ctx = ExecutionContext(program, backend, config)
    try:
        while True:
            try:
                return ctx._result(program.forward(ctx, **inputs))
            except _Backtrack as b:
                if ctx._passes >= _MAX_PASSES:
                    raise PassBudgetExceeded(
                        "backtracking did not terminate within the pass budget") from None
                ctx._begin_pass(b.args[0])
            except AssertionHalt as halt:
                return ctx._result(None, halted=True, error=str(halt))
    except (BackendError, PassBudgetExceeded) as exc:
        exc.partial_result = ctx._result(None, error=str(exc), error_type=type(exc).__name__)
        raise


def trace_to_dict(result: RunResult) -> dict:
    """A run as a trace file's JSON object: the run's fields, each step,
    constraint outcome and search as its own fields, and the version."""
    return {**vars(result), "version": TRACE_VERSION,
            "steps": [dict(vars(step)) for step in result.steps],
            "constraints": [dict(vars(o)) for o in result.constraints],
            "retrievals": [dict(vars(r)) for r in result.retrievals]}


# the keys of each trace-file object and the type of each value. A trace
# missing several keys is named by the first (a bare header by its steps).
_TRACE_FIELDS = {
    "steps": LIST, "constraints": LIST, "retrievals": LIST,
    "final_outputs": ("an object of strings or null", lambda v: v is None or STR_MAP[1](v)),
    "passes": POSITIVE, "calls": COUNT, "sites": COUNT, "halted": BOOL,
    "error": OPTIONAL_STR, "error_type": OPTIONAL_STR, "version": INT,
}
_STEP_FIELDS = {
    "module_id": STR, "attempt": COUNT, "position": COUNT, "prompt_digest": STR,
    "inputs": STR_MAP, "outputs": STR_MAP, "raw_completion": STR,
}
_CONSTRAINT_FIELDS = {
    "kind": STR, "passed": BOOL, "message": STR, "label": STR, "attempt": COUNT,
    "disposition": STR, "site": COUNT, "target_module": STR,
}
_RETRIEVAL_FIELDS = {"query": STR, "k": POSITIVE, "titles": STR_LIST}


def trace_from_dict(data: dict) -> RunResult:
    """The inverse of ``trace_to_dict``. A missing or an unknown key, or a value
    of the wrong type, raises."""
    check_version(data, TRACE_VERSION, "trace")
    check_record(data, _TRACE_FIELDS, "trace")
    steps = [TraceStep(**check_record(s, _STEP_FIELDS, "trace step")) for s in data["steps"]]
    # a constraint names the step it judged by its index, or none before any call
    fields = {**_CONSTRAINT_FIELDS,
              "step": ("null or an index into steps", lambda v: v is None or (type(v) is int and 0 <= v < len(steps)))}
    constraints = [ConstraintOutcome(**check_record(o, fields, "trace constraint")) for o in data["constraints"]]
    retrievals = [Retrieval(**check_record(r, _RETRIEVAL_FIELDS, "trace retrieval"))
                  for r in data["retrievals"]]
    run = {**data, "steps": steps, "constraints": constraints, "retrievals": retrievals}
    del run["version"]
    return RunResult(**run)


_OVERWRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def overwrite(data: bytes, path: str | Path) -> None:
    """Make the file at ``path`` hold exactly ``data``: write over its old
    bytes from the start, then cut off whatever is left of them.

    A new file gets the mode ``Path.write_bytes`` gives it (0o666 under the
    umask). Not truncating to zero first spares the close of a rewritten file
    a wait: on ext4 (``auto_da_alloc``) that close waits for the file's blocks
    to be allocated. This is no more atomic than a truncating write; a crash
    in the middle of either can leave a damaged file.
    """
    with open(os.open(path, _OVERWRITE_FLAGS, 0o666), "wb") as handle:
        handle.write(data)
        handle.truncate()


def write_json(payload: Any, path: str | Path) -> None:
    """Write ``payload`` as UTF-8 JSON indented by 2, with sorted keys and a
    trailing newline, through ``overwrite``: the layout of every JSON artifact
    but traces.

    The bytes are encoded in full before the file is opened, so a payload that
    cannot be encoded (a lone surrogate, say) raises and leaves the file as it
    was.
    """
    text = json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True)
    overwrite((text + "\n").encode("utf-8"), path)


def save_trace(result: RunResult, path: str | Path) -> None:
    """Write ``result`` as a trace file through ``overwrite``: ``trace_to_dict``'s
    record as one line of UTF-8 JSON with sorted keys and a trailing newline,
    encoded in full first as ``write_json`` does.

    ``load_trace`` reads any JSON layout, indented files included; the layout
    is not part of ``TRACE_VERSION``, only the keys and their types are.
    """
    text = json.dumps(trace_to_dict(result), ensure_ascii=False, sort_keys=True)
    overwrite((text + "\n").encode("utf-8"), path)


def load_trace(path: str | Path) -> RunResult:
    return read_json(path, trace_from_dict)
