"""Domain types shared by every pipeline stage, canonical prompt rendering,
and the one checker of the records lmpipe reads from files.

A :class:`Signature` is the declarative contract of one LM call: ordered
input fields, ordered output fields and an instruction string. Prompts are
rendered from a signature with a fixed, byte-stable template so that runs
replay exactly and golden-file tests are meaningful. The template is
documented in the README ("Prompt format") and frozen by ``tests/golden/``.

A module call's outputs are a plain ``dict`` of output field name to text.
The records of a run (:class:`TraceStep`, :class:`ConstraintOutcome`,
:class:`Retrieval` and :class:`RunResult`) hold exactly the keys of their
trace-file objects, so a run read back from its trace file equals the run.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Mapping, Optional, Sequence


class SignatureError(ValueError):
    """Raised for malformed signature shorthand or field conflicts."""


class PromptError(ValueError):
    """Raised when a prompt cannot be rendered (e.g. missing input value)."""


_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def default_prefix(name: str) -> str:
    """Title-case a field name into its display prefix: answer_choices -> 'Answer Choices:'."""
    return " ".join(part.capitalize() for part in name.split("_")) + ":"


@dataclass(frozen=True)
class FieldSpec:
    """One named slot of a signature, rendered as '<prefix> <value>'. Whether
    it is an input or an output is where its signature lists it."""

    name: str
    prefix: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SignatureError("field name must be nonempty")
        if not self.prefix:
            object.__setattr__(self, "prefix", default_prefix(self.name))
        if not self.description:
            object.__setattr__(self, "description", "${" + self.name + "}")

    @property
    def prefix_key(self) -> str:
        """The prefix truncated at its first colon, used to spot the field in completions."""
        head, colon, _ = self.prefix.partition(":")
        return head + colon if colon else self.prefix


@dataclass(frozen=True)
class Signature:
    """Instruction text plus ordered input and output field specs."""

    instructions: str
    input_fields: tuple[FieldSpec, ...]
    output_fields: tuple[FieldSpec, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            dupe = next(n for n in names if names.count(n) > 1)
            raise SignatureError(f"duplicate field name {dupe!r}")
        if not self.input_fields:
            raise SignatureError("signature needs at least one input field")
        if not self.output_fields:
            raise SignatureError("signature needs at least one output field")
        # every prompt starts with it, so it is rendered once; a changed
        # signature is a new one (``replace`` runs this again)
        lines = "\n".join(_field_line(f, f.description) for f in self.fields)
        object.__setattr__(self, "_header", f"{self.instructions}\n\n{FORMAT_SENTENCE}\n\n{lines}")

    def __deepcopy__(self, memo):  # immutable: program copies share it
        return self

    @property
    def fields(self) -> tuple[FieldSpec, ...]:
        """Every field, inputs before outputs."""
        return self.input_fields + self.output_fields


def _parse_names(side: str, label: str) -> list[str]:
    names = [tok.strip() for tok in side.split(",")]
    if names == [""]:
        raise SignatureError(f"empty {label} side in signature")
    for name in names:
        if not name:
            raise SignatureError(f"empty field name on {label} side")
        if not _IDENT_RE.match(name):
            raise SignatureError(f"invalid field name {name!r}")
    return names


def parse_signature(spec: str, instructions: str = "") -> Signature:
    """Parse shorthand like ``"context, question -> query"`` into a Signature.

    When no instructions are supplied, a deterministic sentence derived from
    the field names is used.
    """
    if spec.count("->") != 1:
        raise SignatureError(f"signature must contain exactly one '->': {spec!r}")
    left, right = spec.split("->")
    inputs = _parse_names(left, "input")
    outputs = _parse_names(right, "output")
    overlap = set(inputs) & set(outputs)
    if overlap:
        raise SignatureError(f"field name {sorted(overlap)[0]!r} appears on both sides")
    if not instructions:
        instructions = "Given the fields {}, produce the fields {}.".format(
            ", ".join("`%s`" % n for n in inputs), ", ".join("`%s`" % n for n in outputs)
        )
    return Signature(instructions, tuple(map(FieldSpec, inputs)), tuple(map(FieldSpec, outputs)))


# Outcomes of one constraint evaluation. "failed" records a violation that a
# handler policy kept from retrying or halting.
PASSED = "passed"
RETRIED = "retried"
HALTED = "halted"
WARNED = "warned"
FAILED = "failed"

DISPOSITIONS = (PASSED, RETRIED, HALTED, WARNED, FAILED)


@dataclass(frozen=True)
class ConstraintOutcome:
    """One evaluation of an Assert/Suggest and what it did; its fields are the
    keys of a constraint object in a trace file."""

    kind: str  # "assert" | "suggest"
    passed: bool  # the condition's value
    message: str
    label: str
    attempt: int  # the site's retry count r, which a pass resets; not a step's attempt
    disposition: str
    site: int
    target_module: str
    step: Optional[int]  # the judged step's index in RunResult.steps; None before any call

    def __post_init__(self) -> None:
        if self.kind not in ("assert", "suggest"):
            raise ValueError(f"constraint kind must be assert or suggest, got {self.kind!r}")
        if not self.message:
            raise ValueError("constraint message must be nonempty")
        if self.disposition not in DISPOSITIONS:
            raise ValueError(f"unknown disposition {self.disposition!r}")
        if self.disposition == HALTED and self.kind != "assert":
            raise ValueError("only assert constraints can halt")
        if self.disposition == WARNED and self.kind != "suggest":
            raise ValueError("only suggest constraints can warn")


@dataclass(frozen=True)
class Counterexample:
    """A recovered failure: the bad output, the instruction, and the fixed output."""

    module_id: str
    failed_output: str
    message: str
    corrected_output: str


@dataclass
class TraceStep:
    """One module invocation: its inputs, its parsed outputs and the completion
    they were parsed from; its fields are the keys of a step object in a trace
    file."""

    module_id: str
    inputs: dict[str, str]
    outputs: dict[str, str]
    raw_completion: str = ""
    attempt: int = 0
    position: int = 0  # execution slot within a pass; retries share a position
    prompt_digest: str = ""


@dataclass
class Retrieval:
    """One search of a run's surviving pass: query, k, and the titles it found, best first."""

    query: str
    k: int
    titles: list[str]


@dataclass
class RunResult:
    """The one record of a run: its steps in invocation order, every constraint
    outcome in evaluation order, its surviving pass's searches, its pass count,
    and the program's outputs or why it has none; its fields are the keys of a
    trace file. A halting assertion sets ``halted`` and ``error``; a run an
    error stopped (a backend's, or the pass budget's) is that error's
    ``partial_result``, with its message and class name as ``error`` and
    ``error_type``.

    The surviving pass is the run's last forward pass, the one its outputs
    (or halt, or error) came from. It reached ``calls`` call positions and
    ``sites`` constraint sites; steps and outcomes beyond them belong to
    discarded passes only."""

    final_outputs: Optional[dict[str, str]]
    steps: list[TraceStep]
    constraints: list[ConstraintOutcome]
    calls: int
    sites: int
    retrievals: list[Retrieval] = field(default_factory=list)
    passes: int = 1
    halted: bool = False
    error: Optional[str] = None
    error_type: Optional[str] = None

    def final_steps(self) -> list[TraceStep]:
        """The surviving pass's steps: the last attempt at each position below ``calls``."""
        latest = {step.position: step for step in self.steps if step.position < self.calls}
        return [latest[position] for position in sorted(latest)]

    def final_outcomes(self) -> list[ConstraintOutcome]:
        """The surviving pass's outcomes: the last of each site below ``sites``, in site order."""
        latest = {o.site: o for o in self.constraints if o.site < self.sites}
        return [latest[site] for site in sorted(latest)]


SECTION_SEPARATOR = "\n\n---\n\n"
FORMAT_SENTENCE = "Follow the following format."
PAST_LINE = "Past {label} {value}"
INSTRUCTION_LINE = "Instruction: {message}"


def payload_field(sig: Signature) -> FieldSpec:
    """The field a retry's feedback and a counterexample quote: the last output
    field (rationales are prepended). Its prefix key labels 'Past ...' lines."""
    return sig.output_fields[-1]


def _field_line(spec: FieldSpec, value: str) -> str:
    return f"{spec.prefix} {value}"


def _demo_block(sig: Signature, demo: Mapping[str, str]) -> str:
    lines = [_field_line(f, demo[f.name]) for f in sig.fields if f.name in demo]
    return "\n".join(lines)


def _counterexample_block(sig: Signature, ce: Counterexample) -> str:
    target = payload_field(sig)
    lines = [
        PAST_LINE.format(label=target.prefix_key, value=ce.failed_output),
        INSTRUCTION_LINE.format(message=ce.message),
        _field_line(target, ce.corrected_output),
    ]
    return "\n".join(lines)


def _live_block(
    sig: Signature, inputs: Mapping[str, str], feedback: Sequence[tuple[str, str]]
) -> str:
    lines = []
    for f in sig.input_fields:
        if f.name not in inputs:
            raise PromptError(f"missing input field {f.name!r}")
        lines.append(_field_line(f, inputs[f.name]))
    label = payload_field(sig).prefix_key
    for failed_output, message in feedback:
        lines.append(PAST_LINE.format(label=label, value=failed_output))
        lines.append(INSTRUCTION_LINE.format(message=message))
    # Generation cue: first output prefix, one trailing space, nothing else.
    lines.append(sig.output_fields[0].prefix + " ")
    return "\n".join(lines)


def render_prompt(
    sig: Signature,
    demos: Sequence[Mapping[str, str]] = (),
    counterexamples: Sequence[Counterexample] = (),
    inputs: Optional[Mapping[str, str]] = None,
    feedback: Sequence[tuple[str, str]] = (),
) -> str:
    """Render the full prompt for one call. Pure: equal arguments, identical bytes.

    Counterexample blocks come before demo blocks, which come before the live
    block; sections are separated by a line containing exactly ``---``.
    Feedback pairs render inside the live block, after the inputs and before
    the generation cue, oldest first.
    """
    sections = [sig._header]
    for ce in counterexamples:
        sections.append(_counterexample_block(sig, ce))
    for demo in demos:
        sections.append(_demo_block(sig, demo))
    sections.append(_live_block(sig, inputs or {}, feedback))
    return SECTION_SEPARATOR.join(sections)


def passages_to_text(passages: Iterable[tuple[str, str]]) -> str:
    """Flatten passages into the single numbered-list encoding used for context values.

    Each ``(title, text)`` pair (a ``Passage``, say) becomes ``[k] title | text``
    (1-based); an empty list renders as ``N/A``. Newlines inside texts are
    collapsed so each passage stays on one line.
    """
    rendered = []
    for i, (title, body) in enumerate(passages, start=1):
        body = " ".join(body.split())
        rendered.append(f"[{i}] {title} | {body}")
    return "\n".join(rendered) if rendered else "N/A"


def read_json(path: str | Path, parse: Callable[[Any], Any]) -> Any:
    """Read a JSON input file (compiled program, script, trace, config) through
    ``parse``, which checks it with ``check_record``. A file that is not JSON
    (or nests too deep to parse), or whose value ``parse`` rejects, raises
    ``ValueError`` naming its path; a ``KeyError(k)`` from ``parse`` becomes
    ``<path>: missing key 'k'``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(json.load(handle))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (ValueError, TypeError, AttributeError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


# The type of a value in an input file: a description for the error and its
# test. JSON true and false are bools, which Python counts as ints; JSON object
# keys are always strings.
STR = ("a string", lambda v: isinstance(v, str))
OPTIONAL_STR = ("a string or null", lambda v: v is None or isinstance(v, str))
BOOL = ("true or false", lambda v: isinstance(v, bool))
INT = ("an integer", lambda v: type(v) is int)
COUNT = ("an integer >= 0", lambda v: type(v) is int and v >= 0)
POSITIVE = ("an integer >= 1", lambda v: type(v) is int and v >= 1)
LIST = ("a list", lambda v: isinstance(v, list))
OBJECT = ("a JSON object", lambda v: isinstance(v, dict))
STR_MAP = ("an object of strings", lambda v: isinstance(v, dict) and all(isinstance(s, str) for s in v.values()))
STR_LIST = ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v))


def check_record(record: Any, fields: Mapping[str, tuple[str, Callable[[Any], bool]]],
                 what: str, optional: Collection[str] = ()) -> dict:
    """Return ``record``, an object of a file's ``what``, once it is a JSON
    object with no key outside ``fields``, every key of ``fields`` but those
    in ``optional``, and values that pass their ``(description, test)``. A
    missing key raises ``KeyError(key)``, any other fault ``ValueError``."""
    if not isinstance(record, dict):
        raise ValueError(f"{what} must be a JSON object")
    if record.keys() != fields.keys():
        unknown = sorted(record.keys() - fields.keys())
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in {what}")
        for key in fields:
            if key not in record and key not in optional:
                raise KeyError(key)
    for key, (description, test) in fields.items():
        if key in record and not test(record[key]):
            raise ValueError(f"{what} {key} must be {description}, got {record[key]!r}")
    return record


def check_version(record: Any, supported: int, what: str) -> None:
    """Raise unless ``record`` is a JSON object whose ``version`` is
    ``supported``; ``what`` names the file's kind in the error."""
    if not isinstance(record, dict):
        raise ValueError(f"{what} must be a JSON object")
    if record["version"] != supported:
        raise ValueError(f"{what} version mismatch: file has {record['version']}, supported is {supported}")


def read_jsonl(path: str | Path, what: str, fields: Mapping[str, tuple[str, Callable[[Any], bool]]],
               make: Callable[..., Any], optional: Collection[str] = ()) -> list:
    """``make(**record)`` for each JSON object per line, checked by
    ``check_record`` as a ``what``; blank lines are skipped. A bad record,
    bytes that are not UTF-8 among them, raises ``ValueError`` naming the
    ``what``, path and line, and a missing key as ``missing key 'k'``."""
    records = []
    # bytes that are not UTF-8 read as lone surrogates, so that the line's own
    # strict decode below fails where its error can name the line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(f"expected a JSON object, got {line[:40]}")
                records.append(make(**check_record(record, fields, what, optional)))
            except KeyError as exc:
                raise ValueError(f"bad {what} at {path}:{lineno}: missing key {exc}") from exc
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"bad {what} at {path}:{lineno}: {exc}") from exc
    return records
