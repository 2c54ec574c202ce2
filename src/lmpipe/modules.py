"""Callable building blocks: Predict and its chain-of-thought variant.

A PredictModule is pure data (signature, demos, counterexamples), which a
compiled program's artifact holds as its instructions, demos and
counterexamples. ``ExecutionContext.call`` renders its prompt, calls a backend,
and leniently parses the completion back into the signature's output fields
with ``parse_completion``, which returns them as a dict of field name to text.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .core import Counterexample, FieldSpec, Signature, parse_signature, render_prompt

RATIONALE_FIELD_NAME = "rationale"
RATIONALE_PREFIX = "Reasoning: Think step by step."


@dataclass
class PredictModule:
    """One LM call slot: a signature plus any attached demonstrations."""

    module_id: str
    signature: Signature
    demos: list[dict[str, str]] = field(default_factory=list)  # field name -> value
    counterexamples: list[Counterexample] = field(default_factory=list)

    def render(self, inputs: Mapping[str, str], feedback: Sequence[tuple[str, str]] = ()) -> str:
        return render_prompt(
            self.signature,
            demos=self.demos,
            counterexamples=self.counterexamples,
            inputs=inputs,
            feedback=feedback,
        )


def chain_of_thought(
    spec: str, module_id: str, instructions: str = ""
) -> PredictModule:
    """A Predict whose signature gains a leading rationale output field."""
    sig = parse_signature(spec, instructions=instructions)
    rationale = FieldSpec(name=RATIONALE_FIELD_NAME, prefix=RATIONALE_PREFIX)
    return PredictModule(module_id=module_id,
                         signature=replace(sig, output_fields=(rationale,) + sig.output_fields))


def _find_marker(text: str, token: str, start: int) -> int:
    """Index of `token` at a line start in text[start:], or -1."""
    pos = start
    while True:
        idx = text.find(token, pos)
        if idx == -1:
            return -1
        if idx == 0 or text[idx - 1] == "\n":
            return idx
        pos = idx + 1


def parse_completion(sig: Signature, completion: str) -> dict[str, str]:
    """Scan the completion for each output prefix in order.

    Text between consecutive matched prefixes belongs to the earlier field;
    unmatched fields parse as empty. The full prefix is tried first, then the
    prefix truncated at its first colon (models often shorten long prefixes).
    If the *first* output field's prefix is absent entirely, the leading text
    belongs to it: the model continued straight from the generation cue.
    """
    outputs: dict[str, str] = {}
    matches: list[tuple[FieldSpec, int, int]] = []  # (field, marker start, value start)
    cursor = 0
    for spec in sig.output_fields:
        found = None
        for token in (spec.prefix, spec.prefix_key):
            idx = _find_marker(completion, token, cursor)
            if idx != -1:
                found = (idx, idx + len(token))
                break
        if found is None:
            continue
        matches.append((spec, found[0], found[1]))
        cursor = found[1]

    matched_names = {spec.name for spec, _, _ in matches}
    for i, (spec, _, value_start) in enumerate(matches):
        value_end = matches[i + 1][1] if i + 1 < len(matches) else len(completion)
        outputs[spec.name] = completion[value_start:value_end].strip()

    first = sig.output_fields[0]
    if first.name not in matched_names:
        lead_end = matches[0][1] if matches else len(completion)
        outputs[first.name] = completion[:lead_end].strip()
    # every output field, in signature order; one never matched is empty
    return {spec.name: outputs.get(spec.name, "") for spec in sig.output_fields}
