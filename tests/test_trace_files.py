"""Trace files round-trip, and their rendering is locked by digest.

Writes every trace of the offline matrix (``test_offline_artifacts.run_matrix``)
plus one halted run. For each file, ``load_trace`` followed by ``save_trace``
must reproduce its bytes, and the sha256 of its ``inspect-trace`` rendering must
equal the one in ``tests/golden/trace_inspect.sha256``. Every run of the test
set under four bundled scripts, and the halted run, reads back from its trace
record equal to itself.

Like the artifact digests, the rendering digests are a regression lock taken
from the code when the file was generated. Regenerate them only for a
deliberate change to ``inspect-trace``, with::

    python tests/test_trace_files.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from test_offline_artifacts import format_digests, run_matrix

from lmpipe.backend import CachingBackend, ScriptEntry, ScriptedBackend, load_script
from lmpipe.cli import bundled_data_path, cmd_inspect_trace
from lmpipe.core import parse_signature
from lmpipe.evaluation import evaluate_dataset
from lmpipe.metrics import load_dataset
from lmpipe.modules import PredictModule
from lmpipe.retrieval import RetrieverIndex, load_corpus
from lmpipe.runtime import (
    Program,
    RuntimeConfig,
    load_trace,
    run_with_backtracking,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)
from lmpipe.tasks import build_program

DIGESTS = Path(__file__).parent / "golden" / "trace_inspect.sha256"


class HaltingProgram(Program):
    def __init__(self):
        super().__init__()
        self.gen = self.register(PredictModule(
            module_id="gen", signature=parse_signature("prompt -> value")))

    def forward(self, ctx, prompt):
        pred = ctx.call(self.gen, prompt=prompt)
        ctx.check_assert(pred["value"] == "ok", "Value must be ok", label="must_ok")
        return pred


def halted_run():
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Value: bad"] * 3),
    ]))
    return run_with_backtracking(HaltingProgram(), {"prompt": "go"},
                                 RuntimeConfig(max_retries=1), backend)


def write_traces(out: Path) -> dict[str, Path]:
    """Every trace of the offline matrix plus one halted run, by relative path."""
    run_matrix(out)
    halted = halted_run()
    assert halted.halted
    (out / "halted").mkdir()
    save_trace(halted, out / "halted" / "trace.json")
    paths = sorted(out.rglob("traces/*.json")) + [out / "halted" / "trace.json"]
    return {path.relative_to(out).as_posix(): path for path in paths}


def rendering_digests(traces: dict[str, Path]) -> dict[str, str]:
    return {
        name: hashlib.sha256(cmd_inspect_trace(path).encode("utf-8")).hexdigest()
        for name, path in traces.items()
    }


def test_trace_files_round_trip_and_render_as_locked(tmp_path):
    traces = write_traces(tmp_path / "runs")
    kinds = {"error": 0, "halted": 0}
    for name, path in traces.items():
        result = load_trace(path)
        copy = tmp_path / "copy.json"
        save_trace(result, copy)
        assert copy.read_bytes() == path.read_bytes(), name
        kinds["halted"] += result.halted
        kinds["error"] += result.error is not None and not result.halted
    assert len(traces) == 163
    assert kinds == {"error": 20, "halted": 1}

    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    locked = {name: digest for digest, name in (line.split("  ", 1) for line in lines)}
    assert rendering_digests(traces) == locked


def test_every_run_reads_back_from_its_trace_record_equal(tmp_path):
    # the test set under each of four bundled scripts: a retried run, runs
    # the script leaves unanswered (error runs) and passing runs; plus a halt
    index = RetrieverIndex.build(load_corpus(bundled_data_path("corpus.jsonl")))
    testset = load_dataset(bundled_data_path("test.jsonl"))
    runs = [halted_run()]
    for task, script in (("multihop", "multihop_retry"), ("quiz", "quiz_fix"),
                         ("longform", "longform_all_pass"), ("tweet", "tweet_all_pass")):
        backend = CachingBackend(ScriptedBackend(load_script(bundled_data_path(f"scripts/{script}.json"))))
        runs += evaluate_dataset(task, build_program(task, index), testset, RuntimeConfig(), backend)[1]
    assert len(runs) == 25
    assert any(run.passes > 1 and run.final_outputs for run in runs)
    assert any(run.halted for run in runs) and any(run.error_type for run in runs)
    path = tmp_path / "trace.json"
    for run in runs:
        assert trace_from_dict(trace_to_dict(run)) == run
        save_trace(run, path)
        assert load_trace(path) == run


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = rendering_digests(write_traces(Path(scratch)))
    DIGESTS.write_text(format_digests(digests), encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
