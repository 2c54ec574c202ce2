"""Byte-identical offline artifacts, locked by digest.

Runs the offline CLI matrix in process, through ``cli.assemble_run_config``,
``cmd_compile`` and ``cmd_eval``, and compares the sha256 of every file it
writes with ``tests/golden/offline_artifacts.sha256``. Every eval's
``report.json`` must also follow from its trace files and the test set alone.

The digest file is a regression lock, not a hand-made oracle: it records what
the code wrote when the file was generated, so a change that alters any
artifact, report, summary or trace byte fails here. Regenerate it only for a
deliberate format change, with::

    python tests/test_offline_artifacts.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from lmpipe import cli
from lmpipe.evaluation import build_report, score_example
from lmpipe.metrics import load_dataset
from lmpipe.runtime import load_trace, write_json
from lmpipe.tasks import TASKS

DIGESTS = Path(__file__).parent / "golden" / "offline_artifacts.sha256"


def matrix() -> list[tuple[str, str, str]]:
    """(task, script file, strategy) for every run of the matrix."""
    runs = [(task, f"{task}_all_pass.json", label) for task in TASKS for label in cli.STRATEGY_LABELS]
    runs += [(task, f"{task}_{kind}.json", label)
             for task, kind in (("multihop", "retry"), ("quiz", "fix"))
             for label in ("vanilla", "infer_assert")]
    runs += [("multihop", "multihop_teacher_assert.json", label)
             for label in ("compile", "compile_assert", "compile_infer_assert")]
    return runs


def run_dir(out: Path, script_name: str, label: str) -> Path:
    return out / Path(script_name).stem / label


def run_matrix(out: Path) -> dict[str, str]:
    """Run every entry of the matrix under ``out``; sha256 by relative path."""
    data = cli.bundled_data_path
    for task, script_name, label in matrix():
        directory = run_dir(out, script_name, label)
        script = str(data(f"scripts/{script_name}"))
        artifact = None
        if cli._STRATEGIES[label][1] is not None:  # it has a teacher
            config = cli.assemble_run_config(task, label, str(directory / "compile"),
                                             offline=True, script=script)
            artifact = cli.cmd_compile(config, data("train.jsonl"), data("dev.jsonl"))
        config = cli.assemble_run_config(task, label, str(directory / "eval"), offline=True, script=script)
        cli.cmd_eval(config, data("test.jsonl"), artifact)
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def format_digests(digests: dict[str, str]) -> str:
    return "".join(f"{digest}  {name}\n" for name, digest in sorted(digests.items()))


@pytest.fixture(scope="module")
def matrix_run(tmp_path_factory) -> tuple[Path, dict[str, str]]:
    out = tmp_path_factory.mktemp("matrix")
    return out, run_matrix(out)


def test_offline_artifacts_match_locked_digests(matrix_run):
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    assert matrix_run[1] == {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def test_reports_rescore_from_their_traces(matrix_run, tmp_path):
    out = matrix_run[0]
    examples = load_dataset(cli.bundled_data_path("test.jsonl"))
    for task, script_name, label in matrix():
        eval_dir = run_dir(out, script_name, label) / "eval"
        rows = [score_example(task, example, load_trace(eval_dir / "traces" / f"example_{i:03d}.json"))
                for i, example in enumerate(examples)]
        report = build_report(task, label, rows)
        write_json(report, tmp_path / "report.json")
        assert (tmp_path / "report.json").read_bytes() == (eval_dir / "report.json").read_bytes(), eval_dir


def test_every_outcome_names_the_module_of_the_step_it_judged(matrix_run):
    traces = sorted(matrix_run[0].rglob("traces/*.json"))
    assert traces
    targeted = 0
    for path in traces:
        result = load_trace(path)
        for outcome in result.constraints:
            if outcome.target_module:
                targeted += 1
                assert result.steps[outcome.step].module_id == outcome.target_module, path
    assert targeted


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = run_matrix(Path(scratch))
    DIGESTS.write_text(format_digests(digests), encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
