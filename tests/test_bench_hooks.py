"""The benchmark's probes (perfbench/spans.py) patch lmpipe attributes by name.

These tests keep those hook points in place: renaming a hooked function, or
calling it other than through the binding the probe patches, fails here.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from lmpipe import backend, cli, evaluation, modules, optimizers, retrieval, runtime, tasks
from lmpipe.metrics import load_dataset

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402

MODULES = (backend, cli, evaluation, modules, optimizers, retrieval, runtime, tasks)


def snapshot() -> dict:
    """Every attribute of lmpipe's modules and of the classes they define."""
    owners = list(MODULES) + [
        value for module in MODULES for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


@pytest.mark.parametrize("hooks", [spans.Probe, spans.Tracer])
def test_install_patches_and_uninstall_restores(hooks):
    before = snapshot()
    installed = hooks()
    installed.install()
    try:
        patched = [key for key, value in snapshot().items() if value is not before.get(key)]
    finally:
        installed.uninstall()
    assert patched
    after = snapshot()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def data(name: str) -> Path:
    return cli.bundled_data_path(name)


def compile_then_eval(tmp_path: Path, task: str) -> None:
    script = str(data(f"scripts/{task}_all_pass.json"))
    config = cli.assemble_run_config(task, "compile_assert", str(tmp_path / "compile"),
                                     offline=True, script=script)
    artifact = cli.cmd_compile(config, data("train.jsonl"), data("dev.jsonl"))
    config = cli.assemble_run_config(task, "compile_assert", str(tmp_path / "eval"),
                                     offline=True, script=script)
    cli.cmd_eval(config, data("test.jsonl"), artifact)


def test_probe_times_every_example_run(tmp_path, monkeypatch):
    runs = []
    engine = evaluation.run_with_backtracking

    def counted(*args, **kwargs):
        runs.append(args)
        return engine(*args, **kwargs)

    monkeypatch.setattr(evaluation, "run_with_backtracking", counted)
    probe = spans.Probe()
    probe.install()
    try:
        compile_then_eval(tmp_path, "quiz")
    finally:
        probe.uninstall()
    n_dev, n_test = (len(load_dataset(data(name))) for name in ("dev.jsonl", "test.jsonl"))
    # teacher runs for six candidates, at least one dev set, and the test set
    assert len(probe.latencies) == len(runs) > 6 + n_dev + n_test
    assert len(probe.backends) == 2


def test_tracer_sees_every_layer(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        compile_then_eval(tmp_path, "multihop")
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert names == {
        "cli.command", "cli.make_program", "cli.make_backend", "cli.write",
        "evaluation.dataset", "evaluation.score", "optimizers.search", "optimizers.bootstrap",
        "runtime.run", "runtime.forward", "runtime.call", "core.render", "modules.parse",
        "backend.generate", "backend.inner", "retrieval.retrieve", "retrieval.build",
    }
    # the harvest counter wraps the metric that bootstrap calls
    assert sum(span.hits for span in tracer.spans if span.name == "optimizers.bootstrap") > 0
