"""Tests of the benchmark itself, kept out of the repository's test suite:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import client  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from lmpipe.backend import BackendError, EndpointConfig, HTTPBackend  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a")
    gen.generate(workload, 7, tmp_path / "b")
    gen.generate(workload, 8, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first["corpus.jsonl"] != _files(tmp_path / "c")["corpus.jsonl"]


def test_self_check_passes_and_retry_share_is_exact(tmp_path):
    spec = gen.generate("eval-live", 3, tmp_path)
    gen.self_check(tmp_path)
    for task in spec["tasks"]:
        report = json.loads((tmp_path / task / "reference" / "report.json").read_text())
        assert report["rows"] == json.loads((tmp_path / task / "expected.json").read_text())["rows"]
        traces = sorted((tmp_path / task / "reference" / "traces").glob("*.json"))
        attempts = [max(s["attempt"] for s in json.loads(t.read_text())["steps"]) for t in traces]
        assert attempts.count(1) == round(spec["test"] * gen.RETRY_ONCE_SHARE)
        assert attempts.count(2) == round(spec["test"] * gen.RETRY_TWICE_SHARE)


@pytest.fixture
def stub(tmp_path):
    (tmp_path / "m").mkdir()
    script = {"version": 1, "entries": [{"match": "hello", "mode": "substring", "responses": ["Answer: hi"]}]}
    (tmp_path / "m" / "script.json").write_text(json.dumps(script))
    process, base = run.start_stub(tmp_path)
    yield base
    run.stop(process)
    assert process.poll() is not None


def _post(base: str, prompt: str, model: str = "m"):
    body = json.dumps({"model": model, "messages": [{"role": "user", "content": prompt}], "n": 1})
    request = urllib.request.Request(base + "/chat/completions", data=body.encode(),
                                     headers={"Content-Type": "application/json"})
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    try:
        with opener.open(request, timeout=10) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def test_stub_answers_scripted_prompts_and_refuses_unscripted_ones(stub):
    status, payload = _post(stub, "say hello please")
    assert status == 200
    assert payload["choices"][0]["message"]["content"] == "Answer: hi"
    status, payload = _post(stub, "an unscripted prompt")
    assert status == 404 and "unscripted" in payload["error"]["message"]
    status, _ = _post(stub, "hello", model="other-model")
    assert status == 404
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    with opener.open(stub + "/stats", timeout=10) as response:
        stats = json.load(response)
    assert stats == {"requests": 3, "prompt_chars": len("say hello please")
                     + len("an unscripted prompt") + len("hello"), "unscripted": 2}


def test_unscripted_reply_is_a_backend_error_not_a_crash(stub, monkeypatch):
    monkeypatch.setenv("LM_API_KEY", "test")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    backend = HTTPBackend(EndpointConfig(model="m", api_base=stub))
    assert backend.generate("hello") == ["Answer: hi"]
    with pytest.raises(BackendError, match="404"):
        backend.generate("nothing matches this")


def _offline_pass(workdir: Path, traced: bool = False):
    workload = client.Workload(workdir, api_base=None)
    probe, tracer = spans.Probe(), spans.Tracer()
    probe.install()
    if traced:
        tracer.install()
    try:
        result = workload.run_pass(probe, traced)
    finally:
        if traced:
            tracer.uninstall()
        probe.uninstall()
    return result, tracer, probe


def test_corrupted_output_makes_error_rate_nonzero(tmp_path):
    gen.generate("eval-live", 4, tmp_path)
    result, _, _ = _offline_pass(tmp_path)
    assert (result.attempted, result.failed) == (64, 0)

    script_path = tmp_path / "multihop" / "script.json"
    script = json.loads(script_path.read_text())
    entry = next(e for e in script["entries"] if "\nAnswer: " in e["responses"][0])
    entry["responses"] = [entry["responses"][0].rsplit("Answer: ", 1)[0] + "Answer: Nowhere"]
    script_path.write_text(json.dumps(script))
    result, _, _ = _offline_pass(tmp_path)
    assert result.failed == 1


def test_set_up_and_cpu_bound_passes_are_scaled_by_machine_speed(tmp_path, monkeypatch):
    gen.generate("eval-live", 4, tmp_path)
    monkeypatch.setattr(client, "machine_speed", lambda: 1000.0)
    workload = client.Workload(tmp_path, api_base=None)
    start = time.perf_counter()
    assert workload.setup_once() > 100 * (time.perf_counter() - start)
    probe = spans.Probe()
    probe.install()
    try:
        for cpu_bound in (False, True):
            workload.cpu_bound = cpu_bound
            probe.latencies.clear()
            start = time.perf_counter()
            result = workload.run_pass(probe, False)
            elapsed = time.perf_counter() - start
            assert (result.wall > 100 * elapsed) == cpu_bound
            assert result.raw_wall <= elapsed
            assert (result.cpu > 100 * elapsed) == cpu_bound
            assert (sum(probe.latencies) > 100 * elapsed) == cpu_bound
    finally:
        probe.uninstall()


def test_compile_artifacts_must_match_the_reference(tmp_path):
    gen.generate("compile-live", 4, tmp_path)
    gen.self_check(tmp_path)
    result, _, probe = _offline_pass(tmp_path)
    assert (result.attempted, result.failed) == (2, 0)
    assert result.examples == 2 * (8 + 6)
    assert len(probe.latencies) > result.examples
    artifact = json.loads((tmp_path / "multihop" / "reference" / "compiled_program.json").read_text())
    assert any(module["counterexamples"] for module in artifact["modules"].values())

    reference = tmp_path / "multihop" / "reference" / "compiled_program.json"
    reference.write_bytes(reference.read_bytes() + b" ")
    result, _, _ = _offline_pass(tmp_path)
    assert result.failed == 1


def test_traced_pass_reports_every_layer_metric(tmp_path):
    gen.generate("compile-live", 5, tmp_path)
    gen.self_check(tmp_path)
    result, tracer, probe = _offline_pass(tmp_path, traced=True)
    metrics = spans.layer_metrics(tracer.spans, {0: result.wall})
    assert set(metrics) | {"trace.overhead_ms", "trace.overhead_share"} == set(run.metric_units(1))
    assert metrics["runtime.runs"] == len(probe.latencies)
    assert metrics["optimizers.candidates"] == 12
    assert 0 < metrics["backend.cache_hit_rate"] < 1
    assert metrics["optimizers.harvest_yield"] == 1.0
    for span in tracer.spans:
        assert span.start <= span.end


def test_worker_thread_runs_are_children_of_the_dataset_span(tmp_path):
    gen.generate("eval-live", 6, tmp_path)
    result, tracer, _ = _offline_pass(tmp_path, traced=True)
    datasets = {s.id for s in tracer.spans if s.name == "evaluation.dataset"}
    runs = [s for s in tracer.spans if s.name == "runtime.run"]
    assert len(datasets) == 4 and len(runs) == result.examples == 64
    assert all(r.parent in datasets for r in runs)
    own = spans.self_times(tracer.spans)
    for dataset in (s for s in tracer.spans if s.id in datasets):
        longest_child = max(s.end - s.start for s in tracer.spans if s.parent == dataset.id)
        assert 0 <= own[dataset.id] <= dataset.end - dataset.start - longest_child


def test_self_time_subtracts_the_union_of_parallel_children():
    records = [SimpleNamespace(id=i, parent=p, start=a, end=b) for i, p, a, b in [
        (1, 0, 0.0, 10.0), (2, 1, 1.0, 5.0), (3, 1, 3.0, 7.0), (4, 2, 2.0, 3.0)]]
    assert spans.self_times(records) == {1: 4.0, 2: 3.0, 3: 4.0, 4: 1.0}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-live", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
