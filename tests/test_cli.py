from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import pytest

from cli_runner import invoke
from lmpipe import cli, evaluation
from lmpipe.backend import CachingBackend, ScriptEntry, ScriptedBackend
from lmpipe.cli import (
    _STRATEGIES,
    STRATEGY_LABELS,
    assemble_run_config,
    bundled_data_path,
    cmd_compile,
    cmd_inspect_trace,
    runtimes,
)
from lmpipe.core import parse_signature
from lmpipe.evaluation import run_task_example
from lmpipe.modules import PredictModule
from lmpipe.optimizers import CompileConfig, load_compiled_program, save_compiled_program
from lmpipe import runtime
from lmpipe.runtime import (
    DISABLE_ALL,
    TRACE_VERSION,
    Program,
    RuntimeConfig,
    load_trace,
    run_with_backtracking,
    save_trace,
    trace_to_dict,
)
from lmpipe.tasks import COMPLETE, INSTRUCTIONS, PRIMITIVE, TASKS


def data(name: str) -> str:
    return str(bundled_data_path(name))


def test_strategy_table_round_trips():
    for label in STRATEGY_LABELS:
        config = assemble_run_config("multihop", label, "out")
        assert config.strategy == label
        runtimes(config.strategy, config.runtime)  # resolves, with or without a teacher


def test_strategy_flags_match_table():
    asserting, naive = RuntimeConfig(), RuntimeConfig(handler_policy=DISABLE_ALL)
    rows = {
        "vanilla": (naive, None),
        "infer_assert": (asserting, None),
        "compile": (naive, naive),
        "compile_assert": (naive, asserting),
        "compile_infer_assert": (asserting, asserting),
    }
    assert {label: runtimes(label, RuntimeConfig()) for label in STRATEGY_LABELS} == rows


def test_readme_strategy_table_matches_strategies():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    lines = readme[readme.index("| strategy "):].splitlines()
    cell = {"yes": True, "no": False, "–": None}
    table = {}
    for line in lines[2:]:  # after the header and its rule
        if not line.startswith("|"):
            break
        label, *flags = [part.strip() for part in line.strip("|").split("|")]
        table[label.strip("`")] = tuple(cell[flag] for flag in flags)
    # the compiled column reads "the strategy has a teacher"
    assert table == {
        label: (teacher is not None, student, teacher) for label, (student, teacher) in _STRATEGIES.items()
    }


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match=r"unknown strategy 'mystery'; expected one of \('vanilla', "):
        assemble_run_config("multihop", "mystery", "out")


def test_a_run_config_with_an_unknown_strategy_is_rejected(tmp_path):
    # built directly, not only through the command line
    with pytest.raises(ValueError, match=r"unknown strategy 'Vanilla'; expected one of \('vanilla', "):
        cli.RunConfig(task="quiz", strategy="Vanilla", out_dir=tmp_path)
    # the config file is read first: its error comes before the label's
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"runtime": {"max_retries": -1}}))
    with pytest.raises(ValueError, match="max_retries"):
        assemble_run_config("multihop", "mystery", "out", config_file=str(config))


def test_offline_requires_script():
    with pytest.raises(ValueError, match="script"):
        assemble_run_config("multihop", "vanilla", "out", offline=True)


def test_eval_vanilla_offline(tmp_path):
    out = tmp_path / "run"
    result = invoke([
        "eval", "--task", "multihop", "--strategy", "vanilla",
        "--test", data("test.jsonl"), "--offline",
        "--script", data("scripts/multihop_all_pass.json"),
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["strategy"] == "vanilla"
    assert report["n_examples"] == 6
    assert report["metrics"]["answer_em"] == 1.0
    assert report["metrics"]["retrieval_recall"] == 1.0
    assert (out / "summary.txt").read_text().startswith("task:     multihop")
    assert len(list((out / "traces").glob("*.json"))) == 6


def test_eval_reports_are_deterministic(tmp_path):
    def run(into: Path) -> bytes:
        result = invoke([
            "eval", "--task", "quiz", "--strategy", "infer_assert",
            "--test", data("test.jsonl"), "--offline",
            "--script", data("scripts/quiz_all_pass.json"),
            "--out", str(into),
        ])
        assert result.exit_code == 0, result.output
        return (into / "report.json").read_bytes()

    assert run(tmp_path / "a") == run(tmp_path / "b")


def write_config(tmp_path: Path, payload: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_eval_applies_configured_handler_policy(tmp_path):
    def dispositions(extra: list[str], out: Path) -> list[str]:
        result = invoke([
            "eval", "--task", "quiz", "--strategy", "infer_assert",
            "--test", data("test.jsonl"), "--offline",
            "--script", data("scripts/quiz_fix.json"), *extra, "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        return [
            outcome.disposition
            for path in sorted((out / "traces").glob("*.json"))
            for outcome in load_trace(path).constraints
        ]

    assert "retried" in dispositions([], tmp_path / "default")
    config = write_config(tmp_path, {"runtime": {"handler_policy": "bypass_suggest_only"}})
    bypassed = dispositions(["--config", config], tmp_path / "bypass")
    assert "retried" not in bypassed
    assert "warned" in bypassed


@pytest.mark.parametrize("policy", ["suppress_assert_log", "bypass_suggest_only"])
def test_compile_teacher_runs_use_configured_handler_policy(tmp_path, monkeypatch, policy):
    seen = []

    def recording(program, example, runtime, backend):
        seen.append(runtime.handler_policy)
        return run_task_example(program, example, runtime, backend)

    monkeypatch.setattr(cli, "run_task_example", recording)
    config = assemble_run_config(
        "multihop", "compile_assert", str(tmp_path / "out"),
        write_config(tmp_path, {"runtime": {"handler_policy": policy}}),
        offline=True, script=data("scripts/multihop_all_pass.json"),
    )
    cmd_compile(config, Path(data("train.jsonl")), Path(data("dev.jsonl")))
    # the teacher runs under the configured policy; validation never retries
    assert set(seen) == {policy, DISABLE_ALL}


def test_eval_workers_match_serial(tmp_path):
    outputs = []
    for name, workers in (("serial", "1"), ("parallel", "3")):
        out = tmp_path / name
        result = invoke([
            "eval", "--task", "tweet", "--strategy", "infer_assert",
            "--test", data("test.jsonl"), "--offline",
            "--script", data("scripts/tweet_all_pass.json"),
            "--workers", workers, "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        outputs.append((out / "report.json").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_eval_rejects_workers_below_one(tmp_path, workers):
    out = tmp_path / "out"
    result = invoke([
        "eval", "--task", "tweet", "--strategy", "vanilla",
        "--test", data("test.jsonl"), "--offline",
        "--script", data("scripts/tweet_all_pass.json"),
        "--workers", workers, "--out", str(out),
    ])
    assert result.exit_code == 2
    assert "--workers" in result.output and ">=1" in result.output
    assert not out.exists()


def test_eval_rejects_workers_that_are_not_an_integer(tmp_path):
    out = tmp_path / "out"
    result = invoke([
        "eval", "--task", "tweet", "--strategy", "vanilla",
        "--test", data("test.jsonl"), "--offline",
        "--script", data("scripts/tweet_all_pass.json"),
        "--workers", "abc", "--out", str(out),
    ])
    assert result.exit_code == 2
    assert "--workers" in result.output and "'abc' is not a valid integer" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command, option", [
    ("compile", "--train"), ("compile", "--dev"), ("compile", "--config"), ("compile", "--script"),
    ("eval", "--test"), ("eval", "--artifact"), ("eval", "--config"), ("eval", "--script"),
    ("inspect-trace", "path"),
])
def test_a_missing_path_is_a_usage_error_naming_its_option(tmp_path, command, option):
    out, config = tmp_path / "out", write_config(tmp_path, {})
    shared = ["--config", config, "--offline", "--script", data("scripts/multihop_all_pass.json"), "--out", str(out)]
    args = {
        "compile": ["compile", "--task", "multihop", "--strategy", "compile",
                    "--train", data("train.jsonl"), "--dev", data("dev.jsonl"), *shared],
        "eval": ["eval", "--task", "multihop", "--strategy", "compile", "--test", data("test.jsonl"),
                 "--artifact", config, *shared],
        "inspect-trace": ["inspect-trace", config],
    }[command]
    # Path("") is ".", which exists; an empty string still names no path
    for missing in (str(tmp_path / "missing.json"), ""):
        args[-1 if option == "path" else args.index(option) + 1] = missing
        result = invoke(args)
        assert result.exit_code == 2
        assert f"argument {option}: path {missing!r} does not exist" in result.output
        assert not out.exists()


@pytest.mark.parametrize("payload, key", [
    pytest.param({"backend": {"script": ""}}, "backend script", id="backend-script"),
    pytest.param({"corpus": ""}, "corpus", id="corpus"),
])
def test_an_empty_path_in_the_config_is_an_error_naming_its_key(tmp_path, monkeypatch, payload, key):
    # with a script named "", an offline eval went live: every request reached the endpoint
    monkeypatch.setenv("LM_API_KEY", "sk-test")
    monkeypatch.setenv("LM_API_BASE", "http://127.0.0.1:9")
    monkeypatch.setattr(cli, "HTTPBackend", None)  # building one fails the test
    config, out = write_config(tmp_path, payload), tmp_path / "out"
    result = invoke(["eval", "--task", "multihop", "--strategy", "vanilla", "--test", data("test.jsonl"),
                     "--offline", "--config", config, "--out", str(out)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {config}: config {key} is an empty string, not a path\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["config_file", "script"])
def test_assemble_run_config_takes_no_empty_path(name):
    with pytest.raises(ValueError, match=f"^{name} is an empty string, not a path$"):
        assemble_run_config("multihop", "vanilla", "out", offline=True, **{name: ""})


def test_compile_then_eval_compiled_strategy(tmp_path):
    compile_out = tmp_path / "compiled"
    result = invoke([
        "compile", "--task", "multihop", "--strategy", "compile_assert",
        "--train", data("train.jsonl"), "--dev", data("dev.jsonl"),
        "--offline", "--script", data("scripts/multihop_all_pass.json"),
        "--out", str(compile_out),
    ])
    assert result.exit_code == 0, result.output
    artifact = compile_out / "compiled_program.json"
    assert artifact.exists()
    candidates = json.loads((compile_out / "candidates.json").read_text())
    # candidate 0 scores 1.0 on the dev set, so the other five stop before it
    assert [c["index"] for c in candidates["candidates"]] == [0]
    assert [(p["index"], p["dev_scored"]) for p in candidates["pruned"]] == [(i, 0) for i in range(1, 6)]
    saved = json.loads(artifact.read_text())
    queries = [d["query"] for d in saved["modules"]["generate_query"]["demos"]]
    assert queries and all(len(q) < 100 for q in queries)

    eval_out = tmp_path / "eval"
    result = invoke([
        "eval", "--task", "multihop", "--strategy", "compile_assert",
        "--test", data("test.jsonl"), "--artifact", str(artifact),
        "--offline", "--script", data("scripts/multihop_all_pass.json"),
        "--out", str(eval_out),
    ])
    assert result.exit_code == 0, result.output
    report = json.loads((eval_out / "report.json").read_text())
    assert report["metrics"]["answer_em"] == 1.0


def test_compile_rejects_uncompiled_strategy(tmp_path):
    result = invoke([
        "compile", "--task", "multihop", "--strategy", "vanilla",
        "--train", data("train.jsonl"), "--dev", data("dev.jsonl"),
        "--offline", "--script", data("scripts/multihop_all_pass.json"),
        "--out", str(tmp_path / "x"),
    ])
    assert result.exit_code != 0
    assert "does not compile" in result.output


@pytest.mark.parametrize("strategy", ["vanilla", "infer_assert"])
def test_eval_strategy_without_a_teacher_takes_no_artifact(tmp_path, strategy):
    out = tmp_path / "x"
    result = invoke([
        "eval", "--task", "multihop", "--strategy", strategy, "--test", data("test.jsonl"),
        "--artifact", str(Path(__file__).parent.parent / "README.md"), "--offline",
        "--script", data("scripts/multihop_all_pass.json"), "--out", str(out),
    ])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"Error: strategy {strategy!r} does not compile; it takes no artifact (--artifact)\n"
    assert not out.exists()


def test_eval_compiled_strategy_requires_artifact(tmp_path):
    result = invoke([
        "eval", "--task", "multihop", "--strategy", "compile",
        "--test", data("test.jsonl"), "--offline",
        "--script", data("scripts/multihop_all_pass.json"),
        "--out", str(tmp_path / "x"),
    ])
    assert result.exit_code != 0
    assert "artifact" in result.output


def test_eval_replaces_traces_of_an_earlier_run(tmp_path, monkeypatch):
    out = tmp_path / "out"

    def trace_names(test_path: str) -> list[str]:
        result = invoke([
            "eval", "--task", "multihop", "--strategy", "vanilla",
            "--test", test_path, "--offline",
            "--script", data("scripts/multihop_all_pass.json"),
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        return sorted(path.name for path in (out / "traces").iterdir())

    assert trace_names(data("test.jsonl")) == [f"example_{i:03d}.json" for i in range(6)]
    (out / "traces" / "notes.txt").write_text("not a trace")
    lines = Path(data("test.jsonl")).read_text(encoding="utf-8").splitlines(keepends=True)
    two = tmp_path / "two.jsonl"
    two.write_text("".join(lines[:2]), encoding="utf-8")
    assert trace_names(str(two)) == ["example_000.json", "example_001.json", "notes.txt"]

    # an example that fails outside the backend has no trace: its old one goes too
    first = json.loads(lines[0])["question"]
    score = evaluation.score_example

    def failing_first(task, example, *args):
        if example.question == first:
            raise RuntimeError("scoring bug")
        return score(task, example, *args)

    monkeypatch.setattr(evaluation, "score_example", failing_first)
    assert trace_names(str(two)) == ["example_001.json", "notes.txt"]
    report = json.loads((out / "report.json").read_text())
    assert report["n_examples"] == 2 and report["rows"][0]["error_type"] == "RuntimeError"


def test_eval_over_an_earlier_run_writes_the_files_of_a_fresh_run(tmp_path):
    # the first example is the one the retry script answers: under vanilla its
    # run does not retry, so every file of the second run is shorter
    first = Path(data("test.jsonl")).read_text(encoding="utf-8").splitlines(keepends=True)[0]
    test_path = tmp_path / "one.jsonl"
    test_path.write_text(first, encoding="utf-8")

    def run(strategy: str, out: Path) -> dict[str, bytes]:
        result = invoke([
            "eval", "--task", "multihop", "--strategy", strategy,
            "--test", str(test_path), "--offline",
            "--script", data("scripts/multihop_retry.json"),
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        return {path.relative_to(out).as_posix(): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()}

    earlier = run("infer_assert", tmp_path / "reused")
    rewritten = run("vanilla", tmp_path / "reused")
    assert rewritten == run("vanilla", tmp_path / "fresh")
    assert sorted(rewritten) == sorted(earlier) == \
        ["report.json", "summary.txt", "traces/example_000.json"]
    assert all(len(rewritten[name]) < len(earlier[name]) for name in rewritten)


def test_eval_empty_dataset_flagged(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "out"
    result = invoke([
        "eval", "--task", "multihop", "--strategy", "vanilla",
        "--test", str(empty), "--offline",
        "--script", data("scripts/multihop_all_pass.json"),
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["n_examples"] == 0
    assert "empty_dataset" in report["flags"]


def test_eval_partial_failures_exit_zero(tmp_path):
    # script covering a single question: the other five become error rows, but
    # the run still completes successfully
    out = tmp_path / "out"
    result = invoke([
        "eval", "--task", "multihop", "--strategy", "infer_assert",
        "--test", data("test.jsonl"), "--offline",
        "--script", data("scripts/multihop_retry.json"),
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    failures = [row for row in report["rows"] if "error" in row]
    assert 0 < len(failures) < len(report["rows"])
    assert f"{len(failures)}_examples_failed" in report["flags"]


def test_eval_backend_error_rows_leave_traces(tmp_path):
    # multihop_retry.json scripts only the first question: the other five
    # examples fail on their first call, and each still gets a trace file
    out = tmp_path / "out"
    result = invoke([
        "eval", "--task", "multihop", "--strategy", "infer_assert",
        "--test", data("test.jsonl"), "--offline",
        "--script", data("scripts/multihop_retry.json"),
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    rows = json.loads((out / "report.json").read_text())["rows"]
    traces = sorted((out / "traces").glob("*.json"))
    assert len(traces) == len(rows) == 6
    errors = [json.loads(path.read_text())["error"] for path in traces]
    assert errors == [row.get("error") for row in rows]
    assert errors.count(None) == 1
    assert cmd_inspect_trace(traces[1]) == f"passes: 1\nerror: {rows[1]['error']}\n"


def test_backend_error_trace_keeps_completed_steps(tmp_path):
    question = "In which city was the designer of the Oakhaven Amphitheatre born?"
    script = tmp_path / "hop1_only.json"
    script.write_text(json.dumps({"version": 1, "entries": [
        {"match": f"Context: N/A\nQuestion: {question}", "mode": "substring",
         "responses": ["Reasoning: r\nQuery: Oakhaven Amphitheatre"]},
    ]}))
    dataset = tmp_path / "one.jsonl"
    dataset.write_text(json.dumps({"question": question, "answer": "Seabrink"}) + "\n")
    out = tmp_path / "out"
    result = invoke([
        "eval", "--task", "multihop", "--strategy", "vanilla", "--test", str(dataset),
        "--offline", "--script", str(script), "--out", str(out),
    ])
    assert result.exit_code == 1  # the only example failed
    path = out / "traces" / "example_000.json"
    saved = json.loads(path.read_text())
    assert [step["module_id"] for step in saved["steps"]] == ["generate_query"]
    assert saved["final_outputs"] is None and not saved["halted"]
    rendered = cmd_inspect_trace(path)
    assert "Oakhaven Amphitheatre" in rendered
    assert rendered.splitlines()[-1] == f"error: {saved['error']}"
    assert saved["error"].startswith("unscripted prompt")
    # the hop-1 search ran before the error, so the partial run records it
    assert [r["query"] for r in saved["retrievals"]] == ["Oakhaven Amphitheatre"]
    assert "retrieve k=3  Oakhaven Amphitheatre" in rendered


def test_eval_over_the_pass_budget_leaves_an_error_row_and_a_trace(tmp_path, monkeypatch):
    # every query is too long: a pass budget of 4 stops the run in hop 2's
    # retries, after hop 1's query warned and its search ran
    question = "In which city was the designer of the Oakhaven Amphitheatre born?"
    script = tmp_path / "long_queries.json"
    script.write_text(json.dumps({"version": 1, "entries": [
        {"match": "Query: ${query}", "responses": ["Reasoning: r\nQuery: " + "x" * 120]},
    ]}))
    dataset = tmp_path / "one.jsonl"
    dataset.write_text(json.dumps({"question": question, "answer": "Seabrink"}) + "\n")
    monkeypatch.setattr(runtime, "_MAX_PASSES", 4)
    out = tmp_path / "out"
    result = invoke([
        "eval", "--task", "multihop", "--strategy", "infer_assert", "--test", str(dataset),
        "--offline", "--script", str(script), "--out", str(out),
    ])
    assert result.exit_code == 1  # the only example failed
    row = json.loads((out / "report.json").read_text())["rows"][0]
    assert row["error_type"] == "PassBudgetExceeded"
    path = out / "traces" / "example_000.json"
    saved = load_trace(path)
    assert saved.error == row["error"] and saved.final_outputs is None and not saved.halted
    assert saved.passes == 4
    assert [s.attempt for s in saved.steps] == [0, 1, 2, 0, 1]
    assert [r.query for r in saved.retrievals] == ["x" * 120]
    assert cmd_inspect_trace(path).splitlines()[-2:] == ["passes: 4", f"error: {row['error']}"]


def test_compile_backend_error_is_one_line(tmp_path):
    # the retry script answers one question, so a teacher run on another
    # reaches an unscripted prompt
    result = invoke([
        "compile", "--task", "multihop", "--strategy", "compile_assert",
        "--train", data("test.jsonl"), "--dev", data("dev.jsonl"),
        "--offline", "--script", data("scripts/multihop_retry.json"), "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.splitlines()[-1].startswith("Error: UnscriptedPromptError: unscripted prompt")


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("command", ["eval", "compile"])
def test_commands_close_the_backend_they_made(tmp_path, monkeypatch, command, fails):
    made, closed = [], []
    make_backend = cli.make_backend

    def keep(config):
        made.append(make_backend(config))
        return made[-1]

    monkeypatch.setattr(cli, "make_backend", keep)
    monkeypatch.setattr(CachingBackend, "close", lambda self: closed.append(self))
    def no_program(config):
        raise ValueError("no program")

    if fails:
        monkeypatch.setattr(cli, "make_program", no_program)
    strategy = "compile_assert" if command == "compile" else "vanilla"
    config = assemble_run_config("multihop", strategy, str(tmp_path / "out"), offline=True,
                                 script=data("scripts/multihop_all_pass.json"))
    if command == "compile":
        def run():
            cmd_compile(config, Path(data("train.jsonl")), Path(data("dev.jsonl")))
    else:
        def run():
            cli.cmd_eval(config, Path(data("test.jsonl")))
    if fails:
        with pytest.raises(ValueError, match="no program"):
            run()
    else:
        run()
    assert len(made) == 1 and closed == made


def test_compile_over_the_pass_budget_is_one_line(tmp_path, monkeypatch):
    question = "In which city was the designer of the Oakhaven Amphitheatre born?"
    script = tmp_path / "long_queries.json"
    script.write_text(json.dumps({"version": 1, "entries": [
        {"match": "Query: ${query}", "responses": ["Reasoning: r\nQuery: " + "x" * 120]},
    ]}))
    dataset = tmp_path / "one.jsonl"
    dataset.write_text(json.dumps({"question": question, "answer": "Seabrink"}) + "\n")
    monkeypatch.setattr(runtime, "_MAX_PASSES", 4)
    result = invoke([
        "compile", "--task", "multihop", "--strategy", "compile_assert", "--train", str(dataset),
        "--dev", str(dataset), "--offline", "--script", str(script), "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.splitlines()[-1] == (
        "Error: PassBudgetExceeded: backtracking did not terminate within the pass budget")


def test_eval_all_failures_exits_nonzero(tmp_path):
    # script with no matching entries: every example fails with a backend error
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"version": 1, "entries": [
        {"match": "never ever matches", "mode": "substring", "responses": ["x"]},
    ]}))
    out = tmp_path / "out"
    result = invoke([
        "eval", "--task", "multihop", "--strategy", "vanilla",
        "--test", data("test.jsonl"), "--offline", "--script", str(bogus),
        "--out", str(out),
    ])
    assert result.exit_code == 1
    report = json.loads((out / "report.json").read_text())
    assert all("error" in row for row in report["rows"])


class HaltingProgram(Program):
    def __init__(self):
        super().__init__()
        self.gen = self.register(PredictModule(
            module_id="gen", signature=parse_signature("prompt -> value")))

    def forward(self, ctx, prompt):
        pred = ctx.call(self.gen, prompt=prompt)
        ctx.check_assert(pred["value"] == "ok", "Value must be ok", label="must_ok")
        return pred


def run_and_save(tmp_path: Path, fails: int, max_retries: int = 1) -> Path:
    backend = CachingBackend(ScriptedBackend([
        ScriptEntry(match="Prompt: go", responses=["Value: bad"] * fails + ["Value: ok"]),
    ]))
    result = run_with_backtracking(HaltingProgram(), {"prompt": "go"},
                                   RuntimeConfig(max_retries=max_retries), backend)
    path = tmp_path / "trace.json"
    save_trace(result, path)
    return path


def test_inspect_trace_halted_run(tmp_path):
    path = run_and_save(tmp_path, fails=5, max_retries=1)
    rendered = cmd_inspect_trace(path)
    assert rendered.rstrip().endswith("HALTED")
    assert "Value must be ok" in rendered
    assert rendered.count("RETRY") == 1


def test_inspect_trace_all_pass_has_no_retry_lines(tmp_path):
    path = run_and_save(tmp_path, fails=0)
    rendered = cmd_inspect_trace(path)
    assert "RETRY" not in rendered
    assert rendered.rstrip().endswith("completed")


def test_inspect_trace_fail_fail_pass_shows_two_retry_lines(tmp_path):
    path = run_and_save(tmp_path, fails=2, max_retries=2)
    rendered = cmd_inspect_trace(path)
    assert rendered.count("RETRY") == 2


def test_indented_trace_loads_and_renders_as_its_one_line_file(tmp_path):
    # indented trace files, as earlier versions wrote them, must still load and render
    out = tmp_path / "out"
    result = invoke([
        "eval", "--task", "multihop", "--strategy", "infer_assert",
        "--test", data("test.jsonl"), "--offline",
        "--script", data("scripts/multihop_retry.json"),
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    for path in sorted((out / "traces").iterdir()):
        one_line = path.read_text(encoding="utf-8")
        assert one_line.count("\n") == 1
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(json.loads(one_line), indent=2, ensure_ascii=False, sort_keys=True)
                            + "\n", encoding="utf-8")
        assert trace_to_dict(load_trace(indented)) == trace_to_dict(load_trace(path))
        rendered = [invoke(["inspect-trace", str(p)]) for p in (path, indented)]
        assert rendered[0].exit_code == rendered[1].exit_code == 0
        assert rendered[0].output == rendered[1].output


def test_inspect_trace_cli_version_mismatch(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"version": 9, "steps": []}))
    result = invoke(["inspect-trace", str(path)])
    assert result.exit_code != 0
    assert f"file has 9, supported is {TRACE_VERSION}" in result.output


def test_inspect_trace_cli_renders(tmp_path):
    path = run_and_save(tmp_path, fails=1, max_retries=2)
    result = invoke(["inspect-trace", str(path)])
    assert result.exit_code == 0
    assert "gen" in result.output


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme[readme.index("can set any of:"):].split("```")[1]
    payload = json.loads(block.removeprefix("json"))
    config = assemble_run_config("multihop", "vanilla", str(tmp_path), write_config(tmp_path, payload))
    assert (config.model, config.corpus_path) == ("gpt-3.5-turbo", Path("optional/path/corpus.jsonl"))
    assert config.compile_config.num_candidates == 6


@pytest.mark.parametrize("payload, error", [
    ({"runtime": {"max_retry": 0}}, "unknown key 'max_retry' in config runtime"),
    ({"backend": {"model": "m", "apibase": "http://127.0.0.1:9"}}, "unknown key 'apibase' in config backend"),
    ({"corpus": "c.jsonl", "retries": 1}, "unknown key 'retries' in config"),
    ({"runtime": 0}, "config runtime must be a JSON object, got 0"),
    ([], "config must be a JSON object"),
    ({"instructions": "bogus"},
     "config instructions must be one of ('primitive', 'complete'), got 'bogus'"),
    ({"backend": {"mode": "scripted"}}, "unknown key 'mode' in config backend"),
    ({"runtime": {"max_retries": "2"}}, "config runtime max_retries must be an integer, got '2'"),
    ({"runtime": {"max_retries": 0.5}}, "config runtime max_retries must be an integer, got 0.5"),
    ({"runtime": {"max_retries": True}}, "config runtime max_retries must be an integer, got True"),
    ({"compile": {"num_candidates": "3"}}, "config compile num_candidates must be an integer, got '3'"),
    ({"corpus": 5}, "config corpus must be a string or null, got 5"),
    ({"runtime": {"max_retries": -1}}, "max_retries must be >= 0"),
    ({"runtime": {"handler_policy": "bogus"}}, "unknown handler policy 'bogus'"),
    ({"compile": {"num_candidates": 0}}, "num_candidates must be >= 1"),
    ({"compile": {"collect_counterexamples": False}}, "unknown key 'collect_counterexamples' in config compile"),
    ({"compile": {"max_bootstrapped_demos": -1}}, "max_bootstrapped_demos must be >= 0"),
])
def test_eval_rejects_bad_config(tmp_path, payload, error):
    config = write_config(tmp_path, payload)
    result = invoke([
        "eval", "--task", "quiz", "--strategy", "vanilla", "--test", data("test.jsonl"),
        "--offline", "--script", data("scripts/quiz_all_pass.json"),
        "--config", config, "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {config}: {error}\n"


def test_config_script_alone_selects_the_scripted_backend(tmp_path, monkeypatch):
    monkeypatch.delenv("LM_API_BASE", raising=False)
    config = write_config(tmp_path, {"backend": {"script": data("scripts/quiz_all_pass.json")}})
    out = tmp_path / "out"
    result = invoke([
        "eval", "--task", "quiz", "--strategy", "vanilla", "--test", data("test.jsonl"),
        "--config", config, "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["n_examples"] == 6 and not any("error" in row for row in report["rows"])


def trace_file(step_change: Optional[dict] = None, constraint_change: Optional[dict] = None) -> dict:
    """A one-step trace whose step and constraint objects take the changes;
    a value of None drops the key."""
    constraint = {"kind": "suggest", "passed": True, "message": "m", "label": "m", "attempt": 0,
                  "disposition": "passed", "site": 0, "target_module": "m", "step": 0}
    step = {"module_id": "m", "attempt": 0, "position": 0, "prompt_digest": "d", "inputs": {},
            "outputs": {}, "raw_completion": ""}
    for record, change in ((constraint, constraint_change), (step, step_change)):
        for key, value in (change or {}).items():
            if value is None:
                del record[key]
            else:
                record[key] = value
    return {"version": TRACE_VERSION, "halted": False, "error": None, "error_type": None,
            "passes": 1, "steps": [step], "constraints": [constraint], "calls": 1, "sites": 1,
            "retrievals": [{"query": "q", "k": 1, "titles": ["T"]}], "final_outputs": {}}


def artifact_file(counterexample: Optional[dict] = None, demo: Optional[dict] = None,
                  **module_change) -> dict:
    module = {"instructions": "i", "demos": [demo] if demo else [],
              "counterexamples": [counterexample] if counterexample else [], **module_change}
    answer = {"instructions": "i", "demos": [], "counterexamples": []}
    return {"version": 2, "task": "multihop", "modules": {"generate_query": module, "generate_answer": answer}}


QUERY_DEMO = {"context": "N/A", "question": "Q", "rationale": "r", "query": "q"}


@pytest.mark.parametrize("kind, content, error", [
    ("artifact", {"version": 2, "task": "multihop"}, "missing key 'modules'"),
    ("script", {"version": 1}, "missing key 'entries'"),
    ("trace", {"version": TRACE_VERSION}, "missing key 'steps'"),
    ("trace", "{not json", "Expecting property name enclosed in double quotes"),
    ("config", "{not json", "Expecting property name enclosed in double quotes"),
    ("artifact", artifact_file({"module_id": "generate_query", "failed_output": "a", "message": "m",
                                "corrected_output": "b", "note": "n"}),
     "unknown key 'note' in counterexample"),
    ("trace", trace_file(step_change={"position": None}), "missing key 'position'"),
    ("trace", trace_file(constraint_change={"step": None}), "missing key 'step'"),
    ("trace", trace_file(constraint_change={"note": "n"}), "unknown key 'note' in trace constraint"),
    ("trace", trace_file(step_change={"positon": 3}), "unknown key 'positon' in trace step"),
    ("trace", {**trace_file(), "extra_top": 1}, "unknown key 'extra_top' in trace"),
    ("artifact", artifact_file(note="n"), "unknown key 'note' in module spec"),
    ("artifact", artifact_file(demo=["n"]),
     "demo of module 'generate_query' must be an object of strings holding its inputs "
     "['context', 'question'], got ['n']"),
    ("artifact", artifact_file(demo={k: v for k, v in QUERY_DEMO.items() if k != "context"}),
     "demo of module 'generate_query' must be an object of strings holding its inputs "
     "['context', 'question'], got {'question': 'Q', 'rationale': 'r', 'query': 'q'}"),
    ("script", {"entries": []}, "missing key 'version'"),
    ("script", {"version": 1, "entries": [{"match": "x", "responses": ["y"], "note": "n"}]},
     "unknown key 'note' in script entry"),
    ("script", {"version": 1, "entries": [], "note": "n"}, "unknown key 'note' in script"),
    ("artifact", {**artifact_file(), "note": "n"}, "unknown key 'note' in compiled program"),
    ("trace", {**trace_file(), "retrievals": [{"query": "q", "k": 1, "titles": [], "note": "n"}]},
     "unknown key 'note' in trace retrieval"),
    ("trace", {k: v for k, v in trace_file().items() if k != "passes"}, "missing key 'passes'"),
    # value types: the first bad value read names its key
    ("trace", {**trace_file(), "passes": "three", "retrievals": [{"query": 5, "k": "x", "titles": "abc"}]},
     "trace passes must be an integer >= 1, got 'three'"),
    ("trace", {**trace_file(), "retrievals": [{"query": 5, "k": "x", "titles": "abc"}]},
     "trace retrieval query must be a string, got 5"),
    ("trace", {**trace_file(), "retrievals": [{"query": "q", "k": "x", "titles": ["T"]}]},
     "trace retrieval k must be an integer >= 1, got 'x'"),
    ("trace", {**trace_file(), "retrievals": [{"query": "q", "k": 0, "titles": ["T"]}]},
     "trace retrieval k must be an integer >= 1, got 0"),
    ("trace", {**trace_file(), "retrievals": [{"query": "q", "k": 1, "titles": "abc"}]},
     "trace retrieval titles must be a list of strings, got 'abc'"),
    ("trace", {**trace_file(), "passes": True}, "trace passes must be an integer >= 1, got True"),
    ("trace", {**trace_file(), "passes": 0}, "trace passes must be an integer >= 1, got 0"),
    ("trace", {**trace_file(), "halted": "no"}, "trace halted must be true or false, got 'no'"),
    ("trace", {**trace_file(), "error": 5}, "trace error must be a string or null, got 5"),
    ("trace", {**trace_file(), "error_type": ["E"]}, "trace error_type must be a string or null, got ['E']"),
    ("trace", {**trace_file(), "final_outputs": {"a": 1}},
     "trace final_outputs must be an object of strings or null, got {'a': 1}"),
    ("trace", trace_file(step_change={"attempt": "1"}),
     "trace step attempt must be an integer >= 0, got '1'"),
    ("trace", trace_file(step_change={"position": 1.0}),
     "trace step position must be an integer >= 0, got 1.0"),
    ("trace", trace_file(step_change={"prompt_digest": 5}),
     "trace step prompt_digest must be a string, got 5"),
    ("trace", trace_file(step_change={"inputs": {"q": 1}}),
     "trace step inputs must be an object of strings, got {'q': 1}"),
    ("trace", trace_file(step_change={"outputs": ["a"]}),
     "trace step outputs must be an object of strings, got ['a']"),
    ("trace", trace_file(constraint_change={"passed": "yes"}),
     "trace constraint passed must be true or false, got 'yes'"),
    ("script", {"version": 1, "entries": [{"match": "x", "responses": "abc"}]},
     "script entry responses must be a list of strings, got 'abc'"),
    ("script", {"version": 1, "entries": [{"match": 5, "responses": ["y"]}]},
     "script entry match must be a string, got 5"),
    ("artifact", artifact_file(instructions=5), "module spec instructions must be a string, got 5"),
    ("artifact", artifact_file(demo={**QUERY_DEMO, "query": 5}),
     "demo of module 'generate_query' must be an object of strings holding its inputs "
     "['context', 'question'], got {'context': 'N/A', 'question': 'Q', 'rationale': 'r', 'query': 5}"),
    # a compiled program holds every module of its task's program, and no other
    ("artifact", {**artifact_file(), "modules": {}}, "missing key 'generate_query'"),
    ("artifact", {**artifact_file(), "modules": {**artifact_file()["modules"], "judge": {}}},
     "unknown key 'judge' in compiled program modules"),
    # a constraint names the step it judged by its index, or null before any call
    ("trace", trace_file(constraint_change={"step": 1}),
     "trace constraint step must be null or an index into steps, got 1"),
    ("trace", trace_file(constraint_change={"step": -1}),
     "trace constraint step must be null or an index into steps, got -1"),
    ("trace", trace_file(constraint_change={"step": "0"}),
     "trace constraint step must be null or an index into steps, got '0'"),
    ("trace", {**trace_file(), "calls": -1}, "trace calls must be an integer >= 0, got -1"),
    ("trace", {**trace_file(), "sites": 1.0}, "trace sites must be an integer >= 0, got 1.0"),
    ("trace", {k: v for k, v in trace_file().items() if k != "constraints"}, "missing key 'constraints'"),
    ("trace", {**trace_file(), "version": 2}, f"trace version mismatch: file has 2, supported is {TRACE_VERSION}"),
    ("trace", trace_file(constraint_change={"step": True}),
     "trace constraint step must be null or an index into steps, got True"),
    # records a file's types allow but its objects reject
    ("trace", trace_file(constraint_change={"disposition": "bogus"}), "unknown disposition 'bogus'"),
    ("trace", trace_file(constraint_change={"kind": "assert", "disposition": "warned"}),
     "only suggest constraints can warn"),
    ("script", {"version": 1, "entries": [{"match": "x", "responses": []}]},
     "script entry needs at least one response"),
    ("script", {"version": 1, "entries": [{"match": "x", "responses": ["y"], "mode": "regex"}]},
     "unknown matcher mode 'regex'"),
    ("artifact", {**artifact_file(), "version": 1}, "artifact version mismatch: file has 1, supported is 2"),
    # a counterexample is filed under the module it corrects
    ("artifact", artifact_file({"module_id": "generate_answer", "failed_output": "a", "message": "m",
                                "corrected_output": "b"}),
     "counterexample of module 'generate_query' names module 'generate_answer'"),
    # the top level of every file is an object
    pytest.param("trace", [], "trace must be a JSON object", id="trace-not-an-object"),
    pytest.param("artifact", [], "artifact must be a JSON object", id="artifact-not-an-object"),
    pytest.param("script", [], "script must be a JSON object", id="script-not-an-object"),
    # substring is the one matcher mode
    pytest.param("script", {"version": 1, "entries": [{"match": "x", "responses": ["y"], "mode": "exact"}]},
                 "unknown matcher mode 'exact'", id="script-mode-exact"),
])
def test_malformed_input_file_is_a_click_error_naming_it(tmp_path, kind, content, error):
    path = tmp_path / f"{kind}.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content), encoding="utf-8")
    run = ["--task", "multihop", "--test", data("test.jsonl"), "--out", str(tmp_path / "out")]
    script = ["--script", data("scripts/multihop_all_pass.json")]
    args = {
        "artifact": ["eval", "--strategy", "compile", "--artifact", str(path), *script, *run],
        "script": ["eval", "--strategy", "vanilla", "--script", str(path), *run],
        "trace": ["inspect-trace", str(path)],
        "config": ["eval", "--strategy", "vanilla", "--config", str(path), *script, *run],
    }[kind]
    result = invoke(args)
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"Error: {path}: {error}") and result.output.count("\n") == 1


def test_a_json_file_nested_too_deep_is_one_error_line_naming_it(tmp_path):
    path = tmp_path / "script.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    result = invoke(["eval", "--task", "multihop", "--strategy", "vanilla", "--script", str(path),
                     "--test", data("test.jsonl"), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"Error: {path}: maximum recursion depth exceeded")
    assert result.output.count("\n") == 1


def test_a_dataset_line_that_is_not_utf8_is_an_error_naming_the_line(tmp_path):
    first, second, *rest = Path(data("test.jsonl")).read_bytes().splitlines(keepends=True)
    path = tmp_path / "test.jsonl"
    path.write_bytes(first + second[:34] + b"\xff\xfe" + second[34:] + b"".join(rest))
    result = invoke(["eval", "--task", "multihop", "--strategy", "vanilla",
                     "--script", data("scripts/multihop_all_pass.json"),
                     "--test", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == (f"Error: bad dataset record at {path}:2: 'utf-8' codec can't decode "
                             "byte 0xff in position 34: invalid start byte\n")


def test_artifact_of_another_task_names_both_tasks(tmp_path):
    # checked before the module set, which differs between any two bundled tasks
    quiz = run_command("compile", "quiz", "compile", data("scripts/quiz_all_pass.json"), tmp_path / "quiz")
    artifact = quiz / "compiled_program.json"
    result = invoke([
        "eval", "--task", "multihop", "--strategy", "compile", "--artifact", str(artifact),
        "--test", data("test.jsonl"), "--offline", "--script", data("scripts/multihop_all_pass.json"),
        "--out", str(tmp_path / "eval"),
    ])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"Error: {artifact}: artifact was compiled for task 'quiz', not 'multihop'\n"


def test_compile_assert_keeps_a_recovered_hop_2_query_as_counterexample(tmp_path):
    # hop 2 first repeats hop 1's query, fails query_distinct, and is fixed on retry
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"version": 1, "entries": [
        {"match": "Past Query: alpha", "responses": ["Reasoning: r\nQuery: beta"]},
        {"match": "Write a simple search query", "responses": ["Reasoning: r\nQuery: alpha"]},
        {"match": "Answer questions", "responses": ["Reasoning: r\nAnswer: Paris"]},
    ]}), encoding="utf-8")
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(json.dumps({"question": "Q?", "answer": "Paris", "gold_titles": []}) + "\n",
                       encoding="utf-8")
    out = tmp_path / "out"
    result = invoke([
        "compile", "--task", "multihop", "--strategy", "compile_assert",
        "--train", str(dataset), "--dev", str(dataset), "--script", str(script), "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    artifact = json.loads((out / "compiled_program.json").read_text())
    assert artifact["modules"]["generate_query"]["counterexamples"] == [{
        "module_id": "generate_query", "failed_output": "alpha",
        "message": "Query should be distinct from ['Q?', 'alpha']", "corrected_output": "beta",
    }]


def test_config_file_drives_backend_and_seeds(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "backend": {"script": data("scripts/multihop_all_pass.json")},
        "compile": {"rng_seed": 3, "num_candidates": 2},
        "runtime": {"max_retries": 2},
        "instructions": "complete",
    }))
    out = tmp_path / "out"
    result = invoke([
        "compile", "--task", "multihop", "--strategy", "compile",
        "--train", data("train.jsonl"), "--dev", data("dev.jsonl"),
        "--config", str(config), "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    candidates = json.loads((out / "candidates.json").read_text())
    assert candidates["rng_seed"] == 3
    assert len(candidates["candidates"]) + len(candidates["pruned"]) == 2


# --- one test per config key: each changes what a command does -------------------

def run_command(command: str, task: str, strategy: str, script: str, out: Path,
                payload: Optional[dict] = None) -> Path:
    """Run ``compile`` or ``eval`` offline over the bundled data into ``out``;
    ``payload`` is written beside ``out`` as the config file."""
    datasets = {"compile": ["--train", data("train.jsonl"), "--dev", data("dev.jsonl")],
                "eval": ["--test", data("test.jsonl")]}[command]
    config = ["--config", write_config(out.parent, payload)] if payload is not None else []
    result = invoke([
        command, "--task", task, "--strategy", strategy, *datasets,
        "--offline", "--script", script, *config, "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    return out


def saved_steps(out: Path) -> list:
    return [step for path in sorted((out / "traces").glob("*.json"))
            for step in load_trace(path).steps]


def test_config_max_retries_zero_retries_nothing(tmp_path):
    script = data("scripts/multihop_retry.json")
    default = run_command("eval", "multihop", "infer_assert", script, tmp_path / "default")
    assert any(step.attempt > 0 for step in saved_steps(default))
    zero = run_command("eval", "multihop", "infer_assert", script, tmp_path / "zero",
                       {"runtime": {"max_retries": 0}})
    steps = saved_steps(zero)
    assert steps and all(step.attempt == 0 for step in steps)
    dispositions = {o.disposition for path in sorted((zero / "traces").glob("*.json"))
                    for o in load_trace(path).constraints}
    assert "warned" in dispositions and "retried" not in dispositions


def compiled_modules(tmp_path: Path, name: str, strategy: str, script: str,
                     compile_section: dict, extra: Optional[dict] = None) -> dict:
    payload = {"compile": {"num_candidates": 1, **compile_section}, **(extra or {})}
    out = run_command("compile", "multihop", strategy, data(f"scripts/{script}"),
                      tmp_path / name, payload)
    return json.loads((out / "compiled_program.json").read_text())["modules"]


def test_config_max_bootstrapped_demos_caps_the_demos(tmp_path):
    def demo_counts(name: str, section: dict) -> dict:
        modules = compiled_modules(tmp_path, name, "compile", "multihop_all_pass.json", section)
        return {module_id: len(module["demos"]) for module_id, module in modules.items()}

    assert demo_counts("default", {}) == {"generate_query": 2, "generate_answer": 2}
    assert demo_counts("one", {"max_bootstrapped_demos": 1}) == {"generate_query": 1, "generate_answer": 1}


def test_compile_assert_collects_counterexamples_and_compile_none(tmp_path):
    script = data("scripts/multihop_teacher_assert.json")

    def counterexamples(strategy: str) -> int:
        out = run_command("compile", "multihop", strategy, script, tmp_path / strategy,
                          {"compile": {"num_candidates": 1}})
        modules = json.loads((out / "compiled_program.json").read_text())["modules"]
        return sum(len(module["counterexamples"]) for module in modules.values())

    assert counterexamples("compile_assert") > 0
    assert counterexamples("compile") == 0


def test_a_disable_all_teacher_compiles_as_the_compile_strategy(tmp_path):
    # a teacher that never retries is the naive one, whatever the strategy
    script = data("scripts/multihop_teacher_assert.json")
    payload = {"runtime": {"handler_policy": "disable_all"}}
    outs = [run_command("compile", "multihop", strategy, script, tmp_path / strategy, payload)
            for strategy in ("compile", "compile_assert")]
    for name in ("compiled_program.json", "candidates.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    artifact = json.loads((outs[1] / "compiled_program.json").read_text())
    assert artifact["compile_config"]["teacher_runtime"]["handler_policy"] == "disable_all"


COMPILED_LABELS = [label for label, (_, teacher) in _STRATEGIES.items() if teacher is not None]


@pytest.mark.parametrize("task, script, label", [
    *((task, f"{task}_all_pass.json", label) for task in TASKS for label in COMPILED_LABELS),
    *(("multihop", "multihop_teacher_assert.json", label) for label in COMPILED_LABELS),
])
def test_a_compiled_program_reads_back_as_compiled(tmp_path, monkeypatch, task, script, label):
    saved = []

    def recording(program, task, config, path):
        saved.append((program, config))
        save_compiled_program(program, task, config, path)

    monkeypatch.setattr(cli, "save_compiled_program", recording)
    config = assemble_run_config(task, label, str(tmp_path), offline=True, script=data(f"scripts/{script}"))
    path = cmd_compile(config, Path(data("train.jsonl")), Path(data("dev.jsonl")))
    (compiled, compile_config), = saved
    loaded = load_compiled_program(cli.make_program(config), path, task)
    assert loaded.modules.keys() == compiled.modules.keys()
    for module_id, module in compiled.modules.items():
        other = loaded.modules[module_id]
        assert other.signature.instructions == module.signature.instructions
        assert (other.demos, other.counterexamples) == (module.demos, module.counterexamples)
    written = json.loads(path.read_text(encoding="utf-8"))["compile_config"]
    teacher = RuntimeConfig(**written.pop("teacher_runtime"))
    assert CompileConfig(**written, teacher_runtime=teacher) == compile_config


def test_config_instructions_primitive_reaches_the_program(tmp_path):
    def instructions(name: str, extra: Optional[dict]) -> dict:
        modules = compiled_modules(tmp_path, name, "compile", "multihop_all_pass.json", {}, extra)
        return {module_id: module["instructions"] for module_id, module in modules.items()}

    query = INSTRUCTIONS["multihop"]["query"]
    assert instructions("default", None)["generate_query"] == query[COMPLETE]
    assert instructions("primitive", {"instructions": PRIMITIVE})["generate_query"] == query[PRIMITIVE]


def test_config_corpus_is_the_one_retrieved_from(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"title": "Zephyr Annex", "text": "The Zephyr Annex stands alone."}) + "\n",
                      encoding="utf-8")
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"version": 1, "entries": [
        {"match": "Question:", "responses": ["Reasoning: r\nQuery: zephyr annex\nAnswer: a"]},
    ]}), encoding="utf-8")

    def contexts(name: str, payload: Optional[dict]) -> set:
        out = run_command("eval", "multihop", "vanilla", str(script), tmp_path / name, payload)
        return {step.inputs["context"] for step in saved_steps(out)}

    assert not any("Zephyr" in context for context in contexts("bundled", None))
    assert "[1] Zephyr Annex | The Zephyr Annex stands alone." in \
        contexts("configured", {"corpus": str(corpus)})
