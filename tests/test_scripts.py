"""Tests of the repository's scripts."""

import ast
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from asyncscope.bench import OverheadResult

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
DIGEST = ROOT / "tests" / "data" / "trace_digest.txt"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot_of_a_run(monkeypatch, code, last):
    """Load bench_snapshot with perfbench stubbed to exit ``code`` after
    printing its env stamp and ``last``."""
    snapshot = _load("bench_snapshot")
    out = f'env: {{"python": "3"}}\n{last}\n'

    def run(args, **kwargs):
        return subprocess.CompletedProcess(args, code, stdout=out, stderr="")

    monkeypatch.setattr(subprocess, "run", run)
    return snapshot


def test_bench_snapshot_refuses_a_failed_perfbench_run(monkeypatch):
    snapshot = _snapshot_of_a_run(monkeypatch, 1, '{"correct": false, "metrics": {}}')
    with pytest.raises(SystemExit) as exc_info:
        snapshot.run_workload("live_pool")
    assert f"perfbench live_pool in {snapshot.ROOT} exited 1" in str(exc_info.value.code)


def test_bench_snapshot_refuses_a_run_that_exits_0_but_is_not_correct(monkeypatch):
    snapshot = _snapshot_of_a_run(monkeypatch, 0, '{"correct": false, "metrics": {}}')
    with pytest.raises(SystemExit) as exc_info:
        snapshot.run_workload("live_pool")
    assert 'exited 0 without "correct": true' in str(exc_info.value.code)


def test_bench_snapshot_reads_the_env_stamp_and_final_line(monkeypatch):
    snapshot = _snapshot_of_a_run(monkeypatch, 0, '{"correct": true, "metrics": {}}')
    assert snapshot.run_workload("live_pool") == (
        {"python": "3"}, {"correct": True, "metrics": {}})


def _overhead_result():
    """Medians 0.7 s and 0.4 s over 100k tasks: 7 and 4 µs a task."""
    return OverheadResult(n_tasks=100_000, runs=3, instrumented_s=(0.9, 0.5, 0.7),
                          baseline_s=(0.4, 0.3, 0.45))


def test_overhead_result_per_task():
    result = _overhead_result()
    assert result.instrumented_us_per_task == pytest.approx(7.0)
    assert result.baseline_us_per_task == pytest.approx(4.0)
    assert result.added_us_per_task == pytest.approx(3.0)
    assert result.overhead == pytest.approx(0.75)


def test_bench_snapshot_records_every_benchmark_workload_and_us_per_task(
        monkeypatch, tmp_path, capsys):
    snapshot = _load("bench_snapshot")
    ran = []

    def run_workload(name):
        ran.append(name)
        return {"python": "3"}, {"correct": True, "workload": name}

    monkeypatch.setattr(snapshot, "run_workload", run_workload)
    monkeypatch.setattr(snapshot, "run_overhead_benchmark", _overhead_result)
    monkeypatch.setattr(snapshot, "ROOT", str(tmp_path))
    snapshot.main(["x"])
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert ran == names
    written = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert written["workloads"] == {
        name: {"correct": True, "workload": name} for name in names}
    assert written["overhead"] == pytest.approx({
        "n_tasks": 100_000, "runs": 3, "median_instrumented_s": 0.7,
        "median_baseline_s": 0.4, "instrumented_us_per_task": 7.0,
        "baseline_us_per_task": 4.0, "added_us_per_task": 3.0, "ratio": 0.75})


def test_bench_pairs_alternates_and_compares(monkeypatch, capsys):
    pairs = _load("bench_pairs")
    calls = []

    def fake_run(args, cwd, **kwargs):
        calls.append(cwd)
        pair = (len(calls) - 1) // 2
        # The change reads one lower than the parent in each pair.
        p50 = 10.0 + 2 * pair if cwd == "parent" else 9.0 + 2 * pair
        line = json.dumps({"correct": True, "metrics": {
            "submit_us_p50": {"value": p50, "unit": "us"},
            "trace_bytes_per_task": {"value": 200.0, "unit": "B"}}})
        return subprocess.CompletedProcess(args, 0, stdout=f"env: {{}}\n{line}\n",
                                           stderr="")

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    pairs.main(["parent", "change", "--workload", "deep_mixed", "--pairs", "3",
                "--seconds", "1"])
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    # Parent 10, 12, 14 (quartiles 10 and 14); change one less in each
    # pair: lower in both pairs run parent first and in the one run change
    # first.
    assert rows["submit_us_p50"] == ["12.000", "4.000", "11.000", "0.917", "2/2", "1/1"]
    assert rows["trace_bytes_per_task"][-2:] == ["0/2", "0/1"]


def test_bench_pairs_counts_each_order_apart(monkeypatch, capsys):
    """A run that reads one lower for running second, whichever checkout
    it is, shows as a change lower in every pair run parent first and in
    none run change first."""
    pairs = _load("bench_pairs")
    calls = []

    def second_reads_lower(checkout, workload, seconds, seed, trace):
        calls.append(checkout)
        return {"submit_us_p50": 10.0 if len(calls) % 2 else 9.0}

    monkeypatch.setattr(pairs, "run_once", second_reads_lower)
    pairs.main(["parent", "change", "--workload", "live_pool", "--pairs", "4",
                "--seconds", "1"])
    assert calls == ["parent", "change", "change", "parent"] * 2
    title, columns, row = capsys.readouterr().out.splitlines()
    assert title.endswith("parent and change first in turn")
    assert columns.split()[-2:] == ["p-first", "c-first"]
    assert row.split() == ["submit_us_p50", "9.500", "1.000", "9.500", "1.000",
                           "2/2", "0/2"]


def test_bench_pairs_runs_every_workload_without_one_named(monkeypatch, capsys):
    pairs = _load("bench_pairs")
    calls = []

    def fake_run(args, cwd, **kwargs):
        workload = args[args.index("--workload") + 1]
        calls.append((workload, cwd))
        line = json.dumps({"correct": True, "metrics": {
            "submit_us_p50": {"value": 10.0 if cwd == "parent" else 9.0,
                              "unit": "us"}}})
        return subprocess.CompletedProcess(args, 0, stdout=f"{line}\n", stderr="")

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    pairs.main(["parent", "change", "--pairs", "2", "--seconds", "1"])
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert pairs.benchmark_workloads() == names and len(names) == 3
    # Each workload's pairs in turn, the parent first in its first pair.
    assert calls == [(name, cwd) for name in names
                     for cwd in ("parent", "change", "change", "parent")]
    tables = capsys.readouterr().out.split("\n\n")
    assert [table.split(",")[0] for table in tables] == names
    for table in tables:
        assert table.splitlines()[-1].split()[1:] == [
            "10.000", "0.000", "9.000", "0.900", "1/1", "1/1"]


@pytest.mark.parametrize("flag, trace", [([], "0"), (["--trace", "0"], "0"),
                                         (["--trace", "1"], "1")])
def test_bench_pairs_passes_its_trace_flag_to_each_run(monkeypatch, capsys,
                                                       flag, trace):
    pairs = _load("bench_pairs")
    calls = []

    def fake_run(args, cwd, **kwargs):
        calls.append((cwd, args[args.index("--trace") + 1]))
        line = json.dumps({"correct": True, "metrics": {
            "runtime.submit_us_per_task": {"value": 10.0, "unit": "us"}}})
        return subprocess.CompletedProcess(args, 0, stdout=f"{line}\n", stderr="")

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    pairs.main(["parent", "change", "--workload", "multi_config", "--pairs", "2",
                "--seconds", "1", *flag])
    assert calls == [(cwd, trace) for cwd in ("parent", "change", "change", "parent")]
    out = capsys.readouterr().out
    assert ("traced" in out.splitlines()[0]) == (trace == "1")
    assert out.splitlines()[-1].split()[0] == "runtime.submit_us_per_task"


@pytest.mark.parametrize("stdout, code", [
    ('{"correct": false, "metrics": {}}\n', 1),
    ('{"correct": false, "metrics": {}}\n', 0),
    ("Traceback (most recent call last):\n", 1),
    ("", 0),
])
def test_bench_pairs_refuses_a_run_that_is_not_correct(monkeypatch, stdout, code):
    pairs = _load("bench_pairs")

    def failed_run(args, **kwargs):
        return subprocess.CompletedProcess(args, code, stdout=stdout, stderr="")

    monkeypatch.setattr(pairs.subprocess, "run", failed_run)
    with pytest.raises(SystemExit) as exc_info:
        pairs.main(["p", "c", "--workload", "live_pool", "--pairs", "2", "--seconds", "1"])
    assert "perfbench live_pool in p exited" in str(exc_info.value.code)


def test_overhead_bench_smoke(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "overhead_bench.py"),
         "--tasks", "200", "--runs", "1", "--workers", "2"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    labels = [line.split(":")[0] for line in proc.stdout.splitlines()]
    assert labels[-2:] == ["added", "overhead"]
    assert proc.stdout.count(" us/task") == 3


def test_trace_digest_runs_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(SCRIPTS / "trace_digest.py")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 37
    assert lines[-1].endswith("  (all)")
    assert proc.stdout == (DIGEST.read_text()), (
        "a scenario's trace or report bytes changed: if on purpose, rewrite "
        "tests/data/ with scripts/regen_goldens.py and review the diff")


def test_trace_digest_names_a_scenario_whose_json_is_not_json_dumps(monkeypatch, capsys):
    digest = _load("trace_digest")
    render_json = digest.render_json
    monkeypatch.setattr(digest, "render_json",
                        lambda report: render_json(report).replace(b"sequential_execute", b"x"))
    assert digest.main() == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 37
    assert err == "render_json differs from json.dumps for: sequential_execute\n"


def test_golden_trace_frames_still_name_their_functions():
    """The golden trace records where its tasks were scheduled, down to
    regen_goldens.py's own lines, so moving one of those lines would make
    a regeneration rewrite every fixture. Each frame's line must still be
    in its function, and each of the script's lines must still call the
    function of the frame inside it."""
    pdt = ROOT / "tests" / "data" / "sequential_execute.pdt"
    ctx = next(line for line in pdt.read_text().splitlines() if line.startswith("PD2|CTX|"))
    inner = None  # the function of the frame inside this one
    for frame in ctx.split("|", 3)[3].split(";"):  # innermost first
        module, function, line = frame.rsplit(":", 2)
        line = int(line)
        path = (SCRIPTS / "regen_goldens.py" if module == "__main__"
                else ROOT / "src" / f"{module.replace('.', '/')}.py")
        tree = ast.parse(path.read_text())
        if function == "<module>":
            spans = [node for node in tree.body
                     if not isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        else:
            spans = [node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and node.name == function]
        calls = {node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.lineno <= line <= node.end_lineno}
        fix = ("keep the lines the fixtures record where they are, or regenerate "
               "tests/data/ on purpose with scripts/regen_goldens.py")
        assert any(node.lineno <= line <= node.end_lineno for node in spans), (
            f"{pdt.name} records {frame}, but line {line} of {path.name} is not in "
            f"{function} any more: {fix}")
        assert module != "__main__" or inner in calls, (
            f"{pdt.name} records {frame}, but line {line} of {path.name} does not call "
            f"{inner} any more: {fix}")
        inner = function
