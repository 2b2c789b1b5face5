"""Tests of the repository's scripts."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_snapshot_refuses_a_failed_perfbench_run(monkeypatch):
    snapshot = _load("bench_snapshot")
    out = 'env: {"python": "3"}\n{"correct": false, "metrics": {}}\n'

    def failed_run(args, **kwargs):
        return subprocess.CompletedProcess(args, 1, stdout=out, stderr="")

    monkeypatch.setattr(snapshot.subprocess, "run", failed_run)
    with pytest.raises(SystemExit) as exc_info:
        snapshot.run_workload("live_pool")
    assert "live_pool exited 1" in str(exc_info.value.code)


def test_overhead_bench_smoke(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "overhead_bench.py"),
         "--tasks", "200", "--runs", "1", "--workers", "2"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("overhead:") for line in proc.stdout.splitlines())


def test_trace_digest_runs_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(SCRIPTS / "trace_digest.py")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 37
    assert lines[-1].endswith("  (all)")


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
