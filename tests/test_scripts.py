"""Tests of the repository's scripts."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


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


def test_trace_digest_runs_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(SCRIPTS / "trace_digest.py")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 37
    assert lines[-1].endswith("  (all)")
