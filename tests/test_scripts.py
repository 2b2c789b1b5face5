"""Tests of the repository's scripts."""

import importlib.util
import pathlib
import subprocess

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
