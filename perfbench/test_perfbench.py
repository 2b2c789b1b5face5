"""Tests of the benchmark itself, at its quick size.

Run from the repository root: ``python -m pytest perfbench``.
"""

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_quick_size_runs_every_workload_with_every_check():
    proc = _bench(["--quick", "--seed", "3"], ROOT)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    runs = {(r["quick"], r["trace"]): r for r in lines if "quick" in r}
    assert set(runs) == {(w["name"], t) for w in SPEC["workloads"] for t in (0, 1)}
    for (workload, trace), result in runs.items():
        assert result["correct"], workload
        assert result["failed"] == 0 and result["attempted"] > 0
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert {k: m["unit"] for k, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in wanted}
        for name in (m["name"] for m in SPEC["end_to_end"] if not trace):
            assert result["metrics"][name]["value"] > 0, (workload, name)
    assert lines[-1]["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(["--workload", "live_pool", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
