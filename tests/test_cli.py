"""Exit codes and output plumbing for the asyncscope command."""

import json

import pytest

from asyncscope.cli import EXIT_DATA, EXIT_EXPECTATION, EXIT_OK, EXIT_USAGE, main
from asyncscope.report import build_report
from asyncscope.scenarios import SCENARIOS
from asyncscope.trace_model import EventKind, Mechanism, TaskEvent, ThreadIdentity, TraceSession
from asyncscope.tracelog import encode_session, read_trace


def test_list_names_every_scenario(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def test_demo_success(capsys):
    assert main(["demo", "parallel_execute"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict:   ok" in out
    assert "asyncscope diagnosis report" in out


def test_demo_writes_trace(tmp_path, capsys):
    trace_path = tmp_path / "run.pdt"
    assert main(["demo", "sequential_execute", "--out", str(trace_path)]) == EXIT_OK
    capsys.readouterr()
    session = read_trace(trace_path)
    assert session.session_id == "sequential_execute"


def test_demo_unknown_scenario(capsys):
    assert main(["demo", "nope"]) == EXIT_DATA
    assert "no scenario named" in capsys.readouterr().err


def test_demo_bad_clock_env(monkeypatch, capsys):
    monkeypatch.setenv("ASYNCSCOPE_CLOCK", "bogus")
    assert main(["demo", "sequential_execute"]) == EXIT_DATA
    assert "ASYNCSCOPE_CLOCK" in capsys.readouterr().err


def test_demo_real_clock_env(monkeypatch, capsys):
    monkeypatch.setenv("ASYNCSCOPE_CLOCK", "real")
    assert main(["demo", "sequential_execute"]) == EXIT_OK
    assert "scenario sequential_execute (real clock)" in capsys.readouterr().out


def test_demo_expectation_mismatch(tmp_path, capsys):
    # Thresholds so forgiving that the defect scenario fires nothing.
    cfg = tmp_path / "lax.cfg"
    cfg.write_text(
        "max_min_ratio = 1000000000000\n"
        "max_median_ratio = 1000000000000\n"
        "cv_threshold = 1000000\n"
    )
    assert main(["demo", "sequential_execute", "--config", str(cfg)]) == EXIT_EXPECTATION
    assert "MISMATCH" in capsys.readouterr().out


def test_demo_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    assert main(["demo", "sequential_execute", "--config", str(cfg)]) == EXIT_DATA


def test_analyze_unreadable_config(trace_file, tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["analyze", str(trace_file), "--config", str(missing)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"asyncscope: error: cannot read config {missing}:")


def test_usage_errors(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["analyze"]) == EXIT_USAGE  # needs at least one trace
    assert main(["demo"]) == EXIT_USAGE  # needs a scenario name
    assert main(["analyze", "--format", "xml", "t.pdt"]) == EXIT_USAGE
    capsys.readouterr()


def test_help_exits_ok(capsys):
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


@pytest.fixture
def trace_file(tmp_path, capsys):
    path = tmp_path / "seq.pdt"
    assert main(["demo", "sequential_execute", "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    return path


def test_analyze_text(trace_file, capsys):
    assert main(["analyze", str(trace_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "asyncscope diagnosis report" in out
    assert "MaxMinSpread" in out


def test_analyze_json(trace_file, capsys):
    assert main(["analyze", str(trace_file), "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0]["mechanism"] == "AFACADE"


def test_analyze_multiple_traces_merge(trace_file, tmp_path, capsys):
    other = tmp_path / "pool.pdt"
    assert main(["demo", "pool_overload", "--out", str(other)]) == EXIT_OK
    capsys.readouterr()
    assert main(["analyze", str(trace_file), str(other), "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [e["index"] for e in payload["config_entries"]] == [0, 1]
    assert {row["config_index"] for row in payload["rows"]} == {0, 1}


def test_analyze_out_and_histograms(trace_file, tmp_path, capsys):
    out = tmp_path / "report.txt"
    hist_dir = tmp_path / "hists"
    assert main([
        "analyze", str(trace_file), "--out", str(out),
        "--histograms", str(hist_dir),
    ]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert b"asyncscope diagnosis report" in out.read_bytes()
    names = sorted(p.name for p in hist_dir.iterdir())
    assert names == ["0-0_latency.csv", "0-0_queuing.csv"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_analyze_timings_change_no_output(trace_file, tmp_path, capsys, fmt):
    argv = ["analyze", str(trace_file), str(trace_file), "--format", fmt]
    assert main(argv) == EXIT_OK
    plain = capsys.readouterr()
    assert main([*argv, "--timings"]) == EXIT_OK
    timed = capsys.readouterr()
    assert timed.out == plain.out and plain.err == ""
    stages = [line.split()[2] for line in timed.err.splitlines()]
    assert stages == ["read+parse", "build", "render", "write"]
    assert "files=2 events=" in timed.err
    data = trace_file.read_bytes()
    defined = data.count(b"\nPD2|CTX|")
    assert defined >= 1
    assert f" bytes={2 * len(data)} contexts={2 * defined}\n" in timed.err
    assert f"bytes={len(plain.out.encode())}" in timed.err
    report = build_report([read_trace(trace_file)] * 2)
    assert report.histograms
    assert f" rows={len(report.rows)} histograms={len(report.histograms)}\n" in timed.err

    out_plain, out_timed = tmp_path / "plain", tmp_path / "timed"
    assert main([*argv, "--out", str(out_plain)]) == EXIT_OK
    assert main([*argv, "--out", str(out_timed), "--timings"]) == EXIT_OK
    assert out_timed.read_bytes() == out_plain.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("command", ["demo --out", "analyze --out", "analyze --histograms"])
def test_unwritable_output_is_a_data_error(trace_file, tmp_path, capsys, command):
    missing = str(tmp_path / "no_such_dir" / "out")
    argv = {
        "demo --out": ["demo", "sequential_execute", "--out", missing],
        "analyze --out": ["analyze", str(trace_file), "--out", missing],
        # An existing file where the histogram directory should go.
        "analyze --histograms": ["analyze", str(trace_file), "--histograms", str(trace_file)],
    }[command]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("asyncscope: error: cannot write ")


def test_analyze_corrupt_trace(tmp_path, capsys):
    path = tmp_path / "junk.pdt"
    path.write_bytes(b"PD2|SESSION|x|y|0\nPD2|EV|1|oops\n")
    assert main(["analyze", str(path)]) == EXIT_DATA
    assert "junk.pdt" in capsys.readouterr().err


MAIN = ThreadIdentity(1, None, True)


@pytest.mark.parametrize("events, message", [
    ([TaskEvent(0, EventKind.START, Mechanism.POOL_EXECUTOR, "POOL#1", MAIN)],
     "START for unknown task"),
    ([TaskEvent(0, EventKind.SPAWN, None, None, MAIN),
      TaskEvent(0, EventKind.SPAWN, None, None, ThreadIdentity(2, None, True))],
     "2 main threads"),
], ids=["dangling-start", "two-main-threads"])
def test_analyze_unanalysable_trace_is_a_data_error(tmp_path, capsys, events, message):
    path = tmp_path / "bad.pdt"
    path.write_bytes(encode_session(TraceSession("s", "c", 0, tuple(events))))
    assert main(["analyze", str(path)]) == EXIT_DATA
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("asyncscope: error: ")
    assert message in err[0] and captured.out == ""


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "ghost.pdt")]) == EXIT_DATA
    capsys.readouterr()
