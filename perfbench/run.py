#!/usr/bin/env python3
"""asyncscope benchmark: the profiler's tax on the watched program and its
trace-to-report pipeline, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload deep_mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones and the tracing overhead. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 only when every correctness check passed. See README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

if not os.path.isfile(os.path.join(SRC, "asyncscope", "__init__.py")):
    sys.exit(f"perfbench: no asyncscope sources under {SRC}; run from a checkout")
sys.path.insert(0, SRC)

import resource  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402
from statistics import median  # noqa: E402

from asyncscope import EventKind  # noqa: E402

import deep_mixed  # noqa: E402
import live_pool  # noqa: E402
import multi_config  # noqa: E402
from harness import (  # noqa: E402
    CALIBRATION_REF_NS,
    GcCounter,
    Step,
    SubmitTimer,
    Tracer,
    decompose,
    layer_times,
    machine_ns,
    percentile,
    run_round,
    slope,
)

IMPORT_NS = (time.perf_counter() - _T0) * 1e9 * CALIBRATION_REF_NS / machine_ns()

WORKLOADS = {"live_pool": live_pool, "deep_mixed": deep_mixed, "multi_config": multi_config}
# Virtual-clock workloads produce the same trace and report on every round.
DETERMINISTIC = {"deep_mixed", "multi_config"}
SETUPS = 5  # set-up is repeated and its median reported
WARM_SCALE = 0.1  # warm-up round size, as a share of the measured size
QUICK_SCALE = 0.2
OUT = os.path.join(HERE, "_out")
ANALYSIS_PARTS = ("trace_model.correlate", "analyzer.lineage", "analyzer.filter",
                  "analyzer.group", "analyzer.stats", "analyzer.detect")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": live_pool.nproc(),
        "platform": platform.platform(),
        "switchinterval": sys.getswitchinterval(),
        "gc_threshold": list(gc.get_threshold()),
    }


class Run:
    """One workload at one seed: set-up, measured rounds, checks, figures."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> None:
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.out_dir = os.path.join(OUT, f"{name}-{os.getpid()}")
        self.tracer = Tracer(f"{name}-seed{seed}-pid{os.getpid()}")
        self.problems: list[tuple[str, int]] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def round_problems(self, plan, rnd, full: bool) -> list[tuple[str, int]]:
        return rnd.pass_problems + self.wl.check(plan, rnd, json.loads(rnd.report_bytes),
                                                 full)

    def check(self, plan, rnd, full: bool) -> None:
        problems = self.round_problems(plan, rnd, full)
        attempted = sum(off.tasks + on.tasks for off, on in rnd.pairs)
        self.attempted += attempted
        self.failed += min(attempted, sum(n for _, n in problems))
        self.problems += problems

    def setup(self, gcs: GcCounter):
        """Input generation from the seed plus a warm-up round, repeated.
        A set-up's time is that of the input generation and of the warm-up
        round's steps, without the checks and calibrations between them."""
        times = []
        for _ in range(SETUPS):
            with Step() as make:
                plan = self.wl.make_plan(self.seed, self.scale)
                warm = self.wl.make_plan(self.seed, self.scale * WARM_SCALE)
            rnd = run_round(self.wl, warm, self.out_dir, self.tracer, gcs)
            problems = self.round_problems(warm, rnd, True)
            self.problems += [(f"warm-up: {msg}", 0) for msg, _ in problems]
            times.append(make.ns + sum(step.ns for step in rnd.steps.values()))
        return plan, (IMPORT_NS + median(times)) / 1e9

    def execute(self) -> dict:
        os.makedirs(self.out_dir, exist_ok=True)
        try:
            with GcCounter() as gcs:
                plan, setup_s = self.setup(gcs)
                figures = self.measure(plan, gcs)
                if self.trace:
                    figures.update(self.retained(plan))
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        if self.trace:
            self.tracer.write(os.path.join(OUT, f"spans-{self.name}-seed{self.seed}.jsonl"),
                              {"workload": self.name, "seed": self.seed})
        else:
            figures["setup_s"] = (setup_s, "s")
            figures["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        return figures

    def measure(self, plan, gcs: GcCounter) -> dict:
        """Rounds until the run's time is spent; with tracing, every other
        round is traced and the ones between measure the tracing overhead.
        Untraced runs record ``PASS_PAIRS`` pairs of passes per round, traced
        runs one, so that the layer spans of a round cover a single pair."""
        pairs = 1 if self.trace else self.wl.PASS_PAIRS
        rounds, passes, traced = [], [], []
        first = None
        start = time.perf_counter()
        while True:
            tracing = self.trace and len(rounds) % 2 == 0
            self.tracer.enabled = tracing
            first_span = len(self.tracer.spans)
            rnd = run_round(self.wl, plan, self.out_dir, self.tracer, gcs, pairs)
            if tracing:
                with Step() as step, self.tracer.span("decompose"):
                    counts = decompose(rnd.blobs, self.tracer, gcs)
                rnd.steps["decompose"] = step
                self.tracer.enabled = False
                traced.append(self.layer_figures(
                    rnd, layer_times(self.tracer.spans, first_span), counts))
            self.check(plan, rnd, full=not rounds)
            if self.name in DETERMINISTIC:
                if first is None:
                    first = (rnd.blobs, rnd.report_bytes)
                elif (rnd.blobs, rnd.report_bytes) != first:
                    self.problems.append((f"round {len(rounds)} differs from the first",
                                          rnd.on.tasks))
                    self.failed += rnd.on.tasks
            rounds.append(self.round_figures(rnd))
            passes += [self.pass_figures(off, on) for off, on in rnd.pairs]
            rnd = None  # the next round starts without this one's objects
            if time.perf_counter() - start >= self.seconds \
                    and len(rounds) >= (2 if self.trace else 1):
                break
        self.rounds = len(rounds)
        if self.trace:
            return self.per_layer(traced, rounds)
        return self.end_to_end(rounds, passes)

    # -- end-to-end ------------------------------------------------------------

    @staticmethod
    def pass_figures(off, on) -> dict:
        """Per-task figures of one pair of record passes, in microseconds at
        reference speed."""
        n = on.tasks
        samples = sorted(on.timer.samples)
        return {
            "record": on.step.ns / n / 1e3,
            "baseline": off.step.ns / n / 1e3,
            "emit_cost": (on.step.ns - off.step.ns) / n / 1e3,
            "p50": percentile(samples, 0.50) * on.step.scale / 1e3,
            "p90": percentile(samples, 0.90) * on.step.scale / 1e3,
            "samples": len(samples),
            "raw_record": on.step.raw_ns / n / 1e3,
            "scale": on.step.scale,
        }

    @staticmethod
    def round_figures(rnd) -> dict:
        """Per-task figures of one round's analysis, in microseconds at
        reference speed."""
        n = rnd.on.tasks
        s = rnd.steps
        return {
            "analyze": s["analyze"].ns / n / 1e3,
            "pipeline": (s["record.on"].ns + s["export"].ns + s["analyze"].ns) / n / 1e3,
            "bytes": sum(len(b) for b in rnd.blobs) / n,
            "raw_analyze": s["analyze"].raw_ns / n / 1e3,
        }

    def end_to_end(self, rounds: list[dict], passes: list[dict]) -> dict:
        def med(key, over=rounds):
            return median([r[key] for r in over])

        def pmed(key):
            return med(key, passes)

        self.notes += [
            f"record passes: {len(passes)} pairs in {len(rounds)} rounds; "
            f"submit samples: {sum(p['samples'] for p in passes)}, at least "
            f"{min(p['samples'] for p in passes)} per pass; percentiles per pass, "
            f"median over passes",
            f"unscaled wall time: record {pmed('raw_record'):.3f} us/task, analyze "
            f"{med('raw_analyze'):.3f} us/task; machine speed during record relative "
            f"to the reference: median {pmed('scale'):.3f}, "
            f"{min(p['scale'] for p in passes):.3f}-{max(p['scale'] for p in passes):.3f}",
        ]
        return {
            "record_us_per_task": (pmed("record"), "us"),
            "baseline_us_per_task": (pmed("baseline"), "us"),
            "emit_cost_us_per_task": (pmed("emit_cost"), "us"),
            "submit_us_p50": (pmed("p50"), "us"),
            "submit_us_p90": (pmed("p90"), "us"),
            "trace_bytes_per_task": (med("bytes"), "B"),
            "analyze_us_per_task": (med("analyze"), "us"),
            "pipeline_us_per_task": (med("pipeline"), "us"),
        }

    # -- per layer -------------------------------------------------------------

    @staticmethod
    def layer_figures(rnd, layers: dict, counts: dict) -> dict:
        n = rnd.on.tasks

        def total(root, name, own=False):
            """Span time under one root step, scaled like that step."""
            return layers.get((root, name), (0, 0))[own] * rnd.steps[root].scale / 1e3

        build = total("decompose", "report.build")
        rows = max(counts["rows"], 1)
        f = {
            "runtime.submit_us_per_task": total("record.on", "runtime.submit") / n,
            "runtime.submit_off_us_per_task": total("record.off", "runtime.submit") / n,
            "runtime.run_us_per_task": total("record.on", "runtime.wait_idle", True) / n,
            "runtime.run_off_us_per_task": total("record.off", "runtime.wait_idle", True) / n,
            "runtime.assemble_us_per_task": total("record.on", "runtime.drain") / n,
            "runtime.session_us_per_session":
                total("record.on", "runtime.session") / len(rnd.on.sessions),
            "tracelog.encode_us_per_task": total("export", "tracelog.encode") / n,
            "tracelog.parse_us_per_task": total("decompose", "tracelog.parse") / n,
            "report.build_us_per_task": build / n,
            "report.build_self_us_per_task":
                (build - sum(total("decompose", p) for p in ANALYSIS_PARTS)) / n,
            "report.render_text_us_per_row": total("decompose", "report.render_text") / rows,
            "report.render_json_us_per_row": total("decompose", "report.render_json") / rows,
        }
        for p in ANALYSIS_PARTS:
            f[f"{p}_us_per_task"] = total("decompose", p) / n

        events = [ev for s in rnd.on.sessions for ev in s.events]
        kinds = Counter(ev.kind for ev in events)
        # Schedule events come in submission order, one per submission that
        # returned a key, so they pair with the timer's samples in order.
        contexts = [ev.context.frames for ev in events if ev.kind is EventKind.SCHEDULE]
        samples = [ns for key, ns in zip(rnd.on.timer.keys, rnd.on.timer.samples)
                   if key is not None]
        by_context: dict[tuple, list[int]] = {}
        for frames, ns in zip(contexts, samples):
            by_context.setdefault(frames, []).append(ns)
        scale = rnd.steps["record.on"].scale / 1e3
        points = [(len(c), sum(v) / len(v) * scale) for c, v in by_context.items()]
        f.update({
            "runtime.submit_us_per_frame": slope(points),
            "runtime.events_per_task": len(events) / n,
            "runtime.frames_per_task": sum(len(c) for c in contexts) / n,
            "runtime.contexts": len(by_context),
            "runtime.workers": kinds[EventKind.SPAWN],
            "runtime.gc_collections": rnd.gc_record,
            "tracelog.bytes_per_event": sum(len(b) for b in rnd.blobs) / len(events),
            "tracelog.gc_collections": counts["gc_parse"],
            "analyzer.kept_tasks": counts["kept"],
            "analyzer.groups": counts["groups"],
            "analyzer.warnings": counts["warnings"],
            "report.rows": counts["rows"],
        })
        return f

    def per_layer(self, traced: list[dict], rounds: list[dict]) -> dict:
        out = {}
        for key in traced[0]:
            if "_us_per_" in key:
                unit = "us"
            elif key == "tracelog.bytes_per_event":
                unit = "B"
            else:
                unit = "count"
            out[key] = (median([t[key] for t in traced]), unit)
        # Even rounds were traced, odd ones not: the pipeline difference is
        # what keeping the spans costs.
        with_spans = median([r["pipeline"] for r in rounds[0::2]])
        without = median([r["pipeline"] for r in rounds[1::2]])
        self.notes.append(
            f"tracing overhead: {with_spans - without:+.3f} us/task (pipeline "
            f"{with_spans:.3f} traced vs {without:.3f} untraced, "
            f"{len(traced)} traced rounds)")
        return out

    def retained(self, plan) -> dict:
        """Bytes that asyncscope code still holds once a pass has drained."""
        gc.collect()
        tracemalloc.start()
        try:
            rec = self.wl.record(plan, True, SubmitTimer(self.tracer), self.tracer)
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, os.path.join(SRC, "asyncscope", "*"))])
        finally:
            tracemalloc.stop()
        held = sum(stat.size for stat in snapshot.statistics("filename"))
        return {"runtime.retained_bytes_per_task": (held / rec.tasks, "B")}


def run_one(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    run = Run(name, seed, seconds, trace, scale)
    figures = run.execute()
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(figures.items())},
    }
    return run, result


def report(run: Run, result: dict) -> None:
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    print(f"workload: {run.name}  seed: {run.seed}  rounds: {run.rounds}  "
          f"trace: {int(run.trace)}")
    for note in run.notes:
        print(note)
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.4f} {m['unit']}")
    for msg, n in run.problems[:20]:
        print(f"CHECK FAILED ({n} tasks): {msg}")
    print(f"attempted {result['attempted']} tasks, failed {result['failed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="every workload at a small size, traced and untraced, "
                             "with every check")
    args = parser.parse_args(argv)
    if args.quick:
        results = []
        for name in WORKLOADS:
            for trace in (False, True):
                run, result = run_one(name, args.seed, 0, trace, QUICK_SCALE)
                report(run, result)
                results.append(result)
                print(json.dumps({"quick": name, "trace": int(trace), **result}))
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
    else:
        if args.workload is None:
            parser.error("--workload is required unless --quick is given")
        run, result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        report(run, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
