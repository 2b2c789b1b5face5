"""deep_mixed: hundreds of submission sites on the virtual clock.

The seed shuffles a fixed make-up of sites (mechanism, stack depth,
task count, duration pattern, cancellation role) and draws their
timelines and durations, so every seed has the same amount of work of
each kind while the inputs differ. Every site is its own function, so
each one is its own execution context even when its stack is deeper
than ``capture_depth``.

Besides the workload, the plan keeps a ledger that predicts, per site,
how many tasks complete, stay incomplete and are cancelled, and the
exact end of every task cancelled while running.
"""

from __future__ import annotations

import functools
import math
import random
import types
from dataclasses import dataclass, field

from asyncscope import (
    CancelOutcome,
    DrainTimeout,
    HeuristicConfig,
    Mechanism,
    ProfilerSession,
    Task,
    VirtualClock,
    correlate,
    parse_trace,
)
from asyncscope.runtime import DEFAULT_CAPTURE_DEPTH

from harness import Recorded

MS = 1_000_000
CHECK_INTERVAL_NS = 1 * MS
PASS_PAIRS = 2  # pairs of off/on record passes per round

# Top-level sites per mechanism, submitted from the main thread.
SITE_MIX = (
    ("thread", 30), ("looper", 40), ("aquery", 20), ("pool", 50),
    ("facade_default", 16), ("facade_explicit", 30), ("service", 30),
)
N_NESTED = 40  # submitted from the bodies of parent tasks (offspring)
N_SYSTEM = 20  # submitted under system_thread(): outside the lineage
NESTED_MECHS = ("pool", "looper", "aquery", "service", "thread")
# System sites get a pool of their own: a worker first spawned for a system
# submission is outside the lineage, and so would be any task it later runs.
SYSTEM_MECHS = ("sys_pool", "looper", "thread", "service")
SIZES = (3, 4, 6, 8, 10, 12, 16, 20)
MAX_DEPTH = DEFAULT_CAPTURE_DEPTH + 8
PATTERNS = ("steady", "steady", "jitter", "jitter", "outlier", "slow", "burst")
BASES_NS = (MS // 2, MS, 2 * MS, 4 * MS)
N_LOOPERS, N_AQUERY, N_SERVICES = 4, 2, 3
POOLS = ((2, 4), (4, 4), (1, 3), (8, 8))  # (core_size, max_size)
SYSTEM_POOL = (2, 2)
SERIAL_MECHS = ("looper", "aquery", "service", "facade_default")
# Roles of the top-level thread sites; parents submit the nested sites.
THREAD_ROLES = ("cancel_running",) * 10 + ("cancel_nocheck",) * 4 + ("hang",) * 4 \
    + ("parent",) * 10 + ("plain",) * 2
QUEUED = "queued"  # cancel right after submission, while still pending


@dataclass
class Site:
    idx: int
    name: str
    kind: str  # "top", "nested" or "system"
    mech: str
    executor: int
    depth: int
    tasks: list = field(default_factory=list)
    times: list = field(default_factory=list)  # submit times; nested: none
    cancels: list = field(default_factory=list)  # None, QUEUED or delay ns
    expect: dict = field(default_factory=dict)  # task index -> (outcome, end offset)
    complete: int = 0
    incomplete: int = 0
    cancelled: int = 0
    fn: object = None


@dataclass
class Plan:
    seed: int
    sites: list
    fire: list  # (time, site index, task index), top and system sites
    tasks: int
    active: object = None  # the pass now running, for parent task bodies


def _site_template(run, site, i):
    fn, args = run.submitters[site.idx]
    return run.timer(fn, *args, site.tasks[i])


def _make_site_fn(name: str):
    code = _site_template.__code__.replace(co_name=name)
    return types.FunctionType(code, globals(), name)


def _descend(depth, fn, *args):
    if depth:
        return _descend(depth - 1, fn, *args)
    return fn(*args)


def _nested_body(plan: Plan, child: int, first: int, stride: int, token) -> None:
    site = plan.sites[child]
    for i in range(first, len(site.tasks), stride):
        plan.active.submit(site, i)


def _durations(rng: random.Random, pattern: str, n: int) -> list[int]:
    base = rng.choice(BASES_NS)
    if pattern == "jitter":
        return [int(base * rng.uniform(0.8, 1.2)) for _ in range(n)]
    out = [base] * n
    if pattern == "outlier":
        out[rng.randrange(n)] = base * 40
    elif pattern == "slow":
        out[rng.randrange(n)] = rng.randrange(250, 400) * MS
    return out


def _cancel_outcome(delay: int, duration: int | None):
    """Predicted result of cancelling a running checking task ``delay`` ns
    after it started: (cancel outcome, cancelled, end offset or None)."""
    if duration is not None and delay > duration:
        return CancelOutcome.TOO_LATE_FINISHED, False, duration
    checks = max(-(-delay // CHECK_INTERVAL_NS), 1)
    early = checks * CHECK_INTERVAL_NS
    if duration is not None and early >= duration:
        return CancelOutcome.SIGNALLED_RUNNING, False, duration
    return CancelOutcome.SIGNALLED_RUNNING, True, early


def make_plan(seed: int, scale: float) -> Plan:
    rng = random.Random(seed)

    def spread(pool, n):
        """n items drawn evenly across ``pool``, in seeded order."""
        out = [pool[i * len(pool) // n] for i in range(n)]
        rng.shuffle(out)
        return out

    def evenly(pool, n):
        return [pool[i * len(pool) // n] for i in range(n)]

    executors = {"looper": N_LOOPERS, "aquery": N_AQUERY, "pool": len(POOLS),
                 "facade_explicit": len(POOLS), "service": N_SERVICES,
                 "facade_default": 1, "thread": 1, "sys_pool": 1}
    specs = [("top", mech) for mech, n in SITE_MIX for _ in range(max(1, int(n * scale)))]
    specs += [("nested", m) for m in evenly(NESTED_MECHS, max(1, int(N_NESTED * scale)))]
    specs += [("system", m) for m in evenly(SYSTEM_MECHS, max(1, int(N_SYSTEM * scale)))]
    # Every size meets every depth equally often. A fixed stride deals these
    # shapes out over the mechanisms, so every seed submits the same mix of
    # mechanism, size and depth, and the submission-time tail does not
    # depend on the seed. The seed then shuffles the sites' order.
    n_specs = len(specs)
    per_size = -(-n_specs // len(SIZES))
    shapes = [(SIZES[i % len(SIZES)], (i // len(SIZES)) * (MAX_DEPTH + 1) // per_size)
              for i in range(n_specs)]
    stride = next(k for k in range(int(n_specs * 0.618), 2 * n_specs + 1)
                  if math.gcd(k, n_specs) == 1)
    specs = [(kind, mech, shapes[i * stride % n_specs])
             for i, (kind, mech) in enumerate(specs)]
    rng.shuffle(specs)
    shapes = [shape for _, _, shape in specs]
    patterns = spread(PATTERNS, n_specs)

    plan = Plan(seed, [], [], 0)
    for idx, (kind, mech, (_, depth)) in enumerate(specs):
        site = Site(idx, f"site_{idx}", kind, mech, rng.randrange(executors[mech]), depth)
        site.fn = _make_site_fn(site.name)
        plan.sites.append(site)

    def top(*mechs):
        return [s for s in plan.sites if s.kind == "top" and s.mech in mechs]

    threads = top("thread")
    role = {s.idx: r for s, r in zip(threads, spread(THREAD_ROLES, len(threads)))}
    nested = [s for s in plan.sites if s.kind == "nested"]
    parents = [s for s in threads if role[s.idx] == "parent"]
    parents += top("pool")[: len(nested) - len(parents)]
    if len(parents) != len(nested):
        raise ValueError(f"scale {scale} leaves nested sites without a parent")
    rng.shuffle(parents)
    children = {p.idx: c for p, c in zip(parents, nested)}
    serial = top(*SERIAL_MECHS)
    queued_cancel = {s.idx for s in serial[::4]}

    for site in plan.sites:
        n = shapes[site.idx][0]
        pattern = patterns[site.idx]
        if site.kind != "nested":
            t0 = rng.randrange(0, 2000) * MS
            gap = 0 if pattern == "burst" else rng.randrange(2, 20) * MS
            site.times = [t0 + i * gap for i in range(n)]
        r = role.get(site.idx, "plain")
        durations = _durations(rng, "steady" if pattern == "burst" else pattern, n)
        child = children.get(site.idx)
        for i in range(n):
            duration, check, cancel = durations[i], False, None
            if r == "hang" and i % 2 == 0:
                duration = None  # never finishes, not cancellable
            elif r == "hang":
                duration, check = None, True
                cancel = rng.randrange(1, 50 * MS)
            elif r == "cancel_running":
                check = True
                cancel = rng.randrange(1, 2 * duration)
            elif r == "cancel_nocheck":
                cancel = rng.randrange(1, duration)
            elif site.idx in queued_cancel and i % 4 == 3:
                cancel = QUEUED
            body = None
            if child is not None:
                # Parent task i submits child tasks i, i + n, i + 2n, ...
                body = functools.partial(_nested_body, plan, child.idx, i, n)
            site.tasks.append(Task(f"{site.name}-{i}", body=body,
                                   synthetic_duration_ns=duration,
                                   cancellation_check=check,
                                   check_interval_ns=CHECK_INTERVAL_NS))
            site.cancels.append(cancel)
            if cancel is None:
                if duration is None:
                    site.incomplete += 1
                else:
                    site.complete += 1
            elif cancel is QUEUED:
                site.incomplete += 1
                site.cancelled += 1
                site.expect[i] = (CancelOutcome.REMOVED_FROM_QUEUE, None)
            elif not check:
                site.expect[i] = (CancelOutcome.NOT_CANCELLABLE, None)
                if duration is None:
                    site.incomplete += 1
                else:
                    site.complete += 1
            else:
                outcome, cancelled, end = _cancel_outcome(cancel, duration)
                site.expect[i] = (outcome, end if cancelled else None)
                site.complete += 1
                site.cancelled += cancelled
            if site.kind != "nested":
                plan.fire.append((site.times[i], site.idx, i))
    plan.tasks = sum(len(s.tasks) for s in plan.sites)
    return plan


class _Pass:
    """One record pass over the plan with its own session."""

    def __init__(self, plan: Plan, emit: bool, timer, tracer) -> None:
        self.plan = plan
        self.timer = timer
        self.ledger: list[tuple[str, int, int]] = []
        self.outcomes: dict[str, CancelOutcome] = {}
        with tracer.span("runtime.session"):
            session = ProfilerSession(clock=VirtualClock(), config_label="deep_mixed",
                                      session_id="deep_mixed", emit_events=emit)
            executors = {
                "looper": [session.serial_executor() for _ in range(N_LOOPERS)],
                "aquery": [session.serial_executor(Mechanism.ASYNC_QUERY)
                           for _ in range(N_AQUERY)],
                "pool": [session.pool_executor(core_size=c, max_size=m) for c, m in POOLS],
                "sys_pool": [session.pool_executor(core_size=SYSTEM_POOL[0],
                                                   max_size=SYSTEM_POOL[1])],
            }
            for k in range(N_SERVICES):
                session.register_service(f"svc-{k}")
            facade = session.facade
        self.session = session
        self.pools = executors["pool"]
        self.submitters = []
        for site in plan.sites:
            if site.mech == "thread":
                entry = (session.spawn_thread, ())
            elif site.mech in executors:
                entry = (executors[site.mech][site.executor].submit, ())
            elif site.mech == "facade_default":
                entry = (facade.execute_default, ())
            elif site.mech == "facade_explicit":
                entry = (facade.execute_on, (self.pools[site.executor],))
            else:
                entry = (session.dispatch_service, (f"svc-{site.executor}",))
            self.submitters.append(entry)

    def fire(self, site_idx: int, i: int) -> None:
        site = self.plan.sites[site_idx]
        if site.kind == "system":
            with self.session.system_thread():
                self.submit(site, i)
        else:
            self.submit(site, i)

    def submit(self, site: Site, i: int) -> None:
        key = _descend(site.depth, site.fn, self, site, i)
        if key is None:
            return
        self.ledger.append((key, site.idx, i))
        cancel = site.cancels[i]
        if cancel is QUEUED:
            self.outcomes[key] = self.session.cancel(key)
        elif cancel is not None:
            self.session.call_at(self.session.clock.now_ns() + cancel,
                                 functools.partial(self._cancel, key))

    def _cancel(self, key: str) -> None:
        self.outcomes[key] = self.session.cancel(key)


def record(plan: Plan, emit: bool, timer, tracer) -> Recorded:
    run = _Pass(plan, emit, timer, tracer)
    plan.active = run
    session = run.session
    for t, site_idx, i in plan.fire:
        session.call_at(t, functools.partial(run.fire, site_idx, i))
    with tracer.span("runtime.wait_idle"):
        session.wait_idle()
    with tracer.span("runtime.drain"):
        try:
            trace = session.drain()
        except DrainTimeout as exc:  # the never-finishing tasks, by design
            trace = exc.session
    plan.active = None
    return Recorded([trace], plan.tasks, timer,
                    {"ledger": run.ledger, "outcomes": run.outcomes})


# -- checks ----------------------------------------------------------------------


def site_of(frames) -> str | None:
    """The site function named in a context (its second frame)."""
    for frame in frames:
        symbol = frame.split(":")[1]
        if symbol.startswith("site_"):
            return symbol
    return None


def expected_warnings(row: dict, cfg: HeuristicConfig) -> list[tuple[str, str, float]]:
    """The heuristics of the method, recomputed from a row's statistics."""
    out = []
    if row["n_complete"] >= cfg.min_samples:
        for metric in ("queuing", "latency"):
            ms = row[metric]
            if ms is None:
                continue
            if ms["mean_ns"] > 0:
                cv = math.sqrt(ms["variance"]) / ms["mean_ns"]
                if cv > cfg.cv_threshold:
                    out.append((metric, "HighVariance", cv / cfg.cv_threshold))
            spread = ms["max_ns"] / max(ms["min_ns"], 1)
            if spread > cfg.max_min_ratio:
                out.append((metric, "MaxMinSpread", spread / cfg.max_min_ratio))
            spread = ms["max_ns"] / max(ms["median_ns"], 1)
            if spread > cfg.max_median_ratio:
                out.append((metric, "MaxMedianSpread", spread / cfg.max_median_ratio))
    lat = row["latency"]
    if lat is not None:
        for heuristic, bar in (("AbsoluteLatency", cfg.abs_latency_warn_ns),
                               ("AnrScale", cfg.abs_anr_ns)):
            if lat["max_ns"] > bar:
                out.append(("latency", heuristic, lat["max_ns"] / bar))
    total = row["n_complete"] + row["n_incomplete"]
    if total and row["n_incomplete"] / total > cfg.incomplete_warn_fraction:
        out.append(("incomplete", "IncompleteFraction",
                    row["n_incomplete"] / total / cfg.incomplete_warn_fraction))
    return out


def check_report(report: dict, cfg: HeuristicConfig) -> list[tuple[str, int]]:
    """Warnings, scores and ranking of any report, against the formulas."""
    problems = []
    keys = []
    for row in report["rows"]:
        got = [(w["metric"], w["heuristic"], w["score"]) for w in row["warnings"]]
        want = expected_warnings(row, cfg)
        n = row["n_complete"] + row["n_incomplete"]
        if got != want:
            problems.append((f"row {row['group_ref']}: warnings {got} != {want}", n))
        if row["suspiciousness"] != max((w[2] for w in want), default=0.0):
            problems.append((f"row {row['group_ref']}: suspiciousness", n))
        lat = row["latency"]
        frames = ";".join(report["contexts"][row["context_index"]])
        keys.append((-row["suspiciousness"], -(lat["max_ns"] if lat else -1), frames))
    if keys != sorted(keys):
        problems.append(("rows are not in rank order", 0))
    return problems


def check_pass(plan: Plan, rec, emit: bool) -> list[tuple[str, int]]:
    name = "on" if emit else "off"
    problems = []
    if rec.timer.failed:
        problems.append((f"{name} pass: {rec.timer.failed} submissions raised",
                         rec.timer.failed))
    if len(rec.extra["ledger"]) != plan.tasks:
        problems.append((f"{name} pass: {len(rec.extra['ledger'])} submissions",
                         plan.tasks - len(rec.extra["ledger"])))
    if not emit and rec.sessions[0].events:
        problems.append(("events recorded with emission off", 0))
    return problems


def check(plan: Plan, rnd, report: dict, full: bool) -> list[tuple[str, int]]:
    problems = []
    if not full:
        return problems
    sites = plan.sites
    by_name = {s.name: s for s in sites}
    seen = set()
    for row in report["rows"]:
        name = site_of(report["contexts"][row["context_index"]])
        site = by_name.get(name)
        if site is None or site.kind == "system" or name in seen:
            problems.append((f"row {row['group_ref']} for site {name}", row["n_complete"]))
            continue
        seen.add(name)
        got = (row["n_complete"], row["n_incomplete"], row["n_cancelled"])
        want = (site.complete, site.incomplete, site.cancelled)
        if got != want:
            problems.append((f"{name}: complete/incomplete/cancelled {got} != {want}",
                             len(site.tasks)))
    for site in sites:
        if site.kind != "system" and site.name not in seen:
            problems.append((f"{site.name}: no report row", len(site.tasks)))
    problems += check_report(report, HeuristicConfig())

    ledger = {key: (site_idx, i) for key, site_idx, i in rnd.on.extra["ledger"]}
    outcomes = rnd.on.extra["outcomes"]
    records = correlate(parse_trace(rnd.blobs[0]).events)
    if {r.task_key for r in records} != set(ledger):
        problems.append(("trace keys differ from the submissions", plan.tasks))
    serial: dict[tuple, list] = {}
    pools: dict[tuple, list] = {}
    for r in records:
        if r.task_key not in ledger:
            continue
        site_idx, i = ledger[r.task_key]
        site = sites[site_idx]
        want = site.expect.get(i)
        if want is not None:
            outcome, end = want
            if outcomes.get(r.task_key) is not outcome:
                problems.append((f"{r.task_key}: cancel gave {outcomes.get(r.task_key)}", 1))
            if end is not None and (not r.cancelled or r.end_ns != r.start_ns + end):
                problems.append((f"{r.task_key}: cancelled run ended at {r.end_ns}", 1))
        if site.mech in SERIAL_MECHS:
            serial.setdefault((site.mech, site.executor), []).append(r)
        elif site.mech in ("pool", "facade_explicit"):
            pools.setdefault(("pool", site.executor), []).append(r)
        elif site.mech == "sys_pool":
            pools.setdefault(("sys_pool", 0), []).append(r)
    for executor, rs in serial.items():
        prev_end = None
        for r in rs:
            if r.start_ns is None:
                continue  # removed from the queue by a cancel
            want = r.request_ns if prev_end is None else max(r.request_ns, prev_end)
            if r.start_ns != want:
                problems.append((f"{executor}: {r.task_key} started {r.start_ns}, "
                                 f"FIFO says {want}", 1))
            prev_end = r.end_ns
    for k, rs in pools.items():
        edges = []
        for r in rs:
            if r.start_ns is not None:
                edges.append((r.start_ns, 1))
                if r.end_ns is not None:
                    edges.append((r.end_ns, -1))
        running = peak = 0
        for _, step in sorted(edges):
            running += step
            peak = max(peak, running)
        bound = POOLS[k[1]][1] if k[0] == "pool" else SYSTEM_POOL[1]
        if peak > bound:
            problems.append((f"{k} ran {peak} tasks at once, max_size {bound}", 0))
    return problems
