"""asyncscope: task-granularity profiling for asynchronous execution.

The toolkit instruments asynchronous submission mechanisms, records
per-task lifecycle events, and flags submission sites whose queuing or
latency behavior looks anomalous.
"""

from .analyzer import (
    GroupStats,
    Heuristic,
    HeuristicConfig,
    LineageSet,
    Metric,
    MetricStats,
    Warning,
    build_lineage,
    compute_stats,
    detect_anomalies,
    filter_ui_triggered,
    group_by_context,
    suspiciousness,
)
from .clock import ClockMode, ClockSource, RealMonotonicClock, VirtualClock
from .report import (
    DiagnosisReport,
    Histogram,
    ReportRow,
    build_report,
    histogram,
    render_json,
    render_text,
    report_to_dict,
    write_histogram_csvs,
)
from .runtime import (
    AsyncFacade,
    CancelOutcome,
    CancelToken,
    DrainTimeout,
    PoolExecutor,
    ProfilerError,
    ProfilerSession,
    QueueFull,
    SerialQueueExecutor,
    SessionClosed,
    Task,
    session_run,
)
from .scenarios import SCENARIOS, Scenario, ScenarioResult, UnknownScenario, run_scenario
from .trace_model import (
    EventKind,
    ExecutionContext,
    Mechanism,
    TaskEvent,
    TaskRecord,
    ThreadIdentity,
    TraceSession,
    correlate,
    latency,
    queuing_time,
)
from .tracelog import (
    TraceLogError,
    encode_session,
    parse_trace,
    read_trace,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AsyncFacade", "CancelOutcome", "CancelToken", "ClockMode", "ClockSource",
    "DiagnosisReport", "DrainTimeout", "EventKind", "ExecutionContext",
    "GroupStats", "Heuristic", "HeuristicConfig",
    "Histogram", "LineageSet", "Mechanism", "Metric",
    "MetricStats", "PoolExecutor", "ProfilerError", "ProfilerSession",
    "QueueFull", "RealMonotonicClock", "ReportRow", "SCENARIOS", "Scenario",
    "ScenarioResult", "SerialQueueExecutor", "SessionClosed", "Task",
    "TaskEvent", "TaskRecord", "ThreadIdentity", "TraceLogError",
    "TraceSession", "UnknownScenario", "VirtualClock", "Warning",
    "build_lineage", "build_report", "compute_stats", "correlate",
    "detect_anomalies", "encode_session", "filter_ui_triggered",
    "group_by_context", "histogram", "latency", "parse_trace",
    "queuing_time", "read_trace", "render_json", "render_text",
    "report_to_dict", "run_scenario", "session_run",
    "suspiciousness", "write_histogram_csvs", "write_trace",
]
