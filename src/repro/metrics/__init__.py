"""Metrics: response times, tail latency, utilization, reporting."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "response": (
        "ResponseStats", "geometric_mean", "relative_reduction",
        "relative_tail", "summarize_runs",
    ),
    "plots": ("bar_chart", "grouped_bar_chart", "trace_plot"),
    "report": (
        "format_series", "format_table", "sparkline", "summarize_records",
    ),
    "utilization": (
        "BundlingGain", "UtilizationTracker", "bundling_gain", "ic_detail",
    ),
})

__all__ = [
    "BundlingGain",
    "bar_chart",
    "grouped_bar_chart",
    "trace_plot",
    "ResponseStats",
    "UtilizationTracker",
    "bundling_gain",
    "format_series",
    "format_table",
    "geometric_mean",
    "ic_detail",
    "relative_reduction",
    "relative_tail",
    "sparkline",
    "summarize_records",
    "summarize_runs",
]
