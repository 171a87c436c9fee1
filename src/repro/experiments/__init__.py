"""Experiment modules regenerating every table/figure of the paper."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "fig5": (
        "CONDITIONS", "Fig5Result", "PAPER_FIG5", "reductions_from_records",
        "run_fig5",
    ),
    "fig6": (
        "Fig6Result", "PAPER_FIG6", "TAIL_CONDITIONS", "fig6_from_records",
        "run_fig6",
    ),
    "fig7": (
        "Fig7Result", "PAPER_FIG7", "PAPER_IC_DETAIL", "run_fig7",
        "run_fig7_dynamic",
    ),
    "fig8": (
        "Fig8Result", "PAPER_FIG8", "PAPER_SWITCH_OVERHEAD_MS",
        "long_workload", "run_cluster", "run_fig8",
    ),
    "runner": (
        "RunResult", "SYSTEMS", "record_to_run_result", "run_matrix",
        "run_sequence",
    ),
})

__all__ = [
    "fig6_from_records",
    "record_to_run_result",
    "reductions_from_records",
    "CONDITIONS",
    "Fig5Result",
    "Fig6Result",
    "Fig7Result",
    "Fig8Result",
    "PAPER_FIG5",
    "PAPER_FIG6",
    "PAPER_FIG7",
    "PAPER_FIG8",
    "PAPER_IC_DETAIL",
    "PAPER_SWITCH_OVERHEAD_MS",
    "RunResult",
    "SYSTEMS",
    "TAIL_CONDITIONS",
    "long_workload",
    "run_cluster",
    "run_fig7_dynamic",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_matrix",
    "run_sequence",
]
