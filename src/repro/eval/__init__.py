"""Evaluation harness: experiment runners, artifact rows, traces, and reporting."""

from repro.eval.experiments import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    compile_time_report,
    cost_model_accuracy,
    evaluate_artifact,
    execution_space_profile,
    make_fitted_session,
    make_request,
    make_session,
    min_max_preload_demand,
    model_stats_table,
    preload_space_hbm_demand,
)
from repro.eval.reporting import (
    SERVING_SUMMARY_COLUMNS,
    format_serving_summary,
    format_table,
    geometric_mean,
    save_results,
    serving_summary_rows,
)
from repro.eval.traces import (
    BandwidthTrace,
    hbm_demand_trace,
    intercore_demand_trace,
    memory_occupancy_trace,
)

__all__ = [
    "DEFAULT_CONFIG",
    "ExperimentConfig",
    "compile_time_report",
    "cost_model_accuracy",
    "evaluate_artifact",
    "execution_space_profile",
    "make_fitted_session",
    "make_request",
    "make_session",
    "min_max_preload_demand",
    "model_stats_table",
    "preload_space_hbm_demand",
    "SERVING_SUMMARY_COLUMNS",
    "format_serving_summary",
    "format_table",
    "geometric_mean",
    "save_results",
    "serving_summary_rows",
    "BandwidthTrace",
    "hbm_demand_trace",
    "intercore_demand_trace",
    "memory_occupancy_trace",
]
