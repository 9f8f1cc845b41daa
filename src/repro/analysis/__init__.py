"""Analysis helpers: statistics, path comparison, terminal figures.

The benches and examples share these: robust summary statistics over
windowed series (:mod:`repro.analysis.stats`), side-by-side comparison
of two experiment runs the way the paper's figures juxtapose the two
paths (:mod:`repro.analysis.compare`), and terminal renderings of the
200 ms-window series (:mod:`repro.analysis.figures`).
"""

from repro.analysis.aggregate import (
    MetricAggregate,
    aggregate_report,
    aggregate_summaries,
)
from repro.analysis.compare import PathComparison, compare_paths
from repro.analysis.export import export_experiment, read_csv_series, series_to_csv
from repro.analysis.figures import render_series_table, sparkline
from repro.analysis.stats import (
    confidence_interval_95,
    mean,
    median,
    percentile,
    stdev,
)

__all__ = [
    "MetricAggregate",
    "PathComparison",
    "aggregate_report",
    "aggregate_summaries",
    "compare_paths",
    "confidence_interval_95",
    "export_experiment",
    "mean",
    "median",
    "percentile",
    "read_csv_series",
    "render_series_table",
    "series_to_csv",
    "sparkline",
    "stdev",
]
