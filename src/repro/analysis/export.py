"""Exporting experiment data for external plotting.

The paper's figures are gnuplot time plots of 200 ms-window samples;
these helpers write the same series as CSV so any plotting tool can
regenerate them from a run:

- :func:`series_to_csv` — one :class:`TimeSeries` per file;
- :func:`export_experiment` — the four figure series of an
  :class:`~repro.testbed.experiment.ExperimentResult` (plus the RAB
  grade timeline when present) into a directory.
"""

from __future__ import annotations

import csv
import pathlib
from typing import List, Tuple, Union

from repro.sim.monitor import TimeSeries

PathLike = Union[str, pathlib.Path]


def series_to_csv(
    series: TimeSeries,
    path: PathLike,
    value_header: str = "value",
) -> pathlib.Path:
    """Write one series as a two-column CSV; returns the path.

    NaN placeholders (empty windows) are written as empty cells, which
    both gnuplot and pandas read as missing data.
    """
    target = pathlib.Path(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", value_header])
        for t, v in series.as_pairs():
            writer.writerow([f"{t:.6f}", "" if v != v else f"{v:.9g}"])
    return target


def export_experiment(result, directory: PathLike, prefix: str = "") -> List[pathlib.Path]:
    """Write an experiment's figure series into ``directory``.

    Produces ``<prefix>bitrate_kbps.csv``, ``jitter_s.csv``,
    ``loss_pkt.csv``, ``rtt_s.csv`` and, for UMTS runs,
    ``rab_grade_bps.csv``.  Returns the written paths.
    """
    target = pathlib.Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for name, series in (
        ("bitrate_kbps", result.bitrate_kbps()),
        ("jitter_s", result.jitter_series()),
        ("loss_pkt", result.loss_series()),
        ("rtt_s", result.rtt_series()),
    ):
        written.append(
            series_to_csv(series, target / f"{prefix}{name}.csv", value_header=name)
        )
    if result.rab_history is not None:
        written.append(
            series_to_csv(
                result.rab_history,
                target / f"{prefix}rab_grade_bps.csv",
                value_header="rab_grade_bps",
            )
        )
    return written


def read_csv_series(path: PathLike) -> List[Tuple[float, float]]:
    """Read back a CSV written by :func:`series_to_csv` (round-trip aid).

    Missing values come back as NaN.
    """
    pairs: List[Tuple[float, float]] = []
    with pathlib.Path(path).open() as handle:
        reader = csv.reader(handle)
        next(reader)  # header
        for row in reader:
            time = float(row[0])
            value = float(row[1]) if row[1] else float("nan")
            pairs.append((time, value))
    return pairs
