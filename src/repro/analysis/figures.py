"""Terminal renderings of windowed QoS series."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.sim.monitor import TimeSeries

_BLOCKS = " .:-=+*#%@"


def sparkline(series: TimeSeries, scale: Optional[float] = None, width: int = 72) -> str:
    """Render a series as one line of density characters.

    ``scale`` fixes the full-height value (defaults to the series max)
    so several sparklines can share an axis.  NaN samples render as
    spaces.  Series longer than ``width`` are averaged down.
    """
    if len(series) == 0:
        return "(no samples)"
    if len(series) > width:
        span = series.times[-1] - series.times[0]
        series = series.window_average(span / width + 1e-9, start=series.times[0])
    finite = [v for v in series.values if v == v]
    if not finite:
        return "(no samples)"
    top = scale if scale is not None else (max(finite) or 1.0)
    cells = []
    for value in series.values:
        if value != value:
            cells.append(" ")
        else:
            index = min(len(_BLOCKS) - 1, max(0, int(value / top * (len(_BLOCKS) - 1))))
            cells.append(_BLOCKS[index])
    return "".join(cells)


def render_series_table(
    rows: Sequence[Tuple[str, TimeSeries]],
    step: float = 10.0,
) -> List[str]:
    """Tabulate several series side-by-side in ``step``-second rows.

    Returns the lines (caller prints), e.g.::

        time      UMTS        Ethernet
           0s    137.62       999.43
          10s    140.08      1000.21

    The mean of each window is shown; empty windows print ``-``.
    """
    if not rows:
        return []
    lines = []
    labels = [label for label, _ in rows]
    lines.append(("time".rjust(6)) + "".join(label.rjust(14) for label in labels))
    end = max(
        (series.times[-1] for _, series in rows if len(series)), default=0.0
    )
    t = 0.0
    while t <= end:
        cells = []
        for _, series in rows:
            value = series.between(t, t + step).mean()
            cells.append(f"{value:14.2f}" if value == value else "-".rjust(14))
        lines.append(f"{t:5.0f}s" + "".join(cells))
        t += step
    return lines
