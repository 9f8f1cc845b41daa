#!/usr/bin/env python3
"""The paper's VoIP experiment (Figures 1-3).

Runs the 72 kbit/s G.711-like UDP CBR flow for 120 s over both the
UMTS-to-Ethernet and the Ethernet-to-Ethernet path, then prints the
figure series (bitrate, jitter, RTT in 200 ms windows, downsampled for
the terminal) and the summary comparison the paper discusses:

- both paths deliver the required 72 kbit/s on average, UMTS with more
  fluctuation;
- UMTS jitter is higher and spikier (tens of ms vs sub-ms);
- UMTS RTT is higher (hundreds of ms, spikes toward ~700 ms);
- packet loss is zero on both paths.

Run with::

    python examples/voip_characterization.py [duration_seconds]
"""

import sys

from repro import PATH_ETHERNET, PATH_UMTS, run_characterization, voip_g711
from repro.analysis.figures import sparkline


def downsample(series, buckets=72):
    """Average the 200 ms series into a fixed number of buckets."""
    if len(series) <= buckets:
        return series
    window = (series.times[-1] - series.times[0]) / buckets + 1e-9
    return series.window_average(window, start=series.times[0])


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 120.0
    spec = lambda: voip_g711(duration=duration)  # noqa: E731

    print(f"Running VoIP characterization ({duration:.0f} s per path)...")
    umts = run_characterization(spec(), path=PATH_UMTS, seed=3)
    ethernet = run_characterization(spec(), path=PATH_ETHERNET, seed=3)

    figures = [
        ("Figure 1 - bitrate [kbit/s]", "bitrate_kbps", 1.0),
        ("Figure 2 - jitter [ms]", "jitter_series", 1000.0),
        ("Figure 3 - RTT [ms]", "rtt_series", 1000.0),
    ]
    for title, accessor, unit in figures:
        print(f"\n{title}")
        for label, result in (("UMTS", umts), ("eth ", ethernet)):
            series = getattr(result, accessor)()
            shown = [v * unit for v in downsample(series).values if v == v]
            print(f"  {label} |{sparkline(series)}|")
            print(
                f"       mean={sum(shown) / len(shown):8.2f}  "
                f"max={max(shown):8.2f}"
            )

    print("\nSummary (paper's qualitative claims):")
    su, se = umts.summary, ethernet.summary
    print(f"  bitrate  UMTS {su.mean_bitrate_kbps:6.1f} kbit/s   "
          f"eth {se.mean_bitrate_kbps:6.1f} kbit/s   (both ~72)")
    print(f"  jitter   UMTS {su.mean_jitter * 1000:6.2f} ms       "
          f"eth {se.mean_jitter * 1000:6.2f} ms       (UMTS >>)")
    print(f"  RTT max  UMTS {su.max_rtt * 1000:6.0f} ms       "
          f"eth {se.max_rtt * 1000:6.0f} ms       (UMTS toward ~700)")
    print(f"  loss     UMTS {su.packets_lost:6d} pkt      "
          f"eth {se.packets_lost:6d} pkt      (both 0)")


if __name__ == "__main__":
    main()
