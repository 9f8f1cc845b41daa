"""Command-line front door: ``python -m repro <command>``.

The commands, in the order of the paper's narrative:

- ``demo`` — bring the UMTS connection up on the simulated PlanetLab
  node, show the ``umts`` command output, send one packet each way;
- ``trace`` — the same walk-through under the observability layer:
  structured spans for every dial-up phase and vsys command, the
  metrics registry, and (on failure) the flight-recorder dump;
- ``voip`` — the Figures 1-3 experiment (72 kbit/s VoIP-like flow),
  printed as a summary table for both paths;
- ``saturation`` — the Figures 4-7 experiment (1 Mbit/s flow) with the
  RAB adaptation timeline;
- ``lint`` — the domain-aware static analyzer: determinism,
  annotation coverage for the strict packages, retry policy, worker
  safety, metric names, resource lifecycles and the lease protocol
  (exit 1 on findings; see docs/STATIC_ANALYSIS.md);
- ``chaos`` — the fault-injection campaign: every built-in scenario
  must recover or degrade cleanly, never hang, and (``--check``)
  reproduce its recovery timeline bit-identically (see docs/FAULTS.md);
- ``sweep`` — seed sweeps of the characterization experiments, sharded
  across worker processes (``-j N``) with a deterministic merge (see
  docs/PARALLEL.md);
- ``report`` — campaign-scale telemetry: span timelines with the
  bring-up critical path, deterministic sim-time profiles, and
  OpenMetrics export of a single run's or a whole campaign's metrics
  registry (see docs/OBSERVABILITY.md);
- ``fleet`` — the fleet-scale testbed: hundreds of simulated PlanetLab
  nodes in sharded group simulations, a central controller leasing the
  UMTS interface per slice (FIFO + priority preemption), the paper's
  experiment across every node-pair, and fairness/starvation metrics
  (see docs/FLEET.md).

``chaos``, ``sweep``, ``report --campaign`` and ``fleet`` share one
campaign path (``_run_campaign``): the campaign runner
(:mod:`repro.parallel`) shards jobs across ``-j N`` processes without
changing a byte of the merged output, ``--check`` re-runs every job
and compares digests, and the exports follow one rule.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro import (
    OneLabScenario,
    PATH_ETHERNET,
    PATH_UMTS,
    cbr,
    run_characterization,
    voip_g711,
)
from repro.analysis.compare import compare_paths, report_lines
from repro.obs import FlightRecorder, Observability, format_event


def _cmd_demo(args: argparse.Namespace) -> int:
    scenario = OneLabScenario(seed=args.seed)
    umts = scenario.umts_command()
    result = umts.start_blocking()
    for line in result.lines:
        print(line)
    if not result.ok:
        return 1
    umts.add_destination_blocking(scenario.inria_addr)
    for line in umts.status_blocking().lines:
        print(line)
    umts.stop_blocking()
    print("umts stopped; demo complete "
          f"({scenario.sim.now:.1f} simulated seconds)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    scenario = OneLabScenario(seed=args.seed)
    obs = Observability(scenario.sim)
    obs.bind_node(scenario.napoli)
    if args.last is not None:
        if args.last <= 0:
            print("trace: --last must be positive", file=sys.stderr)
            return 2
        # A bounded ring instead of the unbounded ListSink: memory stays
        # O(N) however long the run, same trade as the flight recorder.
        ring = obs.trace.attach(FlightRecorder(capacity=args.last, trigger_kinds=()))
        events = None
    else:
        ring = None
        events = obs.record_events()
    jsonl = obs.export_jsonl(args.jsonl) if args.jsonl else None
    if args.fail:
        # Make the cell refuse the PDP context: registration succeeds,
        # but ATD*99# answers NO CARRIER — the forced dial-up failure
        # that triggers the flight recorder.
        def _refuse_data_call(modem, apn=None):
            raise RuntimeError("no radio bearer available (--fail)")

        scenario.napoli.modem.network.open_data_call = _refuse_data_call
    umts = scenario.umts_command()
    result = umts.start_blocking()
    if result.ok:
        umts.add_destination_blocking(scenario.inria_addr)
        umts.status_blocking()
        umts.stop_blocking()
    if events is not None:
        recorded = events.events
        print(f"trace: {len(recorded)} events, "
              f"{scenario.sim.now:.1f} simulated seconds")
    else:
        recorded = ring.recent()
        print(f"trace: last {len(recorded)} of {ring.seen} events, "
              f"{scenario.sim.now:.1f} simulated seconds")
    for event in recorded:
        print(format_event(event))
    print()
    print("metrics:")
    for line in obs.metrics.summary_lines():
        print("  " + line)
    if obs.flight.dumps:
        print()
        for line in obs.flight.dump_lines():
            print(line)
    if jsonl is not None:
        jsonl.close()
        print(f"\ntrace exported to {args.jsonl} ({jsonl.written} events)")
    return 0 if result.ok else 1


def _run_both(spec_factory, seed: int):
    umts = run_characterization(spec_factory(), path=PATH_UMTS, seed=seed)
    ethernet = run_characterization(spec_factory(), path=PATH_ETHERNET, seed=seed)
    return umts, ethernet


def _print_summaries(umts, ethernet) -> None:
    for label, result in (("UMTS-to-Ethernet", umts), ("Ethernet-to-Ethernet", ethernet)):
        s = result.summary
        print(f"{label}:")
        print(f"  bitrate {s.mean_bitrate_kbps:8.1f} kbit/s   "
              f"loss {s.loss_fraction * 100:5.1f}%   "
              f"jitter {s.mean_jitter * 1000:7.2f} ms   "
              f"RTT {s.mean_rtt * 1000:7.1f} ms (max {s.max_rtt * 1000:.0f})")
    for line in report_lines(compare_paths(umts, ethernet, "UMTS", "Ethernet")):
        print(line)


def _cmd_voip(args: argparse.Namespace) -> int:
    print(f"VoIP-like flow, {args.duration:.0f}s per path (Figures 1-3)...")
    umts, ethernet = _run_both(lambda: voip_g711(duration=args.duration), args.seed)
    _print_summaries(umts, ethernet)
    return 0


def _cmd_saturation(args: argparse.Namespace) -> int:
    print(f"1 Mbit/s flow, {args.duration:.0f}s per path (Figures 4-7)...")
    umts, ethernet = _run_both(lambda: cbr(duration=args.duration), args.seed)
    origin = umts.decoder.origin
    print("RAB grades:", " -> ".join(
        f"{rate / 1000:.0f}k@{max(0.0, t - origin):.0f}s"
        for t, rate in umts.rab_history.as_pairs()
    ))
    _print_summaries(umts, ethernet)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.lint import RULES, UnknownRuleError, human_report, jsonl_report, lint_paths

    if args.list_rules:
        for rule_id in sorted(RULES):
            rule = RULES[rule_id]
            print(f"{rule_id:<20} {rule.severity.value:<8} {rule.description}")
        return 0
    paths = args.paths or [str(Path(repro.__file__).parent)]
    for path in paths:
        if not Path(path).exists():
            print(f"lint: no such file or directory: {path}", file=sys.stderr)
            return 2
    try:
        findings = lint_paths(paths, rule_ids=args.rule or None)
    except UnknownRuleError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        print(f"available: {', '.join(exc.known)}", file=sys.stderr)
        return 2
    if args.jsonl is not None:
        lines = jsonl_report(findings)
        if args.jsonl == "-":
            for line in lines:
                print(line)
        else:
            Path(args.jsonl).write_text("\n".join(lines) + ("\n" if lines else ""))
            print(f"wrote {len(lines)} finding(s) to {args.jsonl}")
    else:
        for line in human_report(findings):
            print(line)
    checked = "all rules" if not args.rule else ", ".join(args.rule)
    print(f"lint: {len(findings)} finding(s) ({checked})")
    return 1 if findings else 0


class _CampaignView(NamedTuple):
    """The parts of a campaign's output that belong to one command.

    ``rows`` print before the exports and ``summary`` after them;
    ``records`` are the ``--jsonl`` lines and ``noun`` what their
    confirmation counts (None: state the byte size instead); ``ok`` is
    the exit status.
    """

    rows: List[str]
    records: List[Dict[str, Any]]
    noun: Optional[str]
    summary: List[str]
    ok: bool = True


def _run_campaign(
    args: argparse.Namespace,
    jobs: list,
    view: Callable[[Any, List[Dict[str, Any]]], _CampaignView],
    footer: bool = True,
    wall: bool = True,
) -> int:
    """The one campaign path: run, fresh ``--check``, exports, footer.

    ``view(campaign, reports)`` builds the command's own rows, JSONL
    records and summary from the merged campaign and the jobs' stable
    reports in submission order.  Under ``--check`` the whole campaign
    runs a second time and every report gains ``deterministic``: whether
    the re-run reproduced its digest.  An export to ``-`` owns stdout,
    so no human line is printed then.  Returns the exit code.
    """
    from repro.obs import render_openmetrics
    from repro.parallel import run_campaign

    campaign = run_campaign(jobs, workers=args.jobs)
    by_key = campaign.by_key()
    reports = [by_key[job.key].stable for job in jobs]
    if getattr(args, "check", False):
        recheck = run_campaign(jobs, workers=args.jobs).by_key()
        for job, report in zip(jobs, reports):
            report["deterministic"] = (
                recheck[job.key].stable["digest"] == report["digest"]
            )
    shown = view(campaign, reports)
    openmetrics = getattr(args, "openmetrics", None)
    quiet = "-" in (args.jsonl, openmetrics)
    if not quiet:
        for line in shown.rows:
            print(line)
    if args.jsonl is not None:
        lines = [json.dumps(record, sort_keys=True) for record in shown.records]
        label = f"{len(lines)} {shown.noun}" if shown.noun else "report records"
        _emit_text(args.jsonl, "\n".join(lines) + "\n", label, quiet,
                   size=shown.noun is None)
    if openmetrics is not None:
        include_volatile = getattr(args, "include_volatile", False)
        _emit_text(
            openmetrics,
            render_openmetrics(campaign.metrics, include_volatile=include_volatile),
            "OpenMetrics exposition",
            quiet,
        )
    if not quiet:
        for line in shown.summary:
            print(line)
        if footer:
            print(f"campaign: digest={campaign.digest[:16]} workers={campaign.workers}"
                  + (f" wall={campaign.wall_s:.2f}s" if wall else ""))
    return 0 if shown.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import BUILTIN_SCENARIOS
    from repro.parallel import chaos_jobs, scenario_jobs

    if args.list:
        if args.scenario_grammar:
            from repro.scenarios import point_names

            for name in point_names():
                print(name)
            return 0
        for scenario in BUILTIN_SCENARIOS:
            print(f"{scenario.name:<24} expect {scenario.expected:<10} "
                  f"{scenario.description}")
        return 0
    try:
        if args.scenario_grammar:
            from repro.scenarios import ScenarioSpecError

            try:
                jobs = scenario_jobs(names=args.scenario or None)
            except ScenarioSpecError as exc:
                print(f"chaos: {exc}", file=sys.stderr)
                return 2
        else:
            jobs = chaos_jobs(names=args.scenario or None)
    except KeyError as exc:
        print(f"chaos: {exc.args[0]}", file=sys.stderr)
        return 2

    def view(campaign, reports):
        rows = []
        for report in reports:
            if args.scenario_grammar:
                detail = report["outcome"]
                rest = (f"ho={report['handovers']} reneg={report['renegotiations']} "
                        f"t={report['sim_time']:.1f}s")
            else:
                detail = f"{report['outcome']} (expected {report['expected']})"
                rest = (f"faults={report['faults_injected']} retries={report['retries']} "
                        f"t={report['sim_time']:.1f}s")
            if not report.get("deterministic", True):
                report["ok"] = False
                detail += " NON-DETERMINISTIC"
            verdict = "ok  " if report["ok"] else "FAIL"
            name_width, detail_width = (28, 12) if args.scenario_grammar else (24, 36)
            rows.append(f"{verdict} {report['scenario']:<{name_width}} "
                        f"{detail:<{detail_width}} {rest}")
        counts = Counter(report["outcome"] for report in reports)
        summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        ok = sum(1 for report in reports if report["ok"])
        return _CampaignView(
            rows, reports, "report(s)",
            [f"chaos: {ok}/{len(reports)} scenarios as expected ({summary})"],
            ok=ok == len(reports),
        )

    return _run_campaign(args, jobs, view, wall=False)


def _duration(text: str) -> float:
    """argparse type for ``--duration``: finite, positive seconds."""
    value = float(text)
    if not 0 < value < math.inf:  # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _jobs(text: str) -> int:
    """argparse type for ``--jobs``: a worker count, 0 meaning one per CPU."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _parse_seed_spec(spec: str) -> list:
    """``1:8`` → [1..8]; ``3,5,9`` → [3, 5, 9]; ``7`` → [7]."""
    if ":" in spec:
        lo_text, hi_text = spec.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"bad seed range {spec!r}")
        return list(range(lo, hi + 1))
    return [int(part) for part in spec.split(",")]


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.parallel import sweep_jobs

    try:
        seeds = _parse_seed_spec(args.seeds)
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    paths = [PATH_UMTS, PATH_ETHERNET] if args.path == "both" else [args.path]
    try:
        jobs = sweep_jobs(
            args.kind, seeds=seeds, paths=paths, duration=args.duration,
            scenario=args.scenario,
        )
    except (KeyError, ValueError) as exc:
        print(f"sweep: {exc.args[0]}", file=sys.stderr)
        return 2

    def view(campaign, reports):
        records = [result.stable for result in campaign.results]
        rows = [f"{args.kind} sweep: {len(seeds)} seed(s) x {len(paths)} path(s), "
                f"{args.duration:.0f}s each"]
        for record in records:
            s = record["summary"]
            rows.append(f"{record['path']:<9} seed={record['seed']:<6} "
                        f"bitrate {s['bitrate_kbps']:8.1f} kbit/s   "
                        f"loss {s['loss_fraction'] * 100:5.1f}%   "
                        f"jitter {s['mean_jitter_s'] * 1000:7.2f} ms   "
                        f"RTT {s['mean_rtt_s'] * 1000:7.1f} ms   "
                        f"digest {record['digest'][:12]}")
        return _CampaignView(rows, records, "run(s)", [])

    return _run_campaign(args, jobs, view)


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import FleetSpec, FleetSpecError
    from repro.parallel import fleet_jobs

    try:
        spec = FleetSpec(
            nodes=args.nodes,
            group_size=args.group_size,
            kind=args.kind,
            duration=args.duration,
            stagger=args.stagger,
            seed=args.seed,
            faults=tuple(args.fault or ()),
            preemption=not args.no_preempt,
            scenarios=tuple(args.scenario or ()),
        )
    except FleetSpecError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    jobs = fleet_jobs(spec)

    def view(campaign, reports):
        rows = []
        failures = 0
        for report in reports:
            notes = [note for note, failed in (
                ("DIRTY", not report["clean"]),
                ("HUNG", not report["finished"]),
                ("NON-DETERMINISTIC", not report.get("deterministic", True)),
            ) if failed]
            verdict = "FAIL" if notes else "ok  "
            failures += bool(notes)
            if report["dead_nodes"]:
                notes.append(f"dead={len(report['dead_nodes'])}")
            rows.append(f"{verdict} g{report['group']:04d} nodes={report['nodes']} "
                        f"experiments={len(report['experiments'])} "
                        f"jain={report['fairness']['jain_hold_s']:.3f} "
                        f"digest={report['digest'][:12]} {' '.join(notes)}".rstrip())
        outcomes = Counter(
            experiment["outcome"] for report in reports
            for experiment in report["experiments"]
        )
        summary = " ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
        return _CampaignView(
            rows, reports, "group report(s)",
            [f"fleet: {spec.nodes} node(s) in {len(jobs)} group(s): {summary}"],
            ok=not failures,
        )

    return _run_campaign(args, jobs, view)


def _emit_text(
    target: str, text: str, label: str, quiet: bool = False, size: bool = True
) -> None:
    """Write ``text`` to a path, or to stdout when ``target`` is ``-``.

    A file write is confirmed on stdout, with its byte ``size``, unless
    ``quiet``.
    """
    from pathlib import Path

    if target == "-":
        sys.stdout.write(text)
        return
    Path(target).write_text(text)
    if not quiet:
        print(f"wrote {label} to {target}"
              + (f" ({len(text.encode())} bytes)" if size else ""))


def _filtered_snapshot(registry, include_volatile: bool):
    """A registry snapshot with wall-clock families dropped by default."""
    from repro.obs.exporter import is_volatile

    snapshot = registry.snapshot()
    if include_volatile:
        return snapshot
    return {name: data for name, data in snapshot.items() if not is_volatile(name)}


def _report_run(args: argparse.Namespace) -> int:
    """One instrumented bring-up: timeline + profile + metrics."""
    scenario = OneLabScenario(seed=args.seed)
    obs = Observability(scenario.sim)
    obs.bind_node(scenario.napoli)
    events = obs.record_events()
    profiler = obs.enable_profiling()
    umts = scenario.umts_command()
    result = umts.start_blocking()
    if result.ok:
        umts.add_destination_blocking(scenario.inria_addr)
        umts.status_blocking()
        umts.stop_blocking()
    timeline = obs.timeline(events)
    quiet = "-" in (args.jsonl, args.openmetrics)
    if args.jsonl is not None:
        records = timeline.records()
        records.append({"record": "profile", **profiler.snapshot()})
        records.append({
            "record": "metrics",
            "metrics": _filtered_snapshot(obs.metrics, args.include_volatile),
        })
        lines = [json.dumps(record, sort_keys=True) for record in records]
        _emit_text(args.jsonl, "\n".join(lines) + "\n", "report records", quiet)
    if args.openmetrics is not None:
        _emit_text(
            args.openmetrics,
            obs.openmetrics(include_volatile=args.include_volatile),
            "OpenMetrics exposition",
            quiet,
        )
    if quiet:
        return 0 if result.ok else 1
    print(f"run report: seed={args.seed}, {timeline.events_seen} events, "
          f"{scenario.sim.now:.1f} simulated seconds")
    print()
    print("timeline:")
    for line in timeline.report_lines():
        print("  " + line)
    print()
    print("profile:")
    for line in profiler.report_lines():
        print("  " + line)
    print()
    print("metrics:")
    for line in obs.metrics.summary_lines():
        print("  " + line)
    return 0 if result.ok else 1


def _report_campaign(args: argparse.Namespace) -> int:
    """A whole campaign's folded registry, rendered and exported."""
    from repro.parallel import chaos_jobs, sweep_jobs

    if args.campaign == "chaos":
        jobs = chaos_jobs()
    else:
        try:
            seeds = _parse_seed_spec(args.seeds)
        except ValueError as exc:
            print(f"report: {exc}", file=sys.stderr)
            return 2
        jobs = sweep_jobs(
            args.kind, seeds=seeds, paths=[PATH_UMTS], duration=args.duration
        )

    def view(campaign, reports):
        records = [
            {"record": "job", "key": r.key, "kind": r.kind, "stable": r.stable}
            for r in campaign.results
        ]
        records.append({
            "record": "metrics",
            "metrics": _filtered_snapshot(campaign.metrics, args.include_volatile),
        })
        summary = [f"{args.campaign} campaign: {len(jobs)} job(s), "
                   f"digest={campaign.digest[:16]}, workers={campaign.workers}",
                   "metrics:"]
        summary += ["  " + line for line in campaign.metrics.summary_lines()]
        return _CampaignView([], records, None, summary)

    return _run_campaign(args, jobs, view, footer=False)


def _cmd_report(args: argparse.Namespace) -> int:
    if args.campaign is None:
        return _report_run(args)
    return _report_campaign(args)


def main(argv=None) -> int:
    """Entry point for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="UMTS connectivity for PlanetLab nodes, in simulation.",
    )
    parser.add_argument("--seed", type=int, default=3, help="experiment seed")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="umts start/status/stop walk-through")
    trace_parser = sub.add_parser(
        "trace", help="the demo scenario under the observability layer"
    )
    trace_parser.add_argument(
        "--jsonl", default=None, help="export the trace as JSON lines to this path"
    )
    trace_parser.add_argument(
        "--fail",
        action="store_true",
        help="force a dial-up failure to demonstrate the flight recorder",
    )
    trace_parser.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="print only the last N events (bounded ring, O(N) memory)",
    )
    for name, help_text in (
        ("voip", "the VoIP characterization (Figures 1-3)"),
        ("saturation", "the 1 Mbit/s saturation experiment (Figures 4-7)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--duration", type=_duration, default=120.0)
    lint_parser = sub.add_parser(
        "lint",
        help="domain-aware static analysis (determinism, typing, retry, "
        "worker safety, metric names, lifecycle, leases)",
    )
    lint_parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the repro package)",
    )
    lint_parser.add_argument(
        "--rule", action="append", metavar="RULE",
        help="run only this rule (repeatable; default: all)",
    )
    lint_parser.add_argument(
        "--jsonl", nargs="?", const="-", default=None, metavar="PATH",
        help="emit findings as JSON lines to PATH (default: stdout)",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    chaos_parser = sub.add_parser(
        "chaos", help="fault-injection campaign over the dial-up stack"
    )
    chaos_parser.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    chaos_parser.add_argument(
        "--scenario-grammar", action="store_true",
        help="run the scenario grammar's enumerated points instead of "
             "the built-in fault matrix (--scenario then names grammar "
             "points like climb/fade/visit/tunnel)",
    )
    chaos_parser.add_argument(
        "--list", action="store_true", help="list built-in scenarios and exit"
    )
    chaos_parser.add_argument(
        "--check", action="store_true",
        help="run every scenario twice and require bit-identical digests",
    )
    chaos_parser.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="write per-scenario reports as JSON lines to PATH (-: stdout)",
    )
    _add_campaign_args(chaos_parser)
    sweep_parser = sub.add_parser(
        "sweep", help="seed sweep of a characterization across worker processes"
    )
    sweep_parser.add_argument(
        "--kind", choices=("voip", "cbr"), default="voip",
        help="workload to sweep (default: voip)",
    )
    sweep_parser.add_argument(
        "--seeds", default="1:8", metavar="SPEC",
        help="seed range LO:HI or comma list (default: 1:8)",
    )
    sweep_parser.add_argument(
        "--path", choices=("both", PATH_UMTS, PATH_ETHERNET), default=PATH_UMTS,
        help=f"which path(s) to run (default: {PATH_UMTS})",
    )
    sweep_parser.add_argument("--duration", type=_duration, default=30.0)
    sweep_parser.add_argument(
        "--scenario", default=None, metavar="POINT",
        help="run over this scenario-grammar point's testbed "
             "(e.g. climb/fade/visit/tunnel)",
    )
    sweep_parser.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="write per-run records as JSON lines to PATH (-: stdout)",
    )
    _add_campaign_args(sweep_parser)
    report_parser = sub.add_parser(
        "report", help="telemetry report: timeline, sim-time profile, OpenMetrics"
    )
    report_parser.add_argument(
        "--campaign", choices=("chaos", "sweep"), default=None,
        help="aggregate a whole campaign instead of one instrumented run",
    )
    report_parser.add_argument(
        "--openmetrics", nargs="?", const="-", default=None, metavar="PATH",
        help="write the metrics registry as OpenMetrics text (default: stdout)",
    )
    report_parser.add_argument(
        "--jsonl", nargs="?", const="-", default=None, metavar="PATH",
        help="write phase/profile/metrics records as JSON lines (default: stdout)",
    )
    report_parser.add_argument(
        "--include-volatile", action="store_true",
        help="keep wall-clock metric families in exports (breaks byte-identity)",
    )
    report_parser.add_argument(
        "--kind", choices=("voip", "cbr"), default="voip",
        help="workload for --campaign sweep (default: voip)",
    )
    report_parser.add_argument(
        "--seeds", default="1:4", metavar="SPEC",
        help="seed range LO:HI or comma list for --campaign sweep (default: 1:4)",
    )
    report_parser.add_argument(
        "--duration", type=_duration, default=10.0,
        help="simulated seconds per sweep run (default: 10)",
    )
    _add_campaign_args(report_parser)
    from repro.fleet.spec import MAX_GROUP_SIZE

    fleet_parser = sub.add_parser(
        "fleet", help="fleet-scale campaign: many nodes, leased UMTS, fairness"
    )
    fleet_parser.add_argument(
        "--nodes", type=int, default=100, metavar="N",
        help="fleet size in simulated PlanetLab nodes (default: 100)",
    )
    fleet_parser.add_argument(
        "--group-size", type=int, default=8, metavar="N",
        help=f"nodes per sharded group simulation (default: 8, max {MAX_GROUP_SIZE})",
    )
    fleet_parser.add_argument(
        "--kind", choices=("voip", "cbr"), default="voip",
        help="workload on every node-pair (default: voip)",
    )
    fleet_parser.add_argument(
        "--duration", type=_duration, default=4.0,
        help="flow duration in simulated seconds (default: 4)",
    )
    fleet_parser.add_argument(
        "--stagger", type=float, default=10.0, metavar="S",
        help="delay between slice waves, creating the preemption window "
             "(default: 10)",
    )
    fleet_parser.add_argument(
        "--no-preempt", action="store_true",
        help="disable priority preemption (pure FIFO leases)",
    )
    fleet_parser.add_argument(
        "--fault", action="append", metavar="SPEC",
        help="fault spec (repeatable), e.g. fleet:node_kill@t=40,node=2",
    )
    fleet_parser.add_argument(
        "--scenario", action="append", metavar="POINT",
        help="scenario-grammar point assigned round-robin across nodes "
             "(repeatable; home/local points only), e.g. climb/fade/home/local",
    )
    fleet_parser.add_argument(
        "--check", action="store_true",
        help="run the campaign twice and require bit-identical group digests",
    )
    fleet_parser.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="write per-group reports as JSON lines to PATH (-: stdout)",
    )
    fleet_parser.add_argument(
        "--openmetrics", nargs="?", const="-", default=None, metavar="PATH",
        help="write the folded metrics registry as OpenMetrics text "
             "(default: stdout)",
    )
    _add_campaign_args(fleet_parser)
    args = parser.parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "trace": _cmd_trace,
        "voip": _cmd_voip,
        "saturation": _cmd_saturation,
        "lint": _cmd_lint,
        "chaos": _cmd_chaos,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
        "fleet": _cmd_fleet,
    }
    return handlers[args.command](args)


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    """The shared campaign flag: sharding."""
    parser.add_argument(
        "-j", "--jobs", type=_jobs, default=1, metavar="N",
        help="worker processes (1: in-process; 0: one per CPU)",
    )


if __name__ == "__main__":
    sys.exit(main())
