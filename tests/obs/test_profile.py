"""Sim-time profiling: exact decomposition, zero footprint when off."""

import pytest

from repro import OneLabScenario
from repro.obs import Observability, SimProfiler
from repro.sim.engine import Simulator
from repro.sim.process import spawn


def _ticker(order, label, delays):
    def body():
        for delay in delays:
            order.append((label, delay))
            yield delay
    return body


def _run_tickers(profiler):
    sim = Simulator()
    sim.profile = profiler
    order = []
    spawn(sim, _ticker(order, "a", [1.0, 2.0, 1.5])(), name="proc-a")
    spawn(sim, _ticker(order, "b", [0.5, 4.0])(), name="proc-b")
    sim.run()
    return sim, order


class TestEngineContract:
    def test_profiler_does_not_change_dispatch_order(self):
        _, with_profile = _run_tickers(SimProfiler())
        _, without = _run_tickers(None)
        assert with_profile == without

    def test_sim_time_decomposes_the_clock_exactly(self):
        profiler = SimProfiler()
        sim, _ = _run_tickers(profiler)
        assert profiler.total_sim_time == sim.now
        assert profiler.total_sim_time == sum(
            entry.sim_time for entry in profiler.subsystems.values()
        )

    def test_per_process_attribution(self):
        profiler = SimProfiler()
        _run_tickers(profiler)
        assert set(profiler.processes) == {"proc-a", "proc-b"}
        # proc-b's last resume is at t=4.5 having waited through 4.0s;
        # each advance is charged to the process being resumed.
        assert profiler.processes["proc-b"].events == 3
        assert profiler.processes["proc-a"].events == 4


class TestSnapshot:
    def test_snapshot_is_sorted_and_wall_free_by_default(self):
        profiler = SimProfiler()
        _run_tickers(profiler)
        snapshot = profiler.snapshot()
        assert list(snapshot["subsystems"]) == sorted(snapshot["subsystems"])
        assert list(snapshot["processes"]) == ["proc-a", "proc-b"]
        for table in (snapshot["subsystems"], snapshot["processes"]):
            for row in table.values():
                assert set(row) == {"events", "sim_time"}

    def test_include_volatile_adds_wall_time(self):
        profiler = SimProfiler()
        _run_tickers(profiler)
        snapshot = profiler.snapshot(include_volatile=True)
        for row in snapshot["subsystems"].values():
            assert "wall_time" in row

    def test_identical_runs_snapshot_identically(self):
        a, b = SimProfiler(), SimProfiler()
        _run_tickers(a)
        _run_tickers(b)
        assert a.snapshot() == b.snapshot()

    def test_report_lines_lead_with_the_totals(self):
        profiler = SimProfiler()
        _run_tickers(profiler)
        lines = profiler.report_lines()
        assert lines[0].startswith("profiled ")
        assert any("by subsystem" in line for line in lines)
        assert any("proc-a" in line for line in lines)


class TestScenarioProfile:
    def test_demo_bring_up_attributes_to_real_subsystems(self):
        scenario = OneLabScenario(seed=3)
        obs = Observability(scenario.sim)
        profiler = obs.enable_profiling()
        assert obs.enable_profiling() is profiler  # idempotent
        umts = scenario.umts_command()
        assert umts.start_blocking().ok
        umts.stop_blocking()
        assert profiler.total_events == int(
            obs.metrics.counter("engine.events_dispatched").value
        )
        assert profiler.total_sim_time == pytest.approx(scenario.sim.now)
        assert "sim.process" in profiler.subsystems
        assert any(name.startswith("modem") for name in profiler.processes)

    def test_detach_goes_fully_cold(self):
        scenario = OneLabScenario(seed=3)
        obs = Observability(scenario.sim)
        obs.enable_profiling()
        obs.detach()
        assert scenario.sim.trace is None
        assert scenario.sim.metrics is None
        assert scenario.sim.profile is None
        # Re-enabling after a detach attaches the same profiler again.
        profiler = obs.enable_profiling()
        assert scenario.sim.profile is profiler
        assert scenario.umts_command().start_blocking().ok
        assert profiler.total_events > 0
