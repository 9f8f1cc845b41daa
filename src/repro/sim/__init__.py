"""Discrete-event simulation core.

Everything in the reproduction runs on top of this engine: network
links, PPP negotiation, UMTS radio-bearer timers, and the D-ITG-style
traffic generator all schedule events on a single :class:`Simulator`.

The engine is deliberately small and deterministic:

- a time-bucketed event store: a heap of bare timestamps, and per
  pending instant a bucket of its events in insertion order, so two
  events at the same instant always fire in the order they were
  scheduled;
- generator-based *processes* (:class:`Process`) for sequential logic
  (``yield 0.5`` sleeps, ``yield signal`` blocks on a
  :class:`Signal`);
- named, independently seeded random streams
  (:class:`RandomStreams`) so every stochastic component of an
  experiment is reproducible from a single integer seed.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.errors import SimulationError
from repro.sim.monitor import TimeSeries
from repro.sim.process import Interrupt, Process, Signal, Store, spawn
from repro.sim.rng import (
    ConstantVariate,
    Distribution,
    ExponentialVariate,
    LogNormalVariate,
    NormalVariate,
    RandomStreams,
    UniformVariate,
)

__all__ = [
    "ConstantVariate",
    "Distribution",
    "Event",
    "ExponentialVariate",
    "Interrupt",
    "LogNormalVariate",
    "NormalVariate",
    "Process",
    "RandomStreams",
    "Signal",
    "SimulationError",
    "Simulator",
    "Store",
    "TimeSeries",
    "UniformVariate",
    "spawn",
]
