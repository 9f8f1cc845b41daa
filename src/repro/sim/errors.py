"""Exceptions raised by the simulation core."""


class SimulationError(Exception):
    """Base class for every error raised by :mod:`repro.sim`."""


class ScheduleInPastError(SimulationError):
    """An event was scheduled at a time earlier than the current clock."""

