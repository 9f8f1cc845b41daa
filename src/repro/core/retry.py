"""Bounded retry with exponential backoff and deterministic jitter.

Every component that retries — comgt's CREG poll, the connection
manager's registration/dial phases, the connection supervisor —
drives its attempts through a :class:`RetryPolicy` instead of
hand-rolled ``range()`` loops and sleeps (enforced by the
``retry-policy`` lint rule).  Jitter draws come from
:mod:`repro.sim.rng` named streams, so a faulted run's recovery
timeline is a pure function of the experiment seed.

Failure classification is textual on purpose: comgt and wvdial report
through exit codes and output lines (the vsys contract), so the policy
layer pattern-matches the line that a human operator would read.
Components that can raise, raise the typed
:class:`~repro.faults.errors.TransientError` /
:class:`~repro.faults.errors.PermanentError` instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.faults.errors import PermanentError, TransientError

__all__ = [
    "PERMANENT",
    "TRANSIENT",
    "PermanentError",
    "RetryPolicy",
    "TransientError",
    "classify_comgt",
    "classify_wvdial",
]

#: Classification verdicts for a failed attempt.
TRANSIENT = "transient"
PERMANENT = "permanent"


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try, and how long to wait between tries.

    ``delay(attempt)`` is ``base_delay * multiplier**attempt`` capped at
    ``max_delay``; with ``jitter=j`` the delay is stretched by a
    uniform factor in ``[1, 1+j]`` drawn from the supplied RNG (no RNG,
    no jitter — the unfaulted happy path must not consume draws).
    """

    max_attempts: int = 3
    base_delay: float = 1.0
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def attempts(self) -> Iterator[int]:
        """Attempt indices ``0 .. max_attempts-1`` (the one sanctioned
        attempt loop; see the ``retry-policy`` lint rule)."""
        return iter(range(self.max_attempts))

    def is_last(self, attempt: int) -> bool:
        """Whether ``attempt`` is the final one (no backoff after it)."""
        return attempt >= self.max_attempts - 1

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff after ``attempt`` failed, jittered when ``rng`` given."""
        delay = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if self.jitter and rng is not None:
            delay *= 1.0 + rng.uniform(0.0, self.jitter)
        return delay

    def delays(self, rng: Optional[random.Random] = None) -> List[float]:
        """The full backoff schedule (one entry per non-final attempt)."""
        return [self.delay(attempt, rng) for attempt in range(self.max_attempts - 1)]


#: Output fragments that mark a registration failure as unrecoverable.
_PERMANENT_REGISTRATION = ("denied", "PIN required", "PIN rejected")
#: Same for the dial phase (wrong SIM state; NO CARRIER stays transient).
_PERMANENT_DIAL = ("SIM PIN",)


def _classify(lines: Sequence[str], permanent_markers: Sequence[str]) -> str:
    text = "\n".join(lines)
    for marker in permanent_markers:
        if marker in text:
            return PERMANENT
    return TRANSIENT


def classify_comgt(lines: Sequence[str]) -> str:
    """Classify a failed comgt run from its output lines.

    Network denial and SIM PIN problems will not heal with a retry;
    timeouts, CME errors and a silent modem are transient.
    """
    return _classify(lines, _PERMANENT_REGISTRATION)


def classify_wvdial(lines: Sequence[str]) -> str:
    """Classify a failed wvdial run (or a failed PPP negotiation).

    ``NO CARRIER`` is indistinguishable from congestion at the modem,
    so almost everything here is transient — the attempt budget bounds
    the damage.  A SIM PIN complaint is permanent.
    """
    return _classify(lines, _PERMANENT_DIAL)
