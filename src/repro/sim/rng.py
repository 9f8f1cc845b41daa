"""Seeded random streams and the D-ITG distribution family.

D-ITG draws inter-departure times (IDT) and packet sizes (PS) from a
menu of stochastic processes (constant, uniform, exponential, normal,
Pareto, Cauchy, ...).  This module keeps the part of that menu the
reproduction draws from (plus the log-normal operator jitter) as small
:class:`Distribution` objects and provides :class:`RandomStreams`,
which derives an independent, stable ``random.Random`` per named
component from one experiment seed — so "the UMTS channel noise" and
"the VoIP IDT process" never share a stream and every run is exactly
reproducible.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Callable, Dict, Optional


class RandomStreams:
    """A family of named, independently seeded RNGs.

    ``streams.stream("umts.channel")`` always returns the same
    ``random.Random`` object for that name, seeded from
    ``sha256(seed || name)`` so the mapping is stable across runs and
    Python versions.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the RNG for ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            digest = hashlib.sha256(f"{self.seed}/{name}".encode("utf-8")).digest()
            stream = self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return stream

    def fork(self, salt: str) -> "RandomStreams":
        """Derive a child family (e.g. one per experiment repetition)."""
        digest = hashlib.sha256(f"{self.seed}/fork/{salt}".encode("utf-8")).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))


class Distribution:
    """Base class for random variates.

    Subclasses implement :meth:`_bound_draw`; :meth:`sampler` is the
    one way to draw.  ``low``/``high`` clamp the draw, which mirrors how
    a traffic generator must truncate e.g. a normal packet size to
    [minimum header size, MTU].
    """

    def __init__(self, low: Optional[float] = None, high: Optional[float] = None):
        if low is not None and high is not None and low > high:
            raise ValueError(f"low {low!r} > high {high!r}")
        self.low = low
        self.high = high

    def _bound_draw(self, rng: random.Random) -> Callable[[], float]:
        """A zero-argument, unclamped draw from ``rng``.

        Subclasses close over the bound ``random.Random`` method so the
        per-sample cost is one call, no attribute lookups.
        """
        raise NotImplementedError

    def sampler(self, rng: random.Random) -> Callable[[], float]:
        """A zero-argument draw from ``rng``, clamped to ``low``/``high``.

        Bind it once and call it per sample: the RNG method and bound
        lookups are cached in the closure, which matters in the
        traffic senders' and channels' per-packet paths.
        """
        draw = self._bound_draw(rng)
        low = self.low
        high = self.high
        if low is None and high is None:
            return draw

        def clamped() -> float:
            value = draw()
            if low is not None and value < low:
                value = low
            if high is not None and value > high:
                value = high
            return value

        return clamped

    def mean(self) -> float:
        """Theoretical mean where defined; used by flow-spec sanity checks."""
        raise NotImplementedError


class ConstantVariate(Distribution):
    """Degenerate distribution: always ``value`` (CBR traffic)."""

    def __init__(self, value: float):
        super().__init__()
        self.value = float(value)

    def _bound_draw(self, rng: random.Random) -> Callable[[], float]:
        value = self.value
        return lambda: value

    def mean(self) -> float:
        """Theoretical mean of the distribution."""
        return self.value

    def __repr__(self) -> str:
        return f"ConstantVariate({self.value!r})"


class UniformVariate(Distribution):
    """Uniform on [a, b]."""

    def __init__(self, a: float, b: float):
        if a > b:
            raise ValueError(f"uniform bounds reversed: {a!r} > {b!r}")
        super().__init__()
        self.a = float(a)
        self.b = float(b)

    def _bound_draw(self, rng: random.Random) -> Callable[[], float]:
        uniform, a, b = rng.uniform, self.a, self.b
        return lambda: uniform(a, b)

    def mean(self) -> float:
        """Theoretical mean of the distribution."""
        return (self.a + self.b) / 2.0

    def __repr__(self) -> str:
        return f"UniformVariate({self.a!r}, {self.b!r})"


class ExponentialVariate(Distribution):
    """Exponential with the given mean (Poisson traffic IDT)."""

    def __init__(self, mean: float, low: Optional[float] = None, high: Optional[float] = None):
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean!r}")
        super().__init__(low=low, high=high)
        self._mean = float(mean)

    def _bound_draw(self, rng: random.Random) -> Callable[[], float]:
        expovariate, lambd = rng.expovariate, 1.0 / self._mean
        return lambda: expovariate(lambd)

    def mean(self) -> float:
        """Theoretical mean of the distribution."""
        return self._mean

    def __repr__(self) -> str:
        return f"ExponentialVariate(mean={self._mean!r})"


class NormalVariate(Distribution):
    """Gaussian with mean ``mu`` and standard deviation ``sigma``."""

    def __init__(
        self,
        mu: float,
        sigma: float,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ):
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma!r}")
        super().__init__(low=low, high=high)
        self.mu = float(mu)
        self.sigma = float(sigma)

    def _bound_draw(self, rng: random.Random) -> Callable[[], float]:
        gauss, mu, sigma = rng.gauss, self.mu, self.sigma
        return lambda: gauss(mu, sigma)

    def mean(self) -> float:
        """Theoretical mean of the distribution."""
        return self.mu

    def __repr__(self) -> str:
        return f"NormalVariate(mu={self.mu!r}, sigma={self.sigma!r})"


class LogNormalVariate(Distribution):
    """Log-normal whose underlying normal has mean ``mu``, stdev ``sigma``."""

    def __init__(
        self,
        mu: float,
        sigma: float,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ):
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma!r}")
        super().__init__(low=low, high=high)
        self.mu = float(mu)
        self.sigma = float(sigma)

    def _bound_draw(self, rng: random.Random) -> Callable[[], float]:
        lognormvariate, mu, sigma = rng.lognormvariate, self.mu, self.sigma
        return lambda: lognormvariate(mu, sigma)

    def mean(self) -> float:
        """Theoretical mean of the distribution."""
        return math.exp(self.mu + self.sigma * self.sigma / 2.0)

    def __repr__(self) -> str:
        return f"LogNormalVariate(mu={self.mu!r}, sigma={self.sigma!r})"
