"""Seeded random streams and the D-ITG distribution family.

D-ITG draws inter-departure times (IDT) and packet sizes (PS) from a
menu of stochastic processes (constant, uniform, exponential, normal,
Pareto, Cauchy, ...).  This module reproduces that menu as small
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


class ParetoVariate(Distribution):
    """Pareto with shape ``alpha`` and scale ``xm`` (heavy-tailed sizes)."""

    def __init__(
        self,
        alpha: float,
        xm: float,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ):
        if alpha <= 0 or xm <= 0:
            raise ValueError(f"alpha and xm must be positive, got {alpha!r}, {xm!r}")
        super().__init__(low=low, high=high)
        self.alpha = float(alpha)
        self.xm = float(xm)

    def _bound_draw(self, rng: random.Random) -> Callable[[], float]:
        paretovariate, alpha, xm = rng.paretovariate, self.alpha, self.xm
        return lambda: xm * paretovariate(alpha)

    def mean(self) -> float:
        """Theoretical mean (infinite for shape alpha <= 1)."""
        if self.alpha <= 1.0:
            return math.inf
        return self.alpha * self.xm / (self.alpha - 1.0)

    def __repr__(self) -> str:
        return f"ParetoVariate(alpha={self.alpha!r}, xm={self.xm!r})"


class CauchyVariate(Distribution):
    """Cauchy with location ``x0`` and scale ``gamma``.

    The Cauchy distribution has no mean; callers must clamp it with
    ``low``/``high`` to use it for IDT or PS (as D-ITG does).
    """

    def __init__(
        self,
        x0: float,
        gamma: float,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ):
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma!r}")
        super().__init__(low=low, high=high)
        self.x0 = float(x0)
        self.gamma = float(gamma)

    def _bound_draw(self, rng: random.Random) -> Callable[[], float]:
        # Inverse-CDF sampling.
        unit, tan, pi = rng.random, math.tan, math.pi
        x0, gamma = self.x0, self.gamma
        return lambda: x0 + gamma * tan(pi * (unit() - 0.5))

    def mean(self) -> float:
        """Theoretical mean of the distribution."""
        return math.nan

    def __repr__(self) -> str:
        return f"CauchyVariate(x0={self.x0!r}, gamma={self.gamma!r})"


class WeibullVariate(Distribution):
    """Weibull with scale ``lam`` and shape ``k``."""

    def __init__(
        self,
        lam: float,
        k: float,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ):
        if lam <= 0 or k <= 0:
            raise ValueError(f"lam and k must be positive, got {lam!r}, {k!r}")
        super().__init__(low=low, high=high)
        self.lam = float(lam)
        self.k = float(k)

    def _bound_draw(self, rng: random.Random) -> Callable[[], float]:
        weibullvariate, lam, k = rng.weibullvariate, self.lam, self.k
        return lambda: weibullvariate(lam, k)

    def mean(self) -> float:
        """Theoretical mean of the distribution."""
        return self.lam * math.gamma(1.0 + 1.0 / self.k)

    def __repr__(self) -> str:
        return f"WeibullVariate(lam={self.lam!r}, k={self.k!r})"


class GammaVariate(Distribution):
    """Gamma with shape ``k`` and scale ``theta``."""

    def __init__(
        self,
        k: float,
        theta: float,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ):
        if k <= 0 or theta <= 0:
            raise ValueError(f"k and theta must be positive, got {k!r}, {theta!r}")
        super().__init__(low=low, high=high)
        self.k = float(k)
        self.theta = float(theta)

    def _bound_draw(self, rng: random.Random) -> Callable[[], float]:
        gammavariate, k, theta = rng.gammavariate, self.k, self.theta
        return lambda: gammavariate(k, theta)

    def mean(self) -> float:
        """Theoretical mean of the distribution."""
        return self.k * self.theta

    def __repr__(self) -> str:
        return f"GammaVariate(k={self.k!r}, theta={self.theta!r})"


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
