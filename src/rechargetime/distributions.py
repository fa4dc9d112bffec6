"""Packet-size and inter-arrival laws with exact sampling, CDFs and raw moments.

Inter-arrival laws other than the exponential also sample their length-biased
law, density x f(x) / mean, which the renewal layer needs for the equilibrium
first wait.

Parameter conventions (important, the literature is ambiguous):

* ``Gamma(shape, scale)`` -- shape/scale, so mean = shape * scale.
* ``InverseGaussian(mean, shape)`` -- mean/shape, so variance = mean**3 / shape.

Both are spelled out as keyword arguments on the constructors so experiment
configs are unambiguous.

All laws have non-negative support and finite first three raw moments; the
constructors refuse a non-finite or out-of-range parameter, and one whose mean,
variance or third raw moment is not a finite float.
Specs are immutable; random streams (``numpy.random.Generator``) are passed
in by the caller and never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Exponential",
    "Gamma",
    "InverseGaussian",
    "Uniform",
    "Deterministic",
    "DistributionSpec",
    "split_spec",
    "parse_distribution",
]


def _as_array(x):
    return np.asarray(x, dtype=float)


def _check_moments(law) -> None:
    """ValueError unless the law's mean, variance and third raw moment are finite floats."""
    for name in ("mean", "variance", "third_raw_moment"):
        try:
            value = getattr(law, name)
        except ArithmeticError:  # float overflow, or division by an underflowed 0
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{law.config_str()} has no finite {name} in floating point")


@dataclass(frozen=True)
class Exponential:
    """Exponential law with given rate (mean = 1/rate)."""

    rate: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError(f"exponential rate must be finite and > 0, got {self.rate}")
        _check_moments(self)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def variance(self) -> float:
        return 1.0 / self.rate**2

    @property
    def third_raw_moment(self) -> float:
        return 6.0 / self.rate**3

    def sample(self, rng: np.random.Generator, size=None):
        return rng.exponential(scale=1.0 / self.rate, size=size)

    def cdf(self, x):
        x = _as_array(x)
        return np.where(x < 0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))[()]

    def config_str(self) -> str:
        return f"exponential rate={self.rate:g}"


@dataclass(frozen=True)
class Gamma:
    """Gamma law in the shape/scale convention (mean = shape * scale)."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (0 < self.shape < math.inf and 0 < self.scale < math.inf):
            raise ValueError(f"gamma needs finite shape > 0 and scale > 0, got {self}")
        _check_moments(self)

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale**2

    @property
    def third_raw_moment(self) -> float:
        k = self.shape
        return self.scale**3 * k * (k + 1.0) * (k + 2.0)

    def sample(self, rng: np.random.Generator, size=None):
        # numpy's gamma generator is valid for shape < 1 as well as >= 1
        return rng.gamma(self.shape, self.scale, size=size)

    def length_biased_sample(self, rng: np.random.Generator, size=None):
        # x f(x) / mean is the Gamma(shape + 1, scale) density
        return rng.gamma(self.shape + 1.0, self.scale, size=size)

    def cdf(self, x):
        from scipy import special  # here, not at import: the CLI's formulas never read this CDF

        x = _as_array(x)
        return np.where(x < 0, 0.0, special.gammainc(self.shape, np.maximum(x, 0.0) / self.scale))[()]

    def config_str(self) -> str:
        return f"gamma shape={self.shape:g} scale={self.scale:g}"


@dataclass(frozen=True)
class InverseGaussian:
    """Inverse Gaussian law in the mean/shape convention (variance = mean^3/shape)."""

    mean_: float
    shape: float

    def __post_init__(self):
        if not (0 < self.mean_ < math.inf and 0 < self.shape < math.inf):
            raise ValueError(f"inverse gaussian needs finite mean > 0 and shape > 0, got {self}")
        _check_moments(self)

    @property
    def mean(self) -> float:
        return self.mean_

    @property
    def variance(self) -> float:
        return self.mean_**3 / self.shape

    @property
    def third_raw_moment(self) -> float:
        # E[A^3] = mu^3 (1 + 3 mu/shape + 3 mu^2/shape^2)
        r = self.mean_ / self.shape
        return self.mean_**3 * (1.0 + 3.0 * r + 3.0 * r**2)

    def sample(self, rng: np.random.Generator, size=None):
        # Michael-Schucany-Haas transform with rejection
        return rng.wald(self.mean_, self.shape, size=size)

    def length_biased_sample(self, rng: np.random.Generator, size=None):
        # x f(x) / mean is the law of IG(mean, shape) + (mean^2/shape) chi^2_1
        # (Jorgensen, Seshadri & Whitmore, Scand. J. Statist. 18, 1991)
        ig = rng.wald(self.mean_, self.shape, size=size)
        return ig + self.mean_**2 / self.shape * rng.standard_normal(size) ** 2

    def _phi_args(self, x):
        s = np.sqrt(self.shape / x)
        return s * (x / self.mean_ - 1.0), -s * (x / self.mean_ + 1.0)

    def cdf(self, x):
        from scipy import special  # here, not at import: the CLI's formulas never read this CDF

        x = _as_array(x)
        pos = np.maximum(x, 1e-300)
        a, b = self._phi_args(pos)
        val = special.ndtr(a) + np.exp(2.0 * self.shape / self.mean_ + special.log_ndtr(b))
        return np.where(x <= 0, 0.0, val)[()]

    def config_str(self) -> str:
        return f"invgauss mean={self.mean_:g} shape={self.shape:g}"


@dataclass(frozen=True)
class Uniform:
    """Uniform law on [lo, hi] with lo >= 0."""

    lo: float
    hi: float

    def __post_init__(self):
        if not 0 <= self.lo < self.hi < math.inf:
            raise ValueError(f"uniform needs finite lo and hi with 0 <= lo < hi, got {self}")
        _check_moments(self)

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def variance(self) -> float:
        return (self.hi - self.lo) ** 2 / 12.0

    @property
    def third_raw_moment(self) -> float:
        # (hi^4 - lo^4) / (4 (hi - lo)), factored so that hi^4 cannot overflow
        return (self.hi * self.hi + self.lo * self.lo) * (self.hi + self.lo) / 4.0

    def sample(self, rng: np.random.Generator, size=None):
        return self.lo + (self.hi - self.lo) * rng.random(size)

    def length_biased_sample(self, rng: np.random.Generator, size=None):
        # density 2x / (hi^2 - lo^2) on [lo, hi], inverted analytically
        return (self.lo**2 + (self.hi**2 - self.lo**2) * rng.random(size)) ** 0.5

    def cdf(self, x):
        x = _as_array(x)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)[()]

    def config_str(self) -> str:
        return f"uniform lo={self.lo:g} hi={self.hi:g}"


@dataclass(frozen=True)
class Deterministic:
    """Point mass at a strictly positive value (slotted-time / fixed packets)."""

    value: float

    def __post_init__(self):
        if not 0 < self.value < math.inf:
            raise ValueError(f"deterministic value must be finite and > 0, got {self.value}")
        _check_moments(self)

    @property
    def mean(self) -> float:
        return self.value

    @property
    def variance(self) -> float:
        return 0.0

    @property
    def third_raw_moment(self) -> float:
        return self.value**3

    def sample(self, rng: np.random.Generator, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    # a point mass is its own length-biased law
    length_biased_sample = sample

    def cdf(self, x):
        x = _as_array(x)
        return np.where(x >= self.value, 1.0, 0.0)[()]

    def config_str(self) -> str:
        return f"deterministic value={self.value:g}"


DistributionSpec = Union[Exponential, Gamma, InverseGaussian, Uniform, Deterministic]


def split_spec(text: str, what: str) -> tuple[str, dict[str, float]]:
    """Split a config fragment ``name key=value ...`` into its lower-cased name
    and float parameters; ``what`` names the spec in errors. The constructors
    check the values."""
    parts = text.split()
    if not parts:
        raise ValueError(f"empty {what} spec")
    kwargs = {}
    for tok in parts[1:]:
        key, eq, val = tok.partition("=")
        if not eq:
            raise ValueError(f"malformed parameter {tok!r} in {text!r}")
        if key in kwargs:
            raise ValueError(f"repeated parameter {key!r} in {text!r}")
        try:
            kwargs[key] = float(val)
        except ValueError:
            raise ValueError(f"{key}: expected a number, got {val!r}") from None
    return parts[0].lower(), kwargs


def parse_distribution(text: str) -> DistributionSpec:
    """Parse a config fragment like ``exponential rate=1.0`` into a spec."""
    name, kwargs = split_spec(text, "distribution")
    required = {
        "exponential": (Exponential, {"rate": "rate"}),
        "exp": (Exponential, {"rate": "rate"}),
        "gamma": (Gamma, {"shape": "shape", "scale": "scale"}),
        "invgauss": (InverseGaussian, {"mean": "mean_", "shape": "shape"}),
        "inverse_gaussian": (InverseGaussian, {"mean": "mean_", "shape": "shape"}),
        "ig": (InverseGaussian, {"mean": "mean_", "shape": "shape"}),
        "uniform": (Uniform, {"lo": "lo", "hi": "hi"}),
        "deterministic": (Deterministic, {"value": "value"}),
        "constant": (Deterministic, {"value": "value"}),
    }
    if name not in required:
        raise ValueError(f"unknown distribution {name!r}")
    cls, params = required[name]
    missing = sorted(set(params) - set(kwargs))
    extra = sorted(set(kwargs) - set(params))
    if missing:
        raise ValueError(f"missing parameters {missing} for {name!r}")
    if extra:
        raise ValueError(f"unknown parameters {extra} for {name!r}")
    return cls(**{field: kwargs[key] for key, field in params.items()})
