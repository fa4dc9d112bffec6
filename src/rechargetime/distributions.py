"""Packet-size and inter-arrival laws with exact sampling, CDFs and raw moments.

Inter-arrival laws other than the exponential also sample their length-biased
law, density x f(x) / mean, which the renewal layer needs for the equilibrium
first wait.

Parameter conventions (important, the literature is ambiguous):

* ``Gamma(shape, scale)`` -- shape/scale, so mean = shape * scale.
* ``InverseGaussian(mean, shape)`` -- mean/shape, so variance = mean**3 / shape.

Every law and battery is a ``Spec``: its ``name`` and its dataclass fields are
its config keys (so the inverse Gaussian's mean is its field ``mean``).
``Spec.config_str`` prints every spec and ``parse_spec`` reads every one, as
``gamma shape=1 scale=2`` for ``Gamma(shape=1, scale=2)``; ``parse_distribution``
reads the names of ``_LAWS``, which holds the aliases ``exp``, ``ig``,
``inverse_gaussian`` and ``constant`` too.

All laws have non-negative support, a positive mean and finite first three
raw moments; the constructors refuse a non-finite or out-of-range parameter,
one whose mean, variance or third raw moment is not a finite float, and one
whose mean underflows to 0 (``gamma shape=1e-300 scale=1e-300``), which the
engine's expected packet count and every formula divide by.
Specs are immutable; random streams (``numpy.random.Generator``) are passed
in by the caller and never stored.

Every law's one sampler is ``sample(rng, size=None, out=None)``. With neither
``size`` nor ``out`` it draws a Python float; with ``size`` a new array; with
``out``, a C-contiguous float64 array, it draws into ``out`` and returns it.
A draw into ``out`` equals ``sample(rng, out.shape)`` bit for bit and leaves
``rng`` in the same state: each law scales its standard draw in place
(``standard_exponential``, ``standard_gamma``, ``random``), copies in what
``wald`` draws, or fills its point mass. So the engine draws every block into
buffers it keeps, with the same values.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import ClassVar, Union

import numpy as np

__all__ = [
    "Exponential",
    "Gamma",
    "InverseGaussian",
    "Uniform",
    "Deterministic",
    "DistributionSpec",
    "Spec",
    "float_str",
    "parse_spec",
    "parse_distribution",
]


def _as_array(x):
    return np.asarray(x, dtype=float)


def float_str(x) -> str:
    """The shortest text that reads back to the same float, without a trailing ``.0``."""
    return f"{float(x)!r}".removesuffix(".0")


class Spec:
    """A law or battery that a config names by ``name``; its dataclass fields are its parameters."""

    name: ClassVar[str]

    def config_str(self) -> str:
        """``name key=value ...``, each set parameter the shortest text that reads back to the same float."""
        words = [self.name]
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:  # an optional parameter left unset, as an uncapped battery's umax
                words.append(f"{f.name}={float_str(value)}")
        return " ".join(words)


def parse_spec(text: str, kinds: dict[str, type], what: str):
    """Read ``name key=value ...`` into the spec ``kinds[name.lower()]``; ``what`` names the spec in errors.

    Refuses an empty spec, a token without ``=``, a repeated parameter, a value
    that is not a number, an unknown name, and parameters that are missing
    (a field without a default) or not fields of the spec. The constructor
    checks the values.
    """
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
    name = parts[0].lower()
    if name not in kinds:
        raise ValueError(f"unknown {what} {name!r}")
    params = fields(kinds[name])
    missing = sorted(f.name for f in params if f.name not in kwargs and f.default is MISSING)
    extra = sorted(set(kwargs) - {f.name for f in params})
    if missing:
        raise ValueError(f"missing parameters {missing} for {name!r}")
    if extra:
        raise ValueError(f"unknown parameters {extra} for {name!r}")
    return kinds[name](**kwargs)


def _check_moments(law) -> None:
    """ValueError unless the law's mean, variance and third raw moment are finite floats and its mean is > 0."""
    for name in ("mean", "variance", "third_raw_moment"):
        try:
            value = getattr(law, name)
        except ArithmeticError:  # float overflow, or division by an underflowed 0
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{law.config_str()} has no finite {name} in floating point")
    if not law.mean > 0.0:
        raise ValueError(f"{law.config_str()} has a mean of 0 in floating point")


@dataclass(frozen=True)
class Exponential(Spec):
    """Exponential law with given rate (mean = 1/rate)."""

    name = "exponential"
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

    def sample(self, rng: np.random.Generator, size=None, out=None):
        x = rng.standard_exponential(size, out=out)
        x *= 1.0 / self.rate
        return x

    def cdf(self, x):
        x = _as_array(x)
        return np.where(x < 0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))[()]


@dataclass(frozen=True)
class Gamma(Spec):
    """Gamma law in the shape/scale convention (mean = shape * scale)."""

    name = "gamma"
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

    def sample(self, rng: np.random.Generator, size=None, out=None):
        # numpy's gamma generator is valid for shape < 1 as well as >= 1
        x = rng.standard_gamma(self.shape, size, out=out)
        x *= self.scale
        return x

    def length_biased_sample(self, rng: np.random.Generator, size=None):
        # x f(x) / mean is the Gamma(shape + 1, scale) density
        return rng.gamma(self.shape + 1.0, self.scale, size=size)

    def cdf(self, x):
        from scipy import special  # here, not at import: the CLI's formulas never read this CDF

        x = _as_array(x)
        return np.where(x < 0, 0.0, special.gammainc(self.shape, np.maximum(x, 0.0) / self.scale))[()]


@dataclass(frozen=True)
class InverseGaussian(Spec):
    """Inverse Gaussian law in the mean/shape convention (variance = mean^3/shape)."""

    name = "invgauss"
    mean: float
    shape: float

    def __post_init__(self):
        if not (0 < self.mean < math.inf and 0 < self.shape < math.inf):
            raise ValueError(f"inverse gaussian needs finite mean > 0 and shape > 0, got {self}")
        _check_moments(self)
        # where numpy's wald draws the law: below shape/mean = 1e-12 its transform
        # cancels (KS 0.008 at 1e-14, all zeros at 1e-30), and below mean = 1e-150
        # the mean**2 / X it returns for half the draws leaves the normal floats
        if not (self.shape / self.mean >= 1e-12 and self.mean >= 1e-150):
            raise ValueError(f"inverse gaussian needs shape/mean >= 1e-12 and mean >= 1e-150 to be sampled, got {self}")

    @property
    def variance(self) -> float:
        return self.mean**3 / self.shape

    @property
    def third_raw_moment(self) -> float:
        # E[A^3] = mu^3 (1 + 3 mu/shape + 3 mu^2/shape^2)
        r = self.mean / self.shape
        return self.mean**3 * (1.0 + 3.0 * r + 3.0 * r**2)

    def sample(self, rng: np.random.Generator, size=None, out=None):
        # Michael-Schucany-Haas transform with rejection; wald has no ``out``, so its draws are copied in
        x = rng.wald(self.mean, self.shape, size=size if out is None else out.shape)
        if out is None:
            return x
        out[...] = x
        return out

    def length_biased_sample(self, rng: np.random.Generator, size=None):
        # x f(x) / mean is the law of IG(mean, shape) + (mean^2/shape) chi^2_1
        # (Jorgensen, Seshadri & Whitmore, Scand. J. Statist. 18, 1991)
        ig = rng.wald(self.mean, self.shape, size=size)
        return ig + self.mean**2 / self.shape * rng.standard_normal(size) ** 2

    def _phi_args(self, x):
        s = np.sqrt(self.shape / x)
        return s * (x / self.mean - 1.0), -s * (x / self.mean + 1.0)

    def cdf(self, x):
        from scipy import special  # here, not at import: the CLI's formulas never read this CDF

        x = _as_array(x)
        pos = np.maximum(x, 1e-300)
        a, b = self._phi_args(pos)
        val = special.ndtr(a) + np.exp(2.0 * self.shape / self.mean + special.log_ndtr(b))
        return np.where(x <= 0, 0.0, val)[()]


@dataclass(frozen=True)
class Uniform(Spec):
    """Uniform law on [lo, hi] with lo >= 0."""

    name = "uniform"
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

    def sample(self, rng: np.random.Generator, size=None, out=None):
        x = rng.random(size, out=out)
        x *= self.hi - self.lo
        x += self.lo
        return x

    def length_biased_sample(self, rng: np.random.Generator, size=None):
        # density 2x / (hi^2 - lo^2) on [lo, hi], inverted analytically
        return (self.lo**2 + (self.hi**2 - self.lo**2) * rng.random(size)) ** 0.5

    def cdf(self, x):
        x = _as_array(x)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)[()]


@dataclass(frozen=True)
class Deterministic(Spec):
    """Point mass at a strictly positive value (slotted-time / fixed packets)."""

    name = "deterministic"
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

    def sample(self, rng: np.random.Generator, size=None, out=None):
        if out is None:
            return self.value if size is None else np.full(size, self.value)
        out.fill(self.value)
        return out

    # a point mass is its own length-biased law
    length_biased_sample = sample

    def cdf(self, x):
        x = _as_array(x)
        return np.where(x >= self.value, 1.0, 0.0)[()]


DistributionSpec = Union[Exponential, Gamma, InverseGaussian, Uniform, Deterministic]


# Every name a config may give a law: each law's own, then its aliases.
_LAWS = {law.name: law for law in (Exponential, Gamma, InverseGaussian, Uniform, Deterministic)}
_LAWS.update(exp=Exponential, ig=InverseGaussian, inverse_gaussian=InverseGaussian, constant=Deterministic)


def parse_distribution(text: str) -> DistributionSpec:
    """Parse a config fragment like ``exponential rate=1.0`` into a spec."""
    return parse_spec(text, _LAWS, "distribution")
