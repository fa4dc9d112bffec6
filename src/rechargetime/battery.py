"""Linear and non-linear energy storage models.

The non-linear model has a state-dependent conversion efficiency
eta(U) = 1 - ((U - a)/b)^2 with a = umax/2 and b = beta*umax/2, beta > 1.
Integrating dU/dX = eta(U) from an empty battery yields the logistic-type
law U = a + b*tanh((X - C)/b) with C = b*artanh(1/beta), which converts a
cumulative raw-input total into a stored level and back. The continuous model
applies the tanh law to the cumulative input, so its recharge time is that of
``LinearBattery()`` at ``input_for_level(u)``, which ``analytic.nonlinear_cdf``
evaluates.

Each battery's ``path`` is its charging rule: it steps the rows' levels
through a [rows, k] block of packets, checked once (``check_packets``) before
any level takes it in, and returns the level after each packet. The engine's
kernel calls it on every drawn block without knowing which rule it runs. A
linear battery's levels are a running sum of its packets; a non-linear one
steps per packet, U <- min(U + eta(U) X, umax) (``advance``), whose
recharge-time CDF is ``analytic.per_packet_cdf``. Under both rules a level
never falls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import Spec, parse_spec

__all__ = ["LinearBattery", "NonLinearBattery", "BatteryModel", "check_packets", "parse_battery"]


def _check_state(U, cap: float) -> np.ndarray:
    """U as an array, or ValueError if any state is outside [0, cap]."""
    U = np.asarray(U, dtype=float)
    ok = (U >= 0.0) & (U <= cap)
    if not ok.all():
        raise ValueError(f"state {U[~ok].flat[0]} outside [0, {cap}]")
    return U


def check_packets(x) -> np.ndarray:
    """x as an array, or ValueError if any packet is negative or NaN."""
    x = np.asarray(x, dtype=float)
    if not (x >= 0).all():
        raise ValueError("packet energy must be >= 0")
    return x


@dataclass(frozen=True)
class LinearBattery(Spec):
    """Unit-efficiency storage; optionally capped at a capacity."""

    name = "linear"
    umax: Optional[float] = None  # None = unbounded; inf is refused

    def __post_init__(self):
        if self.umax is not None and not 0 < self.umax < math.inf:
            raise ValueError(f"umax must be finite and > 0, got {self.umax}")

    @property
    def capacity(self) -> float:
        return math.inf if self.umax is None else self.umax

    def efficiency(self, U):
        """1 for each state in U (a scalar or an array)."""
        return np.ones_like(_check_state(U, self.capacity))[()]

    def input_for_level(self, u: float) -> float:
        if not 0.0 < u <= self.capacity:
            raise ValueError(f"level {u} outside (0, {self.capacity}]")
        return u

    def path(self, level: np.ndarray, packets: np.ndarray, top: float) -> np.ndarray:
        """Levels after each packet of a [rows, k] block from the rows' ``level``: the running sum.

        The block is checked first (``check_packets``), and the sum is taken
        in place of the packets. The whole block is summed, whatever ``top``,
        which is below the capacity.
        """
        packets = check_packets(packets)
        # no capacity clip: top < capacity, so a clip would move no crossing of
        # a level up to top and leave every row still below top as it is
        path = np.cumsum(packets, axis=1, out=packets)
        path += level[:, None]
        return path


@dataclass(frozen=True)
class NonLinearBattery(Spec):
    name = "nonlinear"
    umax: float
    beta: float

    def __post_init__(self):
        if not 0 < self.umax < math.inf:
            raise ValueError(f"umax must be finite and > 0, got {self.umax}")
        if not 1.0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and > 1, got {self.beta}")

    @property
    def a(self) -> float:
        return 0.5 * self.umax

    @property
    def b(self) -> float:
        return self.beta * 0.5 * self.umax

    @property
    def input_offset(self) -> float:
        # C = b * artanh(1/beta); makes stored_from_input(0) = 0
        return self.b * math.atanh(1.0 / self.beta)

    @property
    def capacity(self) -> float:
        return self.umax

    def efficiency(self, U):
        """eta(U) for a scalar or an array of states in [0, umax]."""
        U = _check_state(U, self.umax)
        return self._eta(U, np.empty_like(U))[()]

    def _eta(self, U, out):
        np.subtract(U, self.a, out=out)
        out /= self.b
        np.square(out, out=out)
        return np.subtract(1.0, out, out=out)

    def stored_from_input(self, x_total: float) -> float:
        if x_total < 0:
            raise ValueError("cumulative input must be >= 0")
        u = self.a + self.b * math.tanh((x_total - self.input_offset) / self.b)
        return min(max(u, 0.0), self.umax)

    def input_for_level(self, u: float) -> float:
        """Raw input total needed to reach stored level u (the shifted threshold)."""
        if not 0.0 < u <= self.umax:
            raise ValueError(f"level {u} outside (0, {self.umax}]")
        return self.input_offset + self.b * math.atanh((u - self.a) / self.b)

    def advance(self, U, x, out):
        """Per-packet rule U <- min(U + eta(U) X, umax) elementwise, written into ``out`` (neither U nor x).

        U and x are not checked: the caller, ``path``, keeps U in [0, umax]
        and refuses negative or NaN packets (``check_packets``).
        """
        self._eta(U, out)
        out *= x
        out += U
        return np.minimum(out, self.umax, out=out)

    def path(self, level: np.ndarray, packets: np.ndarray, top: float) -> np.ndarray:
        """Levels after each packet of a [rows, k] block from the rows' ``level``, one in-place ``advance`` per packet.

        The block is checked first (``check_packets``); each column of a
        contiguous transposed copy then steps unchecked. The level never
        falls, so the path stops early, with j + 1 columns, at the first
        column j where every row is above ``top``.
        """
        columns = np.ascontiguousarray(check_packets(packets).T)
        path = np.empty_like(columns)
        for j, x in enumerate(columns):
            level = self.advance(level, x, path[j])
            if level.min() > top:
                return path[: j + 1].T
        return path.T


BatteryModel = LinearBattery | NonLinearBattery
_BATTERIES = {battery.name: battery for battery in (LinearBattery, NonLinearBattery)}


def parse_battery(text: str) -> BatteryModel:
    """Parse ``linear`` / ``linear umax=25`` / ``nonlinear umax=25 beta=1.1``."""
    return parse_spec(text, _BATTERIES, "battery")
