"""Linear and non-linear energy storage models.

The non-linear model has a state-dependent conversion efficiency
eta(U) = 1 - ((U - a)/b)^2 with a = umax/2 and b = beta*umax/2, beta > 1.
Integrating dU/dX = eta(U) from an empty battery gives the paper's tanh law
from a cumulative raw input X to a stored level U. Its inverse, the input that
lifts an empty battery to u, is ``input_for_level``:

    X(u) = b/2 * (log1p(u/(b - a)) - log1p(-u/(b + a))),

the paper's b*(artanh((u - a)/b) + artanh(a/b)) with its two nearly equal
terms folded into one, so nothing cancels near u = 0, where X(u) is
u/eta(0) to first order. The continuous model applies the tanh law to the
cumulative input, so its recharge time is that of ``LinearBattery()`` at
``input_for_level(u)``, which ``analytic.nonlinear_cdf`` evaluates.

Each battery's ``path`` is its charging rule alone: it steps the rows' levels
through a [rows, k] block of packets, which must be >= 0, and writes the level
after each packet into ``out``, a C-contiguous [>= k, rows] plane that the
caller keeps: plane row j takes every row's level after packet j. It returns
the plane rows it wrote, ``out[:k]`` or fewer, as [k, rows]. Both rules read
each strided packet column of the block straight into one contiguous plane
row. Under both rules the caller's packets and levels are left as they were.
The engine's kernel checks the packets of every block it draws and then calls
``path`` on it, with a plane it keeps as ``out``, without knowing which rule
it runs.
A linear battery's levels are a running sum of its packets, ``running_sum``'s
one contiguous add per column, which the kernel also takes of the gaps; a
non-linear one steps the block per packet, U <- min(U + eta(U) X, umax),
whose recharge-time CDF is ``analytic.per_packet_cdf``, and reads no packet
column past the one after which every row is above ``top``. Under both rules
a level never falls, so every column of a ``path`` is non-decreasing from the
row's start level: the kernel counts a row's path values at or below a
threshold to find the packet that lifts it above, and relies on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import Spec, parse_spec

__all__ = ["LinearBattery", "NonLinearBattery", "BatteryModel", "parse_battery", "running_sum"]


def _check_state(U, cap: float) -> np.ndarray:
    """U as an array, or ValueError if any state is outside [0, cap]."""
    U = np.asarray(U, dtype=float)
    ok = (U >= 0.0) & (U <= cap)
    if not ok.all():
        raise ValueError(f"state {U[~ok].flat[0]} outside [0, {cap}]")
    return U


def running_sum(block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The running sum along each row of a [rows, m] block, written into ``out[:m]`` as [m, rows].

    ``out`` is C-contiguous, and row j of the sums returned, a view of it, is
    the block's columns 0..j added up: one add of column j per row into
    contiguous memory, the addition ``np.cumsum(block, axis=1)`` makes in the
    same place, so the sums are its bits. ``np.cumsum`` itself accumulates
    each row of the block on its own, which takes longer at 1024 rows.
    """
    sums = out[: block.shape[1]]
    np.copyto(sums[:1], block[:, :1].T)
    for j in range(1, len(sums)):
        np.add(sums[j - 1], block[:, j], out=sums[j])
    return sums


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

    def path(self, level: np.ndarray, packets: np.ndarray, top: float, out: np.ndarray) -> np.ndarray:
        """Levels after each packet of a [rows, k] block from the rows' ``level``: the running sum, [k, rows].

        The packets must be >= 0: they are not checked here. The block's
        ``running_sum`` is written into ``out[:k]``, the first k rows of a
        C-contiguous [>= k, rows] float plane; the path is those sums plus the
        levels, the bits of ``(np.cumsum(packets, axis=1) + level[:, None]).T``,
        and is returned as that view of ``out``. The caller's packets and
        ``level`` are left as they were. The whole block is summed, whatever
        ``top``, which is below the capacity. Packets are non-negative, so no
        row falls: each column is non-decreasing and starts at or above its
        ``level``.
        """
        # no capacity clip: top < capacity, so a clip would move no crossing of
        # a level up to top and leave every row still below top as it is
        path = running_sum(packets, out)
        path += level
        return path


@dataclass(frozen=True)
class NonLinearBattery(Spec):
    name = "nonlinear"
    umax: float
    beta: float

    def __post_init__(self):
        if not 0 < self.umax < math.inf:
            raise ValueError(f"umax must be finite and > 0, got {self.umax}")
        # b > a in floating point, or eta(0) = 0 and input_for_level divides by b - a = 0
        if not self.a < self.b < math.inf:
            raise ValueError(f"beta must be finite and > 1, with beta * umax/2 > umax/2 in floats, got {self.beta}")

    @property
    def a(self) -> float:
        return 0.5 * self.umax

    @property
    def b(self) -> float:
        return self.beta * 0.5 * self.umax

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

    def input_for_level(self, u: float) -> float:
        """Raw input total that lifts an empty battery to level u (the shifted threshold), in the log1p form.

        ValueError for u outside (0, umax], and for a u so small that
        u/(b - a) underflows to 0, whose input is then 0, which every formula
        of tau refuses. Below about 1e-307 * max(1, b - a) the quotients are
        subnormal and the input keeps few digits. Near umax, 1 - u/(b + a) is
        as small as (b - a)/(b + a), so the rounding of u/(b + a) costs a
        relative error of about 1e-16 * (b + a)/(b - a) there: about 1e-13
        at beta = 1.0001, more as beta -> 1.
        """
        if not 0.0 < u <= self.umax:
            raise ValueError(f"level {u} outside (0, {self.umax}]")
        x = 0.5 * self.b * (math.log1p(u / (self.b - self.a)) - math.log1p(-u / (self.b + self.a)))
        if not x > 0.0:
            raise ValueError(f"level {u} takes a raw input of {x} in floating point, not > 0")
        return x

    def path(self, level: np.ndarray, packets: np.ndarray, top: float, out: np.ndarray) -> np.ndarray:
        """Levels after each packet of a [rows, k] block from the rows' ``level``, one step per packet, [k, rows].

        The packets must be >= 0: they are not checked here. The path is
        written into ``out[:k]``, the first k rows of a C-contiguous
        [>= k, rows] float plane, and is returned as a view of it: row j takes
        packet column j as the levels after it, U <- min(U + eta(U) x, umax),
        through a [rows] scratch for eta(U). The caller's packets and
        ``level`` are left as they were. No row falls, since a step adds
        eta(U) x >= 0 and caps at umax >= U: each column is non-decreasing
        and starts at or above its ``level``. So the path stops early, with
        j + 1 rows, at the first row j where every level is above ``top``,
        and leaves the plane's later rows as they were.
        """
        eta = np.empty_like(level)
        for j, x in enumerate(out[: packets.shape[1]]):
            np.multiply(packets[:, j], self._eta(level, eta), out=x)
            x += level
            level = np.minimum(x, self.umax, out=x)
            if level.min() > top:
                break
        return out[: j + 1]


BatteryModel = LinearBattery | NonLinearBattery
_BATTERIES = {battery.name: battery for battery in (LinearBattery, NonLinearBattery)}


def parse_battery(text: str) -> BatteryModel:
    """Parse ``linear`` / ``linear umax=25`` / ``nonlinear umax=25 beta=1.1``."""
    return parse_spec(text, _BATTERIES, "battery")
