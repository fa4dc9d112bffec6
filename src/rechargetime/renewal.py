"""Equilibrium (stationary) delayed renewal arrival streams.

An arrival stream is a residual first wait followed by i.i.d. inter-arrivals.
In equilibrium mode the first wait follows the residual density
(1 - F_A(t)) / mu_A, modeling observation long after the process started;
in pure mode an arrival sits at the origin. ``ArrivalProcess`` names the law
and draws the first wait; the engine draws the inter-arrivals in blocks and
sums them into epochs.

The equilibrium first wait is sampled exactly, with no numerical inversion:
it equals V * A_hat, where V ~ U(0, 1) is independent of A_hat and A_hat
has the length-biased density x f_A(x) / mu_A (the interval that covers a
random observation point is length-biased, and the point sits uniformly
inside it). For the inverse Gaussian IG(mu, lam), A_hat is
IG(mu, lam) + (mu^2 / lam) Z^2 with Z standard normal (Jorgensen, Seshadri
& Whitmore, Scand. J. Statist. 18, 1991); for Gamma(k, theta) it is
Gamma(k + 1, theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from .distributions import DistributionSpec, Exponential

__all__ = ["Mode", "ArrivalProcess"]


class Mode(Enum):
    EQUILIBRIUM = "equilibrium"
    PURE = "pure"


@dataclass(frozen=True)
class ArrivalProcess:
    interarrival: DistributionSpec
    mode: Mode = Mode.EQUILIBRIUM

    def residual_moments(self) -> Tuple[float, float]:
        """Mean and variance of the first wait.

        Equilibrium: E = (mu^2 + sigma^2) / (2 mu) and
        V = m3 / (3 mu) - E^2 with m3 the third raw moment of the
        inter-arrival law. Pure mode: (0, 0).
        """
        if self.mode is Mode.PURE:
            return 0.0, 0.0
        d = self.interarrival
        mu, var, m3 = d.mean, d.variance, d.third_raw_moment
        mean0 = (mu**2 + var) / (2.0 * mu)
        var0 = m3 / (3.0 * mu) - mean0**2
        return mean0, var0

    def residual_sample(self, rng: np.random.Generator, size=None):
        """Draw the first wait; 0 in pure mode.

        Exponential inter-arrivals are memoryless, so the first wait is one
        more inter-arrival. Every other law uses the identity R = V * A_hat:
        A_hat is the length-biased inter-arrival, density x f_A(x) / mu_A
        (for the inverse Gaussian, IG + (mu^2/lam) Z^2 by Jorgensen, Seshadri
        & Whitmore, Scand. J. Statist. 18, 1991), and V ~ U(0, 1) is
        independent of it. A_hat is drawn first, then V. A scalar draw
        (size None) is a Python float equal to the first value of a size-1
        draw from the same stream.
        """
        if self.mode is Mode.PURE:
            return 0.0 if size is None else np.zeros(size)
        d = self.interarrival
        if isinstance(d, Exponential):
            return d.sample(rng, size)
        return d.length_biased_sample(rng, size) * rng.random(size)
