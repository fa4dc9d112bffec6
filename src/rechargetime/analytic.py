"""Closed-form and asymptotic recharge-time formulas.

Poisson-arrival results condition on the number of arrivals by time t: each
is one mixture P(tau <= t) = 1 - sum_n w_n(lam t) P(N > n) over the law of
the packet count N, with w_n the Poisson(lam t) weights and lam in (0, inf).
For a linear battery P(N > n) = F_n(u) = P(S_n <= u), the CDF of the n-packet
sum: the exact Erlang law for exponential packets, or the normal
approximation of the n-fold convolution. Four routines build every such
series. ``_poisson_weights`` computes the weights in log space, as the naive
x^n / n! overflows for x beyond a few hundred; the mixture and the Erlang law
both call it, with the log n! table passed in once per series.
``_tail_sums`` gives P(N >= n), each from its smaller side, for the Erlang
F_n and for the count law of ``per_packet_cdf``. ``_poisson_mixture`` is the
one place that shifts a series for pure mode, where an arrival, and so a
packet, sits at the origin and the series runs over P(N > n + 1).
``_normal_law`` is the one normal law, of the packet sums and of the arrival
epochs alike: Phi((x - mean) / sd), with its own step x >= mean where the sd
is 0, so packets or arrivals of zero variance take the general path. F_n does
not depend on t and falls with n, so one cut serves every t: a series stops
before its first term below 1e-12, which bounds the dropped mass by 1e-12.
Each series is sized once, to a length that holds its cut. This module owns
the one bound on the sizes it builds, ``_MAX_TERMS`` = 1e7: a normal series
of more terms (``packet_sum_terms``) or a level-grid kernel of more entries
(``packet_count_pmf``) is refused with a ValueError before it is allocated,
and the CLI asks ``packet_sum_terms`` rather than bound the series itself.
General inter-arrival laws use renewal-theoretic asymptotics plus a CLT
approximation (large threshold), which read their moments from the arrival
process and the packet law.

Every CDF accepts a scalar t (float result) or an array of t >= 0; a NaN t
is refused like a negative one. One blocked mixture serves them all: each
block of t fills one [block, width] buffer, which is summed against the
weights row by row. The Poisson series fill it with Poisson weights against
P(N > n), over each point's own window of counts [lo, hi) in x = lam t: the
counts outside it hold at most 2e-18 of the Poisson(x) mass, and it is
empty at x = inf, where P = 1. Windows are snapped to multiples of 32
counts, so points close in t share one, and the mixture sorts t so that
they are neighbours and fill one block. The window depends on x alone, so a
point's value does not depend on its neighbours or on the order of t. The
CLT curves fill it with the normal law of the epochs against the law of the
packet count (one term for ``renewal_cdf_clt``), every point over every term.

The non-linear battery has two formulas. ``nonlinear_cdf`` maps the threshold
through the tanh transform: the continuous model is the linear battery at u'.
``per_packet_cdf`` matches the per-packet rule U <- min(U + eta(U) X, umax):
it propagates the level on a grid to get the law of N and mixes it with the
law of the N-th arrival epoch, Poisson or normal.

The curves need three special functions, computed here without scipy so that
importing this module loads numpy alone:

* the normal CDF Phi(z) = erfc(-z / sqrt 2) / 2, by ``math.erfc`` on each
  element (within about z^2 unit roundoffs, relative, as scipy's ``ndtr``),
  for ``_normal_law``;
* log n! = ``math.lgamma(n + 1)``, for the Poisson weights;
* the Erlang CDF gammainc(n, y) = P(Poisson(y) >= n) at integer n, for the
  exact series: the tail sums of the Poisson(y) weights.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .battery import BatteryModel
from .distributions import DistributionSpec, Exponential
from .renewal import ArrivalProcess, Mode

__all__ = [
    "poisson_cdf_normal",
    "poisson_cdf_exp_exact",
    "renewal_mean_tau",
    "renewal_var_tau",
    "renewal_cdf_clt",
    "nonlinear_cdf",
    "packet_count_pmf",
    "packet_sum_terms",
    "per_packet_cdf",
]

# Where a count law stops: the Poisson series before its first packet-sum CDF
# F_n(u) = P(N > n) below this, and the level grid once the mass still below u,
# P(N > n), is not above it. Either way it bounds the tail mass dropped.
_SERIES_TOL = 1e-12
# The normal series is sized to 2 terms past this argument of Phi (about 6e-13).
_NORMAL_CUT_Z = -7.1
# Level-grid step of the per-packet transfer operator. At 0.02 the CDF of N
# stays within about 1e-3 of a ten times finer grid.
_LEVEL_STEP = 0.02
_MAX_PACKETS = 10_000
# Terms a normal series (``packet_sum_terms``) and entries a level-grid kernel
# (``packet_count_pmf``) may hold; this module spends them, so it refuses past
# the bound before it allocates anything of that size. A series term costs
# about 80 bytes and 0.13 us while the series is built, so 0.8 GB and 1.3 s at
# the bound (Python 3.11, numpy 2.4). The bound holds every series that the
# engine's packet budget lets a law of coefficient of variation 1 or less ask
# for, at most 3.9e6 terms; a coefficient of variation of 446 or more passes it
# at any threshold. The kernel is (ceil(u / _LEVEL_STEP) + 1)^2 entries, so
# thresholds above about 63.2 are refused; at u = 63, 9.93e6 entries took
# 0.25 GB and 1.5 s.
_MAX_TERMS = 10**7
# Cells of the mixture's one [block, terms] buffer (256 KB), for both epoch
# laws. A block has as many grid points as fit, 123 at the 265 terms of
# u = 150, so memory does not grow with the number of terms times a block.
_MIX_CELLS = 1 << 15
# A Poisson(x) mixture sums only the counts of its window [lo, hi): by the
# Chernoff and Bernstein bounds each side past it holds at most
# exp(-_WINDOW_TAIL) = 1e-18 of the mass. Windows are snapped out to multiples
# of _WINDOW_STEP, so that runs of grid points share one.
_WINDOW_TAIL = math.log(1e18)
_WINDOW_STEP = 32.0
# Terms of the log n! table kept for the process (32 KB). math.lgamma takes
# about 0.2 us a term; recomputing the table per series cost about 5% of a
# compare pass.
_LOG_FACT_HEAD = 1 << 12
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf(z) -> np.ndarray:
    """Phi(z) = erfc(-z / sqrt 2) / 2 elementwise, as a float array; ``math.erfc`` on each element."""
    return 0.5 * np.asarray(_erfc(np.multiply(z, -math.sqrt(0.5))), dtype=float)


def _normal_law(x, mean, sd, out: np.ndarray) -> np.ndarray:
    """P(X <= x) for X normal of ``mean`` and ``sd``, written into ``out``; the arguments broadcast to it.

    That is Phi((x - mean) / sd), or the step x >= mean where sd is not > 0
    (0 or NaN): a normal law of zero variance is a point mass at its mean.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.subtract(x, mean, out=out)
        out /= sd
        out[...] = _normal_cdf(out)
    return np.greater_equal(x, mean, out=out, where=np.logical_not(np.greater(sd, 0.0)))


def _lgamma(lo: int, hi: int) -> np.ndarray:
    """lgamma(m) for the integers m = lo, ..., hi - 1."""
    return np.fromiter(map(math.lgamma, range(lo, hi)), dtype=float, count=hi - lo)


@functools.cache
def _log_factorial_head() -> np.ndarray:
    """log n! for n < _LOG_FACT_HEAD, computed once: every series of the CLI's curves fits in it."""
    head = _lgamma(1, _LOG_FACT_HEAD + 1)
    head.setflags(write=False)
    return head


def _log_factorial(size: int) -> np.ndarray:
    """log n! = lgamma(n + 1) for n = 0, ..., size - 1; a read-only view up to _LOG_FACT_HEAD terms."""
    head = _log_factorial_head()
    if size <= head.size:
        return head[:size]
    return np.concatenate((head, _lgamma(head.size + 1, size + 1)))


def _poisson_weights(x, n: np.ndarray, log_fact: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The Poisson(x) weights at the counts n, written into ``out``: exp(n log x - log n! - x).

    log_fact holds log n!. x is a scalar or a column of rates >= 0. At x = 0
    the log is -inf, so the weight is 0 for n > 0; where n starts at 0, column
    0 is set to -x apart, which makes the corner exact (weight 1 at n = 0).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(np.log(x), n, out=out)
    out -= log_fact
    out -= x
    if n.size and n[0] == 0:
        out[..., :1] = -x
    return np.exp(out, out=out)


def _poisson_window(x: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The counts [lo, hi) outside which Poisson(x) holds at most 2e-18 of its mass, for each x in [0, inf].

    With L = _WINDOW_TAIL, Chernoff's bound puts at most e^-L of the mass at or
    below x - sqrt(2 L x), and Bernstein's at most e^-L at or above x + a,
    with a = L/3 + sqrt(L^2/9 + 2 L x). lo is at most the first and hi at
    least the second plus one, each snapped out to a multiple of
    _WINDOW_STEP and capped at the series size; at x = inf the window is
    empty. Float arrays, the shape of x.
    """
    L, root = _WINDOW_TAIL, np.sqrt(x)
    lo = root * (root - math.sqrt(2.0 * L))  # x - sqrt(2 L x), and inf rather than NaN at x = inf
    hi = x + L / 3.0 + np.sqrt(2.0 * L * x + L * L / 9.0) + 1.0
    lo, hi = np.floor(lo / _WINDOW_STEP), np.ceil(hi / _WINDOW_STEP)
    return np.clip(lo * _WINDOW_STEP, 0.0, size), np.clip(hi * _WINDOW_STEP, 0.0, size)


def _tail_sums(pmf: np.ndarray) -> np.ndarray:
    """sum_{k>=n} pmf_k for n = 0, ..., pmf.size - 1, not increasing in n.

    Each sum takes its smaller side, small terms first: 1 - sum_{k<n} from
    the bottom while that side holds less mass (so the sum at n = 0 is 1
    exactly), and sum_{k>=n} from the top after. Mass the law drops past its
    last entry is not counted.
    """
    below = np.concatenate(([0.0], np.cumsum(pmf[:-1])))  # sum_{k<n}
    above = np.cumsum(pmf[::-1])[::-1]
    return np.minimum.accumulate(np.where(below < above, 1.0 - below, above))


def _packet_sum_cdf(u: float, Xbar: float, sigmaX: float | None) -> np.ndarray:
    """F_n(u) = P(S_n <= u), with S_n a sum of n packets, for n = 0, 1, ... up to the cut.

    sigmaX = None gives the exact Erlang law of exponential packets of mean
    Xbar, gammainc(n, y) with y = u / Xbar; a number gives the normal law
    ``_normal_law(u, n Xbar, sigmaX sqrt(n))``. Either is computed over the
    ``packet_sum_terms`` n that hold its cut. F does not increase, and ends
    before its first term below 1e-12 (IndexError if the size missed it).
    ValueError for a non-finite or non-positive Xbar, or a non-finite or
    negative sigmaX, and from ``packet_sum_terms`` for a normal series past
    _MAX_TERMS, in either case before the series is allocated.
    """
    if u <= 0:
        raise ValueError("threshold must be > 0")
    if not (0.0 < Xbar < np.inf and (sigmaX is None or 0.0 <= sigmaX < np.inf)):
        raise ValueError(f"packet mean {Xbar} and sd {sigmaX} must be finite, mean > 0, sd >= 0")
    n = np.arange(packet_sum_terms(u, Xbar, sigmaX), dtype=float)
    if sigmaX is None:
        F = _tail_sums(_poisson_weights(u / Xbar, n, _log_factorial(n.size), np.empty(n.size)))
    else:
        F = _normal_law(u, n * Xbar, sigmaX * np.sqrt(n), np.empty(n.size))
    return F[: np.flatnonzero(F < _SERIES_TOL)[0]]


def packet_sum_terms(u: float, Xbar: float, sigmaX: float | None) -> int:
    """The terms ``_packet_sum_cdf`` computes at u, before its cut.

    The exact Erlang law (sigmaX None) takes 2 ceil(y) + 65 Poisson(y)
    weights, y = u / Xbar: past 2y each weight is at most half the one
    before, so the last is below e^-44 of a kept F_n. The normal law runs
    to 2 terms past its first argument of Phi at or below _NORMAL_CUT_Z,
    about (7.1 sigmaX / Xbar)^2 terms once sigmaX is large; at sigmaX = 0
    that is the step n Xbar <= u over ceil(y) + 2 terms, which hold its
    first zero even where (floor(y) + 1) Xbar rounds to u.

    The normal law is bounded: more than _MAX_TERMS terms is a ValueError
    that names the count and the bound, found by arithmetic alone. The
    Erlang law is not; its terms grow with u / Xbar only, which the engine's
    packet budget keeps below 7.8e6 on the CLI's curves.
    """
    y = u / Xbar
    if sigmaX is None:
        return 2 * math.ceil(y) + 65
    b = -_NORMAL_CUT_Z * sigmaX  # sqrt(n) at the cut solves Xbar s^2 - b s - u = 0
    s = (b + math.sqrt(b * b + 4.0 * Xbar * u)) / (2.0 * Xbar)
    if not s * s <= _MAX_TERMS - 2:  # an inf s * s fails it too, which math.ceil would not take
        raise ValueError(f"the normal Poisson series needs {s * s + 2:.4g} terms, more than the bound {_MAX_TERMS:.0e}")
    return math.ceil(s * s) + 2


def _mixture(t, weights: np.ndarray, fill, window=None) -> np.ndarray:
    """sum_n weights_n c_n(t) at each t >= 0; ``fill(tb, out, s)`` writes c_n(t) at the terms s for a column tb of t.

    ``window(ts)`` gives each point of the flat t the terms [lo, hi) its sum
    runs over, as float arrays that do not fall as t grows; without it every
    point sums every term. t, sorted if it is not already, goes in runs of
    consecutive points that share a window, each cut into blocks of
    ``_MIX_CELLS // width`` points (at least one) through one [block, width]
    buffer, so memory does not grow with the grid or the terms. Each row is
    summed on its own and its window depends on its point alone: a point's
    value does not depend on its block or its neighbours, and a scalar t
    gives the float it gives in an array. ValueError for a negative or NaN t.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("time must be >= 0")
    # windows grow with t, so once t is sorted the points of a window are neighbours
    order = np.argsort(t, axis=None, kind="stable") if np.any(np.diff(t.ravel()) < 0) else slice(None)
    ts = t.ravel()[order]
    lo, hi = window(ts) if window else (np.zeros(ts.size), np.full(ts.size, weights.size))
    starts = np.flatnonzero((np.diff(lo, prepend=-1.0) != 0.0) | (np.diff(hi, prepend=-1.0) != 0.0))
    lo, hi = lo[starts], hi[starts]  # one window a run, so no grid-sized array outlives this
    buf = np.empty(min(ts.size * weights.size, max(_MIX_CELLS, weights.size)))
    out = np.empty(ts.size)
    for start, stop, l, h in zip(starts, np.r_[starts[1:], ts.size], lo, hi):
        terms = slice(int(l), int(h))
        width = terms.stop - terms.start
        block = max(1, _MIX_CELLS // max(width, 1))
        for a in range(start, stop, block):
            tb = ts[a : min(a + block, stop), None]
            w = buf[: tb.size * width].reshape(tb.size, width)
            fill(tb, w, terms)
            w *= weights[terms]
            out[a : a + tb.size] = w.sum(axis=1)
    out[order] = out  # back to the order of t; numpy copies the overlapping right side first
    return out.reshape(t.shape)


def _poisson_mixture(survival: np.ndarray, lam: float, t, mode: Mode) -> np.ndarray | float:
    """P(tau <= t) = 1 - sum_n w_n(lam t) P(N > n + s), with w_n the Poisson(lam t) weights.

    survival holds P(N > n) for n = 0, 1, ... The shift s is 1 in pure mode,
    where the arrival at the origin brings a packet (the series is empty when
    that packet always crosses), and 0 in equilibrium mode. Each point sums
    only the counts of its ``_poisson_window``, so the terms dropped there
    add at most 2e-18 to the series' own cut; lam t = inf gives 1.
    ValueError for a rate lam outside (0, inf), whose weights would be NaN
    or all at n = 0, and for a negative or NaN t.
    """
    if not 0.0 < lam < np.inf:
        raise ValueError(f"arrival rate {lam} must be finite and > 0")
    if mode is Mode.PURE:
        survival = survival[1:]
    n = np.arange(survival.size, dtype=float)
    log_fact = _log_factorial(survival.size)
    fill = lambda tb, w, s: _poisson_weights(lam * tb, n[s], log_fact[s], w)
    window = lambda ts: _poisson_window(lam * ts, survival.size)
    with np.errstate(over="ignore"):  # lam t past the float range is inf, whose window is empty
        return np.clip(1.0 - _mixture(t, survival, fill, window), 0.0, 1.0)[()]


def poisson_cdf_normal(
    u: float, t, lam: float, Xbar: float, sigmaX: float, *, mode: Mode = Mode.EQUILIBRIUM
):
    """P(tau(u) <= t) for Poisson arrivals via the normal-approximated series.

    P = 1 - e^{-lam t} sum_n (lam t)^n / n! * Phi((u - n Xbar) / (sigmaX sqrt(n)))

    In pure mode the packet at the origin shifts the series to
    Phi((u - (n + 1) Xbar) / (sigmaX sqrt(n + 1))). t is a scalar (float
    result) or an array.
    """
    return _poisson_mixture(_packet_sum_cdf(u, Xbar, sigmaX), lam, t, mode)


def poisson_cdf_exp_exact(u: float, t, lam: float, Xbar: float, *, mode: Mode = Mode.EQUILIBRIUM):
    """Exact P(tau(u) <= t) for Poisson arrivals and exponential packets.

    P = 1 - e^{-lam t} sum_n (lam t)^n / n! * P(n, u/Xbar), with P the
    regularized lower incomplete gamma function (the Erlang CDF of the
    n-packet sum); pure mode uses P(n + 1, u/Xbar). t is a scalar (float
    result) or an array.
    """
    return _poisson_mixture(_packet_sum_cdf(u, Xbar, None), lam, t, mode)


def renewal_mean_tau(u: float, arrival: ArrivalProcess, packet: DistributionSpec) -> float:
    """Asymptotic mean: E[A0] + (u / Xbar + E[X^2] / (2 Xbar^2) - 1) / lam, lam = 1 / mu_A.

    E[A0] is the mean first wait of the arrival mode, 0 in pure mode. In
    equilibrium this equals lam gamma2 / (2 Xbar^2) + u / (lam Xbar).
    """
    if u <= 0:
        raise ValueError("threshold must be > 0")
    lam, Xbar = 1.0 / arrival.interarrival.mean, packet.mean
    second = packet.variance + Xbar**2
    return arrival.residual_moments()[0] + (u / Xbar + second / (2.0 * Xbar**2) - 1.0) / lam


def renewal_var_tau(u: float, arrival: ArrivalProcess, packet: DistributionSpec) -> float:
    """Asymptotic variance: V[A0] + gamma2 u / Xbar^3, gamma2 = sigma_X^2 / lam^2 + sigma_A^2 Xbar^2."""
    if u <= 0:
        raise ValueError("threshold must be > 0")
    a = arrival.interarrival
    lam, Xbar = 1.0 / a.mean, packet.mean
    gamma2 = packet.variance / lam**2 + a.variance * Xbar**2
    return arrival.residual_moments()[1] + gamma2 * u / Xbar**3


def _normal_epoch_mixture(t, pmf: np.ndarray, mean: np.ndarray, var: np.ndarray):
    """sum_n pmf_n P(T_n <= t), with T_n normal of mean_n and var_n; P(tau <= t).

    A zero variance makes T_n a step at mean_n. t is a scalar (float result)
    or an array; ``_normal_law`` fills each block of ``_mixture``.
    """
    sd = np.sqrt(np.maximum(var, 0.0))
    epoch_cdfs = lambda tb, w, s: _normal_law(tb, mean[s], sd[s], w)
    return np.clip(_mixture(t, pmf, epoch_cdfs), 0.0, 1.0)[()]


def renewal_cdf_clt(u: float, t, arrival: ArrivalProcess, packet: DistributionSpec):
    """CLT approximation P(tau(u) <= t) = Phi((t - mean) / sd).

    The mean and variance are ``renewal_mean_tau`` and ``renewal_var_tau``,
    whose constant terms noticeably improve moderate-u accuracy over the
    leading order. A zero variance degenerates to a step at the mean. t >= 0
    is a scalar (float result) or an array.
    """
    mean = np.array([renewal_mean_tau(u, arrival, packet)])
    var = np.array([renewal_var_tau(u, arrival, packet)])
    return _normal_epoch_mixture(t, np.ones(1), mean, var)


def nonlinear_cdf(u: float, t, model: BatteryModel, linear_cdf):
    """Recharge-time CDF at stored level u via the threshold transform.

    Maps the stored-energy threshold to the equivalent raw-input threshold
    u' and evaluates the supplied linear formula there:
    ``linear_cdf(u_prime, t)``, with t a scalar or an array. For a linear
    model u' = u and this is the identity wrapper. The result is exact (as
    exact as ``linear_cdf``) for ``LinearBattery()`` at u', whose taus are
    those of the continuous non-linear model. For the per-packet rule
    U <- min(U + eta(U) X, umax), which the engine simulates, it is only the
    small-packet limit; use ``per_packet_cdf`` for that rule.
    """
    u_prime = model.input_for_level(u)
    return linear_cdf(u_prime, t)


@functools.lru_cache(maxsize=32)
def packet_count_pmf(u: float, packet: DistributionSpec, battery: BatteryModel) -> np.ndarray:
    """Law of N, the packets the per-packet rule needs to lift the level above u.

    Entry n - 1 is P(N = n) for U <- min(U + eta(U) X, umax) started at
    U = 0. The sub-probability mass of the level is propagated on a grid of
    step ``_LEVEL_STEP`` over [0, u]: mass in cell (e_j, e_{j+1}] sits at the
    cell midpoint y_j, except the empty battery y = 0 the first packet
    starts from. One packet moves mass from y_i to cell j with
    K_ij = F_X((e_{j+1} - y_i)/eta(y_i)) - F_X((e_j - y_i)/eta(y_i)) and
    absorbs it with 1 - F_X((u - y_i)/eta(y_i)); the cap umax > u never acts
    below the threshold. Iteration stops once less than 1e-12 of the mass is
    still below u. The kernel is dense, (ceil(u / _LEVEL_STEP) + 1)^2
    floats: 8 MB at u = 20. A ValueError refuses a threshold outside
    (0, capacity) and a kernel of more than _MAX_TERMS entries (u above about
    63.2), before anything of kernel size is allocated. The result is cached
    and read-only.
    """
    if not 0.0 < u < battery.capacity:
        raise ValueError(f"threshold {u} outside (0, {battery.capacity})")
    n_cells = int(np.ceil(u / _LEVEL_STEP))
    if (n_cells + 1) ** 2 > _MAX_TERMS:
        raise ValueError(f"level grid of u = {u:g}: {(n_cells + 1) ** 2:.4g} kernel entries, over {_MAX_TERMS:.0e}")
    edges = np.linspace(0.0, u, n_cells + 1)
    levels = np.concatenate(([0.0], 0.5 * (edges[:-1] + edges[1:])))
    eta = battery.efficiency(levels)
    below = packet.cdf((edges[None, :] - levels[:, None]) / eta[:, None])
    move = np.diff(below, axis=1)
    absorb = 1.0 - below[:, -1]
    pmf = [absorb[0]]
    mass = move[0]
    move, absorb = move[1:], absorb[1:]
    while mass.sum() > _SERIES_TOL:
        if len(pmf) >= _MAX_PACKETS:
            raise ValueError(
                f"level still below {u} after {_MAX_PACKETS} packets: the packet "
                f"law is too fine for the level grid step {_LEVEL_STEP}"
            )
        pmf.append(mass @ absorb)
        mass = mass @ move
    out = np.array(pmf)
    out.setflags(write=False)
    return out


def per_packet_cdf(u: float, t, arrival: ArrivalProcess, packet: DistributionSpec, battery: BatteryModel):
    """P(tau(u) <= t) for the per-packet rule U <- min(U + eta(U) X, umax).

    P = sum_n P(N = n) P(A0 + S_{n-1} <= t), with N from
    ``packet_count_pmf``, A0 the first wait and S_{n-1} the sum of n - 1
    inter-arrivals. For exponential inter-arrivals this is the Poisson
    mixture of the linear formulas: the n-th arrival epoch is Erlang, so
    P = P(N <= K) = 1 - sum_k w_k(lam t) P(N > k), with K the arrivals in
    (0, t]; ``_poisson_mixture`` shifts it in pure mode. Other laws use the
    normal epoch mixture of ``renewal_cdf_clt``, with mean E[A0] + (n-1) mu_A
    and variance V[A0] + (n-1) sigma_A^2; a zero variance gives a step at the
    mean. t >= 0 is a scalar (float result) or an array.
    """
    pmf = packet_count_pmf(u, packet, battery)
    a = arrival.interarrival
    if isinstance(a, Exponential):
        return _poisson_mixture(_tail_sums(pmf), a.rate, t, arrival.mode)  # P(N > k) = P(N >= k + 1)
    gaps = np.arange(pmf.size)  # n - 1
    mean0, var0 = arrival.residual_moments()
    return _normal_epoch_mixture(t, pmf, mean0 + gaps * a.mean, var0 + gaps * a.variance)
