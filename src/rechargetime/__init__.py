"""Recharge-time toolkit: first passage of a stochastically charged battery.

Monte-Carlo simulation plus closed-form / asymptotic formulas for the time
a linear or non-linear energy store takes to reach a threshold level under
renewal-process energy arrivals.
"""

__version__ = "0.1.0"

from .analytic import (
    nonlinear_cdf,
    packet_count_pmf,
    per_packet_cdf,
    poisson_cdf_exp_exact,
    poisson_cdf_normal,
    renewal_cdf_clt,
    renewal_mean_tau,
    renewal_var_tau,
)
from .battery import LinearBattery, NonLinearBattery, parse_battery
from .distributions import (
    Deterministic,
    Exponential,
    Gamma,
    InverseGaussian,
    Uniform,
    parse_distribution,
)
from .engine import ExperimentConfig, PassageSamples, run, summarize
from .renewal import ArrivalProcess, Mode
from .stats import CdfCurve, dkw_band, ecdf, ks_distance

__all__ = [
    "__version__",
    "nonlinear_cdf",
    "packet_count_pmf",
    "per_packet_cdf",
    "poisson_cdf_exp_exact",
    "poisson_cdf_normal",
    "renewal_cdf_clt",
    "renewal_mean_tau",
    "renewal_var_tau",
    "LinearBattery",
    "NonLinearBattery",
    "parse_battery",
    "Deterministic",
    "Exponential",
    "Gamma",
    "InverseGaussian",
    "Uniform",
    "parse_distribution",
    "ExperimentConfig",
    "PassageSamples",
    "run",
    "summarize",
    "ArrivalProcess",
    "Mode",
    "CdfCurve",
    "dkw_band",
    "ecdf",
    "ks_distance",
]
