import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from rechargetime.distributions import (
    Deterministic,
    Exponential,
    Gamma,
    InverseGaussian,
    Uniform,
    parse_distribution,
)
from rechargetime.stats import dkw_band, ecdf, ks_distance, CdfCurve

# the laws used in the experiments plus off-grid parameterizations
LAWS = [
    Exponential(1.0),
    Exponential(0.25),
    Gamma(1.0, 2.0),
    Gamma(0.5, 2.0),
    Gamma(3.0, 0.7),
    InverseGaussian(1.0, 2.0),
    InverseGaussian(2.0, 0.8),
    Uniform(0.0, 1.0),
    Uniform(0.5, 2.0),
]


def _law(spec):
    """The scipy frozen law each spec maps to (shares no code with the spec)."""
    if isinstance(spec, Exponential):
        return stats.expon(scale=1 / spec.rate)
    if isinstance(spec, Gamma):
        return stats.gamma(spec.shape, scale=spec.scale)
    if isinstance(spec, InverseGaussian):
        return stats.invgauss(spec.mean / spec.shape, scale=spec.shape)
    if isinstance(spec, Uniform):
        return stats.uniform(spec.lo, spec.hi - spec.lo)
    raise AssertionError(spec)


@pytest.mark.parametrize("spec", LAWS, ids=lambda s: s.config_str())
def test_raw_moments_match_numerical_integration(spec):
    law = _law(spec)
    pdf = law.pdf
    hi = float(law.ppf(1.0 - 1e-13)) * 2 + 10
    for k, closed in [(1, spec.mean), (2, spec.variance + spec.mean**2), (3, spec.third_raw_moment)]:
        num = quad(lambda x: x**k * pdf(x), 0, hi, limit=500)[0]
        assert closed == pytest.approx(num, rel=1e-6)


def test_moment_examples():
    assert Uniform(0, 1).mean == 0.5
    assert Uniform(0, 1).variance == pytest.approx(1 / 12)
    assert Uniform(0, 1).third_raw_moment == pytest.approx(0.25)
    assert Exponential(1.0).mean == 1.0
    assert Exponential(1.0).variance == 1.0
    assert Exponential(1.0).third_raw_moment == 6.0
    ig = InverseGaussian(1.0, 2.0)
    assert ig.mean == 1.0
    assert ig.variance == pytest.approx(0.5)  # mean^3 / shape


def test_cdf_examples():
    assert Uniform(0, 1).cdf(0.5) == 0.5
    assert Deterministic(3.0).cdf(2.999) == 0.0
    assert Deterministic(3.0).cdf(3.0) == 1.0
    x = np.linspace(0, 20, 50)
    np.testing.assert_allclose(Gamma(1.0, 2.0).cdf(x), -np.expm1(-x / 2), atol=1e-12)


@pytest.mark.parametrize("spec", LAWS, ids=lambda s: s.config_str())
def test_cdf_shape_properties(spec):
    grid = np.linspace(-2, float(_law(spec).ppf(1 - 1e-13)) + 5, 500)
    vals = spec.cdf(grid)
    assert np.all(np.diff(vals) >= -1e-14)
    assert np.all((vals >= 0) & (vals <= 1))
    assert spec.cdf(-1.0) == 0.0
    assert spec.cdf(grid[-1]) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("spec", [Gamma(1.0, 2.0), Gamma(0.5, 2.0), InverseGaussian(1.0, 2.0)],
                         ids=lambda s: s.config_str())
def test_special_function_cdf_accuracy(spec):
    # high-precision reference via mpmath
    import mpmath as mp

    mp.mp.dps = 40
    for x in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]:
        if isinstance(spec, Gamma):
            ref = mp.gammainc(spec.shape, 0, x / spec.scale, regularized=True)
        else:
            s = mp.sqrt(spec.shape / x)
            phi = lambda z: mp.erfc(-z / mp.sqrt(2)) / 2
            ref = phi(s * (x / spec.mean - 1)) + mp.e ** (2 * spec.shape / spec.mean) * phi(
                -s * (x / spec.mean + 1)
            )
        assert abs(spec.cdf(x) - float(ref)) < 1e-10


# the constructor's edges for the inverse Gaussian: shape/mean from 1e-12 up
# past float max, means from 1e-150 up to where the third moment overflows
WHOLE_LINE_LAWS = [
    Exponential(0.25),
    Gamma(0.5, 2.0),
    InverseGaussian(1.0, 2.0),
    Uniform(0.5, 2.0),
    Deterministic(3.0),
    InverseGaussian(1.0, 1e-12),
    InverseGaussian(1e-150, 1e-162),
    InverseGaussian(1e-150, 1e308),
    InverseGaussian(1.0, 1e20),
    InverseGaussian(5e102, 1e308),
    # rate x, x / scale and x / (hi - lo) overflow at large finite x
    Exponential(2.0),
    Gamma(3.0, 0.7),
    Uniform(0.0, 1e-300),
]


@pytest.mark.parametrize("spec", WHOLE_LINE_LAWS, ids=lambda s: s.config_str())
def test_cdf_on_the_whole_line(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        edges = spec.cdf(np.array([-math.inf, -1.0, 0.0, 5e-324, math.inf, math.nan]))
        assert [spec.cdf(x) for x in (-math.inf, -1.0, 0.0)] == [0.0, 0.0, 0.0]
        assert spec.cdf(math.inf) == 1.0 and math.isnan(spec.cdf(math.nan))
        vals = spec.cdf(spec.mean * np.geomspace(1e-10, 1e10, 2001))
        far = [-np.finfo(float).max, -1e300, 1e300, np.finfo(float).max]
        assert spec.cdf(np.array(far)).tolist() == [spec.cdf(x) for x in far] == [0.0, 0.0, 1.0, 1.0]
    np.testing.assert_array_equal(edges[[0, 1, 2, 4]], [0.0, 0.0, 0.0, 1.0])
    assert 0.0 <= edges[3] <= 1.0 and math.isnan(edges[5])
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_invgauss_cdf_matches_mpmath_at_every_shape_over_mean():
    # oracle: the textbook Phi(a) + exp(2 shape/mean) Phi(-s (x/mean + 1)) at
    # 60 digits, its second term as exp(2 shape/mean + log(erfc(c) / 2))
    import mpmath as mp

    @mp.workdps(60)
    def oracle(mean, shape, x):
        mean, shape, x = mp.mpf(mean), mp.mpf(shape), mp.mpf(x)
        s = mp.sqrt(shape / x)
        a, c = s * (x / mean - 1), s * (x / mean + 1) / mp.sqrt(2)
        return float(mp.ncdf(a) + mp.exp(2 * shape / mean + mp.log(mp.erfc(c) / 2)))

    for mean in (1.0, 3.7):
        for ratio in np.geomspace(1e-12, 1e30, 43):
            law = InverseGaussian(mean, ratio * mean)
            x = mean * np.geomspace(1e-6, 1e3, 37)
            ref = np.array([oracle(mean, law.shape, xi) for xi in x])
            np.testing.assert_allclose(law.cdf(x), ref, rtol=0, atol=1e-14)
    assert InverseGaussian(1.0, 1e20).cdf(1.0 + 1e-15) == pytest.approx(0.5000044291689990, abs=1e-15)
    assert InverseGaussian(1.0, 1e290).cdf(1.0) == 0.5


def test_deterministic_sampling_is_point_mass():
    rng = np.random.default_rng(0)
    assert Deterministic(3.0).sample(rng) == 3.0
    assert np.all(Deterministic(3.0).sample(rng, 100) == 3.0)


# every law, with gamma shapes either side of 1 and a uniform law off 0
SAMPLERS = [*LAWS, Gamma(2.0, 0.5), Deterministic(3.0)]


@pytest.mark.parametrize("spec", SAMPLERS, ids=lambda s: s.config_str())
def test_sample_into_out_is_the_sized_draw(spec):
    # the engine draws every block into a buffer it keeps: the values and the
    # generator's state after them must be those of a draw of that size
    rng_a, rng_b = np.random.default_rng(17), np.random.default_rng(17)
    buf = np.full((256, 64), np.nan)
    assert spec.sample(rng_a, out=buf) is buf
    assert buf.tobytes() == spec.sample(rng_b, (256, 64)).tobytes()
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("spec", SAMPLERS, ids=lambda s: s.config_str())
def test_scalar_draw_is_a_python_float(spec):
    assert type(spec.sample(np.random.default_rng(17))) is float


def test_exponential_sample_mean_band():
    rng = np.random.default_rng(1)
    draws = Exponential(1.0).sample(rng, 10**6)
    assert abs(draws.mean() - 1.0) < 0.004  # ~4 sigma for sd 1/sqrt(1e6)


def test_invgauss_sample_variance_band():
    ig = InverseGaussian(1.0, 2.0)
    rng = np.random.default_rng(2)
    n = 10**6
    draws = ig.sample(rng, n)
    # sd of the sample variance from the 4th central moment (by quadrature)
    pdf = _law(ig).pdf
    m4 = quad(lambda x: (x - ig.mean) ** 4 * pdf(x), 0, 60, limit=500)[0]
    band = 3.0 * np.sqrt((m4 - ig.variance**2) / n)
    assert abs(draws.var() - 0.5) < band


@pytest.mark.parametrize("spec", LAWS, ids=lambda s: s.config_str())
def test_sampling_matches_cdf_ks(spec):
    rng = np.random.default_rng(3)
    n = 10**5
    draws = spec.sample(rng, n)
    grid = np.linspace(1e-9, float(np.max(draws)) * 1.01, 600)
    emp = ecdf(draws, grid)
    ana = CdfCurve(tuple(grid), tuple(np.clip(spec.cdf(grid), 0, 1)))
    assert ks_distance(emp, ana) < dkw_band(n, 0.01)


def test_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Deterministic(0.0)
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Uniform(-0.5, 1.0)
    with pytest.raises(ValueError):
        Uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        Gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        InverseGaussian(1.0, 0.0)


# (mean, shape) just outside where numpy's wald draws the inverse Gaussian:
# shape/mean below 1e-12 or mean below 1e-150. (1e-200, 1e-100) has
# mean * shape = 1e-300, and half its draws come back 0
@pytest.mark.parametrize(
    "mean, shape", [(1.0, 9.9e-13), (1.0, 1e-30), (1e16, 1.0), (9.9e-151, 1.0), (1e-200, 1e-200), (1e-200, 1e-100)]
)
def test_invgauss_refuses_what_wald_cannot_sample(mean, shape):
    with pytest.raises(ValueError, match="to be sampled"):
        InverseGaussian(mean, shape)


@pytest.mark.parametrize("mean, shape", [(1.0, 1e-12), (1e-150, 1e-150), (1e-150, 1e-162)])
def test_invgauss_just_inside_its_bounds_samples_its_cdf(mean, shape):
    law = InverseGaussian(mean, shape)
    n = 200_000
    draws = law.sample(np.random.default_rng(1), n)
    assert stats.kstest(draws, law.cdf).statistic < dkw_band(n, 0.01)


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "spec, field",
    [
        pytest.param(spec, f.name, id=f"{type(spec).__name__}-{f.name}")
        for spec in [Exponential(1.0), Gamma(1.0, 2.0), InverseGaussian(1.0, 2.0), Uniform(0.0, 1.0), Deterministic(3.0)]
        for f in dataclasses.fields(spec)
    ],
)
def test_non_finite_parameter_rejected(spec, field, bad):
    # unchecked, Uniform(0, inf) packets gave renewal_mean_tau = nan and
    # Exponential(inf) arrivals a ZeroDivisionError in renewal_cdf_clt
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(spec, **{field: bad})


@pytest.mark.parametrize(
    "law, args, moment",
    [
        pytest.param(law, args, moment, id=f"{law.__name__}{args}")
        for law, args, moment in [
            (Exponential, (1e-200,), "variance"),  # rate**2 underflows to 0
            (Exponential, (1e200,), "variance"),
            (Uniform, (0.0, 1e300), "variance"),
            (Deterministic, (1e200,), "third_raw_moment"),
            (InverseGaussian, (1e200, 1.0), "variance"),
            (InverseGaussian, (1.0, 1e-300), "third_raw_moment"),
            (Gamma, (1e200, 1e200), "mean"),  # inf, not an exception
        ]
    ],
)
def test_moment_outside_float_range_rejected(law, args, moment):
    # finite parameters whose moments overflow, or divide by an underflowed 0,
    # in float arithmetic; the moments feed every analytic formula
    with pytest.raises(ValueError, match=f"no finite {moment}"):
        law(*args)


@pytest.mark.parametrize("law, args", [(Gamma, (1e-300, 1e-300)), (Uniform, (0.0, 5e-324))], ids=["gamma", "uniform"])
def test_mean_that_underflows_to_0_rejected(law, args):
    # a finite mean of 0.0 passed the moment check, and the engine's expected
    # packet count divided by it: a ZeroDivisionError out of the CLI
    with pytest.raises(ValueError, match="mean of 0"):
        law(*args)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.5, 2.0), (0.1, 0.3), (3.0, 7.5), (1e-8, 1e8)])
def test_uniform_third_moment_matches_the_unfactored_formula(lo, hi):
    old = (hi**4 - lo**4) / (4.0 * (hi - lo))
    assert Uniform(lo, hi).third_raw_moment == pytest.approx(old, rel=1e-15)


def test_uniform_third_moment_past_the_fourth_power_range():
    # hi^4 = 1e400 overflows, but the moment itself, hi^3 / 4, is a float
    assert Uniform(0.0, 1e100).third_raw_moment == pytest.approx(2.5e299, rel=1e-15)


def test_parse_distribution():
    assert parse_distribution("exponential rate=1.0") == Exponential(1.0)
    assert parse_distribution("gamma shape=1.0 scale=2.0") == Gamma(1.0, 2.0)
    assert parse_distribution("invgauss mean=1 shape=2") == InverseGaussian(1.0, 2.0)
    assert parse_distribution("uniform lo=0 hi=1") == Uniform(0.0, 1.0)
    assert parse_distribution("deterministic value=3") == Deterministic(3.0)
    with pytest.raises(ValueError, match="unknown distribution"):
        parse_distribution("weibull shape=2")
    with pytest.raises(ValueError, match="missing"):
        parse_distribution("gamma shape=1")
    with pytest.raises(ValueError, match="unknown parameters"):
        parse_distribution("exponential rate=1 mean=2")


# parameters whose every law's moments stay in float range
POSITIVE = st.floats(min_value=1e-30, max_value=1e30)


def _law_of(cls, *params):
    """``cls`` of drawn parameters, leaving out the draws its constructor refuses (uniform's lo >= hi)."""

    def build(args):
        try:
            return cls(*args)
        except ValueError:
            return None

    return st.tuples(*params).map(build).filter(lambda law: law is not None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.one_of(
        _law_of(Exponential, POSITIVE),
        _law_of(Gamma, POSITIVE, POSITIVE),
        _law_of(InverseGaussian, POSITIVE, POSITIVE),
        _law_of(Uniform, st.floats(min_value=0.0, max_value=1e30), POSITIVE),
        _law_of(Deterministic, POSITIVE),
    )
)
def test_config_str_reads_back_to_the_same_law(law):
    assert parse_distribution(law.config_str()) == law


@pytest.mark.parametrize(
    "name, params, canonical",
    [
        ("exponential", "rate=2", "exponential"),
        ("exp", "rate=2", "exponential"),
        ("gamma", "shape=1.5 scale=2", "gamma"),
        ("invgauss", "mean=1 shape=2", "invgauss"),
        ("inverse_gaussian", "mean=1 shape=2", "invgauss"),
        ("ig", "mean=1 shape=2", "invgauss"),
        ("uniform", "lo=0.5 hi=2", "uniform"),
        ("deterministic", "value=3", "deterministic"),
        ("constant", "value=3", "deterministic"),
    ],
)
def test_every_law_name_reads_as_its_law(name, params, canonical):
    assert parse_distribution(f"{name} {params}").config_str() == f"{canonical} {params}"
