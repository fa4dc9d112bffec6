import numpy as np
import pytest

from rechargetime.distributions import Exponential
from rechargetime.stats import CdfCurve, dkw_band, ecdf, ks_distance


class TestEcdf:
    def test_small_sample_values(self):
        c = ecdf([1.0, 2.0, 3.0], [0.5, 2.0, 2.5, 3.0, 4.0])
        assert tuple(c.values) == (0.0, pytest.approx(2 / 3), pytest.approx(2 / 3), 1.0, 1.0)

    def test_bounds(self):
        c = ecdf([5.0, 6.0], [1.0, 7.0])
        assert tuple(c.values) == (0.0, 1.0)

    def test_exponential_samples_within_dkw(self):
        rng = np.random.default_rng(0)
        n = 10**5
        draws = Exponential(1.0).sample(rng, n)
        grid = np.linspace(1e-9, 15.0, 500)
        emp = ecdf(draws, grid)
        ana = CdfCurve(tuple(grid), tuple(Exponential(1.0).cdf(grid)))
        assert ks_distance(emp, ana) < dkw_band(n, 0.01)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ecdf([], [1.0])


class TestKsDistance:
    def test_identical_curves(self):
        c = ecdf([1.0, 2.0], [0.5, 1.5, 2.5])
        assert ks_distance(c, c) == 0.0

    def test_opposite_steps(self):
        grid = (0.0, 1.0)
        a = CdfCurve(grid, (1.0, 1.0))
        b = CdfCurve(grid, (0.0, 0.0))
        assert ks_distance(a, b) == 1.0

    def test_disjoint_grids_rejected(self):
        a = CdfCurve((0.0, 1.0), (0.0, 1.0))
        b = CdfCurve((5.0, 6.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            ks_distance(a, b)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(1)
        grid = tuple(np.linspace(0, 1, 50))
        curves = [CdfCurve(grid, tuple(np.sort(rng.random(50)))) for _ in range(5)]
        # force valid CDF ranges
        for a in curves:
            for b in curves:
                assert ks_distance(a, b) == ks_distance(b, a)
                for c in curves:
                    assert ks_distance(a, c) <= ks_distance(a, b) + ks_distance(b, c) + 1e-12

    @pytest.mark.parametrize(
        "other",
        [np.linspace(0.6, 3.4, 11), np.linspace(0.5, 3.5, 8)[:7], np.linspace(0.5, 3.5, 7)[:6]],
        ids=["overlapping", "same-size", "prefix"],
    )
    def test_unequal_grids_rejected(self, other):
        a = ecdf([1.0, 2.0, 3.0], np.linspace(0.5, 3.5, 7))
        b = ecdf([1.0, 2.0, 3.0], other)
        with pytest.raises(ValueError, match="one grid"):
            ks_distance(a, b)


class TestDkwBand:
    def test_reference_value(self):
        assert dkw_band(2000, 0.01) == pytest.approx(0.03640, abs=1e-4)

    def test_shrinks_with_n(self):
        assert dkw_band(10**8, 0.01) < 1e-3

    def test_boundary_alpha(self):
        n = 5
        assert dkw_band(n, 2.0 * np.exp(-2.0 * n)) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            dkw_band(0, 0.01)
        with pytest.raises(ValueError):
            dkw_band(10, 1.5)


def test_dkw_empirical_pass_rate():
    # ECDFs of true exponential samples should stay inside the 99% band
    # in at least 98 of 100 repetitions
    rng = np.random.default_rng(2)
    n = 2000
    grid = np.linspace(1e-9, 12.0, 300)
    ana = CdfCurve(tuple(grid), tuple(Exponential(1.0).cdf(grid)))
    band = dkw_band(n, 0.01)
    passes = sum(
        ks_distance(ecdf(Exponential(1.0).sample(rng, n), grid), ana) < band
        for _ in range(100)
    )
    assert passes >= 98


def test_cdf_curve_holds_read_only_copies():
    grid, values = np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 1.0])
    c = CdfCurve(grid, values)
    grid[1], values[1] = 1.5, 0.25
    np.testing.assert_array_equal(c.grid, [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(c.values, [0.0, 0.5, 1.0])
    assert c.grid.dtype == c.values.dtype == np.float64
    with pytest.raises(ValueError):
        c.values[0] = 0.1


def test_cdf_curve_validation():
    with pytest.raises(ValueError):
        CdfCurve((0.0, 1.0), (0.5,))
    with pytest.raises(ValueError):
        CdfCurve((1.0, 0.5), (0.0, 1.0))
    with pytest.raises(ValueError):
        CdfCurve((0.0, 1.0), (0.8, 0.2))
    with pytest.raises(ValueError):
        CdfCurve((0.0, 1.0), (0.0, 1.5))
    # NaN passes every comparison above, and KS of it would read nan
    with pytest.raises(ValueError, match="finite"):
        CdfCurve((0.0, 1.0), (np.nan, np.nan))
    with pytest.raises(ValueError, match="finite"):
        CdfCurve((0.0, np.inf), (0.0, 1.0))
