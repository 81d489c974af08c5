import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lia.modarith import HALF_L, L, grid_real, mod_interval

finite_reals = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestModInterval:
    def test_zero_fixed_point(self):
        assert mod_interval(0.0) == 0.0

    def test_right_open_boundary_wraps(self):
        assert mod_interval(L / 2) == -L / 2

    def test_left_endpoint_included(self):
        assert mod_interval(-L / 2) == -L / 2

    def test_five_reduces_by_one_period(self):
        # hand modular arithmetic: 5 lies one period above the interval
        assert mod_interval(5.0) == pytest.approx(5.0 - math.sqrt(12.0), abs=1e-15)

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                mod_interval(bad)
        with pytest.raises(ValueError):
            mod_interval(np.array([0.0, math.nan]))

    @given(finite_reals)
    def test_idempotent(self, x):
        once = mod_interval(x)
        assert mod_interval(once) == once
        assert -HALF_L <= once < HALF_L

    @given(finite_reals, st.integers(min_value=-1000, max_value=1000))
    def test_periodic_in_L(self, x, m):
        # agreement as points on the circle: x + m*L rounds in floating point,
        # which can flip the half-open boundary side for near-tie inputs
        gap = mod_interval(mod_interval(x + m * L) - mod_interval(x))
        assert abs(gap) < 1e-9


class TestGridOps:
    def test_real_form_on_constellation(self):
        (x,) = grid_real([2], 3)
        assert x == mod_interval(L / 3 * 2)
        assert x == pytest.approx(-L / 3)

    def test_grid_real_matches_scalar_points(self):
        residues = np.arange(7)
        reals = grid_real(residues, 7)
        for r, x in zip(residues, reals):
            assert x == mod_interval(L / 7 * int(r))

    def test_residue_arithmetic_commutes_with_real_domain(self):
        # the 1e4 random-pair drift bound for addition, verbatim
        rng = np.random.default_rng(2024)
        for p in (2, 3, 5, 11, 101):
            a = rng.integers(0, p, size=10_000 // 5)
            b = rng.integers(0, p, size=a.size)
            m = rng.integers(-7, 8, size=a.size)
            sum_grid = grid_real((a + b) % p, p)
            sum_real = mod_interval(grid_real(a, p) + grid_real(b, p))
            assert np.max(np.abs(sum_grid - sum_real)) < 1e-12
            # scaling can land exactly on the +-L/2 boundary (p = 2, odd m),
            # where float rounding picks a side; compare on the circle
            scaled_grid = grid_real((m * a) % p, p)
            scaled_real = mod_interval(m * grid_real(a, p))
            assert np.max(np.abs(mod_interval(scaled_grid - scaled_real))) < 1e-12


def test_uniform_interval_has_unit_power():
    rng = np.random.default_rng(7)
    draws = rng.uniform(-L / 2, L / 2, size=1_000_000)
    assert np.var(draws) == pytest.approx(1.0, rel=0.01)

