"""Formula-level tests for the error/sensitivity bounds.

The expected constants below were computed with the mpmath oracle in
oracle_* (50 decimal digits) before the implementation existed; the oracle
stays in this file so the frozen values remain auditable.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf, sqrt as mpsqrt, log as mplog

from dprobust.sensitivity import (
    RobustConfig,
    global_sensitivity,
    kappa,
    robust_error_bound,
    single_point_bound,
)

mp.dps = 50


def oracle_kappa(g):
    g = mpf(g)
    return g / (1 - 2 * g) + (mpsqrt(2) * g + mpsqrt(2 * g)) / (1 - 2 * g)


def oracle_robust_error(g, c):
    g = mpf(g)
    return (3 + 2 * mpsqrt(g)) * oracle_kappa(g) + 2 * g * mpsqrt(mpf(c) * mplog(1 / g))


def oracle_single_point(n, c):
    n = mpf(n)
    return (3 + 2 / mpsqrt(n)) * ((1 + mpsqrt(2) + mpsqrt(2 * n)) / (n - 2)) + 2 * mpsqrt(
        mpf(c) * mplog(n)
    ) / n


# Frozen from the oracle (50-digit arithmetic, rounded to double precision).
KAPPA_01 = 0.8607936896715843
KAPPA_025 = 2.6213203435596426
REB_01_C1 = 3.4302802258642549
SPB_100_C1 = 0.5835348041536741
SPB_1E6_C1 = 0.0042601589331861527


class TestKappa:
    def test_limit_at_zero(self):
        assert kappa(1e-12) < 1e-5

    def test_frozen_values(self):
        assert float(oracle_kappa("0.1")) == pytest.approx(KAPPA_01, abs=1e-15)
        assert float(oracle_kappa("0.25")) == pytest.approx(KAPPA_025, abs=1e-15)
        assert kappa(0.1) == pytest.approx(KAPPA_01, abs=1e-12)
        assert kappa(0.25) == pytest.approx(KAPPA_025, abs=1e-6)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.5, 0.7, 1.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            kappa(bad)

    @given(
        st.floats(min_value=0.001, max_value=0.489),
        st.floats(min_value=0.0005, max_value=0.009),
    )
    def test_strictly_increasing(self, g, step):
        assert kappa(g) < kappa(g + step)

    @given(st.floats(min_value=0.001, max_value=0.49))
    def test_rearranged_identity(self, g):
        # kappa(g) * (1 - 2g) == g + sqrt(2) g + sqrt(2g)
        lhs = kappa(g) * (1.0 - 2.0 * g)
        rhs = g + math.sqrt(2.0) * g + math.sqrt(2.0 * g)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestRobustErrorBound:
    def test_frozen_value(self):
        assert float(oracle_robust_error("0.1", 1)) == pytest.approx(REB_01_C1, abs=1e-15)
        assert robust_error_bound(0.1, 1.0) == pytest.approx(REB_01_C1, abs=1e-12)

    def test_monotone_in_gamma(self):
        assert robust_error_bound(0.01, 1.0) < robust_error_bound(0.1, 1.0)

    def test_gamma_one_over_n_matches_single_point(self):
        for n in (10, 100, 1000):
            assert robust_error_bound(1.0 / n, 2.0) == pytest.approx(
                single_point_bound(n, 2.0), abs=1e-12
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            robust_error_bound(0.6, 1.0)
        with pytest.raises(ValueError):
            robust_error_bound(0.1, 0.0)


class TestSinglePointBound:
    def test_frozen_value(self):
        assert float(oracle_single_point(100, 1)) == pytest.approx(SPB_100_C1, abs=1e-15)
        assert single_point_bound(100, 1.0) == pytest.approx(SPB_100_C1, abs=1e-5)

    def test_substitution_identity(self):
        for n in (10, 100, 1000, 10_000):
            assert single_point_bound(n, 1.0) == pytest.approx(
                robust_error_bound(1.0 / n, 1.0), abs=1e-12
            )

    def test_decreasing_in_n(self):
        assert single_point_bound(10_000, 1.0) < single_point_bound(1000, 1.0)
        assert single_point_bound(1000, 1.0) < single_point_bound(100, 1.0)

    def test_vanishes_at_large_n(self):
        assert float(oracle_single_point(10**6, 1)) == pytest.approx(SPB_1E6_C1, abs=1e-15)
        assert single_point_bound(10**6, 1.0) < 0.005

    def test_domain(self):
        with pytest.raises(ValueError):
            single_point_bound(2, 1.0)


class TestGlobalSensitivity:
    def test_values(self):
        assert global_sensitivity(1.0) == 2.0
        assert global_sensitivity(3.4302802) == pytest.approx(6.8605604, abs=1e-6)
        assert global_sensitivity(0.5835347) == pytest.approx(1.1670694, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            global_sensitivity(0.0)
        with pytest.raises(ValueError):
            global_sensitivity(-1.0)
        with pytest.raises(ValueError):
            global_sensitivity(float("inf"))


class TestConfigTypes:
    def test_robust_config_validation(self):
        RobustConfig(gamma=0.1, tau=0.05, c_thresh=1.0)
        with pytest.raises(ValueError):
            RobustConfig(gamma=0.5)
        with pytest.raises(ValueError):
            RobustConfig(gamma=0.1, tau=1.0)
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                RobustConfig(gamma=0.1, c_thresh=bad)

    def test_bounds_are_dimension_free(self):
        # Structural: neither signature accepts a dimension.
        import inspect

        assert "d" not in inspect.signature(robust_error_bound).parameters
        assert "d" not in inspect.signature(single_point_bound).parameters
