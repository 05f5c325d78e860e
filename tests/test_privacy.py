"""Gaussian mechanism: scale formula, determinism, and sampling statistics.

The chi-square acceptance band for the sample variance of 1e5 draws at
variance 4 is [3.92, 4.08]: the normal approximation gives a standard
error of 4 * sqrt(2/1e5) = 0.0179, so the band is a +-4.5 sigma interval,
comfortably wider than a 99% band.
"""

import math

import numpy as np
import pytest

from dprobust.privacy import (
    NoiseSpec,
    PrivacyParams,
    PrivacyRegimeWarning,
    add_gaussian_noise,
    gaussian_stream,
    noise_scale,
)
from dprobust.sensitivity import single_point_bound

# 2 ln(1.25/0.05) * (2 * single_point_bound(100, 1))^2, frozen from the
# 50-digit oracle in test_sensitivity.
VAR_N100_TAU005 = 8.768549102104222


class TestNoiseScale:
    def test_zero_sensitivity(self):
        assert noise_scale(0.0, PrivacyParams(1.0, 0.05)).variance == 0.0

    def test_frozen_example(self):
        sens = 2.0 * single_point_bound(100, 1.0)
        spec = noise_scale(sens, PrivacyParams(1.0, 0.05))
        assert spec.variance == pytest.approx(VAR_N100_TAU005, rel=1e-12)

    def test_doubling_epsilon_quarters_variance(self):
        a = noise_scale(3.0, PrivacyParams(0.5, 0.1)).variance
        b = noise_scale(3.0, PrivacyParams(1.0, 0.1)).variance
        assert b == pytest.approx(a / 4.0, rel=1e-12)

    def test_matches_eight_log_form(self):
        # 2 ln(1.25/tau) (2 b)^2 == 8 ln(1.25/tau) b^2
        bound = 1.7
        spec = noise_scale(2.0 * bound, PrivacyParams(1.0, 0.05))
        assert spec.variance == pytest.approx(
            8.0 * math.log(1.25 / 0.05) * bound**2, rel=1e-12
        )

    def test_negative_sensitivity_rejected(self):
        with pytest.raises(ValueError):
            noise_scale(-0.1, PrivacyParams(1.0, 0.05))

    def test_epsilon_above_one_warns(self):
        with pytest.warns(PrivacyRegimeWarning):
            noise_scale(1.0, PrivacyParams(1.5, 0.05))

    def test_epsilon_one_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            noise_scale(1.0, PrivacyParams(1.0, 0.05))

    def test_dimension_never_enters(self):
        import inspect

        assert "d" not in inspect.signature(noise_scale).parameters

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PrivacyParams(0.0, 0.05)
        with pytest.raises(ValueError):
            PrivacyParams(1.0, 0.0)
        with pytest.raises(ValueError):
            PrivacyParams(1.0, 1.0)

    def test_noise_spec_consistency(self):
        params = PrivacyParams(0.7, 0.02)
        spec = noise_scale(1.3, params, seed=11)
        expected = 2.0 * math.log(1.25 / params.delta) * 1.3**2 / params.epsilon**2
        assert spec.variance == pytest.approx(expected, rel=1e-12)
        assert spec.seed == 11


class TestAddGaussianNoise:
    def test_zero_variance_is_identity(self):
        v = np.array([1.0, -2.5, 3.25])
        out = add_gaussian_noise(v, NoiseSpec(variance=0.0, seed=4))
        assert np.array_equal(out, v)

    def test_deterministic_per_seed(self):
        v = np.linspace(-1, 1, 7)
        spec = NoiseSpec(variance=2.0, seed=123)
        assert np.array_equal(add_gaussian_noise(v, spec), add_gaussian_noise(v, spec))

    def test_sample_variance_in_band(self):
        draws = add_gaussian_noise(
            np.zeros(100_000), NoiseSpec(variance=4.0, seed=2024)
        )
        assert 3.92 <= float(np.var(draws, ddof=1)) <= 4.08

    def test_sample_mean_near_zero(self):
        n = 100_000
        draws = add_gaussian_noise(
            np.zeros(n), NoiseSpec(variance=4.0, seed=77)
        )
        assert abs(float(draws.mean())) <= 4.0 * 2.0 / math.sqrt(n)

    def test_distinct_seeds_distinct_noise(self):
        v = np.zeros(8)
        seen = set()
        for seed in range(1000):
            out = add_gaussian_noise(v, NoiseSpec(variance=1.0, seed=seed))
            seen.add(out.tobytes())
        assert len(seen) == 1000

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError):
            add_gaussian_noise([float("inf")], NoiseSpec(variance=1.0, seed=0))


class TestGaussianStream:
    def test_prefix_stability(self):
        # Draw i depends only on (seed, i): shorter streams are prefixes.
        long = gaussian_stream(9, 64)
        short = gaussian_stream(9, 16)
        assert np.array_equal(long[:16], short)

    def test_distinct_keys(self):
        assert not np.array_equal(gaussian_stream(1, 8), gaussian_stream(2, 8))
