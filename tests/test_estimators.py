"""End-to-end estimator contracts: formulas, determinism, release modes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dprobust import estimators, filtering
from dprobust.datagen import sample_gaussian
from dprobust.estimators import (
    Method,
    WinsorizeConfig,
    dp_mean,
    dp_robust_mean,
    dp_winsorized_mean,
    winsorized_mean,
)
from dprobust.filtering import SampleSizeWarning
from dprobust.privacy import PrivacyParams, PrivacyRegimeWarning, noise_scale
from dprobust.sensitivity import RobustConfig, robust_error_bound, single_point_bound

# Frozen oracle values (test_sensitivity carries the 50-digit oracle).
VAR_ROBUST_G01 = 303.0075219908986
VAR_PLAIN_N100 = 8.768549102104222

CFG = RobustConfig(gamma=0.1, tau=0.05, c_thresh=1.0)


def clean_data(n=400, d=6, seed=0):
    return sample_gaussian(n, d, 0.0, seed=seed)


@pytest.fixture(autouse=True)
def _quiet_sample_size_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleSizeWarning)
        yield


class TestDpRobustMean:
    def test_noise_variance_frozen(self):
        report = dp_robust_mean(clean_data(), CFG, 1.0, seed=1)
        assert report.noise_variance == pytest.approx(VAR_ROBUST_G01, rel=1e-12)
        assert report.bound_used == pytest.approx(robust_error_bound(0.1, 1.0), rel=1e-15)
        assert report.sensitivity_used == 2.0 * report.bound_used

    def test_epsilon_to_infinity_recovers_robust_mean(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrivacyRegimeWarning)
            report = dp_robust_mean(clean_data(), CFG, 1e9, seed=2, diagnostic=True)
        assert np.max(np.abs(report.private_mean - report.robust_mean)) < 1e-6

    def test_deterministic(self):
        a = dp_robust_mean(clean_data(), CFG, 1.0, seed=5)
        b = dp_robust_mean(clean_data(), CFG, 1.0, seed=5)
        assert np.array_equal(a.private_mean, b.private_mean)

    def test_release_mode_hides_diagnostics(self):
        report = dp_robust_mean(clean_data(), CFG, 1.0, seed=3)
        assert report.robust_mean is None
        assert report.filter_diag is None
        assert report.method is Method.DP_ROBUST

    def test_diagnostic_mode(self):
        report = dp_robust_mean(clean_data(), CFG, 1.0, seed=3, diagnostic=True)
        assert report.robust_mean is not None
        assert report.filter_diag is not None

    def test_variance_matches_mechanism(self):
        report = dp_robust_mean(clean_data(), CFG, 1.0, seed=4)
        spec = noise_scale(report.sensitivity_used, PrivacyParams(1.0, CFG.tau))
        assert report.noise_variance == pytest.approx(spec.variance, rel=1e-12)

    def test_noise_variance_dimension_free(self):
        reports = [
            dp_robust_mean(clean_data(d=d, seed=d), CFG, 1.0, seed=9) for d in (3, 12, 48)
        ]
        assert len({r.noise_variance for r in reports}) == 1


class TestDpMean:
    def test_noise_variance_frozen(self):
        report = dp_mean(clean_data(n=100, d=4, seed=6), 0.05, 1.0, 1.0, seed=6)
        assert report.noise_variance == pytest.approx(VAR_PLAIN_N100, rel=1e-12)
        assert report.bound_used == pytest.approx(single_point_bound(100, 1.0), rel=1e-15)
        assert report.method is Method.DP_PLAIN

    def test_bound_shrinks_with_n(self):
        small = dp_mean(clean_data(n=100, d=3, seed=7), 0.05, 1.0, 1.0, seed=7)
        large = dp_mean(clean_data(n=10_000, d=3, seed=8), 0.05, 1.0, 1.0, seed=8)
        assert large.bound_used < small.bound_used

    def test_matches_robust_at_gamma_one_over_n(self):
        n = 500
        data = clean_data(n=n, d=4, seed=9)
        plain = dp_mean(data, 0.05, 1.0, 1.0, seed=10)
        robust = dp_robust_mean(
            data, RobustConfig(gamma=1.0 / n, tau=0.05, c_thresh=1.0), 1.0, seed=10
        )
        assert plain.bound_used == pytest.approx(robust.bound_used, abs=1e-12)
        assert plain.noise_variance == pytest.approx(robust.noise_variance, abs=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            dp_mean(clean_data(n=2, d=2, seed=1), 0.05, 1.0, 1.0, seed=0)

    def test_clean_input_terminates_quickly(self):
        report = dp_mean(clean_data(n=2000, d=10, seed=11), 0.05, 60.0, 1.0, seed=11, diagnostic=True)
        assert report.filter_diag.iterations <= 2

    def test_immediate_certificate_rate_with_calibrated_c(self):
        from dprobust.filtering import Termination
        from dprobust.harness import calibrate_c

        n, d = 2000, 20
        c = calibrate_c(n, d, 1.0 / n, quantile=0.95, trials=50, seed=60)
        immediate = 0
        for seed in range(100):
            report = dp_mean(
                clean_data(n=n, d=d, seed=6000 + seed), 0.05, c, 1.0, seed=seed, diagnostic=True
            )
            diag = report.filter_diag
            immediate += (
                diag.terminated_by is Termination.CERTIFICATE and diag.iterations == 0
            )
        assert immediate >= 95


class TestDpWinsorizedMean:
    def test_in_range_data_gives_empirical_mean(self):
        data = clean_data(n=200, d=3, seed=12)
        assert np.abs(data).max() < 50.0
        mean = winsorized_mean(data, WinsorizeConfig(range_bound=50.0))
        np.testing.assert_array_equal(mean, data.mean(axis=0))

    # 94 rows at 0 and 6 at R: moving one R row to 0 moved a mean that also
    # clipped at empirical 5% / 95% quantiles by 0.575, 2.9x the claimed 2R/n.
    @example(table=np.array([[0.0]] * 94 + [[10.0]] * 6 + [[0.0]]), i=94, r=10.0)
    @given(
        table=arrays(
            float,
            st.tuples(st.integers(2, 61), st.integers(1, 4)),
            elements=st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
        ),
        i=st.integers(0, 1000),
        r=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200)
    def test_one_row_change_moves_mean_by_at_most_2r_over_n(self, table, i, r):
        # The last row of table replaces row i % n of the n others.
        data, n = table[:-1], table.shape[0] - 1
        neighbour = data.copy()
        neighbour[i % n] = table[-1]
        wcfg = WinsorizeConfig(range_bound=r)
        moved = np.abs(winsorized_mean(data, wcfg) - winsorized_mean(neighbour, wcfg))
        # A running sum of n terms of size <= R, divided by n, is off by at
        # most n * eps * R / 2 to first order, so two such means by n * eps * R.
        assert moved.max() <= 2.0 * r / n + n * np.finfo(float).eps * r

    @given(
        table=arrays(
            float,
            st.tuples(st.integers(2, 300), st.integers(2, 12)),
            elements=st.floats(-1e4, 1e4) | st.sampled_from([0.0, -0.0, 1e-300]),
        ),
        r=st.floats(1e-3, 1e3),
    )
    def test_streamed_clamp_equals_clamped_mean(self, table, r):
        # Blocks of clamped rows summed after a running-sum row add the rows
        # in the order of one axis-0 sum over the whole clamped array.
        wcfg = WinsorizeConfig(range_bound=r)
        assert np.array_equal(winsorized_mean(table, wcfg), np.clip(table, -r, r).mean(axis=0))

    def test_clamping_example(self):
        data = np.array([[-100.0], [0.0], [100.0]])
        report = dp_winsorized_mean(
            data,
            WinsorizeConfig(range_bound=1.0),
            PrivacyParams(1.0, 0.05),
            seed=13,
            diagnostic=True,
        )
        assert report.robust_mean[0] == pytest.approx(0.0, abs=1e-12)

    def test_variance_proportional_to_dimension(self):
        params = PrivacyParams(1.0, 0.05)
        wcfg = WinsorizeConfig(range_bound=10.0)
        v100 = dp_winsorized_mean(clean_data(n=300, d=100, seed=14), wcfg, params, seed=1).noise_variance
        v400 = dp_winsorized_mean(clean_data(n=300, d=400, seed=15), wcfg, params, seed=1).noise_variance
        assert v400 == pytest.approx(4.0 * v100, rel=1e-12)

    def test_sensitivity_formula(self):
        n, d, r = 250, 9, 10.0
        report = dp_winsorized_mean(
            clean_data(n=n, d=d, seed=16),
            WinsorizeConfig(range_bound=r),
            PrivacyParams(1.0, 0.05),
            seed=2,
        )
        assert report.sensitivity_used == pytest.approx(2.0 * r * math.sqrt(d) / n, rel=1e-15)
        assert report.method is Method.DP_WINSORIZED
        assert report.filter_diag is None

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20)
    def test_pre_noise_mean_within_range(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(scale=30.0, size=(50, 3))
        r = 5.0
        mean = winsorized_mean(data, WinsorizeConfig(range_bound=r))
        assert np.all(mean >= -r) and np.all(mean <= r)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WinsorizeConfig(range_bound=-1.0)


class TestCrossMethod:
    def test_winsorized_pays_dimension_robust_does_not(self):
        params = PrivacyParams(1.0, 0.05)
        wcfg = WinsorizeConfig(range_bound=10.0)
        ratios = []
        robust_vars = []
        for d in (10, 40):
            data = clean_data(n=300, d=d, seed=40 + d)
            w = dp_winsorized_mean(data, wcfg, params, seed=3)
            r = dp_robust_mean(data, CFG, 1.0, seed=3)
            ratios.append(w.noise_variance)
            robust_vars.append(r.noise_variance)
        assert ratios[1] == pytest.approx(4.0 * ratios[0], rel=1e-12)
        assert robust_vars[0] == robust_vars[1]


@pytest.mark.parametrize(
    "release",
    [
        lambda seed: dp_robust_mean(clean_data(), CFG, 1.0, seed),
        lambda seed: dp_mean(clean_data(), 0.05, 1.0, 1.0, seed),
        lambda seed: dp_winsorized_mean(clean_data(), WinsorizeConfig(), PrivacyParams(1.0, 0.05), seed),
    ],
    ids=["dp_robust", "dp_plain", "dp_winsorized"],
)
def test_unseeded_releases_differ_and_report_their_seed(release):
    first, second = release(None), release(None)
    assert first.seed != second.seed
    assert not np.array_equal(first.private_mean, second.private_mean)
    # The reported seed is the one the noise was drawn from.
    assert np.array_equal(release(first.seed).private_mean, first.private_mean)


@pytest.mark.parametrize(
    "release",
    [
        lambda: dp_robust_mean(clean_data(), CFG, float("nan"), 0),
        lambda: dp_mean(clean_data(), 0.05, 1.0, float("nan"), 0),
    ],
    ids=["dp_robust", "dp_plain"],
)
def test_epsilon_checked_before_filtering(monkeypatch, release):
    def fail(*args, **kwargs):
        raise AssertionError("the filter ran before epsilon was checked")

    monkeypatch.setattr(estimators, "filter_gaussian_unknown_mean", fail)
    with pytest.raises(ValueError, match="epsilon"):
        release()


RELEASES = {
    "dp_robust": lambda data: dp_robust_mean(data, CFG, 1.0, 0),
    "dp_plain": lambda data: dp_mean(data, 0.05, 1.0, 1.0, 0),
    "dp_winsorized": lambda data: dp_winsorized_mean(data, WinsorizeConfig(), PrivacyParams(1.0, 0.05), 0),
}


@pytest.mark.parametrize("method", RELEASES)
def test_each_release_validates_its_data_once(monkeypatch, method):
    scans = []
    for module in (estimators, filtering):
        check = module.as_dataset
        monkeypatch.setattr(module, "as_dataset", lambda data, _check=check: scans.append(1) or _check(data))
    RELEASES[method](clean_data())
    assert len(scans) == 1


@pytest.mark.parametrize("method", RELEASES)
@pytest.mark.parametrize(
    "data",
    [
        [[1.0, float("nan")]] * 5,
        [[1.0, float("inf")]] * 5,
        np.zeros((5, 2, 2)),
        np.zeros((0, 2)),
        np.zeros((5, 0)),
        3.0,
        [["a", "b"]] * 5,
    ],
    ids=["nan", "inf", "3d", "no_rows", "no_columns", "scalar", "text"],
)
def test_bad_data_is_a_value_error(method, data):
    with pytest.raises(ValueError):
        RELEASES[method](data)
