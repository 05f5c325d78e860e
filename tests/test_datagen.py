"""Sampling, corruption adversaries, goodness diagnostic, dataset CSV I/O."""

import numpy as np
import pytest

from dprobust.datagen import (
    ConstantCluster,
    DirectionalSpread,
    SubtractiveOnly,
    corrupt,
    goodness_check,
    load_dataset_csv,
    sample_gaussian,
    save_dataset_csv,
)


class TestSampleGaussian:
    def test_deterministic(self):
        a = sample_gaussian(100, 4, 0.0, seed=5)
        b = sample_gaussian(100, 4, 0.0, seed=5)
        assert np.array_equal(a, b)

    def test_scalar_statistics(self):
        n = 100_000
        data = sample_gaussian(n, 1, 0.0, seed=12)
        assert abs(float(data.mean())) <= 4.0 / np.sqrt(n)
        assert 0.97 <= float(data.var(ddof=1)) <= 1.03

    def test_cross_coordinate_decorrelation(self):
        data = sample_gaussian(100_000, 5, 0.0, seed=8)
        cov = np.cov(data.T)
        off = cov[~np.eye(5, dtype=bool)]
        assert np.max(np.abs(off)) < 0.02

    def test_vector_mean(self):
        mu = np.array([3.0, -1.0, 0.5])
        data = sample_gaussian(50_000, 3, mu, seed=4)
        assert np.max(np.abs(data.mean(axis=0) - mu)) < 0.05
        # A non-finite or wrong-length centre is rejected, not sampled around.
        for bad, message in [(np.nan, "non-finite"), (np.inf, "non-finite"), (mu[:2], "dimension mismatch")]:
            with pytest.raises(ValueError, match=message):
                sample_gaussian(5, 3, bad, seed=0)

    @pytest.mark.parametrize("n,d", [(0, 3), (3, 0), (-1, 2)])
    def test_invalid_sizes(self, n, d):
        with pytest.raises(ValueError):
            sample_gaussian(n, d, 0.0, seed=0)


class TestCorrupt:
    def test_gamma_zero_identity(self):
        data = sample_gaussian(40, 3, 0.0, seed=2)
        out, plan = corrupt(data, 0.0, ConstantCluster(offset=5.0), seed=3)
        assert np.array_equal(out, data)
        assert plan.replaced_indices == []
        assert plan.m_prime == 0

    def test_binomial_replacement_count(self):
        counts = []
        data = sample_gaussian(1000, 2, 0.0, seed=1)
        for seed in range(200):
            _, plan = corrupt(data, 0.1, ConstantCluster(offset=5.0), seed=seed)
            counts.append(plan.m_prime)
        assert abs(float(np.mean(counts)) - 100.0) <= 10.0

    def test_fixed_count_mode(self):
        data = sample_gaussian(1000, 2, 0.0, seed=1)
        _, plan = corrupt(data, 0.1, ConstantCluster(offset=5.0), seed=9, fixed_count=True)
        assert plan.m_prime == 100
        assert len(plan.replaced_indices) == 100

    def test_constant_cluster_mean_shift(self):
        data = sample_gaussian(2000, 4, 0.0, seed=6)
        out, _ = corrupt(data, 0.1, ConstantCluster(offset=10.0), seed=7, fixed_count=True)
        shift = out.mean(axis=0) - data.mean(axis=0)
        assert shift[0] == pytest.approx(0.1 * 10.0, abs=0.15)
        assert np.max(np.abs(shift[1:])) < 0.1

    def test_plan_matches_modified_rows(self):
        data = sample_gaussian(300, 3, 0.0, seed=10)
        out, plan = corrupt(data, 0.15, ConstantCluster(offset=6.0), seed=11)
        changed = sorted(int(i) for i in np.flatnonzero((out != data).any(axis=1)))
        assert changed == plan.replaced_indices
        assert len(plan.replaced_indices) == plan.m_prime
        assert len(set(plan.replaced_indices)) == plan.m_prime

    def test_replacing_adversaries_preserve_shape(self):
        data = sample_gaussian(250, 6, 0.0, seed=21)
        for adversary in (ConstantCluster(offset=4.0), DirectionalSpread(magnitude=5.0)):
            out, _ = corrupt(data, 0.1, adversary, seed=22)
            assert out.shape == data.shape

    def test_directional_spread_direction(self):
        # Planted rows are mu_true + magnitude * e_1, spread by N(0, 0.1^2 I).
        data = sample_gaussian(5000, 3, 0.0, seed=30)
        mu = np.array([1.0, -2.0, 0.5])
        out, plan = corrupt(data, 0.2, DirectionalSpread(magnitude=7.0), seed=31, mu_true=mu)
        spread = out[plan.replaced_indices] - (mu + [7.0, 0.0, 0.0])
        assert plan.m_prime > 900
        assert np.abs(spread.mean(axis=0)).max() <= 0.02
        assert np.allclose(spread.std(axis=0), 0.1, rtol=0.1)

    def test_subtractive_shrinks_n(self):
        data = sample_gaussian(200, 2, 0.0, seed=40)
        out, plan = corrupt(data, 0.1, SubtractiveOnly(), seed=41)
        assert out.shape == (200 - plan.m_prime, 2)
        # Removed rows are the largest in the first coordinate.
        removed = data[plan.replaced_indices]
        assert removed[:, 0].min() >= out[:, 0].max() - 1e-12

    def test_gamma_domain(self):
        data = sample_gaussian(10, 2, 0.0, seed=1)
        with pytest.raises(ValueError):
            corrupt(data, 0.5, ConstantCluster(), seed=0)
        # Non-finite or wrong-length centres and non-finite shifts would
        # plant nan or inf rows.
        for kwargs, adversary, message in [
            ({"mu_true": np.inf}, ConstantCluster(), "non-finite"),
            ({"mu_true": np.zeros(3)}, ConstantCluster(), "dimension mismatch"),
            ({}, ConstantCluster(offset=np.nan), "must be finite"),
            ({}, DirectionalSpread(magnitude=-np.inf), "must be finite"),
            ({}, object(), "unknown adversary"),
        ]:
            with pytest.raises(ValueError, match=message):
                corrupt(data, 0.2, adversary, seed=0, fixed_count=True, **kwargs)


class TestGoodnessCheck:
    def test_large_sample_passes_moment_conditions(self):
        passes_3 = passes_4 = 0
        trials = 100
        for seed in range(trials):
            data = sample_gaussian(50_000, 5, 0.0, seed=seed)
            report = goodness_check(data, 0.0, gamma=0.2, tau=0.05, n_directions=10, seed=seed)
            passes_3 += report.cond3_pass
            passes_4 += report.cond4_pass
        assert passes_3 >= 95
        assert passes_4 >= 95

    def test_failure_rate_within_confidence(self):
        # Conditions 3-4 should fail with frequency at most tau plus slack.
        tau = 0.05
        failures = 0
        trials = 200
        for seed in range(trials):
            data = sample_gaussian(20_000, 5, 0.0, seed=1000 + seed)
            report = goodness_check(data, 0.0, gamma=0.2, tau=tau, n_directions=5, seed=seed)
            failures += not (report.cond3_pass and report.cond4_pass)
        assert failures / trials <= tau + 0.05

    def test_wrong_center_fails_condition_3(self):
        data = sample_gaussian(5000, 4, 0.0, seed=9)
        report = goodness_check(data, np.full(4, 10.0), gamma=0.2, tau=0.05, n_directions=20, seed=9)
        assert not report.cond3_pass

    def test_condition_1_norm_cap(self):
        data = sample_gaussian(5000, 4, 0.0, seed=17)
        report = goodness_check(data, 0.0, gamma=0.2, tau=0.05, n_directions=10, seed=17)
        assert report.cond1_pass
        spiked = data.copy()
        spiked[0] = 100.0
        report = goodness_check(spiked, 0.0, gamma=0.2, tau=0.05, n_directions=10, seed=17)
        assert not report.cond1_pass
        assert report.cond1_max_norm == pytest.approx(200.0, rel=1e-12)

    def test_gap_nonnegative(self):
        data = sample_gaussian(2000, 3, 0.0, seed=14)
        report = goodness_check(data, 0.0, gamma=0.1, tau=0.05, n_directions=50, seed=14)
        assert report.cond2_worst_gap >= 0.0

    def test_domain(self):
        data = sample_gaussian(100, 2, 0.0, seed=1)
        with pytest.raises(ValueError):
            goodness_check(data, 0.0, gamma=0.6, tau=0.05)
        with pytest.raises(ValueError):
            goodness_check(data, 0.0, gamma=0.1, tau=0.0)
        with pytest.raises(ValueError, match="n_directions"):
            goodness_check(data, 0.0, gamma=0.1, tau=0.05, n_directions=0)
        with pytest.raises(ValueError, match="non-finite"):
            goodness_check(data, np.nan, gamma=0.1, tau=0.05)
        with pytest.raises(ValueError, match="dimension mismatch"):
            goodness_check(data, np.zeros(3), gamma=0.1, tau=0.05)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        data = sample_gaussian(25, 4, 0.0, seed=3)
        path = tmp_path / "data.csv"
        save_dataset_csv(data, path)
        loaded = load_dataset_csv(path)
        assert np.array_equal(loaded, data)

    def test_headerless_decimal_format(self, tmp_path):
        path = tmp_path / "tiny.csv"
        save_dataset_csv(np.array([[1.5, -2.0]]), path)
        assert path.read_text() == "1.5,-2.0\n"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset_csv(tmp_path / "nope.csv")
