"""Harness: config parsing, seeded sweeps, calibration, aggregation, CSV."""

import math
import warnings

import numpy as np
import pytest

from dprobust.datagen import ConstantCluster, sample_gaussian
from dprobust import harness
from dprobust.estimators import Method
from dprobust.filtering import thresh
from dprobust.harness import (
    ConfigError,
    ExperimentConfig,
    TrialRecord,
    calibrate_c,
    derive_seed,
    excess_error_table,
    load_config,
    parse_config_text,
    read_records_csv,
    records_to_csv,
    run_sweep,
    write_records_csv,
)
from dprobust.linalg import empirical_covariance, empirical_mean, spectral_deviation_pair
from dprobust.privacy import PrivacyParams, noise_scale
from dprobust.sensitivity import single_point_bound

GRID = np.logspace(-2, 4, 301)  # the constants calibrate_c chooses from

BASIC_CONFIG = """
# minimal sweep
n_values = 120
d_values = 3
gamma = 0.1
trials = 1
base_seed = 7
methods = dp_plain
adversary = none
"""


def make_record(method, n, d, trial, l2_error):
    return TrialRecord(
        method=method,
        n=n,
        d=d,
        gamma=0.1,
        epsilon=1.0,
        tau=0.05,
        c_thresh=1.0,
        trial=trial,
        seed=0,
        l2_error=l2_error,
        robust_l2_error=0.0,
        noise_sigma=1.0,
        bound_used=1.0,
        iterations=0,
        removed_count=0,
        terminated_by="",
        runtime_ms=12.5,
    )


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(7, "data", 100, 5, 0) == derive_seed(7, "data", 100, 5, 0)

    def test_distinct_cells(self):
        seeds = {
            derive_seed(7, "method", n, d, t, m)
            for n in (100, 200)
            for d in (3, 4)
            for t in range(3)
            for m in ("dp_plain", "dp_robust")
        }
        assert len(seeds) == 24

    def test_nonnegative_64bit(self):
        s = derive_seed(2**63, "x", 1)
        assert 0 <= s < 2**63


class TestRunSweep:
    def test_single_record(self):
        config = parse_config_text(BASIC_CONFIG)
        records = run_sweep(config)
        assert len(records) == 1
        rec = records[0]
        assert rec.method == "dp_plain"
        assert rec.n == 120 and rec.d == 3 and rec.trial == 0
        assert math.isfinite(rec.l2_error) and rec.l2_error >= 0.0

    def test_rerun_identical_csv(self):
        config = parse_config_text(BASIC_CONFIG)
        a = records_to_csv(run_sweep(config))
        b = records_to_csv(run_sweep(config))
        assert a == b

    def test_noise_sigma_matches_analytic(self):
        config = ExperimentConfig(
            n_values=(150,),
            d_values=(4,),
            trials=2,
            base_seed=3,
            methods=(Method.DP_PLAIN, Method.DP_WINSORIZED),
            adversary=None,
        )
        for rec in run_sweep(config):
            if rec.method == "dp_plain":
                sens = 2.0 * single_point_bound(rec.n, rec.c_thresh)
            else:
                sens = 2.0 * config.winsorize.range_bound * math.sqrt(rec.d) / rec.n
            expected = noise_scale(sens, PrivacyParams(rec.epsilon, rec.tau)).variance
            assert rec.noise_sigma**2 == pytest.approx(expected, abs=1e-9)

    def test_plain_bound_column_dimension_free(self):
        config = ExperimentConfig(
            n_values=(200,),
            d_values=(2, 5, 9),
            trials=1,
            base_seed=11,
            methods=(Method.DP_PLAIN,),
            adversary=None,
        )
        records = run_sweep(config)
        bounds = {r.bound_used for r in records}
        assert bounds == {single_point_bound(200, 1.0)}

    def test_gamma_column_per_method(self):
        config = ExperimentConfig(
            n_values=(160,),
            d_values=(3,),
            trials=1,
            base_seed=2,
            methods=(Method.DP_ROBUST, Method.DP_PLAIN),
            adversary=ConstantCluster(offset=6.0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = run_sweep(config)
        by_method = {r.method: r for r in records}
        assert by_method["dp_robust"].gamma == 0.1
        assert by_method["dp_plain"].gamma == pytest.approx(1.0 / 160)

    def test_terminated_by_column(self):
        config = ExperimentConfig(
            n_values=(2000,),
            d_values=(10,),
            trials=1,
            base_seed=13,
            methods=(Method.DP_ROBUST, Method.DP_PLAIN, Method.DP_WINSORIZED),
            adversary=None,
        )
        records = run_sweep(config)
        by_method = {r.method: r.terminated_by for r in records}
        assert by_method == {
            "dp_robust": "certificate",
            "dp_plain": "fallback_exhausted",
            "dp_winsorized": "",
        }
        header, *rows = records_to_csv(records).strip().split("\n")
        assert header.split(",")[-2:] == ["terminated_by", "runtime_ms"]
        assert [row.split(",")[-2] for row in rows] == ["certificate", "fallback_exhausted", ""]

    def test_failed_trial_marker_row(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(harness, "dp_mean", fail)
        with pytest.warns(UserWarning, match="trial failed"):
            (rec,) = run_sweep(parse_config_text(BASIC_CONFIG))
        assert all(math.isnan(v) for v in (rec.l2_error, rec.robust_l2_error, rec.noise_sigma, rec.bound_used))
        assert (rec.iterations, rec.removed_count, rec.terminated_by) == (-1, -1, "")
        assert (rec.method, rec.n, rec.d, rec.trial) == ("dp_plain", 120, 3, 0)
        assert (rec.epsilon, rec.tau, rec.c_thresh) == (1.0, 0.05, 1.0)
        assert rec.gamma == 1.0 / 120
        assert rec.seed == derive_seed(7, "method", 120, 3, 0, "dp_plain")
        assert rec.runtime_ms >= 0.0

    def test_calibrated_c_per_cell(self):
        config = parse_config_text(BASIC_CONFIG.replace("d_values = 3", "d_values = 2,4") + "c_thresh = calibrate\n")
        records = run_sweep(config)
        assert len(records) == 2
        for rec in records:
            assert rec.c_thresh == calibrate_c(rec.n, rec.d, config.gamma, trials=30, seed=config.base_seed)
        assert records[0].c_thresh != records[1].c_thresh

    def test_only_dp_robust_sees_corrupted_input(self, monkeypatch):
        seen = {}

        def recorded(name, release):
            def run(data, *args, **kwargs):
                seen[name] = data
                return release(data, *args, **kwargs)
            return run

        for name in ("dp_robust_mean", "dp_mean", "dp_winsorized_mean"):
            monkeypatch.setattr(harness, name, recorded(name, getattr(harness, name)))
        config = ExperimentConfig(
            n_values=(400,), d_values=(2,), gamma=0.2, base_seed=5,
            adversary=ConstantCluster(offset=9.0), fixed_count_corruption=True,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_sweep(config)
        clean = sample_gaussian(400, 2, 0.0, seed=derive_seed(5, "data", 400, 2, 0))
        assert np.array_equal(seen["dp_mean"], clean)
        assert np.array_equal(seen["dp_winsorized_mean"], clean)
        assert np.sum((seen["dp_robust_mean"] != clean).any(axis=1)) == 80


class TestCalibrateC:
    def test_quantile_monotone(self):
        kwargs = dict(n=300, d=6, gamma=0.1, trials=20, seed=4)
        assert calibrate_c(quantile=0.6, **kwargs) <= calibrate_c(quantile=0.95, **kwargs)

    def test_larger_n_smaller_c(self):
        c_small = calibrate_c(n=300, d=10, gamma=0.1, quantile=0.9, trials=20, seed=5)
        c_large = calibrate_c(n=3000, d=10, gamma=0.1, quantile=0.9, trials=20, seed=5)
        assert c_large <= c_small

    def test_at_least_grid_minimum(self):
        c = calibrate_c(n=5000, d=2, gamma=0.3, quantile=0.9, trials=10, seed=6)
        assert c >= 0.01 and c in GRID

    def test_unreachable_quantile_warns(self):
        # Three rows in d = 300 deviate by about d / 3, above even
        # thresh(0.001, 1e4), about 69.
        with pytest.warns(UserWarning, match="unreachable"):
            c = calibrate_c(n=3, d=300, gamma=0.001, quantile=0.95, trials=10, seed=7)
        assert c == GRID[-1] == pytest.approx(1e4)

    def test_quantile_domain(self):
        with pytest.raises(ValueError):
            calibrate_c(n=100, d=2, gamma=0.1, quantile=0.4, trials=5, seed=0)

    @pytest.mark.parametrize(
        "n,d,gamma,quantile,trials,seed",
        [
            (300, 6, 0.1, 0.95, 20, 4),  # k / trials = 19 / 20 meets 0.95 exactly
            (200, 3, 0.25, 0.9, 7, 11),
            (50, 20, 0.01, 0.99, 1, 3),
            (400, 5, 0.1, 0.6, 13, 8),
            (100, 8, 0.1, 0.95, 10, 7),
            (3, 300, 0.001, 0.95, 5, 7),  # no grid C passes
        ],
    )
    def test_matches_linear_scan(self, n, d, gamma, quantile, trials, seed):
        deviations = []
        for t in range(trials):
            data = sample_gaussian(n, d, 0.0, seed=derive_seed(seed, "calibrate", n, d, t))
            deviations.append(spectral_deviation_pair(empirical_covariance(data, empirical_mean(data)))[0])
        passing = [c for c in GRID if np.mean(np.array(deviations) <= thresh(gamma, c)) >= quantile]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            c = calibrate_c(n, d, gamma, quantile, trials, seed)
        if passing:
            assert c == passing[0] and not caught
        else:
            assert c == GRID[-1]
            assert any("unreachable" in str(w.message) for w in caught)

    @pytest.mark.parametrize(
        "bad",
        [{"gamma": 0.6}, {"gamma": float("nan")}, {"n": 1}, {"d": 0}, {"quantile": 1.0}, {"trials": 0}]
        # The open ends of each range.
        + [{"gamma": 0.0}, {"gamma": 0.5}, {"quantile": 0.5}, {"quantile": float("nan")}, {"trials": -1}],
    )
    def test_arguments_checked_before_sampling(self, monkeypatch, bad):
        def no_sampling(*args, **kwargs):
            raise AssertionError("calibrate_c sampled before checking its arguments")

        monkeypatch.setattr(harness, "sample_gaussian", no_sampling)
        kwargs = dict(n=100, d=2, gamma=0.1, quantile=0.95, trials=5, seed=0) | bad
        with pytest.raises(ConfigError):
            calibrate_c(**kwargs)


class TestExcessErrorTable:
    def test_identical_methods_zero_excess(self):
        records = [
            make_record("dp_robust", 100, 5, t, 2.0) for t in range(3)
        ] + [
            make_record("dp_winsorized", 100, 5, t, 2.0) for t in range(3)
        ]
        rows = excess_error_table(records)
        assert len(rows) == 1
        assert rows[0].excess_l2 == 0.0

    def test_hand_built_medians(self):
        records = [
            make_record("dp_robust", 100, 5, 0, 1.0),
            make_record("dp_robust", 100, 5, 1, 3.0),
            make_record("dp_robust", 100, 5, 2, 10.0),
            make_record("dp_winsorized", 100, 5, 0, 4.0),
            make_record("dp_winsorized", 100, 5, 1, 8.0),
            make_record("dp_winsorized", 100, 5, 2, 6.0),
        ]
        row = excess_error_table(records)[0]
        assert row.medians["dp_robust"] == 3.0
        assert row.medians["dp_winsorized"] == 6.0
        assert row.excess_l2 == 3.0
        assert row.iqrs["dp_robust"] == pytest.approx(4.5)
        assert row.means["dp_winsorized"] == pytest.approx(6.0)

    def test_row_count(self):
        records = [
            make_record("dp_plain", n, d, t, 1.0)
            for n in (100, 200)
            for d in (2, 3, 4)
            for t in range(2)
        ]
        assert len(excess_error_table(records)) == 6

    def test_unpaired_skipped_with_warning(self):
        records = [
            make_record("dp_robust", 100, 5, 0, 1.0),
            make_record("dp_robust", 100, 5, 1, 5.0),
            make_record("dp_winsorized", 100, 5, 0, 2.0),
        ]
        with pytest.warns(UserWarning, match="unpaired"):
            row = excess_error_table(records)[0]
        assert row.medians["dp_robust"] == 1.0
        assert row.excess_l2 == 1.0

    def test_failed_trials_excluded(self):
        records = [
            make_record("dp_plain", 100, 5, 0, float("nan")),
            make_record("dp_plain", 100, 5, 1, 2.0),
        ]
        with pytest.warns(UserWarning, match="unpaired"):
            row = excess_error_table(records)[0]
        assert row.medians["dp_plain"] == 2.0


class TestConfigParsing:
    def test_full_config(self):
        text = """
        n_values = 100,1000
        d_values = 10, 20
        gamma = 0.2
        epsilon = 0.5
        tau = 0.1
        c_thresh = 2.0
        trials = 4
        base_seed = 99
        methods = dp_robust, dp_winsorized
        winsorize_range_bound = 5.0
        adversary = directional_spread
        adversary_magnitude = 12.0
        fixed_count_corruption = true
        """
        config = parse_config_text(text)
        assert config.n_values == (100, 1000)
        assert config.d_values == (10, 20)
        assert config.gamma == 0.2
        assert config.epsilon == 0.5
        assert config.trials == 4
        assert config.methods == (Method.DP_ROBUST, Method.DP_WINSORIZED)
        assert config.winsorize.range_bound == 5.0
        assert config.adversary.magnitude == 12.0
        assert config.fixed_count_corruption

    def test_unknown_key(self):
        # winsorize_alpha set a trim level that the winsorized baseline no
        # longer has; corrupt_all fed corrupted input to every method.
        for line in ("bogus = 1", "winsorize_alpha = 0.05", "corrupt_all = false"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config_text(f"n_values = 10\nd_values = 2\n{line}\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("n_values = 10\nn_values = 20\nd_values = 2\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            parse_config_text("gamma = 0.1\n")

    def test_bad_method(self):
        with pytest.raises(ConfigError, match="unknown method"):
            parse_config_text("n_values = 10\nd_values = 2\nmethods = dp_magic\n")

    def test_bad_adversary(self):
        with pytest.raises(ConfigError, match="unknown adversary"):
            parse_config_text("n_values = 10\nd_values = 2\nadversary = alien\n")

    @pytest.mark.parametrize(
        "kwargs",
        [{"methods": ("dp_plain",), "adversary": None}, {"adversary": "constant_cluster"}],
        ids=["method_name", "adversary_name"],
    )
    def test_config_rejects_names_for_members(self, kwargs):
        # run_sweep would crash on these outside its marker-row guard.
        with pytest.raises(ConfigError, match="methods|adversary"):
            ExperimentConfig(n_values=(100,), d_values=(3,), **kwargs)

    def test_invalid_gamma(self):
        with pytest.raises(ConfigError):
            parse_config_text("n_values = 10\nd_values = 2\ngamma = 0.9\n")

    @pytest.mark.parametrize("key", ["epsilon", "c_thresh"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"n_values = 10\nd_values = 2\n{key} = {value}\n")

    @pytest.mark.parametrize("value", ["big", "nan", "inf", "-inf"])
    def test_bad_adversary_magnitude(self, value):
        with pytest.raises(ConfigError, match="magnitude|invalid value"):
            parse_config_text(f"n_values = 10\nd_values = 2\nadversary_magnitude = {value}\n")

    @pytest.mark.parametrize(
        "text",
        [
            "n_values = 120,120\nd_values = 3\n",
            "n_values = 120\nd_values = 3,3\n",
            "n_values = 120\nd_values = 3\nmethods = dp_robust,dp_robust\n",
        ],
    )
    def test_repeated_sweep_value(self, text):
        with pytest.raises(ConfigError, match="repeat"):
            parse_config_text(text)

    def test_calibrate_value(self):
        config = parse_config_text("n_values = 10\nd_values = 2\nc_thresh = calibrate\n")
        assert config.c_thresh is None
        with pytest.raises(ConfigError):
            parse_config_text("n_values = 10\nd_values = 2\ngamma = calibrate\n")


class TestLoadConfig:
    def test_seed_precedence(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(BASIC_CONFIG)
        assert load_config(path).base_seed == 7
        assert load_config(path, seed_override=99).base_seed == 99


class TestRecordsCsv:
    def test_header_is_fixed(self):
        header = records_to_csv([]).rstrip("\n")
        assert header == (
            "method,n,d,gamma,epsilon,tau,c_thresh,trial,seed,l2_error,robust_l2_error,"
            "noise_sigma,bound_used,iterations,removed_count,terminated_by,runtime_ms"
        )

    def test_runtime_blank_by_default(self):
        csv = records_to_csv([make_record("dp_plain", 10, 2, 0, 1.5)])
        header, row = csv.strip().split("\n")
        assert header.endswith("runtime_ms")
        assert row.endswith(",")

    def test_timings_mode(self):
        csv = records_to_csv([make_record("dp_plain", 10, 2, 0, 1.5)], include_timings=True)
        assert csv.strip().split("\n")[1].endswith("12.5")

    def test_roundtrip_floats(self):
        rec = make_record("dp_plain", 10, 2, 0, 1.0 / 3.0)
        row = records_to_csv([rec]).strip().split("\n")[1]
        assert repr(1.0 / 3.0) in row

    def test_read_back(self, tmp_path):
        rec = make_record("dp_plain", 10, 2, 0, 1.0 / 3.0)
        marker = make_record("dp_robust", 10, 2, 0, float("nan"))
        path = tmp_path / "records.csv"
        write_records_csv([rec, marker], path, include_timings=True)
        back, back_marker = read_records_csv(path)
        assert back == rec
        assert back_marker.method == "dp_robust" and math.isnan(back_marker.l2_error)
        write_records_csv([rec], path)
        assert math.isnan(read_records_csv(path)[0].runtime_ms)

    def test_read_rejects_other_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("n,d\n1,2\n")
        with pytest.raises(ConfigError, match="not a records CSV"):
            read_records_csv(path)

    @pytest.mark.parametrize(
        "body, line",
        [
            ("", 1),
            ("dp_plain,10,2\n", 2),
            ("dp_plain,ten,2,0.1,1.0,0.05,1.0,0,0,1.5,0.0,1.0,1.0,0,0,,\n", 2),
            ("\xff\xfe", 2),
        ],
        ids=["empty", "short_row", "non_integer_n", "not_ascii"],
    )
    def test_read_rejects_malformed_records(self, tmp_path, body, line):
        path = tmp_path / "records.csv"
        header = records_to_csv([]) if body else ""
        path.write_bytes((header + body).encode("latin-1"))
        with pytest.raises(ConfigError, match=f"records.csv, line {line}: "):
            read_records_csv(path)
