"""The package root exports the public surface and nothing else, and the
public settings are pinned: a new field or parameter fails here until this
file is updated with it."""

import dataclasses
import inspect

import dprobust
from dprobust import harness

PUBLIC = {
    "Adversary", "ConstantCluster", "CorruptionPlan", "DirectionalSpread", "EstimateReport",
    "FilterDiagnostics", "FilterOutcome", "GoodnessReport", "Method", "NoiseSpec",
    "PrivacyParams", "PrivacyRegimeWarning", "RobustConfig", "SampleSizeWarning", "SubtractiveOnly",
    "Termination", "WinsorizeConfig", "add_gaussian_noise", "calibrate_c", "corrupt",
    "dp_mean", "dp_robust_mean", "dp_winsorized_mean", "filter_gaussian_unknown_mean",
    "goodness_check", "kappa", "load_dataset_csv", "robust_error_bound", "sample_gaussian",
    "save_dataset_csv", "single_point_bound",
}

FIELDS = {
    "ConstantCluster": ("offset",),
    "CorruptionPlan": ("gamma", "adversary", "replaced_indices", "m_prime"),
    "DirectionalSpread": ("magnitude",),
    "EstimateReport": (
        "private_mean", "robust_mean", "noise_variance", "bound_used", "sensitivity_used",
        "filter_diag", "seed", "method",
    ),
    "ExperimentConfig": (
        "n_values", "d_values", "gamma", "epsilon", "tau", "c_thresh", "trials", "base_seed",
        "methods", "winsorize", "adversary", "fixed_count_corruption",
    ),
    "FilterDiagnostics": (
        "iterations", "removed_indices", "final_spectral_deviation", "threshold", "terminated_by",
    ),
    "FilterOutcome": ("mean", "diagnostics"),
    "GoodnessReport": (
        "cond1_max_norm", "cond1_pass", "cond2_worst_gap", "cond2_pass",
        "cond3_mean_error", "cond3_pass", "cond4_cov_deviation", "cond4_pass",
    ),
    "NoiseSpec": ("variance", "seed"),
    "PrivacyParams": ("epsilon", "delta"),
    "RobustConfig": ("gamma", "tau", "c_thresh"),
    "SubtractiveOnly": (),
    "WinsorizeConfig": ("range_bound",),
}

PARAMETERS = {
    "calibrate_c": ("n", "d", "gamma", "quantile", "trials", "seed"),
    "corrupt": ("data", "gamma", "adversary", "seed", "mu_true", "fixed_count"),
    "goodness_check": ("data", "mu_true", "gamma", "tau", "n_directions", "seed"),
    "sample_gaussian": ("n", "d", "mu", "seed"),
}


def test_all_is_the_public_surface():
    assert len(dprobust.__all__) == len(PUBLIC) == 31
    assert set(dprobust.__all__) == PUBLIC
    for name in dprobust.__all__:
        assert getattr(dprobust, name) is not None


def test_dataclass_fields_are_pinned():
    classes = {name: getattr(dprobust, name) for name in dprobust.__all__}
    classes["ExperimentConfig"] = harness.ExperimentConfig
    found = {
        name: tuple(f.name for f in dataclasses.fields(cls))
        for name, cls in classes.items()
        if dataclasses.is_dataclass(cls)
    }
    assert found == FIELDS


def test_function_parameters_are_pinned():
    found = {name: tuple(inspect.signature(getattr(dprobust, name)).parameters) for name in PARAMETERS}
    assert found == PARAMETERS
