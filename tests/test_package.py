"""The package root exports the public surface and nothing else."""

import dprobust

PUBLIC = {
    "Adversary", "ConstantCluster", "CorruptionPlan", "DirectionalSpread", "EstimateReport",
    "FilterDiagnostics", "FilterOutcome", "GoodnessReport", "Method", "NoiseSpec",
    "PrivacyParams", "PrivacyRegimeWarning", "RobustConfig", "SampleSizeWarning", "SubtractiveOnly",
    "Termination", "WinsorizeConfig", "add_gaussian_noise", "calibrate_c", "corrupt",
    "dp_mean", "dp_robust_mean", "dp_winsorized_mean", "filter_gaussian_unknown_mean",
    "goodness_check", "kappa", "load_dataset_csv", "robust_error_bound", "sample_gaussian",
    "save_dataset_csv", "single_point_bound",
}


def test_all_is_the_public_surface():
    assert len(dprobust.__all__) == len(PUBLIC) == 31
    assert set(dprobust.__all__) == PUBLIC
    for name in dprobust.__all__:
        assert getattr(dprobust, name) is not None
