"""Differentially private mean estimation in high dimensions.

A spectral-filter robust mean estimator whose certificate of robustness
yields a dimension-free l2 global sensitivity, so Gaussian-mechanism noise
can be calibrated without per-dimension privacy loss; plus a winsorized
baseline and a seeded experiment harness for comparing the two.
"""

from .datagen import (
    Adversary,
    ConstantCluster,
    CorruptionPlan,
    DirectionalSpread,
    GoodnessReport,
    SubtractiveOnly,
    corrupt,
    goodness_check,
    load_dataset_csv,
    sample_gaussian,
    save_dataset_csv,
)
from .estimators import (
    EstimateReport,
    Method,
    WinsorizeConfig,
    dp_mean,
    dp_robust_mean,
    dp_winsorized_mean,
    winsorized_mean,
)
from .filtering import (
    FilterDiagnostics,
    FilterOutcome,
    SampleSizeWarning,
    Termination,
    filter_gaussian_unknown_mean,
    filter_step,
    symmetric_difference_ratio,
    thresh,
)
from .harness import (
    AggregateRow,
    ExperimentConfig,
    TrialRecord,
    calibrate_c,
    derive_seed,
    excess_error_table,
    run_sweep,
    write_records_csv,
)
from .linalg import (
    empirical_covariance,
    empirical_mean,
    max_eigenpair,
    spectral_deviation,
    spectral_norm,
)
from .privacy import (
    NoiseSpec,
    PrivacyParams,
    PrivacyRegimeWarning,
    add_gaussian_noise,
    gaussian_stream,
    noise_scale,
)
from .sensitivity import (
    RobustConfig,
    SensitivityBound,
    bound_for,
    global_sensitivity,
    kappa,
    robust_error_bound,
    single_point_bound,
)

__version__ = "0.1.0"

__all__ = [
    "Adversary",
    "AggregateRow",
    "ConstantCluster",
    "CorruptionPlan",
    "DirectionalSpread",
    "EstimateReport",
    "ExperimentConfig",
    "FilterDiagnostics",
    "FilterOutcome",
    "GoodnessReport",
    "Method",
    "NoiseSpec",
    "PrivacyParams",
    "PrivacyRegimeWarning",
    "RobustConfig",
    "SampleSizeWarning",
    "SensitivityBound",
    "SubtractiveOnly",
    "Termination",
    "TrialRecord",
    "WinsorizeConfig",
    "add_gaussian_noise",
    "bound_for",
    "calibrate_c",
    "corrupt",
    "derive_seed",
    "dp_mean",
    "dp_robust_mean",
    "dp_winsorized_mean",
    "empirical_covariance",
    "empirical_mean",
    "excess_error_table",
    "filter_gaussian_unknown_mean",
    "filter_step",
    "gaussian_stream",
    "goodness_check",
    "global_sensitivity",
    "kappa",
    "load_dataset_csv",
    "max_eigenpair",
    "noise_scale",
    "robust_error_bound",
    "run_sweep",
    "sample_gaussian",
    "save_dataset_csv",
    "single_point_bound",
    "spectral_deviation",
    "spectral_norm",
    "symmetric_difference_ratio",
    "thresh",
    "winsorized_mean",
    "write_records_csv",
]
