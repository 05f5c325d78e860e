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
)
from .filtering import (
    FilterDiagnostics,
    FilterOutcome,
    SampleSizeWarning,
    Termination,
    filter_gaussian_unknown_mean,
)
from .harness import calibrate_c
from .privacy import (
    NoiseSpec,
    PrivacyParams,
    PrivacyRegimeWarning,
    add_gaussian_noise,
)
from .sensitivity import (
    RobustConfig,
    kappa,
    robust_error_bound,
    single_point_bound,
)

__version__ = "0.1.0"

__all__ = [
    "Adversary",
    "ConstantCluster",
    "CorruptionPlan",
    "DirectionalSpread",
    "EstimateReport",
    "FilterDiagnostics",
    "FilterOutcome",
    "GoodnessReport",
    "Method",
    "NoiseSpec",
    "PrivacyParams",
    "PrivacyRegimeWarning",
    "RobustConfig",
    "SampleSizeWarning",
    "SubtractiveOnly",
    "Termination",
    "WinsorizeConfig",
    "add_gaussian_noise",
    "calibrate_c",
    "corrupt",
    "dp_mean",
    "dp_robust_mean",
    "dp_winsorized_mean",
    "filter_gaussian_unknown_mean",
    "goodness_check",
    "kappa",
    "load_dataset_csv",
    "robust_error_bound",
    "sample_gaussian",
    "save_dataset_csv",
    "single_point_bound",
]
