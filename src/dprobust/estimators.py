"""End-to-end differentially private mean estimators.

Three estimators share one release, _release: each computes a mean whose
worst-case movement under a one-row change is known, and _release adds
Gaussian noise scaled to that movement and builds the report.

- dp_robust_mean: filter at corruption level gamma, noise scaled to the
  dimension-free certificate bound.
- dp_mean: the corruption-free special case gamma = 1/n.
- dp_winsorized_mean: the classical baseline; clamps every coordinate to a
  known range [-R, R] and pays a sqrt(d) factor in sensitivity for it.

Reports carry the pre-noise mean and filter diagnostics only when
diagnostic=True; that output is not privatized and must not be released.
Without a seed, each release draws its noise seed from OS entropy; pass a
seed only for reproducible experiments, since whoever knows it can
regenerate the noise. EstimateReport.seed holds the seed that was used.
"""

from __future__ import annotations

import math
import secrets
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .filtering import FilterDiagnostics, SampleSizeWarning, filter_gaussian_unknown_mean
from .linalg import _block_rows, as_dataset
from .privacy import PrivacyParams, add_gaussian_noise, noise_scale
from .sensitivity import (
    RobustConfig,
    global_sensitivity,
    robust_error_bound,
    single_point_bound,
)


class Method(str, Enum):
    DP_ROBUST = "dp_robust"
    DP_PLAIN = "dp_plain"
    DP_WINSORIZED = "dp_winsorized"


@dataclass(frozen=True)
class WinsorizeConfig:
    """The assumed per-coordinate data range [-R, R]."""

    range_bound: float = 10.0

    def __post_init__(self):
        if not (math.isfinite(self.range_bound) and self.range_bound > 0.0):
            raise ValueError("range_bound must be positive and finite")


@dataclass(frozen=True)
class EstimateReport:
    private_mean: np.ndarray
    robust_mean: np.ndarray | None
    noise_variance: float
    bound_used: float
    sensitivity_used: float
    filter_diag: FilterDiagnostics | None
    seed: int
    method: Method


def _release(
    method: Method,
    mean: np.ndarray,
    bound: float,
    privacy: PrivacyParams,
    seed: int | None,
    diagnostic: bool,
    diag: FilterDiagnostics | None = None,
) -> EstimateReport:
    """Gaussian mechanism on a mean that one changed row moves by at most
    bound: per-coordinate noise calibrated to l2 sensitivity 2 * bound,
    driven by seed, or by a seed from OS entropy when seed is None."""
    seed = secrets.randbits(63) if seed is None else int(seed)
    sens = global_sensitivity(bound)
    spec = noise_scale(sens, privacy, seed=seed)
    return EstimateReport(
        private_mean=add_gaussian_noise(mean, spec),
        robust_mean=mean.copy() if diagnostic else None,
        noise_variance=spec.variance,
        bound_used=bound,
        sensitivity_used=sens,
        filter_diag=diag if diagnostic else None,
        seed=seed,
        method=method,
    )


def _plain_gamma(n: int) -> float:
    """dp_plain's corruption level for n rows, 1/n: the filter assumes no
    corruption beyond the one row a neighbouring dataset changes."""
    return 1.0 / n


def dp_robust_mean(
    data,
    cfg: RobustConfig,
    epsilon: float,
    seed: int | None = None,
    *,
    diagnostic: bool = False,
) -> EstimateReport:
    """Private mean under gamma-corruption.

    Runs the spectral filter, then adds per-coordinate Gaussian noise with
    variance 8 ln(1.25/tau) bound^2 / eps^2 where bound is the certificate
    error bound for (gamma, C). The variance depends on (gamma, tau, C,
    eps) only, never on the data dimension.
    """
    privacy = PrivacyParams(epsilon=epsilon, delta=cfg.tau)
    outcome = filter_gaussian_unknown_mean(data, cfg)
    bound = robust_error_bound(cfg.gamma, cfg.c_thresh)
    return _release(Method.DP_ROBUST, outcome.mean, bound, privacy, seed, diagnostic, outcome.diagnostics)


def dp_mean(
    data,
    tau: float,
    c_thresh: float,
    epsilon: float,
    seed: int | None = None,
    *,
    diagnostic: bool = False,
) -> EstimateReport:
    """Private mean without assumed corruption: filter at gamma = 1/n.

    The d/gamma^2 sample-size diagnostic is suppressed here: it targets the
    adversarial regime and is vacuous at gamma = 1/n.
    """
    # The filter validates the rows; the row count sets gamma before that.
    arr = np.asarray(data, dtype=float)
    n = arr.shape[0] if arr.ndim else 0
    if n < 3:
        raise ValueError("dp_mean requires at least 3 rows")
    cfg = RobustConfig(gamma=_plain_gamma(n), tau=tau, c_thresh=c_thresh)
    privacy = PrivacyParams(epsilon=epsilon, delta=tau)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleSizeWarning)
        outcome = filter_gaussian_unknown_mean(arr, cfg)
    bound = single_point_bound(n, c_thresh)
    return _release(Method.DP_PLAIN, outcome.mean, bound, privacy, seed, diagnostic, outcome.diagnostics)


def winsorized_mean(data, wcfg: WinsorizeConfig) -> np.ndarray:
    """Pre-noise winsorized mean: clamp every coordinate to [-R, R] and
    average. The clamp uses no statistic of the data, so one changed row
    moves each coordinate of the mean by at most 2R/n.

    The rows are clamped a block at a time (linalg's row-block rule) into
    one buffer whose row 0 carries the running sum, so reducing the buffer
    over axis 0 adds the rows one by one, in numpy's own order for an
    axis-0 sum: for d >= 2 the result equals the mean of the whole clamped
    array bit for bit.
    """
    r = wcfg.range_bound
    arr = as_dataset(data)
    n, d = arr.shape
    step = _block_rows(n, d)
    buf = np.empty((step + 1, d))
    np.clip(arr[0], -r, r, out=buf[0])
    for s in range(1, n, step):
        block = arr[s : s + step]
        k = len(block) + 1
        np.clip(block, -r, r, out=buf[1:k])
        buf[0] = np.add.reduce(buf[:k], axis=0)
    return buf[0] / n


def dp_winsorized_mean(
    data,
    wcfg: WinsorizeConfig,
    params: PrivacyParams,
    seed: int | None = None,
    *,
    diagnostic: bool = False,
) -> EstimateReport:
    """Classical baseline: clamped mean plus Gaussian noise.

    One row change moves each clamped coordinate mean by at most 2R/n, so
    the l2 sensitivity is 2 R sqrt(d) / n: the sqrt(d) factor is the
    dimension-dependent privacy cost this baseline pays and the filtered
    estimators avoid.
    """
    arr = np.asarray(data, dtype=float)
    mean = winsorized_mean(arr, wcfg)  # validates arr
    bound = wcfg.range_bound * math.sqrt(mean.size) / arr.shape[0]
    return _release(Method.DP_WINSORIZED, mean, bound, params, seed, diagnostic)
