"""Gaussian mechanism: noise-scale calibration and seeded noise addition.

The per-coordinate noise variance 2 ln(1.25/delta) Delta^2 / eps^2 depends
only on the privacy budget and the l2 sensitivity Delta, never on the
dimension of the vector being released; that is the whole point of pairing
the mechanism with a dimension-free sensitivity bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import as_vector


class PrivacyRegimeWarning(UserWarning):
    """Raised when epsilon exceeds the classical validity regime (eps > 1)."""


@dataclass(frozen=True)
class PrivacyParams:
    """(epsilon, delta) privacy-loss budget.

    delta doubles as the filtering confidence level tau: the additive
    privacy term of the end-to-end estimators is exactly the probability
    that the robust-error certificate fails.
    """

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be positive and finite")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class NoiseSpec:
    """Per-coordinate Gaussian noise variance plus the seed that drives it."""

    variance: float
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.variance) and self.variance >= 0.0):
            raise ValueError("variance must be nonnegative and finite")


def noise_scale(sensitivity: float, params: PrivacyParams, seed: int = 0) -> NoiseSpec:
    """Gaussian-mechanism variance 2 ln(1.25/delta) * sensitivity^2 / epsilon^2.

    With sensitivity = 2 * bound this equals 8 ln(1.25/delta) bound^2 / eps^2,
    the variance the end-to-end estimators advertise.
    """
    if not (math.isfinite(sensitivity) and sensitivity >= 0.0):
        raise ValueError("sensitivity must be nonnegative and finite")
    if params.epsilon > 1.0:
        warnings.warn(
            f"epsilon={params.epsilon} exceeds 1; the classical Gaussian-mechanism "
            "analysis assumes epsilon <= 1",
            PrivacyRegimeWarning,
            stacklevel=2,
        )
    variance = 2.0 * math.log(1.25 / params.delta) * sensitivity**2 / params.epsilon**2
    return NoiseSpec(variance=variance, seed=int(seed))


def gaussian_stream(seed: int, count: int) -> np.ndarray:
    """count i.i.d. standard normals from a counter-based stream keyed by seed.

    Philox is counter-based, so the draw at index i is a pure function of
    (seed, i): the same seed always reproduces the same stream regardless
    of platform or of how much of it is consumed.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF)))
    return rng.standard_normal(count)


def add_gaussian_noise(value, spec: NoiseSpec) -> np.ndarray:
    """value + i.i.d. N(0, spec.variance) per coordinate, deterministic in spec.seed.

    Zero variance returns the input exactly (no stream consumption), so the
    eps -> infinity limit is bit-exact.
    """
    vec = as_vector(value)
    if spec.variance == 0.0:
        return vec.copy()
    noise = math.sqrt(spec.variance) * gaussian_stream(spec.seed, vec.size)
    return vec + noise
