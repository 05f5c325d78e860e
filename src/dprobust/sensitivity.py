"""Closed-form error and sensitivity bounds for the filtered mean.

The bounds are dimension-free by construction: none of the functions here
takes the data dimension as input. All logarithms are natural; the
threshold constant C absorbs any base change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RobustConfig:
    """Parameters of the filtering estimator.

    gamma is the corruption fraction, tau the confidence / additive
    privacy term, c_thresh the constant C in the termination threshold
    C * gamma * ln(1/gamma). Removal has no parameters of its own: each
    round removes the one survivor of largest projection.
    """

    gamma: float
    tau: float = 0.05
    c_thresh: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma < 0.5:
            raise ValueError("gamma must lie in (0, 0.5)")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if not (math.isfinite(self.c_thresh) and self.c_thresh > 0.0):
            raise ValueError("c_thresh must be positive and finite")


def kappa(gamma: float) -> float:
    """Combined mean-drift constant gamma/(1-2g) + (sqrt(2)g + sqrt(2g))/(1-2g)."""
    if not 0.0 < gamma < 0.5:
        raise ValueError("gamma must lie in (0, 0.5)")
    denom = 1.0 - 2.0 * gamma
    return gamma / denom + (math.sqrt(2.0) * gamma + math.sqrt(2.0 * gamma)) / denom


def robust_error_bound(gamma: float, c_thresh: float) -> float:
    """Worst-case l2 error of the filtered mean at certificate termination.

    (3 + 2 sqrt(gamma)) * kappa(gamma) + 2 gamma sqrt(C ln(1/gamma)):
    the data-dependent top-eigenvalue term is replaced by the termination
    threshold, so the bound is releasable without touching the data.
    """
    if c_thresh <= 0.0:
        raise ValueError("c_thresh must be positive")
    k = kappa(gamma)
    return (3.0 + 2.0 * math.sqrt(gamma)) * k + 2.0 * gamma * math.sqrt(
        c_thresh * math.log(1.0 / gamma)
    )


def single_point_bound(n: int, c_thresh: float) -> float:
    """robust_error_bound specialized to one corrupted point (gamma = 1/n).

    Evaluates (3 + 2/sqrt(n)) (1 + sqrt(2) + sqrt(2n))/(n - 2)
    + 2 sqrt(C ln n)/n directly; algebraically identical to
    robust_error_bound(1/n, C).
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if c_thresh <= 0.0:
        raise ValueError("c_thresh must be positive")
    nf = float(n)
    lead = (3.0 + 2.0 / math.sqrt(nf)) * (1.0 + math.sqrt(2.0) + math.sqrt(2.0 * nf)) / (nf - 2.0)
    return lead + 2.0 * math.sqrt(c_thresh * math.log(nf)) / nf


def global_sensitivity(robust_error: float) -> float:
    """l2 global sensitivity of the filtered mean: exactly 2 * robust_error."""
    if not (math.isfinite(robust_error) and robust_error > 0.0):
        raise ValueError("robust_error must be positive and finite")
    return 2.0 * robust_error

