"""Iterative spectral-filter mean estimator.

Each round measures how far the survivor covariance sticks out above the
identity, and either stops (certificate of robustness: the excess is below
C * gamma * ln(1/gamma)) or projects onto the top direction and removes the
one survivor of largest |projection|, the lowest index on a tie. A survivor
floor of ceil((1 - 2 gamma) n) rows guarantees adversarial inputs cannot
drive the estimator to an empty set.

One row per round is the tail rule of Diakonikolas et al. (arXiv
1703.00893) under that floor. With m survivors the rule's tail set, when it
has one, holds more than its allowed mass 8 exp(-T^2 / 2) + 8 gamma, so more
than 8 gamma m rows, while keeping it needs m - |tail| >= (1 - 2 gamma) n >=
(1 - 2 gamma) m, so at most 2 gamma m rows. No gamma > 0 meets both, so the
floor always cut the set to its largest projection, and a one-row tail set
is that row; the rule has no options and no constants.

A round costs O(d^2) for the removed row plus one O(n d) projection: the
loop keeps the sums of y = x - anchor and of y y^T over the survivors and
subtracts each removed row from them, marks it in a mask over all n rows,
and warm-starts the top eigenpair of a removal round from the previous
round's direction. A warm pair (lam, x) with residual at most tol is the
top one when lam - 2 tol exceeds a bound on the second eigenvalue lambda_2
of sigma - I. The loop keeps lambda_2 and the survivor count m_j from the
solver's last full spectral call, and on m_k survivors bounds lambda_2 by
rho lambda_2 + rho - 1 with rho = m_j / m_k (the linalg module gives the
argument), so a warm pair is kept without a factorization; lambda_2 is
computed afresh only when that bound is too loose.

Downdated sums drift by rounding, so a certificate is only
accepted on moments rebuilt two-pass from the survivors, bit-identical to
empirical_covariance, and solved from the cold start; the noise
calibrated to the certificate bound rests on neither a downdate nor a
warm start. No periodic rebuild is made: on no known input does the
drift change a termination or which rows are removed, so a rebuild
schedule would be a constant with nothing to tune it against.

Validation happens once per kind of input: the data on entry (finite,
(n, d)), and every set of exact moments (round 0 and each rebuild) in
spectral_deviation_pair, which rejects a covariance that overflowed to
non-finite entries. A removal round builds sigma - I in place from the
downdated sums of those same rows, exactly symmetric by construction, and
hands it to the linalg module's private solver without checking it again.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    _power_eigenpair,
    as_dataset,
    empirical_covariance,
    spectral_deviation_pair,
)
from .sensitivity import RobustConfig

class SampleSizeWarning(UserWarning):
    """Raised when n falls below the d / gamma^2 guideline for the filter."""


class Termination(str, Enum):
    CERTIFICATE = "certificate"
    FALLBACK_EXHAUSTED = "fallback_exhausted"


@dataclass(frozen=True)
class FilterDiagnostics:
    iterations: int
    removed_indices: list[int]
    final_spectral_deviation: float
    threshold: float
    terminated_by: Termination


@dataclass(frozen=True)
class FilterOutcome:
    """Survivor mean and how filtering ended."""

    mean: np.ndarray
    diagnostics: FilterDiagnostics


def thresh(gamma: float, c_thresh: float) -> float:
    """Certificate threshold C * gamma * ln(1/gamma)."""
    if not 0.0 < gamma < 0.5:
        raise ValueError("gamma must lie in (0, 0.5)")
    if c_thresh <= 0.0:
        raise ValueError("c_thresh must be positive")
    return c_thresh * gamma * math.log(1.0 / gamma)


def filter_gaussian_unknown_mean(data, cfg: RobustConfig) -> FilterOutcome:
    """Run the filter until the covariance certificate holds.

    Loop: mean, covariance, spectral deviation lambda* of (cov - I); stop
    with CERTIFICATE once lambda* <= thresh(gamma, C) on survivor moments
    rebuilt two-pass, or with FALLBACK_EXHAUSTED when the next removal
    would leave fewer than max(2, ceil((1 - 2 gamma) n)) rows. Every other
    round removes the one survivor of largest |projection| onto the top
    direction, so there are at most n - 2 rounds. The mean of the surviving
    rows is returned in every case.
    """
    arr = as_dataset(data)
    n, d = arr.shape
    if n < 2:
        raise ValueError("filtering requires at least 2 rows")

    guideline = d / cfg.gamma**2
    if n < guideline:
        warnings.warn(
            f"n={n} is below the d/gamma^2 = {guideline:.0f} sample-size guideline; "
            "the certificate may not be reachable",
            SampleSizeWarning,
            stacklevel=2,
        )

    threshold = thresh(cfg.gamma, cfg.c_thresh)
    floor = max(2, math.ceil((1.0 - 2.0 * cfg.gamma) * n))

    # Survivor moments are held as s1 = sum y and s2 = sum y y^T with
    # y = arr - anchor, downdated by each removed row. Each rebuild
    # re-anchors at the survivor mean, where s1 is 0 and sigma comes from
    # empirical_covariance itself; y is dropped first, so at most three
    # (n, d) arrays are alive.
    def rebuild():
        subset = arr[~dead]
        anchor = subset.mean(axis=0)
        sigma = empirical_covariance(subset, anchor)
        return arr - anchor, np.zeros(d), m * sigma, sigma

    # (lambda_2 of sigma - I, survivors) at the solver's last full spectral
    # call; none has been made yet, so the first bound is infinite.
    second = (math.inf, n)

    def rebase(value):
        nonlocal second
        second = (value, m)

    dead = np.zeros(n, dtype=bool)
    m = n
    y, s1, s2, sigma = rebuild()
    exact = True
    removed: list[int] = []
    while True:
        if exact:
            # Exact moments are validated and solved from the cold start, so
            # a certificate rests on the same solve as without the warm start.
            deviation, direction = spectral_deviation_pair(sigma)
        else:
            rho = second[1] / m
            value, direction = _power_eigenpair(sigma_minus_identity, direction, rho * second[0] + rho - 1.0, rebase)
            deviation = max(0.0, value)

        if deviation <= threshold:
            if exact:
                term = Termination.CERTIFICATE
                break
            del y
            y, s1, s2, sigma = rebuild()
            exact = True
            continue

        if m - 1 < floor:
            term = Termination.FALLBACK_EXHAUSTED
            break
        # Dead rows read -1, below every |projection|; the argmax breaks ties
        # to the lowest surviving index.
        proj = np.abs(y @ direction - (s1 / m) @ direction)
        proj[dead] = -1.0
        i = int(np.argmax(proj))

        row = y[i]
        s1 -= row
        # A one-row outer product is exactly symmetric, so s2 and sigma - I
        # stay exactly symmetric.
        s2 -= np.outer(row, row)
        removed.append(i)
        dead[i] = True
        m -= 1
        shift = s1 / m
        sigma_minus_identity = s2 / m
        sigma_minus_identity -= np.outer(shift, shift)
        sigma_minus_identity.flat[:: d + 1] -= 1.0
        exact = False

    diagnostics = FilterDiagnostics(
        iterations=len(removed),
        removed_indices=removed,
        final_spectral_deviation=deviation,
        threshold=threshold,
        terminated_by=term,
    )
    return FilterOutcome(mean=arr[~dead].mean(axis=0), diagnostics=diagnostics)

