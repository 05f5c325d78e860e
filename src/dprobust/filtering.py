"""Iterative spectral-filter mean estimator.

Each round measures how far the survivor covariance sticks out above the
identity, and either stops (certificate of robustness: the excess is below
C * gamma * ln(1/gamma)) or projects onto the top direction and removes the
most extreme tail. A survivor floor of ceil((1 - 2 gamma) n) rows
guarantees adversarial inputs cannot drive the estimator to an empty set.

The tail rule is that of Diakonikolas et al. (arXiv 1703.00893) with the
fixed constants TAIL_COEFFICIENT and TAIL_SLACK (see _tail_removal); it
has no options.

A round costs O(k d^2) for the k rows it removes plus one O(n d)
projection: the loop keeps the sums of y = x - anchor and of y y^T over the
survivors and subtracts each round's removed rows from them, the top
eigenpair of a removal round is warm-started from the previous round's
direction, and only the projections that can be the tail threshold are
sorted. Downdated sums drift by rounding, so a certificate is only
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

TAIL_COEFFICIENT = 8.0
TAIL_SLACK = 8.0


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
    """Survivor mean, the surviving rows, and how filtering ended."""

    mean: np.ndarray
    surviving: np.ndarray
    diagnostics: FilterDiagnostics


def thresh(gamma: float, c_thresh: float) -> float:
    """Certificate threshold C * gamma * ln(1/gamma)."""
    if not 0.0 < gamma < 0.5:
        raise ValueError("gamma must lie in (0, 0.5)")
    if c_thresh <= 0.0:
        raise ValueError("c_thresh must be positive")
    return c_thresh * gamma * math.log(1.0 / gamma)


def _tail_removal(proj: np.ndarray, gamma: float) -> np.ndarray:
    """Indices into proj that the tail rule removes, ascending.

    The threshold T is the smallest projection whose strict tail is
    heavier than a good Gaussian sample allows, |{i : p_i > T}| / n >
    TAIL_COEFFICIENT * exp(-T^2 / 2) + TAIL_SLACK * gamma, and every index
    with p_i > T is removed. When no projection qualifies, the single
    largest projection is returned so the loop always makes progress;
    ties resolve to the lowest index.
    """
    n = proj.size

    def allowed(t):
        return TAIL_COEFFICIENT * np.exp(-0.5 * np.square(t)) + TAIL_SLACK * gamma

    # A strict tail holds at most n - 1 of n rows, so only a value with
    # allowed < 1 can be the threshold; allowed never increases with T, so
    # these are the largest projections. Every projection above one of them
    # is at least the smallest of them, so sorting from there gives the same
    # strict tail counts as sorting all n.
    below = allowed(proj) < 1.0
    if below.any():
        cand = np.sort(proj[proj >= proj[below].min()])
        # Strict-tail count for candidate T = cand[j]: everything to the
        # right of the last occurrence of that value.
        tail_counts = cand.size - np.searchsorted(cand, cand, side="right")
        hits = np.flatnonzero(tail_counts / n > allowed(cand))
        if hits.size:
            return np.flatnonzero(proj > cand[hits[0]])
    return np.array([np.argmax(proj)])


def filter_gaussian_unknown_mean(data, cfg: RobustConfig) -> FilterOutcome:
    """Run the filter until the covariance certificate holds.

    Loop: mean, covariance, spectral deviation lambda* of (cov - I); stop
    with CERTIFICATE once lambda* <= thresh(gamma, C) on survivor moments
    rebuilt two-pass, or with FALLBACK_EXHAUSTED when the next removal
    would leave fewer than max(2, ceil((1 - 2 gamma) n)) rows. A tail set
    that would breach that floor is replaced by the single row of largest
    projection, and the run ends only when removing that row, too, would
    breach it. Every round removes at least one row, so there are at most
    n - 2 rounds. The mean of the surviving rows is returned in every case.
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
    # y = arr - anchor, downdated by each round's removed rows. Each rebuild
    # re-anchors at the survivor mean, where s1 is 0 and sigma comes from
    # empirical_covariance itself; y is dropped first, so at most three
    # (n, d) arrays are alive.
    def rebuild(alive):
        subset = arr[alive]
        anchor = subset.mean(axis=0)
        sigma = empirical_covariance(subset, anchor)
        return arr - anchor, np.zeros(d), alive.size * sigma, sigma

    alive = np.arange(n)
    y, s1, s2, sigma = rebuild(alive)
    exact = True
    removed: list[int] = []
    iterations = 0
    while True:
        if exact:
            # Exact moments are validated and solved from the cold start, so
            # a certificate rests on the same solve as without the warm start.
            deviation, direction = spectral_deviation_pair(sigma)
        else:
            value, direction = _power_eigenpair(sigma_minus_identity, direction)
            deviation = max(0.0, value)

        if deviation <= threshold:
            if exact:
                term = Termination.CERTIFICATE
                break
            del y
            y, s1, s2, sigma = rebuild(alive)
            exact = True
            continue

        shift = s1 / alive.size
        proj = np.abs((y @ direction)[alive] - shift @ direction)
        local = _tail_removal(proj, cfg.gamma)
        if alive.size - local.size < floor and local.size > 1:
            # A few far outliers move the mean so that every clean row sits
            # in the tail: remove only the most extreme row.
            local = np.array([np.argmax(proj)])
        if alive.size - local.size < floor:
            term = Termination.FALLBACK_EXHAUSTED
            break

        gone = alive[local]
        rows = y[gone]
        s1 -= rows.sum(axis=0)
        s2 -= rows.T @ rows
        removed.extend(gone.tolist())
        alive = np.delete(alive, local)
        # s2 stays exactly symmetric (numpy forms rows.T @ rows as a
        # symmetric rank-k update), and so does sigma - I.
        shift = s1 / alive.size
        sigma_minus_identity = s2 / alive.size
        sigma_minus_identity -= np.outer(shift, shift)
        sigma_minus_identity.flat[:: d + 1] -= 1.0
        exact = False
        iterations += 1

    surviving = arr[alive]
    diagnostics = FilterDiagnostics(
        iterations=iterations,
        removed_indices=removed,
        final_spectral_deviation=deviation,
        threshold=threshold,
        terminated_by=term,
    )
    return FilterOutcome(mean=surviving.mean(axis=0), surviving=surviving, diagnostics=diagnostics)

