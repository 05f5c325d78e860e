"""Iterative spectral-filter mean estimator.

Each round measures how far the survivor covariance sticks out above the
identity, and either stops (certificate of robustness: the excess is below
C * gamma * ln(1/gamma)) or projects onto the top direction and removes the
most extreme tail. A survivor floor of ceil((1 - 2 gamma) n) rows
guarantees adversarial inputs cannot drive the estimator to an empty set.

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
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    as_dataset,
    as_unit_vector,
    as_vector,
    empirical_covariance,
    spectral_deviation_pair,
)
from .sensitivity import RobustConfig


class SampleSizeWarning(UserWarning):
    """Raised when n falls below the d / gamma^2 guideline for the filter."""


class Termination(str, Enum):
    CERTIFICATE = "certificate"
    FALLBACK_EXHAUSTED = "fallback_exhausted"
    MAX_ITERATIONS = "max_iterations"


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


def _tail_slack(
    t: np.ndarray,
    gamma: float,
    slack_coefficient: float,
    tau_dependent: bool,
    tau: float,
    d: int,
) -> np.ndarray:
    if not tau_dependent:
        return np.full_like(t, slack_coefficient * gamma)
    # T-dependent alternative: slack_coefficient * gamma / (T^2 ln(d ln(d/(gamma tau)))).
    inner = d * math.log(d / (gamma * tau))
    denom_log = math.log(inner) if inner > 1.0 else float("inf")
    # Near T = 0 the slack is unbounded; a tiny T overflows to inf, as T = 0 gives.
    with np.errstate(divide="ignore", over="ignore"):
        out = slack_coefficient * gamma / (np.square(t) * denom_log)
    out[t <= 0.0] = float("inf")
    return out


def filter_step(
    data,
    mu,
    v,
    gamma: float,
    *,
    tail_coefficient: float = 8.0,
    tail_slack_coefficient: float = 8.0,
    tau_dependent: bool = False,
    tau: float = 0.05,
) -> list[int]:
    """Indices to remove after projecting data onto the direction v.

    Projections are p_i = |v . (x_i - mu)|. The removal threshold T is the
    smallest projection value whose strict tail is heavier than a good
    Gaussian sample allows, i.e. |{i : p_i > T}| / n exceeds
    tail_coefficient * exp(-T^2 / 2) + slack, where slack is the flat
    tail_slack_coefficient * gamma by default. All indices with p_i > T are
    removed. When no projection value qualifies, the single index with the
    largest projection is returned so the caller always makes progress;
    ties resolve to the lowest index.
    """
    arr = as_dataset(data)
    n, d = arr.shape
    mu_vec = as_vector(mu, dim=d)
    v_vec = as_unit_vector(v, d)
    if not 0.0 <= gamma < 0.5:
        raise ValueError("gamma must lie in [0, 0.5)")
    proj = np.abs((arr - mu_vec) @ v_vec)
    local = _tail_removal(
        proj, gamma, d, tail_coefficient, tail_slack_coefficient, tau_dependent, tau
    )
    return [int(i) for i in local]


def _tail_removal(
    proj: np.ndarray,
    gamma: float,
    d: int,
    tail_coefficient: float,
    tail_slack_coefficient: float,
    tau_dependent: bool,
    tau: float,
) -> np.ndarray:
    """filter_step's rule on projections: ascending indices into proj."""
    n = proj.size

    def allowed(t):
        return tail_coefficient * np.exp(-0.5 * np.square(t)) + _tail_slack(
            t, gamma, tail_slack_coefficient, tau_dependent, tau, d
        )

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
    rebuilt two-pass, with MAX_ITERATIONS after n removal rounds, or with
    FALLBACK_EXHAUSTED when the next removal would leave fewer than
    max(2, ceil((1 - 2 gamma) n)) rows.
    The mean of the surviving rows is returned in every case.
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
        # Exact moments are solved from the cold start, so a certificate
        # rests on the same solve as without the warm start.
        deviation, direction = spectral_deviation_pair(sigma, start=None if exact else direction)

        if deviation <= threshold:
            if exact:
                term = Termination.CERTIFICATE
                break
            del y
            y, s1, s2, sigma = rebuild(alive)
            exact = True
            continue
        if iterations >= n:
            term = Termination.MAX_ITERATIONS
            break

        shift = s1 / alive.size
        proj = np.abs((y @ direction)[alive] - shift @ direction)
        local = _tail_removal(
            proj,
            cfg.gamma,
            d,
            cfg.tail_coefficient,
            cfg.tail_slack_coefficient,
            cfg.tau_dependent_tail,
            cfg.tau,
        )
        if alive.size - local.size < floor:
            term = Termination.FALLBACK_EXHAUSTED
            break

        gone = alive[local]
        rows = y[gone]
        s1 -= rows.sum(axis=0)
        s2 -= rows.T @ rows
        removed.extend(gone.tolist())
        alive = np.delete(alive, local)
        shift = s1 / alive.size
        sigma = s2 / alive.size - np.outer(shift, shift)
        sigma = 0.5 * (sigma + sigma.T)
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


def symmetric_difference_ratio(original, surviving) -> float:
    """Multiset symmetric difference between row sets, divided by |original|.

    Rows are compared exactly (bit-level), which is the right notion here:
    surviving rows are copies of original rows, and any injected row will
    differ. For a pure row-subset this reduces to the removed fraction.
    """
    orig = as_dataset(original)
    surv = as_dataset(surviving)
    if orig.shape[1] != surv.shape[1]:
        raise ValueError("dimension mismatch between datasets")
    counts: Counter[bytes] = Counter(row.tobytes() for row in orig)
    counts.subtract(row.tobytes() for row in surv)
    diff = sum(abs(c) for c in counts.values())
    return diff / orig.shape[0]
