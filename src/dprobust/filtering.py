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

The loop carries three values: centre, the survivors' mean; mat, their
sigma - I; and cap, a bound on lambda_2 of their scatter matrix m cov(S).
Removing row x from m + 1 survivors, with z = x - centre and g = (m + 1) /
m, is exact algebra in three d x d passes (scale, outer product, subtract):

    centre <- centre - z / m,
    mat <- g mat + (g - 1) I - w w^T,  w = sqrt(g / m) z,

and the outer product of one vector with itself keeps mat exactly
symmetric. The round warm-starts the top eigenpair from the previous
direction with a heavy-ball power iteration, whose momentum is set from a
bound on lambda_2 of mat, and that bound decides whether to keep a warm
pair: (lam, x) with residual at most tol is the top one when lam - 2 tol
exceeds it. For survivor sets S_k within S_j, m_k cov(S_k) <= m_j
cov(S_j): centring S_k at its own mean minimises its second moment, and
the rows S_k drops add positive semidefinite terms. So the scatter matrix
only shrinks as rows leave, and by Weyl's monotonicity its lambda_2 never
grows: cap = m_j (lambda_2 + 1) from the last solve that computed a
spectrum (round 0, a rebuild, or a removal round that fell back to
np.linalg.eigh) bounds lambda_2 of mat by cap / m - 1 in every later
round, across rebuilds too. So a warm pair is kept without a
factorization, and lambda_2 is computed afresh only when that bound is
too loose.

A removal round finds its row without projecting every row. A full pass
projects all n rows and keeps its direction v0, its centre c0 and every
|q_i| = |(x_i - c0) . v0|. At the first full pass the loop also takes
r_i >= ||x_i - a||, a that pass's centre, from ||x_i||^2 - 2 x_i . a +
||a||^2 (one row-norm pass and one matvec). A later round with direction
v and centre c bounds every row: with x_i - c = (x_i - c0) + (c0 - c),
v = s v0 + (v - s v0) for either sign s, and Cauchy-Schwarz,

    |(x_i - c) . v| <= |q_i| + ||x_i - c0|| delta + |(c0 - c) . v|,
    delta = min_s ||v - s v0||, so delta^2 = ||v||^2 + ||v0||^2 - 2 |v . v0|,

and ||x_i - c0|| <= r_i + ||a - c0||. The sign matters: eigh may return
-v for v. So the round projects the survivor j of largest bound exactly;
no row whose bound falls below that projection can win, and the others,
the candidates, are projected and compared in ascending index order. When
more than half the survivors are candidates, projecting them costs more
than a full pass, and the round makes one instead; so does the round
after a rebuild. Rounding is covered the same way throughout: every
computed dot product of length d is within (d + 2) eps / 2 ||x|| ||y|| of
the exact one, every norm here is at most S = max_i ||x_i|| (the centres
are means of rows) or twice it, and the loop widens r_i and delta and
lowers the cut by 16 (d + 2) eps S, more than those errors add up to. So
a row left out loses to row j in the projection's own arithmetic. Full
passes and candidates project with the same row-by-row np.einsum, the
same arithmetic for every row, so the removed row is the one a full pass
would remove, and identical rows tie exactly and leave lowest index
first. (A BLAS matvec may round a lone trailing row of a call differently
from the rest, so identical rows need not tie in one.)

A round costs O(d^2) for the removed row, O(n) to bound every row and
O(k d) to project its k candidates; a full pass costs O(n d). On a planted
cluster at (5000, 50) the candidates are the cluster rows left, about 250
a round, and one full pass serves a whole release.

The loop runs while the deviation exceeds the threshold. Round 0 solves
the input's exact moments with one np.linalg.eigh. The carried centre and
mat drift by rounding, so a removal round whose deviation falls to the
threshold rebuilds them: centre is the survivors' mean as the filter
returns it, and sigma their two-pass covariance about it, which
empirical_covariance reads from the input by blocks of survivor indices;
one np.linalg.eigh solves it too. The loop ends on CERTIFICATE only after
such a solve, so the noise calibrated to the certificate rests on neither
a carried update nor a start vector. No periodic rebuild is made: on no
known input does the drift change a termination or which rows are
removed, so a schedule would be a constant with nothing to tune it by.

The working set is the input, a few n-vectors (the mask, the last full
pass's projections, r, a round's bounds, a rebuild's survivor indices),
one block or candidate gather of rows, and a few (d, d) matrices: the
survivors are never copied out of the input. The input is validated on
entry and by empirical_covariance at round 0 and at every rebuild (a
covariance that skipped it would be a second covariance path), and
spectral_deviation_pair rejects exact moments that overflowed. A removal
round updates mat from rows of that validated input and hands it to the
linalg module's private solver without checking it again.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    _block_rows,
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


def _survivor_mean(arr: np.ndarray, dead: np.ndarray, m: int) -> np.ndarray:
    """Mean of the m rows of arr not marked dead, without gathering them.

    An axis-0 sum of a C-contiguous array with d >= 2 columns adds its rows
    one by one in order, masked or not, so this equals the mean of the
    gathered rows bit for bit. An (m, 1) gather is summed pairwise instead,
    so at d = 1 the two differ in the last bits.
    """
    return np.add.reduce(arr, axis=0, where=~dead[:, None]) / m


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

    # Exact moments of the survivors, about the mean the filter returns,
    # validated and solved with eigh, whose lambda_2 re-seeds cap.
    def rebuild():
        centre = _survivor_mean(arr, dead, m)
        sigma = empirical_covariance(arr, centre, None if m == n else (~dead).nonzero()[0])
        deviation, direction, second = spectral_deviation_pair(sigma)
        sigma.flat[:: d + 1] -= 1.0
        return centre, sigma, deviation, direction, m * (second + 1.0)

    dead = np.zeros(n, dtype=bool)
    m = n
    centre, mat, deviation, direction, cap = rebuild()
    # Set at the first full pass: reach[i] >= ||x_i - a|| for its centre a,
    # and slack, the rounding allowance 16 (d + 2) eps S. ref is the last
    # full pass: v0, v0 . v0, an upper bound on ||c0 - a||, c0, and the
    # |projections| (dead rows -inf).
    tol = 8.0 * (d + 2) * np.finfo(float).eps
    step = _block_rows(n, d)
    reach = ref = None
    removed: list[int] = []
    term = Termination.CERTIFICATE
    while deviation > threshold:
        if m - 1 < floor:
            term = Termination.FALLBACK_EXHAUSTED
            break
        cv = centre @ direction
        i = -1
        if ref is not None:
            v0, v0v0, off, c0, top = ref
            delta = math.sqrt(direction @ direction + v0v0 - 2.0 * abs(direction @ v0) + tol)
            bound = reach * delta
            bound += top
            j = int(bound.argmax())
            cut = abs(arr[j] @ direction - cv) - abs(c0 @ direction - cv) - off * delta - slack
            cand = np.flatnonzero(bound >= cut)
            # Empty only when a bound is not finite (rows near the overflow
            # limit); the full pass then decides.
            if 0 < 2 * cand.size <= m:
                proj = np.empty(cand.size)
                for s in range(0, cand.size, step):
                    proj[s : s + step] = np.einsum("ij,j->i", arr.take(cand[s : s + step], axis=0), direction)
                proj -= cv
                i = int(cand[np.abs(proj, out=proj).argmax()])
        if i < 0:
            # Dead rows read -inf, below every |projection|; the argmax
            # breaks ties to the lowest surviving index.
            top = np.einsum("ij,j->i", arr, direction)
            top -= cv
            np.abs(top, out=top)
            top[dead] = -np.inf
            i = int(top.argmax())
            if reach is None:
                # ||x - a||^2 = ||x||^2 - 2 x . a + ||a||^2 with no (n, d)
                # temporary; padding the squares by 2 tol covers the
                # cancellation when the data sit far from the origin.
                a = centre
                reach = np.einsum("ij,ij->i", arr, arr)
                reach *= 1.0 + 2.0 * tol
                reach -= 2.0 * (arr @ a)
                reach += (1.0 + 2.0 * tol) * (a @ a)
                reach = np.sqrt(reach, out=reach)
                # S >= max ||x_i||, which bounds every centre's norm too.
                slack = 2.0 * tol * (reach.max() + math.sqrt(a @ a))
            off = float(np.linalg.norm(centre - a)) * (1.0 + tol)
            # A copy: a direction from eigh is a column of its whole (d, d)
            # eigenvector matrix, which ref would otherwise keep alive.
            ref = direction.copy(), direction @ direction, off, centre, top
        top[i] = -np.inf

        z = arr[i] - centre
        removed.append(i)
        dead[i] = True
        m -= 1
        g = (m + 1) / m
        # A new array, not an update in place: ref holds the old centre.
        centre = centre - z / m
        mat *= g
        mat.flat[:: d + 1] += g - 1.0
        z *= math.sqrt(g / m)
        mat -= np.outer(z, z)
        value, direction, second = _power_eigenpair(mat, direction, cap / m - 1.0)
        if second is not None:
            cap = m * (second + 1.0)
        deviation = max(0.0, value)
        if deviation <= threshold:
            centre, mat, deviation, direction, cap = rebuild()
            ref = None

    diagnostics = FilterDiagnostics(
        iterations=len(removed),
        removed_indices=removed,
        final_spectral_deviation=deviation,
        threshold=threshold,
        terminated_by=term,
    )
    return FilterOutcome(mean=_survivor_mean(arr, dead, m), diagnostics=diagnostics)

