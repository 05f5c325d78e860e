"""Dense vector/matrix primitives for the spectral filter.

Everything here operates on plain numpy arrays: a dataset is an (n, d)
float array (one sample per row), a direction is a (d,) unit vector, and
covariance-like matrices are exactly symmetrized (d, d) arrays. The only
nontrivial numerics is the top eigenpair of a symmetric matrix.
spectral_deviation_pair validates exact moments and solves them with one
np.linalg.eigh, which also gives the second-largest eigenvalue lambda_2;
every certificate the filter grants rests on such a solve. The filter
loop's removal rounds, which solve a sequence of nearby matrices it builds
itself from validated rows, call _power_eigenpair directly: a heavy-ball
power iteration warm-started from the previous direction, whose momentum
comes from the upper bound on lambda_2 the filter carries. It settles the
large spectral gaps a planted cluster produces in a few steps and a gap
of lambda_2 / lambda_1 = 0.9 in about forty, and keeps its pair only when
that bound proves it is the top one, with np.linalg.eigh taking over
otherwise.

Nothing here makes a second (n, d) array from a float64 dataset.
Validation reads its minimum and maximum, which propagate nan and expose
+-inf, rather than building a boolean mask of the data. The covariance
sums block^T block over k = max(1, isqrt(n // d)) row blocks of
ceil(n / k) rows, so its loop runs about sqrt(n / d) times and its
scratch is a centred block, about sqrt(d / n) of the data, plus the
(d, d) result.
"""

from __future__ import annotations

import math

import numpy as np

SYMMETRY_ATOL = 1e-10

_EIG_TOL = 1e-7  # relative residual that accepts a power-iteration eigenpair


def _all_finite(arr: np.ndarray) -> bool:
    """No nan or +-inf in arr, found without an arr-sized mask: min and max
    propagate nan and are infinite when any entry is. Empty arrays pass."""
    return arr.size == 0 or (math.isfinite(arr.min()) and math.isfinite(arr.max()))


def _block_rows(n: int, d: int) -> int:
    """Rows per block, ceil(n / k), of an (n, d) array streamed in k = max(1, isqrt(n // d)) blocks."""
    return -(-n // max(1, math.isqrt(n // d)))


def as_dataset(data) -> np.ndarray:
    """Validate and return data as an (n, d) float64 array."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"dataset must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("empty input")
    if not _all_finite(arr):
        raise ValueError("dataset contains non-finite entries")
    return arr


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Validate and return v as a finite (d,) float64 vector; given dim, a
    scalar v fills all dim coordinates."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0 and dim is not None:
        arr = np.full(dim, arr)
    arr = arr.reshape(-1)
    if arr.size < 1:
        raise ValueError("empty input")
    if not _all_finite(arr):
        raise ValueError("vector contains non-finite entries")
    if dim is not None and arr.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {arr.size}")
    return arr


def as_sym_matrix(m) -> np.ndarray:
    """Validate m as a finite symmetric square matrix (within SYMMETRY_ATOL)."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix must be square, got shape {arr.shape}")
    if not _all_finite(arr):
        raise ValueError("matrix contains non-finite entries")
    if np.max(np.abs(arr - arr.T), initial=0.0) > SYMMETRY_ATOL:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (arr + arr.T)


def empirical_mean(data) -> np.ndarray:
    """Coordinate-wise arithmetic mean of the rows of data."""
    arr = as_dataset(data)
    return arr.mean(axis=0)


def empirical_covariance(data, center, rows=None) -> np.ndarray:
    """Second-moment matrix (1/n) sum (x_i - center)(x_i - center)^T over
    the n rows of data or, given an index array rows, over data[rows].

    Normalization is 1/n, not 1/(n-1): the filter compares against
    population-style moment matrices. The result is exactly symmetrized.

    The sum runs over k = max(1, isqrt(n // d)) blocks of ceil(n / k) rows,
    each centred into a fresh block, so about sqrt(n / d) GEMMs each take
    scratch about sqrt(d / n) of the data instead of one centred copy of
    it. With k = 1 (n < 4 d) this is the one-GEMM formula itself; with more
    blocks the sum is rounded in a different order. Given rows, each block
    is gathered from data by its slice of rows: the same blocks in the same
    order as on data[rows], so the result is the same bit for bit without
    that copy. All of data is validated, rows or not.
    """
    arr = as_dataset(data)
    d = arr.shape[1]
    n = arr.shape[0] if rows is None else len(rows)
    if n < 2:
        raise ValueError("covariance requires at least 2 rows")
    c = as_vector(center, dim=d)
    step = _block_rows(n, d)
    for s in range(0, n, step):
        block = (arr[s : s + step] if rows is None else arr[rows[s : s + step]]) - c
        if s:
            cov += block.T @ block
        else:
            cov = block.T @ block
    cov /= n
    return 0.5 * (cov + cov.T)


def _power_eigenpair(mat: np.ndarray, start: np.ndarray, bound: float) -> tuple[float, np.ndarray, float | None]:
    """Algebraically largest eigenvalue of a finite, exactly symmetric mat,
    which is not checked, with a unit eigenvector and, when the solve fell
    back to np.linalg.eigh, the second-largest eigenvalue lambda_2.

    Heavy-ball power iteration from start, a unit vector such as the one
    returned for a nearby mat, which like mat is not checked. Each step
    reads the iterate x, a unit vector, and its product y = M x; it takes
    the Rayleigh quotient lam = x . y, tests x, and moves on to

        v = y - beta q x_prev,  x <- v / ||v||,  q <- 1 / ||v||,

    with x_prev the iterate before x and q from the step before (no term on
    the first step). Since every iterate is normalised, this is the
    unnormalised recurrence w <- M w - beta w_prev divided through by
    ||w||. That recurrence grows an eigencomponent of eigenvalue mu by the
    larger root of z^2 - mu z + beta, of modulus sqrt(beta) whenever |mu|
    <= 2 sqrt(beta), and (mu + sqrt(mu^2 - 4 beta)) / 2 above that. So beta
    = (b / 2)^2 with b = lambda_2 damps every eigenvalue in [-lambda_2,
    lambda_2] alike and shrinks the step's error ratio from lambda_2 /
    lambda_1 to about its square root (Xu et al., "Accelerated Stochastic
    Power Iteration", arXiv 1707.02670). The iteration has only the bound
    on lambda_2, which may lie above lambda_1 itself; beta from such a b
    would damp lambda_1 as well and no component would lead. So b =
    min(max(bound, 0), lam): lam never exceeds lambda_1, which keeps 2
    sqrt(beta) <= lambda_1. A negative bound gives b = 0, and a bound that
    is not finite, or lam <= 0, sets beta = 0: the plain power iteration.

    Momentum changes only which vectors are visited; what makes a kept
    pair correct reads the current x alone. It settles x once lam > 0 and
    ||M x - lam x|| <= tol = 1e-7 * max(1, lam). Then some eigenvalue lies
    within tol of lam, whatever sequence produced x; when lam - 2 tol
    exceeds bound, an upper bound on lambda_2 of mat, that eigenvalue is
    lambda_1, no eigenvalue lies above lam + tol, and the pair is returned.
    The spare tol absorbs the rounding that separates the filter's mat,
    updated one removed row at a time, from the exact moments the bound is
    argued for.
    A settled pair that the bound does not prove is the top one goes to
    np.linalg.eigh (its failures raise LinAlgError), since a start can
    settle on a lower eigenvector (one it already is).

    A step costs about 2 d^2 flops, so d steps cost about one eigh, which
    takes over when they do not settle. It takes over sooner, as soon as
    the residual, shrunk by its last step's ratio for each step left of
    those d, would still miss the tolerance: a small spectral gap does not
    settle, and says so within a few steps.

    Returns (lam, x, second): second is lambda_2 (-inf when d = 1) from the
    eigh call, and None when the power iteration's pair was kept.
    """
    d = mat.shape[0]
    x = x_prev = start
    q = 0.0  # 1 / ||v|| of the last step; 0 leaves the first step plain
    b_max = max(bound, 0.0) if math.isfinite(bound) else 0.0
    res_prev = math.inf
    for left in range(d - 1, -1, -1):
        y = mat @ x
        lam = float(x @ y)
        tol = _EIG_TOL * max(1.0, lam)
        r = y - lam * x
        res = math.sqrt(r @ r)
        if lam > 0.0 and res <= tol:
            if lam - 2.0 * tol > bound:
                return lam, x, None
            break
        # Past the start's transient, the residual shrinks by a ratio that
        # grows towards the iteration's rate (|lambda_2 / lambda_1| without
        # momentum); at its last ratio, the steps left would end above tol.
        # A growing residual is transient and predicts nothing. An early
        # hand-off costs one eigh, not a wrong pair.
        if res < res_prev and res * (res / res_prev) ** left > tol:
            break
        res_prev = res
        b = min(b_max, lam)
        if b > 0.0 and q:
            y -= (0.25 * b * b * q) * x_prev
        y_norm = math.sqrt(y @ y)
        if y_norm == 0.0:
            break
        x_prev, x, q = x, y / y_norm, 1.0 / y_norm
    values, vectors = np.linalg.eigh(mat)
    return float(values[-1]), vectors[:, -1], float(values[:-1].max(initial=-math.inf))


def spectral_deviation_pair(sigma) -> tuple[float, np.ndarray, float]:
    """Largest eigenvalue of (sigma - I), clamped below at 0, with a unit
    eigenvector and the unclamped second-largest eigenvalue lambda_2 of
    (sigma - I) (-inf when d = 1), from one np.linalg.eigh.

    The value is what the filter compares against its termination
    threshold: only positive excess over the identity matters. It is the
    top eigenvalue of the validated sigma - I whatever its structure, so a
    certificate decided on it holds of sigma.
    """
    mat = as_sym_matrix(sigma)  # a fresh array, so sigma is left as it was
    mat.flat[:: mat.shape[0] + 1] -= 1.0
    values, vectors = np.linalg.eigh(mat)
    return max(0.0, float(values[-1])), vectors[:, -1], float(values[:-1].max(initial=-math.inf))


def spectral_norm(m) -> float:
    """Spectral norm max(|lambda_max|, |lambda_min|) of a symmetric matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(as_sym_matrix(m)))))
