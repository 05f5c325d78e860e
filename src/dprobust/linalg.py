"""Dense vector/matrix primitives for the spectral filter.

Everything here operates on plain numpy arrays: a dataset is an (n, d)
float array (one sample per row), a direction is a (d,) unit vector, and
covariance-like matrices are exactly symmetrized (d, d) arrays. The only
nontrivial numerics is the top eigenpair of a symmetric matrix: a
deterministic power iteration, which settles the large spectral gaps a
planted cluster produces in a few steps, with a dense eigendecomposition
taking over once the residual's measured contraction shows that it cannot
settle within d steps. The public functions validate their matrix; the
filter loop, which solves a sequence of nearby matrices it builds itself
from validated rows, calls _power_eigenpair directly and may start it
from the previous direction. A pair settled from such a start is only
returned once a Cholesky factorization shows no eigenvalue above it.
"""

from __future__ import annotations

import math

import numpy as np

SYMMETRY_ATOL = 1e-10

_EIG_TOL = 1e-7  # relative residual that accepts a power-iteration eigenpair
# Philox key of the fixed pseudo-random start vector, which (unlike all-ones)
# is no eigenvector of a structured matrix such as [[3, -1], [-1, 3]].
_START_KEY = 0xD1FE


def as_dataset(data) -> np.ndarray:
    """Validate and return data as an (n, d) float64 array."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"dataset must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("empty input")
    if not np.isfinite(arr).all():
        raise ValueError("dataset contains non-finite entries")
    return arr


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Validate and return v as a finite (d,) float64 vector."""
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size < 1:
        raise ValueError("empty input")
    if not np.isfinite(arr).all():
        raise ValueError("vector contains non-finite entries")
    if dim is not None and arr.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {arr.size}")
    return arr


def as_unit_vector(v, dim: int) -> np.ndarray:
    """Validate and return v as a (dim,) vector of unit length (within 1e-9)."""
    arr = as_vector(v, dim=dim)
    if abs(np.linalg.norm(arr) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    return arr


def as_sym_matrix(m, atol: float = SYMMETRY_ATOL) -> np.ndarray:
    """Validate m as a finite symmetric square matrix (within atol)."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix contains non-finite entries")
    if np.max(np.abs(arr - arr.T), initial=0.0) > atol:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (arr + arr.T)


def empirical_mean(data) -> np.ndarray:
    """Coordinate-wise arithmetic mean of the rows of data."""
    arr = as_dataset(data)
    return arr.mean(axis=0)


def empirical_covariance(data, center) -> np.ndarray:
    """Second-moment matrix (1/n) sum (x_i - center)(x_i - center)^T.

    Normalization is 1/n, not 1/(n-1): the filter compares against
    population-style moment matrices. The result is exactly symmetrized.
    """
    arr = as_dataset(data)
    n, d = arr.shape
    if n < 2:
        raise ValueError("covariance requires at least 2 rows")
    c = as_vector(center, dim=d)
    centered = arr - c
    cov = centered.T @ centered / n
    return 0.5 * (cov + cov.T)


def max_eigenpair(m) -> tuple[float, np.ndarray]:
    """Algebraically largest eigenvalue of a symmetric matrix, with a unit
    eigenvector.

    Power iteration from a fixed pseudo-random unit vector accepts the
    iterate x once its Rayleigh quotient lam > 0 and
    ||M x - lam x|| <= 1e-7 * max(1, lam). A step costs about 2 d^2 flops,
    so d steps cost about one np.linalg.eigh, which takes over (its
    failures raise LinAlgError) when they do not settle. It takes over
    sooner, as soon as the residual, shrunk by its last step's ratio for
    each step left of those d, would still miss the tolerance: a small
    spectral gap does not settle, and says so within a few steps.
    """
    return _power_eigenpair(as_sym_matrix(m))


def _power_eigenpair(mat: np.ndarray, start=None) -> tuple[float, np.ndarray]:
    """max_eigenpair of a finite, exactly symmetric mat, which is not checked;
    start, a unit vector, replaces the fixed start."""
    d = mat.shape[0]
    if start is None:
        x = np.random.Generator(np.random.Philox(key=_START_KEY)).standard_normal(d)
        x /= math.sqrt(x @ x)
    else:
        x = as_unit_vector(start, d)
    res_prev = math.inf
    for left in range(d - 1, -1, -1):
        y = mat @ x
        lam = float(x @ y)
        tol = _EIG_TOL * max(1.0, lam)
        r = y - lam * x
        res = math.sqrt(r @ r)
        if lam > 0.0 and res <= tol:
            if start is None:  # a component along every eigenvector
                return lam, x
            # A warm start can settle on a lower eigenvector (one it already
            # is). No eigenvalue lies above lam + tol when (lam + tol) I - M
            # is positive definite, which a Cholesky factorization (d^3 / 3
            # flops) shows.
            shifted = -mat
            shifted.flat[:: d + 1] += lam + tol
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                break
            return lam, x
        # Past the start's transient, the residual shrinks by a ratio that
        # grows towards |lambda_2 / lambda_1|; at its last ratio, the steps
        # left would end above tol. A growing residual is transient and
        # predicts nothing. An early hand-off costs one eigh, not a wrong pair.
        if res < res_prev and res * (res / res_prev) ** left > tol:
            break
        res_prev = res
        y_norm = math.sqrt(y @ y)
        if y_norm == 0.0:
            break
        x = y / y_norm
    values, vectors = np.linalg.eigh(mat)
    return float(values[-1]), vectors[:, -1]


def spectral_deviation(sigma) -> float:
    """Largest eigenvalue of (sigma - I), clamped below at 0.

    This is the quantity the filter compares against its termination
    threshold: only positive excess over the identity matters.
    """
    return spectral_deviation_pair(sigma)[0]


def spectral_deviation_pair(sigma) -> tuple[float, np.ndarray]:
    """spectral_deviation together with the corresponding unit direction."""
    mat = as_sym_matrix(sigma)
    value, vector = _power_eigenpair(mat - np.eye(mat.shape[0]))
    return max(0.0, value), vector


def spectral_norm(m) -> float:
    """Spectral norm max(|lambda_max|, |lambda_min|) of a symmetric matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(as_sym_matrix(m)))))
