"""Synthetic data: identity-covariance Gaussian samples, corruption
adversaries, and the goodness diagnostic for uncorrupted samples.

The corruption model replaces (or, for the subtractive adversary, removes)
m' ~ Binomial(n, gamma) rows chosen uniformly without replacement. A
fixed-count mode replaces the binomial draw with round(gamma * n) for
deterministic experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    _block_rows,
    as_dataset,
    as_vector,
    empirical_covariance,
    empirical_mean,
    spectral_norm,
)


@dataclass(frozen=True)
class ConstantCluster:
    """Replace corrupted rows with the single point mu_true + offset * e_1."""

    offset: float = 10.0

    name = "constant_cluster"


@dataclass(frozen=True)
class DirectionalSpread:
    """Replace corrupted rows with mu_true + magnitude * e_1 + N(0, 0.1^2 I)
    per row, so the planted points are spread rather than coincident."""

    magnitude: float = 10.0

    name = "directional_spread"


@dataclass(frozen=True)
class SubtractiveOnly:
    """Remove the m' rows with the largest first coordinate (no replacement).

    Models the removal half of the corruption model; the output has
    n - m' rows.
    """

    name = "subtractive_only"


Adversary = ConstantCluster | DirectionalSpread | SubtractiveOnly

ADVERSARY_NAMES = ("constant_cluster", "directional_spread", "subtractive_only")


@dataclass(frozen=True)
class CorruptionPlan:
    gamma: float
    adversary: Adversary | None
    replaced_indices: list[int]
    m_prime: int


@dataclass(frozen=True)
class GoodnessReport:
    """Per-condition diagnostics for a sample against its generating Gaussian."""

    cond1_max_norm: float
    cond1_pass: bool
    cond2_worst_gap: float
    cond2_pass: bool
    cond3_mean_error: float
    cond3_pass: bool
    cond4_cov_deviation: float
    cond4_pass: bool

    def all_pass(self) -> bool:
        return self.cond1_pass and self.cond2_pass and self.cond3_pass and self.cond4_pass


def sample_gaussian(n: int, d: int, mu=0.0, seed: int = 0) -> np.ndarray:
    """n i.i.d. draws from N(mu, I_d), deterministic per seed."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    center = as_vector(mu, dim=d)
    out = np.random.default_rng(seed).standard_normal((n, d))
    out += center
    return out


def corrupt(
    data,
    gamma: float,
    adversary: Adversary | None,
    seed: int = 0,
    *,
    mu_true=0.0,
    fixed_count: bool = False,
) -> tuple[np.ndarray, CorruptionPlan]:
    """Apply a corruption adversary to data, returning a new array; the
    input is left as it was.

    Draws m' ~ Binomial(n, gamma) (or round(gamma n) in fixed-count mode),
    picks m' row indices uniformly without replacement, and rewrites them
    per the adversary. gamma = 0 or adversary None returns an unchanged
    copy with an empty plan. mu_true and the adversary's offset or
    magnitude must be finite.
    """
    arr = as_dataset(data)
    n, d = arr.shape
    center = as_vector(mu_true, dim=d)
    if not 0.0 <= gamma < 0.5:
        raise ValueError("gamma must lie in [0, 0.5)")
    # ConstantCluster's offset or DirectionalSpread's magnitude; 0 for the rest.
    shift = getattr(adversary, "offset", getattr(adversary, "magnitude", 0.0))
    if not math.isfinite(shift):
        raise ValueError(f"adversary offset or magnitude must be finite, got {shift!r}")

    rng = np.random.default_rng(seed)
    m_prime = 0
    if adversary is not None and gamma > 0.0:
        m_prime = int(round(gamma * n)) if fixed_count else int(rng.binomial(n, gamma))
    indices = np.empty(0, dtype=int)
    if m_prime == 0:
        out = arr.copy()
    elif isinstance(adversary, SubtractiveOnly):
        indices = np.argsort(arr[:, 0], kind="stable")[-m_prime:]
        keep = np.ones(n, dtype=bool)
        keep[indices] = False
        out = arr[keep]
    else:
        indices = rng.choice(n, size=m_prime, replace=False)
        point = center.copy()
        point[0] += shift
        if isinstance(adversary, DirectionalSpread):
            point = point + 0.1 * rng.standard_normal((m_prime, d))
        elif not isinstance(adversary, ConstantCluster):
            raise ValueError(f"unknown adversary {adversary!r}")
        out = arr.copy()
        out[indices] = point

    return out, CorruptionPlan(gamma, adversary, sorted(indices.tolist()), m_prime)


def _gaussian_upper_tail(t: np.ndarray) -> np.ndarray:
    # P[N(0,1) >= t] via the complementary error function.
    return 0.5 * np.array([math.erfc(x / math.sqrt(2.0)) for x in np.atleast_1d(t)])


def goodness_check(
    data,
    mu_true,
    gamma: float,
    tau: float,
    n_directions: int = 200,
    seed: int = 0,
) -> GoodnessReport:
    """Diagnostic: does an (uncorrupted) sample concentrate like its Gaussian?

    Condition 1: max_x ||x - mu|| <= 3 sqrt(d ln(n/tau)).
    Condition 2: for sampled unit directions v and the eight T values 0.5,
        1.0, ..., 4.0, the empirical tail P[v.(x - mu) >= T] stays within
        gamma / (T^2 ln(d ln(d/(gamma tau)))) of the Gaussian tail. This
        quantifier is spot-checked over n_directions random directions, so
        a pass is evidence, not proof.
    Condition 3: ||mean(S) - mu|| <= gamma.
    Condition 4: ||M_S - I||_2 <= gamma, with M_S the second moment about mu.

    Conditions 1 and 2 read the rows in linalg's row blocks, so the check
    holds one centred block and its projections, not a centred copy of the
    data, and counts each tail as an integer.
    """
    arr = as_dataset(data)
    n, d = arr.shape
    mu = as_vector(mu_true, dim=d)
    if not 0.0 < gamma < 0.5:
        raise ValueError("gamma must lie in (0, 0.5)")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    if n_directions < 1:
        raise ValueError("n_directions must be at least 1")

    t_values = np.linspace(0.5, 4.0, 8)
    inner = d * math.log(d / (gamma * tau))
    denom_log = math.log(inner) if inner > 1.0 else float("-inf")
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((n_directions, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)

    cond1_max = 0.0
    counts = np.zeros((t_values.size, n_directions), dtype=np.int64)
    step = _block_rows(n, d)
    for s in range(0, n, step):
        centered = arr[s : s + step] - mu
        cond1_max = max(cond1_max, float(np.linalg.norm(centered, axis=1).max()))
        proj = centered @ directions.T  # (block rows, n_directions)
        for j, t in enumerate(t_values):
            counts[j] += np.count_nonzero(proj >= t, axis=0)
    cond1_pass = cond1_max <= 3.0 * math.sqrt(d * math.log(n / tau))

    theory = _gaussian_upper_tail(t_values)
    worst_gap = 0.0
    cond2_pass = True
    for j, t in enumerate(t_values):
        gaps = np.abs(counts[j] / n - theory[j])
        worst_gap = max(worst_gap, float(gaps.max()))
        if denom_log > 0.0:
            bound = gamma / (t * t * denom_log)
            if (gaps > bound).any():
                cond2_pass = False
        # Nonpositive denominator makes the bound vacuous; condition 2 is
        # then reported on the gap value alone.

    cond3_err = float(np.linalg.norm(empirical_mean(arr) - mu))
    cond3_pass = cond3_err <= gamma

    moment = empirical_covariance(arr, mu)
    cond4_dev = spectral_norm(moment - np.eye(d))
    cond4_pass = cond4_dev <= gamma

    return GoodnessReport(
        cond1_max_norm=cond1_max,
        cond1_pass=cond1_pass,
        cond2_worst_gap=worst_gap,
        cond2_pass=cond2_pass,
        cond3_mean_error=cond3_err,
        cond3_pass=cond3_pass,
        cond4_cov_deviation=cond4_dev,
        cond4_pass=cond4_pass,
    )


def save_dataset_csv(data, path) -> None:
    """Write an (n, d) dataset as headerless CSV with round-trip decimals."""
    arr = as_dataset(data)
    with open(path, "w", encoding="ascii") as fh:
        # One row at a time: a whole-array tolist() holds every entry as a
        # Python float at once.
        for row in arr:
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")


def load_dataset_csv(path) -> np.ndarray:
    """Read a headerless CSV dataset written by save_dataset_csv.

    A missing file raises numpy's FileNotFoundError ("<path> not found.").
    """
    return as_dataset(np.loadtxt(path, delimiter=",", ndmin=2))
