"""Memory of the release paths: each holds its (n, d) input plus scratch
well under a second copy of it.

Peaks are tracemalloc's, which counts numpy's array allocations, taken at
(20000, 100) in units of the input's 8 n d bytes. A function that made one
centred, clamped or gathered copy of its input would read at least 1.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from dprobust.datagen import ConstantCluster, SubtractiveOnly, corrupt, goodness_check, sample_gaussian
from dprobust.estimators import WinsorizeConfig, winsorized_mean
from dprobust import filtering
from dprobust.filtering import SampleSizeWarning, Termination, filter_gaussian_unknown_mean
from dprobust.linalg import empirical_covariance
from dprobust.sensitivity import RobustConfig

N, D = 20000, 100


def peak(fn, *args):
    """Largest traced allocation above the start while fn(*args) ran, in units of 8 N D bytes."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - start) / (8 * N * D)
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def clean():
    return sample_gaussian(N, D, 0.0, seed=0)


def test_filter_certifying_at_round_zero(clean):
    # dp_robust's setting on clean data: the round-0 moments certify.
    cfg = RobustConfig(gamma=0.1)
    assert filter_gaussian_unknown_mean(clean, cfg).diagnostics.iterations == 0
    assert peak(filter_gaussian_unknown_mean, clean, cfg) <= 0.5


def test_filter_at_gamma_one_over_n(clean):
    # dp_plain's setting: two removals, then the survivor floor.
    cfg = RobustConfig(gamma=1.0 / N)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleSizeWarning)
        diag = filter_gaussian_unknown_mean(clean, cfg).diagnostics
        assert diag.terminated_by is Termination.FALLBACK_EXHAUSTED and diag.iterations == 2
        assert peak(filter_gaussian_unknown_mean, clean, cfg) <= 0.5


def test_filter_removal_rounds(clean, monkeypatch):
    # Planted rows at 10 e1 and 6 e2: most rounds project only the rows that
    # can still win, and the turn from e1 to e2 forces a full pass. At gamma
    # = 0.01 the threshold lies under clean data's deviation, so the loop
    # ends at the survivor floor.
    data = clean.copy()
    data[:500] = 0.0
    data[:200, 0] = 10.0
    data[200:500, 1] = 6.0
    # Per round that bounds the projections: its candidates and survivors.
    rounds, solves = [], []
    flatnonzero, solve = np.flatnonzero, filtering._power_eigenpair
    monkeypatch.setattr(np, "flatnonzero", lambda a: rounds.append((flatnonzero(a).size, N - len(solves))) or flatnonzero(a))
    monkeypatch.setattr(filtering, "_power_eigenpair", lambda *a: solves.append(1) or solve(*a))
    cfg = RobustConfig(gamma=0.01)
    outcome = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleSizeWarning)
        assert peak(lambda: outcome.append(filter_gaussian_unknown_mean(data, cfg))) <= 0.5
    diag = outcome[0].diagnostics
    assert diag.terminated_by is Termination.FALLBACK_EXHAUSTED and diag.iterations == 400
    pruned = sum(0 < 2 * k <= m for k, m in rounds)
    assert pruned >= 350 and len(rounds) - pruned >= 1


def test_filter_rebuild_after_removals(clean):
    # Planted rows at 10 e1 and 8 e2, removed until the survivors' moments,
    # rebuilt from the input by blocks of survivor indices, certify.
    data = clean.copy()
    data[:400] = 0.0
    data[:300, 0] = 10.0
    data[300:400, 1] = 8.0
    outcome = []
    assert peak(lambda: outcome.append(filter_gaussian_unknown_mean(data, RobustConfig(gamma=0.1)))) <= 0.5
    diag = outcome[0].diagnostics
    assert diag.terminated_by is Termination.CERTIFICATE and diag.iterations == 304


def test_winsorized_mean(clean):
    assert peak(winsorized_mean, clean, WinsorizeConfig(range_bound=1.0)) <= 0.5


def test_empirical_covariance(clean):
    assert peak(empirical_covariance, clean, clean.mean(axis=0)) <= 0.5


def test_goodness_check(clean):
    assert peak(goodness_check, clean, 0.0, 0.1, 0.05) <= 0.5


def test_sample_gaussian():
    # The output itself is 1.
    assert peak(sample_gaussian, N, D, 1.0, 0) <= 1.25


@pytest.mark.parametrize("adversary, bound", [(SubtractiveOnly(), 1.0), (ConstantCluster(), 1.25)])
def test_corrupt(clean, adversary, bound):
    # The output is itself 0.9 (the kept rows) or 1 (the rewritten copy).
    assert peak(lambda: corrupt(clean, 0.1, adversary, fixed_count=True)) <= bound
