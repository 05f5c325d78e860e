"""Linear-algebra primitives against dense oracles.

Oracles: math.fsum re-summation for the mean, an O(n d^2) double loop for
the covariance, and numpy's eigvalsh for the spectrum. max_eigenpair hands
off to np.linalg.eigh when its power iteration does not settle, but never
calls eigvalsh; spectral_norm is eigvalsh itself, so its test checks only
the reduction to the largest |eigenvalue|.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dprobust.linalg import (
    _power_eigenpair,
    empirical_covariance,
    empirical_mean,
    max_eigenpair,
    spectral_deviation,
    spectral_deviation_pair,
    spectral_norm,
)


def oracle_mean(data):
    # Summation-order-independent accumulation per coordinate.
    n, d = data.shape
    return np.array([math.fsum(data[:, j]) / n for j in range(d)])


def oracle_covariance(data, center):
    n, d = data.shape
    out = np.zeros((d, d))
    for i in range(n):
        diff = data[i] - center
        for a in range(d):
            for b in range(d):
                out[a, b] += diff[a] * diff[b]
    return out / n


def oracle_top_eigenvalue(m):
    return float(np.linalg.eigvalsh(m)[-1])


def residual(m, value, vector):
    return float(np.linalg.norm(m @ vector - value * vector))


def random_symmetric(seed):
    rng = np.random.default_rng(300 + seed)
    m = rng.normal(size=(5, 5))
    return (m + m.T) / 2.0 - 1.5 * np.eye(5)  # often negative-dominant


class TestEmpiricalMean:
    def test_single_point(self):
        assert np.array_equal(empirical_mean([[3.0, -1.0]]), np.array([3.0, -1.0]))

    def test_symmetry(self):
        assert np.allclose(empirical_mean([[0.0, 0.0], [2.0, 2.0]]), [1.0, 1.0])

    def test_against_resummation_oracle(self):
        rng = np.random.default_rng(17)
        data = rng.normal(size=(50, 7))
        assert np.max(np.abs(empirical_mean(data) - oracle_mean(data))) <= 1e-12

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty input"):
            empirical_mean(np.empty((0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            empirical_mean([[1.0, float("nan")]])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(40, 5))
        perm = rng.permutation(40)
        assert np.max(np.abs(empirical_mean(data) - empirical_mean(data[perm]))) <= 1e-12


class TestEmpiricalCovariance:
    def test_identical_points(self):
        point = np.array([2.0, -1.0, 0.5])
        data = np.tile(point, (5, 1))
        assert np.array_equal(empirical_covariance(data, point), np.zeros((3, 3)))

    def test_one_dimensional(self):
        cov = empirical_covariance([[-1.0], [1.0]], [0.0])
        assert np.allclose(cov, [[1.0]])

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(23)
        data = rng.normal(size=(20, 4))
        center = empirical_mean(data)
        assert np.max(np.abs(empirical_covariance(data, center) - oracle_covariance(data, center))) <= 1e-12

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(30, 6))
        cov = empirical_covariance(data, empirical_mean(data))
        assert np.array_equal(cov, cov.T)

    def test_errors(self):
        with pytest.raises(ValueError):
            empirical_covariance([[1.0, 2.0]], [1.0, 2.0])
        with pytest.raises(ValueError):
            empirical_covariance([[1.0, 2.0], [3.0, 4.0]], [1.0])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25)
    def test_positive_semidefinite(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(25, 4)) * rng.uniform(0.5, 3.0)
        cov = empirical_covariance(data, empirical_mean(data))
        for _ in range(10):
            v = rng.normal(size=4)
            v /= np.linalg.norm(v)
            assert v @ cov @ v >= -1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(77)
        data = rng.normal(size=(35, 4))
        center = empirical_mean(data)
        perm = rng.permutation(35)
        a = empirical_covariance(data, center)
        b = empirical_covariance(data[perm], center)
        assert np.max(np.abs(a - b)) <= 1e-12


class TestMaxEigenpair:
    @pytest.mark.parametrize(
        "m",
        [random_symmetric(seed) for seed in range(6)]
        + [
            np.eye(3),
            np.diag([3.0, 1.0]),
            # All-ones lies in the lambda=0 eigenspace; the top eigenvalue is 4.
            np.array([[2.0, -2.0], [-2.0, 2.0]]),
            np.diag([-5.0, 2.0]),
            # Settles on lambda=-100 within d steps; only +1 is the maximum.
            np.diag([-100.0] + [1.0] * 9),
            np.diag([-3.0, -1.0]),
            np.zeros((4, 4)),
            # All-ones is an eigenvector (lambda=2), but not the top one (4).
            np.array([[3.0, -1.0], [-1.0, 3.0]]),
        ],
        ids=[str(seed) for seed in range(6)]
        + ["identity", "diagonal", "nullspace_start", "negative_dominant", "negative_settles",
           "all_negative", "zero", "ones_not_top"],
    )
    def test_algebraic_maximum(self, m):
        value, vector = max_eigenpair(m)
        assert value == pytest.approx(oracle_top_eigenvalue(m), abs=1e-8)
        assert abs(np.linalg.norm(vector) - 1.0) <= 1e-9
        assert residual(m, value, vector) <= 1e-7 * max(1.0, abs(value))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            max_eigenpair(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_unsettled_iteration_hands_off_early(self, monkeypatch):
        # A top gap of 1e-9 and the rest of the spectrum in [0.9, 0.99]: the
        # residual contracts by about 0.95 a step, so d = 60 steps cannot
        # reach 1e-7, which the first measured ratio already shows.
        d = 60
        rng = np.random.default_rng(41)
        eigs = np.concatenate([rng.uniform(0.9, 0.99, size=d - 2), [1.0 - 1e-9, 1.0]])
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        m = q @ np.diag(eigs) @ q.T
        m = (m + m.T) / 2.0
        values, vectors = np.linalg.eigh(m)

        class CountingMatrix(np.ndarray):
            def __matmul__(self, other):
                self.products += 1
                return np.asarray(self) @ other

        counted = m.view(CountingMatrix)
        counted.products = 0
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(counted.products) or eigh(*a, **k))
        value, vector = _power_eigenpair(counted)
        assert calls and calls[0] < d
        assert value == float(values[-1])
        assert np.array_equal(vector, vectors[:, -1])


class TestSpectralDeviation:
    def test_identity_exact_zero(self):
        assert spectral_deviation(np.eye(5)) == 0.0

    def test_diagonal(self):
        assert spectral_deviation(np.diag([1.5, 1.0])) == pytest.approx(0.5, abs=1e-9)

    def test_clamps_when_all_below_identity(self):
        # Sigma - I has eigenvalues {-0.9, -0.5}; deviation clamps to 0.
        assert spectral_deviation(np.diag([0.1, 0.5])) == 0.0

    def test_negative_dominant_magnitude(self):
        # Sigma - I eigenvalues {-0.9, +0.3}: the magnitude-dominant one is
        # negative but the deviation must report the algebraic max 0.3.
        assert spectral_deviation(np.diag([0.1, 1.3])) == pytest.approx(0.3, abs=1e-8)

    def test_corrupted_data_matches_eigen_oracle(self, monkeypatch):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(400, 8))
        data[:40] += np.array([6.0] + [0.0] * 7)  # planted shift
        cov = empirical_covariance(data, empirical_mean(data))
        expected = max(0.0, oracle_top_eigenvalue(cov - np.eye(8)))
        # A planted cluster opens a wide spectral gap, which the power
        # iteration must settle by itself, without the eigh fallback.
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        assert spectral_deviation(cov) == pytest.approx(expected, abs=1e-8)
        assert calls == []

    def test_direction_residual_in_high_dimension(self):
        # d = 500 with n = 1000: a small spectral gap that a bounded power
        # iteration does not settle; the direction must still be accurate.
        data = np.random.default_rng(0).normal(size=(1000, 500))
        cov = empirical_covariance(data, empirical_mean(data))
        value, vector = spectral_deviation_pair(cov)
        assert value > 0.0
        assert residual(cov - np.eye(500), value, vector) <= 1e-7 * max(1.0, value)

    @pytest.mark.parametrize("seed", range(5))
    def test_rotation_invariance(self, seed):
        rng = np.random.default_rng(500 + seed)
        # Controlled spectral gap: it keeps the power iteration's eigenvalue
        # error (about residual^2 / gap) far below the 1e-8 tolerance.
        eigs = np.sort(rng.uniform(0.2, 2.0, size=6))
        eigs[-1] = eigs[-2] + rng.uniform(0.5, 1.0)
        base = np.diag(eigs)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        rotated = q @ base @ q.T
        rotated = (rotated + rotated.T) / 2.0
        assert spectral_deviation(rotated) == pytest.approx(
            spectral_deviation(base), abs=1e-8
        )


    # Matrices m = sigma - I with their top pairs, for the warm starts the
    # filter loop gives _power_eigenpair.
    START_CASES = {
        "diagonal": np.diag([3.0, 1.0]),
        "nullspace_start": np.array([[2.0, -2.0], [-2.0, 2.0]]),
        "ones_not_top": np.array([[3.0, -1.0], [-1.0, 3.0]]),
        "shifted_random": random_symmetric(0) + 4.0 * np.eye(5),
    }

    @pytest.mark.parametrize("case", START_CASES)
    def test_exact_start_returned_without_eigh(self, case, monkeypatch):
        m = self.START_CASES[case]
        values, vectors = np.linalg.eigh(m)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        value, vector = _power_eigenpair(m, start=vectors[:, -1])
        assert calls == []
        assert np.array_equal(vector, vectors[:, -1])
        assert value == pytest.approx(values[-1], abs=1e-12)

    @pytest.mark.parametrize("case", ["diagonal", "ones_not_top", "shifted_random"])
    def test_lower_eigenvector_start_still_gives_top_pair(self, case):
        # The start is an exact eigenvector with a positive eigenvalue below
        # the top one: power iteration settles on it at once.
        m = self.START_CASES[case]
        values, vectors = np.linalg.eigh(m)
        value, vector = _power_eigenpair(m, start=vectors[:, -2])
        assert values[-2] > 0.0
        assert value == pytest.approx(values[-1], abs=1e-8)
        assert residual(m, value, vector) <= 1e-7 * max(1.0, value)

    @pytest.mark.parametrize("start", [[2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0], [float("nan"), 1.0]])
    def test_bad_start_rejected(self, start):
        with pytest.raises(ValueError):
            _power_eigenpair(np.diag([3.0, 1.0]), start=start)


class TestSpectralNorm:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(900 + seed)
        m = rng.normal(size=(5, 5))
        m = (m + m.T) / 2.0
        expected = float(np.max(np.abs(np.linalg.eigvalsh(m))))
        assert spectral_norm(m) == pytest.approx(expected, abs=1e-8)

