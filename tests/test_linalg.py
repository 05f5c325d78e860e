"""Linear-algebra primitives against dense oracles.

Oracles: math.fsum re-summation for the mean, an O(n d^2) double loop for
the covariance, and numpy's eigvalsh for the spectrum. spectral_deviation_pair
is one np.linalg.eigh of sigma - I; the warm-start solver _power_eigenpair
keeps a settled pair only when its bound on lambda_2 proves it is the top
one, and otherwise hands off to np.linalg.eigh, so it never calls eigvalsh;
spectral_norm is eigvalsh itself, so its test checks only the reduction to
the largest |eigenvalue|.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dprobust.linalg import (
    _power_eigenpair,
    as_dataset,
    as_sym_matrix,
    as_vector,
    empirical_covariance,
    empirical_mean,
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


def planted_gap():
    # sigma - I of data with a planted shift along e1: a wide spectral gap.
    data = np.random.default_rng(8).normal(size=(400, 8))
    data[:40, 0] += 6.0
    return empirical_covariance(data, empirical_mean(data)) - np.eye(8)


def small_gap(d, seed=41):
    # A top gap of 1e-9 over the rest of the spectrum in [0.9, 0.99], which
    # the power iteration cannot settle within d steps.
    rng = np.random.default_rng(seed)
    eigs = np.concatenate([rng.uniform(0.9, 0.99, size=d - 2), [1.0 - 1e-9, 1.0]])
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    m = q @ np.diag(eigs) @ q.T
    return (m + m.T) / 2.0


def slow_gap(d, seed=7):
    # lambda_1 = 1.2 over lambda_2 = 1.08, the rest uniform in [-0.7, 1.08]:
    # plain power iteration contracts by 0.9 a step, heavy-ball by about 0.6.
    rng = np.random.default_rng(seed)
    eigs = np.concatenate([rng.uniform(-0.7, 1.08, size=d - 2), [1.08, 1.2]])
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    m = q @ np.diag(eigs) @ q.T
    return (m + m.T) / 2.0


class CountingMatrix(np.ndarray):
    """A matrix view that counts its products with vectors."""

    def __matmul__(self, other):
        self.products += 1
        return np.asarray(self) @ other


def counted(m, monkeypatch):
    """m as a CountingMatrix, and the product counts at which eigh was called."""
    view = m.view(CountingMatrix)
    view.products = 0
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(view.products) or eigh(*a, **k))
    return view, calls


class TestValidation:
    """The finite checks read the minimum and maximum, not an (n, d) mask."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_last_entry_rejected(self, bad):
        data = np.zeros((50, 4))
        data[-1, -1] = bad
        with pytest.raises(ValueError, match="dataset contains non-finite entries"):
            as_dataset(data)
        with pytest.raises(ValueError, match="vector contains non-finite entries"):
            as_vector(data[-1])
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            as_sym_matrix(data[-4:])

    def test_largest_finite_values_pass(self):
        # A sum of these rows overflows; their minimum and maximum do not.
        data = np.full((50, 4), 1e308)
        assert np.array_equal(as_dataset(data), data)
        assert np.array_equal(as_vector(data[0], dim=4), data[0])

    def test_empty_matrix_passes(self):
        assert as_sym_matrix(np.empty((0, 0))).shape == (0, 0)


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

    # Blocks of the streamed sum: one at n = 2 and at n < 4 d; 11 blocks of
    # 91 rows, the last of 90, at (1000, 7); 20 of 201, the last of 182, at
    # (4001, 10); 44 blocks at (20000, 10).
    @pytest.mark.parametrize("n, d", [(2, 1), (2, 5), (30, 100), (1000, 7), (4001, 10), (20000, 10)])
    def test_streamed_sum_matches_one_gemm(self, n, d):
        rng = np.random.default_rng(n + d)
        data = 3.0 * rng.normal(size=(n, d)) + 1.0
        center = data.mean(axis=0)
        centered = data - center
        gemm = centered.T @ centered / n
        gemm = 0.5 * (gemm + gemm.T)
        cov = empirical_covariance(data, center)
        assert np.max(np.abs(cov - gemm)) <= 1e-12 * np.max(np.abs(gemm))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(77)
        data = rng.normal(size=(35, 4))
        center = empirical_mean(data)
        perm = rng.permutation(35)
        a = empirical_covariance(data, center)
        b = empirical_covariance(data[perm], center)
        assert np.max(np.abs(a - b)) <= 1e-12


class TestMaxEigenpair:
    """The algebraically largest eigenpair from _power_eigenpair's warm
    starts, under a valid bound on lambda_2.

    The class keeps the name of the deleted function it first tested, so
    that its test ids stay comparable across runs."""

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
        # Adversarial starts: all-ones, an eigenvector of several of these
        # matrices, and the eigenvector of lambda_2 itself, on which the
        # iteration settles at once. Bounds: lambda_2; inf and, when
        # lambda_2 < 0, a negative bound, both of which turn momentum off;
        # and lambda_1, under which no pair is proved and eigh takes over.
        d = m.shape[0]
        values, vectors = np.linalg.eigh(m)
        lambda_2 = float(values[-2])
        bounds = [lambda_2, math.inf, float(values[-1])] + ([0.5 * lambda_2] if lambda_2 < 0.0 else [])
        for start in (np.ones(d) / math.sqrt(d), vectors[:, -2]):
            for bound in bounds:
                value, vector, second = _power_eigenpair(as_sym_matrix(m), start, bound)
                assert value == pytest.approx(oracle_top_eigenvalue(m), abs=1e-8)
                assert abs(np.linalg.norm(vector) - 1.0) <= 1e-9
                assert residual(m, value, vector) <= 1e-7 * max(1.0, abs(value))
                if bound == values[-1]:
                    assert second == pytest.approx(lambda_2, abs=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            spectral_deviation_pair(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_unsettled_iteration_hands_off_early(self, monkeypatch):
        # The residual contracts by about 0.95 a step, so d = 60 steps cannot
        # reach 1e-7, which the first measured ratio already shows.
        d = 60
        m = small_gap(d)
        values, vectors = np.linalg.eigh(m)
        view, calls = counted(m, monkeypatch)
        value, vector, second = _power_eigenpair(view, np.ones(d) / math.sqrt(d), float(values[-2]))
        assert calls and calls[0] < d
        assert value == float(values[-1])
        assert np.array_equal(vector, vectors[:, -1])
        assert second == float(values[-2])

    def test_momentum_keeps_a_slow_gap_without_eigh(self, monkeypatch):
        # lambda_2 / lambda_1 = 0.9 at d = 200: plain power iteration's
        # residual ratio predicts it would miss the tolerance and hands off
        # after 10 products; heavy-ball steps from the bound lambda_2 settle
        # in about 40, and the bound proves the pair.
        d = 200
        m = slow_gap(d)
        values, vectors = np.linalg.eigh(m)
        view, calls = counted(m, monkeypatch)
        value, vector, second = _power_eigenpair(view, np.ones(d) / math.sqrt(d), float(values[-2]))
        assert calls == [] and second is None
        assert view.products < d
        assert value == pytest.approx(float(values[-1]), abs=1e-8)
        assert abs(np.linalg.norm(vector) - 1.0) <= 1e-9
        assert residual(m, value, vector) <= 1e-7 * max(1.0, value)


class TestSpectralDeviation:
    def test_identity_subtracted_in_place(self, monkeypatch):
        # The solver gets sigma - I bit for bit, and the caller's sigma is
        # left as it was.
        seen = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda mat: seen.append(mat.copy()) or eigh(mat))
        sigma = random_symmetric(3) + 2.0 * np.eye(5)
        before = sigma.copy()
        spectral_deviation_pair(sigma)
        assert len(seen) == 1
        assert np.array_equal(seen[0], as_sym_matrix(before) - np.eye(5))
        assert np.array_equal(sigma, before)

    def test_identity_exact_zero(self):
        assert spectral_deviation_pair(np.eye(5))[0] == 0.0

    def test_diagonal(self):
        assert spectral_deviation_pair(np.diag([1.5, 1.0]))[0] == pytest.approx(0.5, abs=1e-9)

    def test_clamps_when_all_below_identity(self):
        # Sigma - I has eigenvalues {-0.9, -0.5}; deviation clamps to 0.
        assert spectral_deviation_pair(np.diag([0.1, 0.5]))[0] == 0.0

    def test_negative_dominant_magnitude(self):
        # Sigma - I eigenvalues {-0.9, +0.3}: the magnitude-dominant one is
        # negative but the deviation must report the algebraic max 0.3.
        assert spectral_deviation_pair(np.diag([0.1, 1.3]))[0] == pytest.approx(0.3, abs=1e-8)

    def test_corrupted_data_matches_eigen_oracle(self, monkeypatch):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(400, 8))
        data[:40] += np.array([6.0] + [0.0] * 7)  # planted shift
        cov = empirical_covariance(data, empirical_mean(data))
        expected = max(0.0, oracle_top_eigenvalue(cov - np.eye(8)))
        # Exact moments are solved by one eigh, however wide the gap.
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        assert spectral_deviation_pair(cov)[0] == pytest.approx(expected, abs=1e-8)
        assert calls == [1]

    def test_direction_residual_in_high_dimension(self):
        # d = 500 with n = 1000: a small spectral gap; the direction must
        # still be accurate.
        data = np.random.default_rng(0).normal(size=(1000, 500))
        cov = empirical_covariance(data, empirical_mean(data))
        value, vector, _ = spectral_deviation_pair(cov)
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
        assert spectral_deviation_pair(rotated)[0] == pytest.approx(
            spectral_deviation_pair(base)[0], abs=1e-8
        )


    # Matrices m = sigma - I with their top pairs, for the warm starts the
    # filter loop gives _power_eigenpair.
    START_CASES = {
        "diagonal": np.diag([3.0, 1.0]),
        "nullspace_start": np.array([[2.0, -2.0], [-2.0, 2.0]]),
        "ones_not_top": np.array([[3.0, -1.0], [-1.0, 3.0]]),
        "shifted_random": random_symmetric(0) + 4.0 * np.eye(5),
        # lambda_2 < 0, so the bound lambda_2 turns momentum off.
        "negative_second": np.diag([-2.0, -0.5, 1.5]),
    }

    @pytest.mark.parametrize("case", ["diagonal", "ones_not_top", "shifted_random"])
    def test_lower_eigenvector_start_still_gives_top_pair(self, case):
        # The start is an exact eigenvector with a positive eigenvalue below
        # the top one: power iteration settles on it at once, and with no
        # usable bound (inf, or lambda_1, which no pair can beat) the pair
        # is never kept.
        m = self.START_CASES[case]
        values, vectors = np.linalg.eigh(m)
        assert values[-2] > 0.0
        for bound in (math.inf, float(values[-1])):
            value, vector, _ = _power_eigenpair(m, vectors[:, -2], bound)
            assert value == pytest.approx(values[-1], abs=1e-8)
            assert residual(m, value, vector) <= 1e-7 * max(1.0, value)

    @pytest.mark.parametrize("case", ["diagonal", "ones_not_top", "shifted_random"])
    @pytest.mark.parametrize("slack", [0.0, 0.5])
    def test_lower_eigenvector_start_with_valid_bound_gives_top_pair(self, case, slack):
        # A valid lambda_2 bound cannot certify a pair settled on lambda_2
        # itself: the solver hands off to eigh, which gives lambda_2 too.
        m = self.START_CASES[case]
        values, vectors = np.linalg.eigh(m)
        value, vector, second = _power_eigenpair(m, vectors[:, -2], values[-2] + slack)
        assert value == pytest.approx(values[-1], abs=1e-8)
        assert residual(m, value, vector) <= 1e-7 * max(1.0, value)
        assert second == pytest.approx(values[-2], abs=1e-12)

    @pytest.mark.parametrize("case", START_CASES)
    def test_top_start_under_bound_skips_spectral_calls(self, case, monkeypatch):
        # The top eigenvector as start settles at once, and a valid lambda_2
        # bound keeps it exactly, with no spectral call.
        m = self.START_CASES[case]
        values, vectors = np.linalg.eigh(m)
        calls = []
        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, **k: calls.append(_name))
        value, vector, second = _power_eigenpair(m, vectors[:, -1], values[-2])
        assert calls == [] and second is None
        assert np.array_equal(vector, vectors[:, -1])
        assert value == pytest.approx(values[-1], abs=1e-12)

    # (matrix, start, bound, whether the solve computes a spectrum); a start
    # of k is the eigenvector of the k-th largest eigenvalue, and a bound of
    # None is lambda_2 itself. The cold cases take no start: they are the
    # exact solve, spectral_deviation_pair of m + I, which the filter's
    # carried bound starts from.
    SECOND_CASES = {
        "cold_planted_gap": (planted_gap(), None, None, True),
        "cold_small_gap": (small_gap(20), None, None, True),
        "cold_negative_1d": (np.array([[-1.0]]), None, None, True),
        "warm_top_no_bound": (START_CASES["shifted_random"], 1, math.inf, True),
        "warm_top_1d": (np.array([[2.0]]), 1, math.inf, True),
        "warm_top_under_bound": (START_CASES["shifted_random"], 1, None, False),
        "warm_lower_start": (START_CASES["ones_not_top"], 2, None, True),
    }

    @pytest.mark.parametrize("case", SECOND_CASES)
    def test_second_is_lambda_2_of_the_spectrum_computed(self, case, monkeypatch):
        m, start, bound, computes = self.SECOND_CASES[case]
        values, vectors = np.linalg.eigh(m)
        lambda_2 = float(values[-2]) if m.shape[0] > 1 else -math.inf
        calls = []
        for name in ("eigvalsh", "eigh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, _name=name, _solver=solver, **k: calls.append(_name) or _solver(*a, **k)
            )
        if start is None:
            value, vector, second = spectral_deviation_pair(m + np.eye(m.shape[0]))
            assert calls == ["eigh"]
            top = max(0.0, float(values[-1]))
        else:
            value, vector, second = _power_eigenpair(m, vectors[:, -start], lambda_2 if bound is None else bound)
            top = float(values[-1])
        assert bool(calls) is computes
        if computes:
            assert second == pytest.approx(lambda_2, abs=1e-12)
        else:
            assert second is None
        assert value == pytest.approx(top, abs=1e-8)


class TestSpectralNorm:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(900 + seed)
        m = rng.normal(size=(5, 5))
        m = (m + m.T) / 2.0
        expected = float(np.max(np.abs(np.linalg.eigvalsh(m))))
        assert spectral_norm(m) == pytest.approx(expected, abs=1e-8)

