"""Filter mechanics: threshold, tail rule, full loop, and set accounting.

Oracles: a full-sort version of the tail rule for its candidate-only form,
and an exact-moment loop (two-pass survivor moments, np.linalg.eigh and
the full-sort tail rule every round) for the loop's downdated moments.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dprobust.filtering import (
    SampleSizeWarning,
    Termination,
    _tail_removal,
    filter_gaussian_unknown_mean,
    thresh,
)
from dprobust.estimators import dp_robust_mean
from dprobust.linalg import empirical_covariance, empirical_mean, spectral_deviation
from dprobust.sensitivity import RobustConfig, robust_error_bound
from dprobust.datagen import ConstantCluster, DirectionalSpread, corrupt, sample_gaussian

# Several cases deliberately run below the d/gamma^2 guideline; the warning
# itself is exercised explicitly in test_sample_size_warning.
pytestmark = pytest.mark.filterwarnings("ignore::dprobust.filtering.SampleSizeWarning")


def project(data, mu, v):
    return np.abs((np.asarray(data, dtype=float) - mu) @ v)


def full_sort_tail_rule(proj, gamma):
    # The tail rule over every projection: sort all n, count each strict
    # tail, and compare with the allowed mass 8 exp(-T^2 / 2) + 8 gamma.
    n = proj.size
    sorted_proj = np.sort(proj)
    tail_counts = n - np.searchsorted(sorted_proj, sorted_proj, side="right")
    allowed = 8.0 * np.exp(-0.5 * np.square(sorted_proj)) + 8.0 * gamma
    hits = np.flatnonzero(tail_counts / n > allowed)
    if hits.size:
        return [int(i) for i in np.flatnonzero(proj > sorted_proj[hits[0]])]
    return [int(np.argmax(proj))]


def exact_moment_filter(data, cfg):
    """The filter loop with exact moments: every round takes the survivor
    mean and two-pass covariance, the top pair of (cov - I) from
    np.linalg.eigh, and the full-sort tail rule on the survivor copy, cut to
    its largest projection when it would breach the survivor floor."""
    arr = np.asarray(data, dtype=float)
    n, d = arr.shape
    threshold = thresh(cfg.gamma, cfg.c_thresh)
    floor = max(2, math.ceil((1.0 - 2.0 * cfg.gamma) * n))
    alive = np.arange(n)
    removed = []
    iterations = 0
    while True:
        subset = arr[alive]
        mu = empirical_mean(subset)
        values, vectors = np.linalg.eigh(empirical_covariance(subset, mu) - np.eye(d))
        deviation = max(0.0, float(values[-1]))
        if deviation <= threshold:
            term = Termination.CERTIFICATE
            break
        proj = project(subset, mu, vectors[:, -1])
        local = full_sort_tail_rule(proj, cfg.gamma)
        if alive.size - len(local) < floor and len(local) > 1:
            local = [int(np.argmax(proj))]
        if alive.size - len(local) < floor:
            term = Termination.FALLBACK_EXHAUSTED
            break
        removed.extend(int(i) for i in alive[local])
        alive = np.delete(alive, local)
        iterations += 1
    return mu, removed, deviation, term, iterations


def _attacked(n, d, gamma, adversary, seed):
    clean = sample_gaussian(n, d, 0.0, seed=seed)
    return corrupt(clean, gamma, adversary, seed=seed + 1, fixed_count=True)[0]


def _symmetric_two_axis(n_pairs, k, c, s, seed):
    # Rows (a, b) and (a, -b) in pairs, an inflated second axis and k rows
    # at (c, 0): sigma stays diagonal up to rounding, so e1 stays an
    # eigenvector to solver precision after e2 has become the top one.
    rng = np.random.default_rng(seed)
    half = np.column_stack([rng.standard_normal(n_pairs), s * rng.standard_normal(n_pairs)])
    rows = np.repeat(half, 2, axis=0)
    rows[1::2, 1] *= -1.0
    return np.vstack([rows, np.tile([c, 0.0], (k, 1))])


CERT = Termination.CERTIFICATE
# name: (data, config, ending, rounds allowed)
PARITY_CASES = {
    # One removal per round, 197 rounds.
    "constant_cluster": (
        lambda: _attacked(2000, 10, 0.1, ConstantCluster(offset=10.0), 71),
        RobustConfig(gamma=0.1),
        CERT,
        range(101, 2000),
    ),
    "directional_spread": (
        lambda: _attacked(2000, 10, 0.1, DirectionalSpread(), 73),
        RobustConfig(gamma=0.1),
        CERT,
        range(1, 2000),
    ),
    # e2 overtakes e1 as the top direction while both are above the
    # threshold, and is still above it once e1 falls below: 371 rounds.
    "symmetric_two_axis": (
        lambda: _symmetric_two_axis(1000, 100, 20.0, 1.5, 81),
        RobustConfig(gamma=0.1),
        CERT,
        range(101, 2000),
    ),
    "clean_round_zero": (lambda: sample_gaussian(3000, 10, 0.0, seed=75), RobustConfig(gamma=0.1), CERT, range(1)),
    "gamma_one_over_n": (
        lambda: sample_gaussian(500, 5, 0.0, seed=77),
        RobustConfig(gamma=1.0 / 500),
        Termination.FALLBACK_EXHAUSTED,
        range(500),
    ),
    # Far below the d/gamma^2 guideline: about half of the 200 removal
    # rounds end in np.linalg.eigh, most of them handed off early.
    "unsettled_rounds": (
        lambda: _attacked(1000, 60, 0.1, ConstantCluster(offset=10.0), 83),
        RobustConfig(gamma=0.1),
        Termination.FALLBACK_EXHAUSTED,
        range(200, 201),
    ),
}


class TestThresh:
    def test_at_one_over_e(self):
        assert thresh(1.0 / math.e, 1.0) == pytest.approx(1.0 / math.e, abs=1e-12)

    def test_at_point_one(self):
        assert thresh(0.1, 1.0) == pytest.approx(0.23025850929940457, abs=1e-12)

    def test_linear_in_c(self):
        assert thresh(0.1, 10.0) == pytest.approx(10.0 * thresh(0.1, 1.0), rel=1e-15)

    @pytest.mark.parametrize("g", [0.0, 0.5, -0.1])
    def test_domain(self, g):
        with pytest.raises(ValueError):
            thresh(g, 1.0)
        with pytest.raises(ValueError):
            thresh(0.1, -1.0)


class TestFilterStep:
    """The tail rule of one removal step, on projections onto a direction."""

    def test_identical_points_fallback_lowest_index(self):
        data = np.ones((6, 2))
        out = _tail_removal(project(data, np.ones(2), np.array([1.0, 0.0])), 0.1)
        assert out.tolist() == [0]

    def test_single_far_outlier_d1(self):
        # 99 points at 0, one at 50: the tail rule cannot fire (it would
        # need more than 8% of the mass in the tail at gamma = 0.01), so
        # the max-projection fallback removes exactly the outlier.
        data = np.zeros((100, 1))
        data[63, 0] = 50.0
        mu = empirical_mean(data)
        out = _tail_removal(project(data, mu, np.array([1.0])), 0.01)
        assert out.tolist() == [63]

    def test_removal_never_empty(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            data = rng.normal(size=(rng.integers(2, 30), 3))
            mu = empirical_mean(data)
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            assert len(_tail_removal(project(data, mu, v), 0.1)) >= 1

    def test_tail_rule_fires_at_small_gamma(self):
        # 10% of the mass sits at projection ~9; with gamma = 0.001 the
        # allowed tail is ~0.8% + 8 exp(-T^2/2), so the rule triggers and
        # removes the whole cluster at once instead of one point per call.
        rng = np.random.default_rng(11)
        data = rng.normal(size=(1000, 1))
        data[:100, 0] = 9.0
        mu = np.zeros(1)
        removed = _tail_removal(project(data, mu, np.array([1.0])), 0.001).tolist()
        assert set(range(100)) <= set(removed)
        assert len(removed) <= 115

    def test_tau_dependent_tail_alternative(self):
        # The input on which a T-dependent slack (decaying like 1/T^2) would
        # remove the whole 10% cluster at once: the flat 8*gamma slack the
        # filter uses allows 0.8 of the mass in any tail, so it falls back
        # to single removal.
        rng = np.random.default_rng(15)
        data = rng.normal(size=(1000, 4))
        data[:100, 0] = 9.0
        mu = np.zeros(4)
        v = np.array([1.0, 0.0, 0.0, 0.0])
        flat = _tail_removal(project(data, mu, v), 0.1)
        assert len(flat) == 1  # 8 * gamma = 0.8 is never exceeded

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=12.0) | st.sampled_from([0.0, 1.0, 2.72, 3.0, 9.0]),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from(["mixed", "above", "below"]),
        st.floats(min_value=1e-3, max_value=0.49),
    )
    @settings(max_examples=300, deadline=None)
    def test_candidate_rule_matches_full_sort(self, values, place, gamma):
        proj = np.array(values)
        if place == "above":  # every projection a candidate
            proj = proj + 2.73
        elif place == "below":
            proj = proj * (2.7 / 12.0)
        assert _tail_removal(proj, gamma).tolist() == full_sort_tail_rule(proj, gamma)


class TestFilterLoop:
    @pytest.mark.parametrize("case", PARITY_CASES)
    def test_matches_exact_moment_oracle(self, case):
        make, cfg, ending, rounds = PARITY_CASES[case]
        data = make()
        mean, removed, deviation, term, iterations = exact_moment_filter(data, cfg)
        assert term is ending and iterations in rounds  # the case tests what it names
        out = filter_gaussian_unknown_mean(data, cfg)
        diag = out.diagnostics
        assert diag.terminated_by is term
        assert diag.iterations == iterations
        # Indices may differ among identical planted rows; the rows, in
        # their order of removal, may not.
        assert [data[i].tobytes() for i in diag.removed_indices] == [data[i].tobytes() for i in removed]
        assert np.max(np.abs(out.mean - mean)) <= 1e-9
        if term is Termination.CERTIFICATE:
            assert diag.final_spectral_deviation == pytest.approx(deviation, abs=1e-12)
            # The certificate is the cold solve on the survivors' two-pass
            # covariance, bit for bit.
            sigma = empirical_covariance(out.surviving, out.mean)
            assert diag.final_spectral_deviation == spectral_deviation(sigma)

    def test_repeated_single_point(self):
        data = np.tile(np.array([4.0, -2.0, 7.0]), (50, 1))
        out = filter_gaussian_unknown_mean(data, RobustConfig(gamma=0.1, c_thresh=1.0))
        assert out.diagnostics.terminated_by is Termination.CERTIFICATE
        assert out.diagnostics.iterations == 0
        assert np.array_equal(out.mean, data[0])
        assert out.surviving.shape == data.shape

    def test_clean_gaussian_certificate(self):
        data = sample_gaussian(2000, 20, 0.0, seed=42)
        out = filter_gaussian_unknown_mean(data, RobustConfig(gamma=0.1, c_thresh=1.0))
        diag = out.diagnostics
        assert diag.terminated_by is Termination.CERTIFICATE
        assert float(np.linalg.norm(out.mean)) < robust_error_bound(0.1, 1.0)

    def test_planted_corruption_removed(self):
        clean = sample_gaussian(1500, 10, 0.0, seed=7)
        dirty, plan = corrupt(clean, 0.08, ConstantCluster(offset=9.0), seed=8, fixed_count=True)
        out = filter_gaussian_unknown_mean(dirty, RobustConfig(gamma=0.08, c_thresh=1.0))
        removed = set(out.diagnostics.removed_indices)
        planted = set(plan.replaced_indices)
        assert len(removed & planted) / len(planted) >= 0.9
        robust_err = float(np.linalg.norm(out.mean))
        naive_err = float(np.linalg.norm(dirty.mean(axis=0)))
        assert robust_err < 0.5 * naive_err

    def test_certificate_soundness_recheck(self):
        clean = sample_gaussian(1200, 8, 0.0, seed=19)
        dirty, _ = corrupt(clean, 0.05, ConstantCluster(offset=8.0), seed=20)
        out = filter_gaussian_unknown_mean(dirty, RobustConfig(gamma=0.05, c_thresh=1.0))
        diag = out.diagnostics
        if diag.terminated_by is Termination.CERTIFICATE:
            cov = empirical_covariance(out.surviving, empirical_mean(out.surviving))
            assert spectral_deviation(cov) <= diag.threshold + 1e-9

    def test_mean_matches_survivors(self):
        clean = sample_gaussian(900, 6, 0.0, seed=3)
        dirty, _ = corrupt(clean, 0.05, ConstantCluster(offset=7.0), seed=4)
        out = filter_gaussian_unknown_mean(dirty, RobustConfig(gamma=0.05, c_thresh=1.0))
        assert np.max(np.abs(out.mean - empirical_mean(out.surviving))) <= 1e-12

    def test_diagnostics_accounting(self):
        clean = sample_gaussian(800, 5, 0.0, seed=13)
        dirty, _ = corrupt(clean, 0.06, ConstantCluster(offset=6.0), seed=14)
        n = dirty.shape[0]
        out = filter_gaussian_unknown_mean(dirty, RobustConfig(gamma=0.06, c_thresh=1.0))
        diag = out.diagnostics
        assert diag.iterations <= n
        assert len(diag.removed_indices) == len(set(diag.removed_indices))
        assert len(diag.removed_indices) + out.surviving.shape[0] == n
        # Strict shrinkage: every removal round drops at least one row.
        assert len(diag.removed_indices) >= diag.iterations >= 1
        floor = max(2, math.ceil((1.0 - 2.0 * 0.06) * n))
        assert out.surviving.shape[0] >= floor

    def test_permutation_equivariance(self):
        clean = sample_gaussian(600, 4, 0.0, seed=29)
        dirty, _ = corrupt(clean, 0.05, ConstantCluster(offset=8.0), seed=30)
        cfg = RobustConfig(gamma=0.05, c_thresh=1.0)
        out_a = filter_gaussian_unknown_mean(dirty, cfg)
        rng = np.random.default_rng(31)
        perm = rng.permutation(dirty.shape[0])
        out_b = filter_gaussian_unknown_mean(dirty[perm], cfg)
        multiset_a = Counter(row.tobytes() for row in out_a.surviving)
        multiset_b = Counter(row.tobytes() for row in out_b.surviving)
        assert multiset_a == multiset_b
        assert np.max(np.abs(out_a.mean - out_b.mean)) <= 1e-10

    @pytest.mark.parametrize("k", [2, 20, 100])
    def test_far_outliers_removed(self, k):
        # k rows moved by 1e4 e1 push every clean projection into the tail
        # set, which would breach the floor; the loop removes them one by one.
        data = sample_gaussian(4000, 20, 0.0, seed=0)
        data[:k, 0] += 1e4
        out = filter_gaussian_unknown_mean(data, RobustConfig(gamma=0.1))
        diag = out.diagnostics
        assert diag.terminated_by is Termination.CERTIFICATE
        assert sorted(diag.removed_indices) == list(range(k))
        assert float(np.linalg.norm(out.mean)) <= robust_error_bound(0.1, 1.0)

    def test_survivor_floor_on_split_clusters(self):
        # Half the points far left, half far right: no certificate exists,
        # so the loop must stop at the survivor floor, not empty the set.
        data = np.zeros((100, 2))
        data[:50, 0] = -30.0
        data[50:, 0] = 30.0
        out = filter_gaussian_unknown_mean(data, RobustConfig(gamma=0.2, c_thresh=1.0))
        diag = out.diagnostics
        assert diag.terminated_by is Termination.FALLBACK_EXHAUSTED
        assert out.surviving.shape[0] >= max(2, math.ceil(0.6 * 100))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_moments_rejected(self):
        # Finite rows whose second moments overflow: the exact moments of
        # round 0 are validated, so both the filter and the release raise.
        data = sample_gaussian(200, 3, 0.0, seed=0)
        data[:5] = 1e200
        cfg = RobustConfig(gamma=0.1)
        with pytest.raises(ValueError, match="non-finite entries"):
            filter_gaussian_unknown_mean(data, cfg)
        with pytest.raises(ValueError, match="non-finite entries"):
            dp_robust_mean(data, cfg, epsilon=1.0, seed=0)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            filter_gaussian_unknown_mean(np.ones((1, 3)), RobustConfig(gamma=0.1))

    def test_sample_size_warning(self):
        data = sample_gaussian(50, 10, 0.0, seed=1)
        with pytest.warns(SampleSizeWarning):
            filter_gaussian_unknown_mean(data, RobustConfig(gamma=0.1, c_thresh=100.0))

    def test_removal_bound_on_attacked_data(self):
        # Certificate-terminating runs keep (removed + planted)/n near 2 gamma.
        gamma = 0.1
        hits = 0
        total = 0
        for t in range(5):
            clean = sample_gaussian(1500, 10, 0.0, seed=600 + t)
            dirty, plan = corrupt(clean, gamma, ConstantCluster(offset=8.0), seed=700 + t, fixed_count=True)
            out = filter_gaussian_unknown_mean(dirty, RobustConfig(gamma=gamma, c_thresh=1.0))
            if out.diagnostics.terminated_by is Termination.CERTIFICATE:
                total += 1
                ratio = (len(out.diagnostics.removed_indices) + plan.m_prime) / dirty.shape[0]
                hits += ratio <= 2.0 * gamma + 0.01
        assert total >= 1 and hits == total

