"""Filter mechanics: threshold, the one-row removal round, full loop, and set
accounting.

The tail rule of Diakonikolas et al. is kept here in full-sort form as a
reference: a property test shows that under the survivor floor it only ever
removes the row of largest projection, which is the one row the loop removes.
Oracle: an exact-moment loop (two-pass survivor moments, np.linalg.eigh and
the full-sort tail rule every round) for the loop's carried moments.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dprobust import filtering
from dprobust.filtering import (
    SampleSizeWarning,
    Termination,
    filter_gaussian_unknown_mean,
    thresh,
)
from dprobust.estimators import dp_robust_mean
from dprobust.linalg import _power_eigenpair, empirical_covariance, empirical_mean, spectral_deviation_pair
from dprobust.sensitivity import RobustConfig, robust_error_bound
from dprobust.datagen import ConstantCluster, DirectionalSpread, corrupt, sample_gaussian

# Several cases deliberately run below the d/gamma^2 guideline; the warning
# itself is exercised explicitly in test_sample_size_warning.
pytestmark = pytest.mark.filterwarnings("ignore::dprobust.filtering.SampleSizeWarning")


def survivors(data, out):
    # The rows the filter kept, in their original order.
    return np.delete(np.asarray(data, dtype=float), out.diagnostics.removed_indices, axis=0)


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


def _far_outliers(n, d, k):
    # README's case: k rows of N(0, I_d) moved by 1e4 e1.
    data = sample_gaussian(n, d, 0.0, seed=0)
    data[:k, 0] += 1e4
    return data


def _planted_and_far(far):
    # 400 rows at 10 e1 and far rows of N(0, I_20) moved by 1e4 e1: at far =
    # 100 they pull the input mean about 250 from the clean rows.
    data = sample_gaussian(4000, 20, 0.0, seed=1)
    data[:400] = 0.0
    data[:400, 0] = 10.0
    data[400 : 400 + far, 0] += 1e4
    return data


def _start_eigenvector_pair():
    """A dataset built so that a fixed start vector u0 is an exact
    eigenvector of sigma - I with eigenvalue 0.1, under the threshold 0.2303
    at gamma = 0.1 and C = 1, while lambda_max is 899 along v, and a
    neighbour one row away.

    Coefficients along (u0, v, w1, w2): +-sqrt(1.1) along u0; +90 on 104
    rows and -10 on 936 along v; and sign patterns tiled per 4 rows along
    (u0, w1, w2), so every cross-covariance is exactly 0. u0 is the start of
    an earlier solver, which certified this dataset at round 0. The
    neighbour moves one row by 0.5 w1, is not built around u0, and removes
    the 104 rows.
    """
    d, n = 4, 1040
    u0 = np.random.Generator(np.random.Philox(key=0xD1FE)).standard_normal(d)
    u0 /= np.linalg.norm(u0)
    basis, _ = np.linalg.qr(np.column_stack([u0, np.eye(d)[:, : d - 1]]))
    basis[:, 0] = u0
    u0, v, w1, w2 = basis.T
    signs = np.tile([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]], (n // 4, 1))
    along_v = np.where(np.arange(n) < 104, 90.0, -10.0)
    data = np.outer(math.sqrt(1.1) * signs[:, 0], u0) + np.outer(along_v, v)
    data += np.outer(signs[:, 1], w1) + np.outer(signs[:, 2], w2)
    neighbour = data.copy()
    neighbour[-1] += 0.5 * w1
    return data, neighbour


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


class TestOneRowRule:
    """The tail rule cut to the survivor floor is the argmax row."""

    @given(
        st.data(),
        st.integers(min_value=2, max_value=60),
        st.floats(min_value=1e-3, max_value=0.499) | st.sampled_from([0.005, 0.01, 0.1, 0.45]),
    )
    @settings(max_examples=300, deadline=None)
    def test_tail_set_is_argmax_or_breaches_floor(self, data, n, gamma):
        # Projections of m survivors, with m at or above the floor as in
        # every removal round.
        floor = max(2, math.ceil((1.0 - 2.0 * gamma) * n))
        m = data.draw(st.integers(min_value=floor, max_value=n))
        values = st.floats(min_value=0.0, max_value=12.0) | st.sampled_from([0.0, 1.0, 2.72, 3.0, 9.0])
        proj = data.draw(arrays(np.float64, m, elements=values))
        tail = full_sort_tail_rule(proj, gamma)
        assert tail == [int(np.argmax(proj))] or m - len(tail) < floor


class TestSecondEigenvalueBound:
    """The bound the loop carries to certify warm eigenpairs: for nested
    survivor sets S_k within S_j and rho = m_j / m_k, lambda_2 of
    cov(S_k) - I is at most rho * lambda_2(cov(S_j) - I) + rho - 1, that is
    m_k (lambda_2(S_k) + 1) <= m_j (lambda_2(S_j) + 1): lambda_2 of the
    scatter matrix m cov(S) never grows as rows leave."""

    @given(st.data(), st.integers(min_value=2, max_value=5), st.integers(min_value=3, max_value=30))
    @settings(max_examples=300, deadline=None)
    def test_holds_over_nested_sets(self, data, d, n):
        rows = data.draw(arrays(np.float64, (n, d), elements=st.floats(min_value=-10.0, max_value=10.0)))
        order = data.draw(st.permutations(range(n)))
        sizes = sorted(data.draw(st.sets(st.integers(min_value=2, max_value=n), min_size=2)), reverse=True)
        seconds = []
        for m in sizes:
            subset = rows[list(order[:m])]
            cov = empirical_covariance(subset, subset.mean(axis=0))
            seconds.append(np.linalg.eigvalsh(cov - np.eye(d))[-2])
        for j, m_j in enumerate(sizes):
            for m_k, second in zip(sizes[j + 1 :], seconds[j + 1 :]):
                rho = m_j / m_k
                assert second <= rho * seconds[j] + rho - 1.0 + 1e-12
                # The scatter form the loop carries as cap = m (lambda_2 + 1).
                assert m_k * (second + 1.0) <= m_j * (seconds[j] + 1.0) + 1e-12 * m_k


class TestSurvivorMean:
    @given(st.data(), st.integers(min_value=2, max_value=300), st.integers(min_value=2, max_value=12))
    @settings(deadline=None)
    def test_masked_sum_equals_mean_of_gathered_rows(self, data, n, d):
        values = st.floats(min_value=-1e6, max_value=1e6) | st.sampled_from([0.0, -0.0, 1e-300])
        arr = data.draw(arrays(np.float64, (n, d), elements=values))
        dead = data.draw(arrays(np.bool_, n))
        dead[data.draw(st.integers(min_value=0, max_value=n - 1))] = False
        alive = ~dead
        mean = filtering._survivor_mean(arr, dead, int(alive.sum()))
        assert np.array_equal(mean, arr[alive].mean(axis=0))


def removal_directions(data, cfg, flip=False):
    """Run the filter and return its outcome with the direction each removal
    round projected onto: the last one a solve returned before that round.
    With flip, every other removal-round solve returns -x for its x, as
    np.linalg.eigh may; the carried warm start then flips with it."""
    events = []

    def exact(sigma):
        deviation, x, second = spectral_deviation_pair(sigma)
        events.append(x)
        return deviation, x, second

    def warm(mat, start, bound):
        events.append(None)  # a removal round has just removed its row
        lam, x, second = _power_eigenpair(mat, start, bound)
        if flip and len(events) % 2:
            x = -x
        events.append(x)
        return lam, x, second

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filtering, "spectral_deviation_pair", exact)
        mp.setattr(filtering, "_power_eigenpair", warm)
        out = filter_gaussian_unknown_mean(data, cfg)
    directions = [events[k - 1] for k, e in enumerate(events) if e is None]
    # The round that ends at the survivor floor removes nothing and solves nothing.
    return out, directions


def _dense_cluster(n, d, k, seed):
    # k copies of one point 10 from the mean, with no zero coordinate, at
    # indices below n - 1.
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d))
    point = rng.standard_normal(d)
    point[0] += 10.0
    data[rng.choice(n - 1, k, replace=False)] = point
    return data


def _tiny_clean_rows(n, d, scale, seed):
    # A planted cluster at 10 e1 over clean rows shrunk to scale: the data
    # are scaled by 1e-8 where it matters, and the filter still has rows to remove.
    data = _attacked(n, d, 0.1, ConstantCluster(offset=10.0), seed)
    clean = data[:, 0] != 10.0
    data[clean] *= scale
    return data


# name: (data, config). Each case removes rows.
RULE_CASES = {
    # 200 identical planted rows: each round ties those left.
    "planted_identical": (lambda: _attacked(2000, 10, 0.1, ConstantCluster(offset=10.0), 71), RobustConfig(gamma=0.1)),
    # Identical rows whose projections round in every coordinate, at odd n.
    "planted_dense_identical": (lambda: _dense_cluster(1001, 20, 100, 0), RobustConfig(gamma=0.1)),
    "far_outliers": (lambda: _far_outliers(4000, 20, 20), RobustConfig(gamma=0.1)),
    # Far rows that pull the input mean far from the rows a full pass measures.
    "planted_and_far": (lambda: _planted_and_far(100), RobustConfig(gamma=0.1)),
    "offset_1e6": (lambda: _attacked(1000, 10, 0.1, DirectionalSpread(), 91) + 1e6, RobustConfig(gamma=0.1)),
    "scale_1e-8": (lambda: _tiny_clean_rows(1000, 10, 1e-8, 93), RobustConfig(gamma=0.1)),
    "scale_1e8": (lambda: _attacked(1000, 10, 0.1, ConstantCluster(offset=10.0), 93) * 1e8, RobustConfig(gamma=0.1)),
    "d1_n3": (lambda: np.array([[0.0], [1.0], [50.0]]), RobustConfig(gamma=0.45)),
}


class TestRemovalRule:
    """Each round removes the survivor of largest |(x - mean(S)) . v|, the
    lowest index on a tie, however the loop finds it.

    Most rounds project only the rows that can still win, and the others
    project every row, both row by row. The check projects with its own
    (x - mean) @ v, which can differ from the loop's in the last bits, so a
    removed row is checked against the largest projection to within 1e-9 of
    it, not bit for bit. Identical rows tie exactly in the row-by-row
    projection (see the last two tests here)."""

    @staticmethod
    def check_rule(data, out, directions):
        data = np.asarray(data, dtype=float)
        removed = out.diagnostics.removed_indices
        assert len(removed) == len(directions) >= 1
        alive = np.ones(len(data), dtype=bool)
        for i, v in zip(removed, directions):
            rows = np.flatnonzero(alive)
            mu = data[rows].mean(axis=0)
            proj = project(data[rows], mu, v)
            tol = 1e-9 * proj.max()
            assert alive[i] and proj[np.searchsorted(rows, i)] >= proj.max() - tol
            assert i == rows[np.argmax(proj >= proj.max() - tol)]
            alive[i] = False

    @pytest.mark.parametrize("case", RULE_CASES)
    def test_removes_the_lowest_index_of_largest_projection(self, case):
        make, cfg = RULE_CASES[case]
        data = make()
        out, directions = removal_directions(data, cfg)
        self.check_rule(data, out, directions)

    def test_sign_flipped_directions(self, monkeypatch):
        # |projection| does not see the sign of v, so neither the removals nor
        # the number of rows each round projects change when the solver
        # returns -v.
        make, cfg = RULE_CASES["planted_identical"]
        data = make()
        projected = []
        flatnonzero = np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero", lambda a: projected.append(int(np.count_nonzero(a))) or flatnonzero(a))
        base = filter_gaussian_unknown_mean(data, cfg)
        base_projected, projected[:] = projected[:], []
        out, directions = removal_directions(data, cfg, flip=True)
        assert projected == base_projected and max(projected) <= 200
        assert any(a @ b < 0 for a, b in zip(directions, directions[1:]))
        assert out.diagnostics.removed_indices == base.diagnostics.removed_indices
        self.check_rule(data, out, directions)

    def test_far_rows_need_few_full_passes(self, monkeypatch):
        # The last full pass bounds every survivor with one radius about its
        # own centre, so once the far rows are gone the planted rows are
        # found from one more pass. A radius measured about the input mean,
        # which the far rows pull about 250 away, would stay loose for the
        # whole release: 15 full passes.
        data = _planted_and_far(100)
        # Per round that bounds the projections: its candidates and survivors.
        rounds, solves = [], []
        flatnonzero, solve = np.flatnonzero, filtering._power_eigenpair
        monkeypatch.setattr(
            np, "flatnonzero", lambda a: rounds.append((flatnonzero(a).size, len(data) - len(solves))) or flatnonzero(a)
        )
        monkeypatch.setattr(filtering, "_power_eigenpair", lambda *a: solves.append(1) or solve(*a))
        diag = filter_gaussian_unknown_mean(data, RobustConfig(gamma=0.1)).diagnostics
        assert diag.terminated_by is Termination.CERTIFICATE and diag.iterations >= 490
        # The first full pass has no earlier one to bound from.
        full_passes = 1 + sum(not 0 < 2 * k <= m for k, m in rounds)
        assert full_passes <= 3

    def test_identical_dense_rows_leave_in_index_order(self):
        # 100 copies of one point with no zero coordinate, one of them at
        # index n - 1 at odd n, where a BLAS matvec may round that lone
        # trailing row apart from its twins. Full passes project row by row
        # as the candidates do, so the copies tie and leave in index order.
        n, d = 1001, 20
        for seed in range(30):
            rng = np.random.default_rng(seed)
            data = rng.standard_normal((n, d))
            point = rng.standard_normal(d)
            point[0] += 10.0
            copies = set(rng.choice(n - 1, 99, replace=False).tolist()) | {n - 1}
            data[list(copies)] = point
            removed = filter_gaussian_unknown_mean(data, RobustConfig(gamma=0.1)).diagnostics.removed_indices
            order = [i for i in removed if i in copies]
            assert len(order) >= 99 and order == sorted(order)

    @pytest.mark.parametrize("d", [1, 7, 50])
    def test_identical_rows_tie_in_the_candidate_projection(self, d):
        # BLAS's matvec may round a lone trailing row differently from the
        # rest, so identical rows need not tie in one matvec call; the
        # loop's row-by-row projection ties them.
        rows = np.vstack([sample_gaussian(2, d, 0.0, seed=4), np.tile(sample_gaussian(1, d, 0.0, seed=5), (997, 1))])
        v = sample_gaussian(1, d, 0.0, seed=6)[0]
        for k in (2, 3, 5, 997):
            assert np.unique(np.einsum("ij,j->i", rows[: k + 2], v)[2:]).size == 1


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
            # The certificate is one eigh of the survivors' two-pass
            # covariance, bit for bit.
            sigma = empirical_covariance(survivors(data, out), out.mean)
            assert diag.final_spectral_deviation == spectral_deviation_pair(sigma)[0]

    # Each case runs about 200 removal rounds. The limits are the measured
    # eigvalsh + eigh calls of the whole run: the carried lambda_2 bound
    # keeps warm pairs with no spectral call, so a per-round factorization
    # or spectrum would break them.
    SPECTRAL_CALLS = {"constant_cluster": 8, "unsettled_rounds": 106}

    @pytest.mark.parametrize("case", SPECTRAL_CALLS)
    def test_warm_pairs_need_no_factorization(self, case, monkeypatch):
        make, cfg, _ending, _rounds = PARITY_CASES[case]
        data = make()
        calls = Counter()
        for name in ("cholesky", "eigvalsh", "eigh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, _name=name, _solver=solver, **k: calls.update([_name]) or _solver(*a, **k)
            )
        out = filter_gaussian_unknown_mean(data, cfg)
        assert out.diagnostics.iterations >= 197
        assert calls["cholesky"] == 0
        assert calls["eigvalsh"] + calls["eigh"] <= self.SPECTRAL_CALLS[case]

    @pytest.mark.parametrize("case", ["constant_cluster", "symmetric_two_axis"])
    def test_carried_bound_holds_every_round(self, case, monkeypatch):
        # Every bound the loop hands the solver, cap / m - 1, is at least
        # lambda_2 of the matrix it solves, up to the rounding of the carried
        # mat.
        make, cfg, _ending, _rounds = PARITY_CASES[case]
        slack = []

        def solve(mat, start, bound):
            slack.append(bound - np.linalg.eigvalsh(mat)[-2])
            return _power_eigenpair(mat, start, bound)

        monkeypatch.setattr(filtering, "_power_eigenpair", solve)
        filter_gaussian_unknown_mean(make(), cfg)
        assert len(slack) > 100 and min(slack) >= -1e-9

    CARRIED_CASES = {
        # About 494 removal rounds.
        "constant_cluster_5000": (
            lambda: _attacked(5000, 50, 0.1, ConstantCluster(offset=10.0), 11),
            RobustConfig(gamma=0.1),
        ),
        "offset_1e6": RULE_CASES["offset_1e6"],
        "scale_1e8": RULE_CASES["scale_1e8"],
    }

    @pytest.mark.parametrize("case", CARRIED_CASES)
    def test_carried_moments_match_two_pass(self, case, monkeypatch):
        # Each removal round's mat, updated one removed row at a time, is the
        # two-pass sigma - I of that round's survivors, the rows left by the
        # prefix of removed_indices. The tolerance is 1e-12 s (s + ||mu||),
        # s^2 = max |sigma| and ||mu|| the survivor mean's largest entry:
        # 1e-12 of sigma, plus the rounding of x - mean when the data sit
        # ||mu|| from the origin.
        make, cfg = self.CARRIED_CASES[case]
        data = make()
        mats = []

        def solve(mat, start, bound):
            mats.append(mat.copy())
            return _power_eigenpair(mat, start, bound)

        monkeypatch.setattr(filtering, "_power_eigenpair", solve)
        removed = filter_gaussian_unknown_mean(data, cfg).diagnostics.removed_indices
        assert len(mats) == len(removed) >= 99
        alive = np.ones(len(data), dtype=bool)
        for i, mat in zip(removed, mats):
            alive[i] = False
            kept = data[alive]
            mu = kept.mean(axis=0)
            sigma = empirical_covariance(kept, mu)
            s = math.sqrt(np.abs(sigma).max())
            tol = 1e-12 * s * (s + np.abs(mu).max())
            assert np.abs(mat - (sigma - np.eye(data.shape[1]))).max() <= tol

    def test_certificate_holds_for_start_eigenvector(self):
        # See _start_eigenvector_pair: the dataset certified at round 0
        # under a solver that started from u0.
        data, neighbour = _start_eigenvector_pair()
        cfg = RobustConfig(gamma=0.1, c_thresh=1.0)
        reports = [dp_robust_mean(x, cfg, epsilon=1.0, seed=0, diagnostic=True) for x in (data, neighbour)]
        assert reports[0].filter_diag.iterations > 0
        assert all(r.filter_diag.terminated_by is Termination.CERTIFICATE for r in reports)
        moved = float(np.linalg.norm(reports[0].robust_mean - reports[1].robust_mean))
        assert moved <= reports[0].sensitivity_used

    def test_identical_points_removed_lowest_index_first(self):
        # Three identical rows tie for the largest projection every round they survive.
        data = np.zeros((20, 1))
        data[[2, 5, 9], 0] = 10.0
        out = filter_gaussian_unknown_mean(data, RobustConfig(gamma=0.2))
        assert out.diagnostics.removed_indices == [2, 5, 9]
        assert out.diagnostics.terminated_by is Termination.CERTIFICATE

    def test_single_far_outlier_d1(self):
        # 99 points at 0, one at 50: the outlier is removed first, and the
        # rest certify.
        data = np.zeros((100, 1))
        data[63, 0] = 50.0
        out = filter_gaussian_unknown_mean(data, RobustConfig(gamma=0.01))
        assert out.diagnostics.removed_indices == [63]
        assert out.diagnostics.terminated_by is Termination.CERTIFICATE
        assert np.array_equal(out.mean, np.zeros(1))

    def test_repeated_single_point(self):
        data = np.tile(np.array([4.0, -2.0, 7.0]), (50, 1))
        out = filter_gaussian_unknown_mean(data, RobustConfig(gamma=0.1, c_thresh=1.0))
        assert out.diagnostics.terminated_by is Termination.CERTIFICATE
        assert out.diagnostics.iterations == 0
        assert np.array_equal(out.mean, data[0])
        assert survivors(data, out).shape == data.shape

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
            kept = survivors(dirty, out)
            cov = empirical_covariance(kept, empirical_mean(kept))
            assert spectral_deviation_pair(cov)[0] <= diag.threshold + 1e-9

    def test_mean_matches_survivors(self):
        clean = sample_gaussian(900, 6, 0.0, seed=3)
        dirty, _ = corrupt(clean, 0.05, ConstantCluster(offset=7.0), seed=4)
        out = filter_gaussian_unknown_mean(dirty, RobustConfig(gamma=0.05, c_thresh=1.0))
        assert np.max(np.abs(out.mean - empirical_mean(survivors(dirty, out)))) <= 1e-12

    def test_diagnostics_accounting(self):
        clean = sample_gaussian(800, 5, 0.0, seed=13)
        dirty, _ = corrupt(clean, 0.06, ConstantCluster(offset=6.0), seed=14)
        n = dirty.shape[0]
        out = filter_gaussian_unknown_mean(dirty, RobustConfig(gamma=0.06, c_thresh=1.0))
        diag = out.diagnostics
        assert diag.iterations <= n
        assert len(diag.removed_indices) == len(set(diag.removed_indices))
        assert len(diag.removed_indices) + survivors(dirty, out).shape[0] == n
        # Strict shrinkage: every removal round drops at least one row.
        assert len(diag.removed_indices) >= diag.iterations >= 1
        floor = max(2, math.ceil((1.0 - 2.0 * 0.06) * n))
        assert survivors(dirty, out).shape[0] >= floor

    def test_permutation_equivariance(self):
        clean = sample_gaussian(600, 4, 0.0, seed=29)
        dirty, _ = corrupt(clean, 0.05, ConstantCluster(offset=8.0), seed=30)
        cfg = RobustConfig(gamma=0.05, c_thresh=1.0)
        out_a = filter_gaussian_unknown_mean(dirty, cfg)
        rng = np.random.default_rng(31)
        perm = rng.permutation(dirty.shape[0])
        out_b = filter_gaussian_unknown_mean(dirty[perm], cfg)
        multiset_a = Counter(row.tobytes() for row in survivors(dirty, out_a))
        multiset_b = Counter(row.tobytes() for row in survivors(dirty[perm], out_b))
        assert multiset_a == multiset_b
        assert np.max(np.abs(out_a.mean - out_b.mean)) <= 1e-10

    @pytest.mark.parametrize("k", [2, 20, 100])
    def test_far_outliers_removed(self, k):
        # k rows moved by 1e4 e1 shift the mean so far that the tail rule
        # would put every clean row in its tail; one row a round removes
        # exactly the moved rows.
        data = _far_outliers(4000, 20, k)
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
        assert survivors(data, out).shape[0] >= max(2, math.ceil(0.6 * 100))

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


def _one_row_neighbours(data, planted, release):
    """Fixed neighbours of data, each one row away: a clean row moved to 20
    e1 or by 0.1 e1, the first removed row moved to the survivors' mean, and
    that clean row replaced by a copy of the removed row. The clean row is
    the first one neither planted nor removed."""
    removed = release.filter_diag.removed_indices
    out = set(planted) | set(removed)
    keep = next(i for i in range(len(data)) if i not in out)
    far, near = data.copy(), data.copy()
    far[keep] = 0.0
    far[keep, 0] = 20.0
    near[keep, 0] += 0.1
    yield far
    yield near
    if removed:
        to_mean, copy = data.copy(), data.copy()
        to_mean[removed[0]] = release.robust_mean
        copy[keep] = data[removed[0]]
        yield to_mean
        yield copy


class TestOneRowNeighbours:
    def test_certified_pairs_move_at_most_the_sensitivity(self):
        # The privacy claim on data: where both ends of a one-row pair
        # certify, the filtered means differ by at most sensitivity_used,
        # the sensitivity the noise is calibrated to. Clean rows, the same
        # rows under a planted cluster at three offsets, and the crafted
        # start-eigenvector pair; 15 pairs, all of them certified, with the
        # largest movement 0.002 of the sensitivity.
        cfg = RobustConfig(gamma=0.1, c_thresh=1.0)

        def release(x):
            return dp_robust_mean(x, cfg, epsilon=1.0, seed=0, diagnostic=True)

        clean = sample_gaussian(500, 10, 0.0, seed=5)
        pairs = [tuple(release(x) for x in _start_eigenvector_pair())]
        for offset in (None, 3.0, 5.0, 10.0):
            data, planted = clean, []
            if offset is not None:
                data, plan = corrupt(clean, 0.1, ConstantCluster(offset=offset), seed=6, fixed_count=True)
                planted = plan.replaced_indices
            base = release(data)
            pairs += [(base, release(x)) for x in _one_row_neighbours(data, planted, base)]
        certified = 0
        for a, b in pairs:
            if a.filter_diag.terminated_by is b.filter_diag.terminated_by is Termination.CERTIFICATE:
                certified += 1
                assert np.linalg.norm(a.robust_mean - b.robust_mean) <= a.sensitivity_used
        assert certified >= 12
