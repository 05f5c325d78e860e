"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured quantities.

Heavy simulations (the constant-cluster attack trials) are shared across
criteria through session fixtures. Criterion tolerances are fixed here and
nowhere else. Run with -s to see the criterion lines as they complete.

Criterion 7 is asserted exactly as stated and is expected to fail: with
noise calibrated to the certificate bound (3 + 2 sqrt(g)) kappa(g)
+ 2 g sqrt(C ln(1/g)) at gamma = 0.1 and a winsorized baseline (the mean
of the data clamped to [-R, R]) released through a single l2 Gaussian
mechanism with sensitivity 2 R sqrt(d) / n, the winsorized error at
n = 1000, d = 200, R = 10 is about 0.04x the filtered estimator's error,
not >= 10x. No parameter choice permitted by the other criteria
(epsilon = 1, R = 10, any C, any tau shared by both mechanisms) reverses
that ordering; see the ordering checks inside the test for what does hold.
"""

import time
import warnings

import numpy as np
import pytest

import dprobust as dp
from dprobust.estimators import Method
from dprobust.harness import ExperimentConfig, run_sweep

GAMMA = 0.1
TAU = 0.05
EPSILON = 1.0


def report_line(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="session")
def attack_trials():
    """Criterion 6 setup shared with criterion 9.

    50 trials of the constant-cluster adversary (offset 10 e_1) at
    gamma = 0.1, n = 5000, d = 50, fixed replacement count, C = 1.
    """
    results = []
    cfg = dp.RobustConfig(gamma=GAMMA, tau=TAU, c_thresh=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dp.SampleSizeWarning)
        for trial in range(50):
            clean = dp.sample_gaussian(5000, 50, 0.0, seed=61_000 + trial)
            dirty, plan = dp.corrupt(
                clean, GAMMA, dp.ConstantCluster(offset=10.0), seed=62_000 + trial,
                fixed_count=True,
            )
            outcome = dp.filter_gaussian_unknown_mean(dirty, cfg)
            diag = outcome.diagnostics
            removed = set(diag.removed_indices)
            planted = set(plan.replaced_indices)
            results.append(
                {
                    "certificate": diag.terminated_by is dp.Termination.CERTIFICATE,
                    "planted": len(planted),
                    "removed": len(removed),
                    "planted_removed_frac": len(removed & planted) / len(planted),
                    "robust_error": float(np.linalg.norm(outcome.mean)),
                    "naive_error": float(np.linalg.norm(dirty.mean(axis=0))),
                    "n": dirty.shape[0],
                }
            )
    return results


def test_criterion_1_formula_fidelity():
    """Closed-form constants match the pre-build high-precision oracle."""
    checks = [
        ("kappa(0.1)", dp.kappa(0.1), 0.8607936896715843),
        ("kappa(0.25)", dp.kappa(0.25), 2.6213203435596426),
        ("robust_error_bound(0.1,1)", dp.robust_error_bound(0.1, 1.0), 3.4302802258642549),
        ("single_point_bound(100,1)", dp.single_point_bound(100, 1.0), 0.5835348041536741),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    ok = worst <= 1e-5
    assert report_line("1 formula-fidelity", ok, f"max |err| = {worst:.2e} <= 1e-5")


def test_criterion_2_substitution_identity():
    """single_point_bound(n, C) equals robust_error_bound(1/n, C) to 1e-12."""
    worst = max(
        abs(dp.single_point_bound(n, 1.0) - dp.robust_error_bound(1.0 / n, 1.0))
        for n in (10, 100, 1000, 10_000)
    )
    ok = worst <= 1e-12
    assert report_line("2 substitution-identity", ok, f"max |diff| = {worst:.2e} <= 1e-12")


def test_criterion_3_dimension_independent_noise():
    """Reported noise variance is bit-identical across d in {10, 100, 1000}."""
    cfg = dp.RobustConfig(gamma=GAMMA, tau=TAU, c_thresh=1.0)
    variances = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dp.SampleSizeWarning)
        for d in (10, 100, 1000):
            data = dp.sample_gaussian(40, d, 0.0, seed=30_000 + d)
            variances.append(dp.dp_robust_mean(data, cfg, EPSILON, seed=303).noise_variance)
    ok = variances[0] == variances[1] == variances[2]
    assert report_line(
        "3 dimension-independent-noise", ok,
        f"sigma^2 = {variances[0]!r} at d=10/100/1000, bit-identical = {ok}",
    )


def test_criterion_4_gaussian_mechanism_statistics():
    """20 suites of 1e5 draws at variance 4: at most one outside [3.92, 4.08]."""
    failures = 0
    for suite in range(20):
        spec = dp.NoiseSpec(variance=4.0, seed=40_000 + suite)
        draws = dp.add_gaussian_noise(np.zeros(100_000), spec)
        v = float(np.var(draws, ddof=1))
        failures += not (3.92 <= v <= 4.08)
    ok = failures <= 1
    assert report_line("4 gaussian-statistics", ok, f"{failures}/20 suites outside band")


def test_criterion_5_robustness_certificate():
    """Clean N(0, I): certificate + error bound in >= 95% of 100 trials, < 60 s."""
    start = time.perf_counter()
    c = dp.calibrate_c(2000, 20, GAMMA, quantile=0.95, trials=50, seed=50_000)
    bound = dp.robust_error_bound(GAMMA, c)
    cfg = dp.RobustConfig(gamma=GAMMA, tau=TAU, c_thresh=c)
    passes = 0
    for trial in range(100):
        data = dp.sample_gaussian(2000, 20, 0.0, seed=51_000 + trial)
        outcome = dp.filter_gaussian_unknown_mean(data, cfg)
        passes += (
            outcome.diagnostics.terminated_by is dp.Termination.CERTIFICATE
            and float(np.linalg.norm(outcome.mean)) <= bound
        )
    elapsed = time.perf_counter() - start
    ok = passes >= 95 and elapsed < 60.0
    assert report_line(
        "5 robustness-certificate", ok,
        f"C = {c:.4f}, {passes}/100 certified within bound {bound:.3f}, {elapsed:.1f} s",
    )


def test_criterion_6_filter_efficacy_under_attack(attack_trials):
    """Constant-cluster attack: >= 90% planted removed and robust error
    <= 0.5x naive error, in >= 90% of 50 trials."""
    good = sum(
        r["planted_removed_frac"] >= 0.9 and r["robust_error"] <= 0.5 * r["naive_error"]
        for r in attack_trials
    )
    ok = good >= 45
    assert report_line("6 filter-efficacy", ok, f"{good}/50 trials met both efficacy bars")


def test_criterion_7_figure_shape():
    """Dimension sweep at n = 1000: winsorized error strictly increasing in d
    and >= 10x the filtered estimator's error at d = 200.

    The monotonicity clause holds; the factor clause cannot (the module
    docstring has the arithmetic), so this criterion fails honestly.
    """
    start = time.perf_counter()
    dims = (10, 50, 100, 200)
    med_robust = {}
    med_winsor = {}
    for d in dims:
        c = dp.calibrate_c(1000, d, GAMMA, quantile=0.95, trials=30, seed=70_000 + d)
        config = ExperimentConfig(
            n_values=(1000,),
            d_values=(d,),
            gamma=GAMMA,
            epsilon=EPSILON,
            tau=TAU,
            c_thresh=c,
            trials=20,
            base_seed=71_000,
            methods=(Method.DP_ROBUST, Method.DP_WINSORIZED),
            winsorize=dp.WinsorizeConfig(range_bound=10.0),
            adversary=dp.ConstantCluster(offset=10.0),
            fixed_count_corruption=True,
        )
        records = run_sweep(config)
        med_robust[d] = float(
            np.median([r.l2_error for r in records if r.method == "dp_robust"])
        )
        med_winsor[d] = float(
            np.median([r.l2_error for r in records if r.method == "dp_winsorized"])
        )
    elapsed = time.perf_counter() - start

    increasing = all(med_winsor[a] < med_winsor[b] for a, b in zip(dims, dims[1:]))
    factor = med_winsor[200] / med_robust[200]
    ok = increasing and factor >= 10.0 and elapsed < 600.0
    report_line(
        "7 figure-shape", ok,
        f"winsorized medians {[round(med_winsor[d], 2) for d in dims]} increasing = {increasing}, "
        f"winsorized/robust at d=200 = {factor:.4f} (need >= 10), {elapsed:.0f} s",
    )
    assert increasing, "winsorized error must grow with d"
    assert elapsed < 600.0, "sweep exceeded the runtime budget"
    assert factor >= 10.0, (
        "winsorized-to-filtered error ratio at d=200 is "
        f"{factor:.4f}; the certificate-bound noise (sigma ~ 17.4 per "
        "coordinate at gamma=0.1, tau=0.05, C=1) exceeds the winsorized "
        "baseline's total noise at these parameters, so the >= 10x ordering "
        "is unattainable at these parameters"
    )


def test_criterion_8_n_scaling():
    """dp_plain error decreases in n at d = 50; dp_robust bound is n-free."""
    config = ExperimentConfig(
        n_values=(100, 1000, 10_000),
        d_values=(50,),
        gamma=GAMMA,
        epsilon=EPSILON,
        tau=TAU,
        c_thresh=1.0,
        trials=20,
        base_seed=80_000,
        methods=(Method.DP_PLAIN, Method.DP_ROBUST),
        adversary=None,
    )
    records = run_sweep(config)
    med = {
        n: float(
            np.median([r.l2_error for r in records if r.method == "dp_plain" and r.n == n])
        )
        for n in (100, 1000, 10_000)
    }
    robust_bounds = {r.bound_used for r in records if r.method == "dp_robust"}
    decreasing = med[10_000] <= med[1000] <= med[100]
    ok = decreasing and len(robust_bounds) == 1
    assert report_line(
        "8 n-scaling", ok,
        f"dp_plain medians {med[100]:.2f} / {med[1000]:.2f} / {med[10_000]:.2f} "
        f"for n=100/1000/10000, dp_robust bound n-free = {len(robust_bounds) == 1}",
    )


def test_criterion_9_removal_bound(attack_trials):
    """(removed + planted)/n <= 2 gamma + 0.01 in >= 95% of certificate trials."""
    cert = [r for r in attack_trials if r["certificate"]]
    assert cert, "no certificate-terminating trials to evaluate"
    hits = sum(
        (r["removed"] + r["planted"]) / r["n"] <= 2.0 * GAMMA + 0.01 for r in cert
    )
    frac = hits / len(cert)
    ok = frac >= 0.95
    assert report_line(
        "9 removal-bound", ok,
        f"{hits}/{len(cert)} certificate trials within 2*gamma + 0.01",
    )


def test_criterion_10_sweep_determinism(tmp_path):
    """The sweep subcommand writes byte-identical CSV on consecutive runs."""
    from dprobust.cli import main

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n_values = 300\n"
        "d_values = 5,10\n"
        "gamma = 0.1\n"
        "trials = 3\n"
        "base_seed = 1001\n"
        "methods = dp_robust,dp_plain,dp_winsorized\n"
        "adversary = constant_cluster\n"
        "adversary_magnitude = 10\n"
    )
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    ok = out1.read_bytes() == out2.read_bytes()
    assert report_line(
        "10 sweep-determinism", ok,
        f"{sum(1 for _ in open(out1))} CSV lines, byte-identical reruns = {ok}",
    )
