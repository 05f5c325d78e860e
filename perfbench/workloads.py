"""The benchmark's workloads: attack, sweep and cli_io.

Each workload makes all of its inputs from the run seed, calls dprobust
only through its public API, and checks every output it gets back. Work is
organised in passes: a pass is a fixed list of steps (for example a CSV
synthesis followed by three estimates), and a step is either an op,
which the latency metrics count, or a non-op step whose time still counts
in the pass wall time. ``steps(k)`` yields the steps of pass k lazily,
because a later step may depend on an earlier step's output. Every run
does at least ``quality_passes`` passes, and the output-quality metrics
are taken over exactly those, so they do not depend on machine speed.

The program sees only generated arrays, configs and files. True means are
the origin throughout, so an error is the l2 norm of an estimate.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from tracer import patched

GAMMA = 0.1
TAU = 0.05
EPSILON = 1.0
C_THRESH = 1.0
MAGNITUDE = 10.0
METHODS = ("dp_robust", "dp_plain", "dp_winsorized")


def derive(seed: int, *parts) -> int:
    """A 63-bit seed that depends only on the run seed and the labels."""
    digest = hashlib.blake2b(repr((seed,) + parts).encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass
class Release:
    """What the benchmark keeps from one estimator release."""

    method: str
    robust_err: float | None
    private_err: float
    noise_sigma: float
    termination: str | None
    planted_recall: float | None = None
    clean_removed: int | None = None
    digest: str = ""


@dataclass
class Step:
    name: str
    is_op: bool
    call: Callable[[], Any]
    check: Callable[[Any], tuple[list[Release], list[str]]]


@dataclass(frozen=True)
class Sizes:
    attack_n: int = 5000
    attack_d: int = 50
    attack_pairs: int = 7
    sweep_n: int = 1000
    # Cells per pass at each d. d=200 gets three times the cells of d=50 so
    # the op median sits inside the d=200 mode, not between the two modes.
    sweep_cells: tuple[tuple[int, int], ...] = ((50, 2), (200, 6))
    calibrate_trials: int = 30
    cli_n: int = 20000
    cli_d: int = 100


TINY = Sizes(
    attack_n=400, attack_d=5, attack_pairs=1, sweep_n=200, sweep_cells=((5, 1), (10, 1)),
    calibrate_trials=5, cli_n=300, cli_d=5,
)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def check_release(private_mean, d, noise_variance, sensitivity, bound, termination, robust_err) -> list[str]:
    """Checks every release must pass, whatever its method."""
    errors = []
    private_mean = np.asarray(private_mean, dtype=float)
    if private_mean.shape != (d,) or not np.isfinite(private_mean).all():
        errors.append(f"private_mean has shape {private_mean.shape} or non-finite entries")
    expected = 2.0 * math.log(1.25 / TAU) * sensitivity**2 / EPSILON**2
    if not math.isclose(noise_variance, expected, rel_tol=1e-12):
        errors.append(f"noise_variance {noise_variance!r} != 2 ln(1.25/tau) sens^2/eps^2 = {expected!r}")
    if sensitivity != 2.0 * bound:
        errors.append(f"sensitivity_used {sensitivity!r} != 2 * bound_used {bound!r}")
    if termination == "certificate" and not robust_err <= bound:
        errors.append(f"certified release has robust error {robust_err!r} > bound {bound!r}")
    return errors


def _release_from_report(report, d, plan=None) -> tuple[Release, list[str]]:
    diag = report.filter_diag
    termination = None if diag is None else diag.terminated_by.value
    robust_err = float(np.linalg.norm(report.robust_mean))
    errors = check_release(
        report.private_mean, d, report.noise_variance, report.sensitivity_used,
        report.bound_used, termination, robust_err,
    )
    release = Release(
        method=report.method.value,
        robust_err=robust_err,
        private_err=float(np.linalg.norm(report.private_mean)),
        noise_sigma=math.sqrt(report.noise_variance),
        termination=termination,
        digest=_digest(report.robust_mean, report.private_mean)
        + ("" if diag is None else f":{diag.iterations}:{len(diag.removed_indices)}:{termination}"),
    )
    if plan is not None and diag is not None:
        planted = set(plan.replaced_indices)
        removed = set(diag.removed_indices)
        release.planted_recall = len(removed & planted) / len(planted)
        release.clean_removed = len(removed - planted)
    return release, errors


class Attack:
    """dp_robust_mean on fixed-count corrupted N(0, I) data.

    Set-up generates ``attack_pairs`` pairs of datasets; each pass releases
    one pair: a ConstantCluster(10) dataset, then a DirectionalSpread(10) one.
    """

    name = "attack"
    quality_passes = 7  # one pass per dataset pair, so each quality figure covers 14 datasets

    def __init__(self, dp, seed: int, sizes: Sizes):
        self.dp, self.seed, self.sizes = dp, seed, sizes
        self.pool: list = []

    def setup(self) -> str:
        dp, s = self.dp, self.sizes
        pool = []
        for pair in range(s.attack_pairs):
            for adversary in (dp.ConstantCluster(offset=MAGNITUDE), dp.DirectionalSpread(magnitude=MAGNITUDE)):
                clean = dp.sample_gaussian(s.attack_n, s.attack_d, 0.0, seed=derive(self.seed, "data", pair, adversary.name))
                dirty, plan = dp.corrupt(
                    clean, GAMMA, adversary, seed=derive(self.seed, "corrupt", pair, adversary.name), fixed_count=True
                )
                pool.append((dirty, plan))
        self.pool = pool
        return _digest(*(dirty for dirty, _ in pool))

    def steps(self, k: int):
        dp = self.dp
        cfg = dp.RobustConfig(gamma=GAMMA, tau=TAU, c_thresh=C_THRESH)
        pair = k % self.sizes.attack_pairs
        for j in (2 * pair, 2 * pair + 1):
            dirty, plan = self.pool[j]
            noise_seed = derive(self.seed, "noise", k, j)
            yield Step(
                "release", True,
                lambda dirty=dirty, noise_seed=noise_seed: dp.dp_robust_mean(
                    dirty, cfg, EPSILON, noise_seed, diagnostic=True
                ),
                lambda report, dirty=dirty, plan=plan: self._check(report, dirty, plan),
            )

    def _check(self, report, dirty, plan):
        n, d = dirty.shape
        release, errors = _release_from_report(report, d, plan)
        removed = len(report.filter_diag.removed_indices)
        if removed > 2 * GAMMA * n:
            errors.append(f"removed {removed} rows, more than 2 gamma n = {2 * GAMMA * n:g}")
        return [release], errors

    def close(self):
        self.pool = []


class Sweep:
    """harness.calibrate_c in set-up, then one harness.run_sweep call per
    (d, trial) cell.

    This is the shape of scripts/run_dimension_sweep.py: n far below the
    d / gamma^2 guideline, all three methods, a fixed-count constant cluster,
    and the certificate constant calibrated on clean data for each d.
    """

    name = "sweep"
    quality_passes = 5

    def __init__(self, dp, seed: int, sizes: Sizes):
        self.dp, self.seed, self.sizes = dp, seed, sizes
        self.harness = dp.harness
        self.calibrated: dict[int, float] = {}

    def setup(self) -> str:
        """Calibrate C once per d, as the sweep script does before its trials."""
        for d, _cells in self.sizes.sweep_cells:
            c = self.harness.calibrate_c(
                self.sizes.sweep_n, d, GAMMA, quantile=0.95, trials=self.sizes.calibrate_trials,
                seed=derive(self.seed, "calibrate", d),
            )
            if not (math.isfinite(c) and 1e-2 <= c <= 1e4):
                raise RuntimeError(f"calibrated C={c!r} at d={d} is off the calibration grid")
            self.calibrated[d] = c
        return repr(sorted(self.calibrated.items()))

    def steps(self, k: int):
        for d, cells in self.sizes.sweep_cells:
            for trial in range(cells):
                base_seed = derive(self.seed, "cell", k, d, trial)
                yield Step(
                    "cell", True,
                    lambda d=d, base_seed=base_seed: self._cell(d, self.calibrated[d], base_seed),
                    lambda out, d=d: self._check_cell(out, d),
                )

    def _cell(self, d, c_thresh, base_seed):
        dp, harness = self.dp, self.harness
        config = harness.ExperimentConfig(
            n_values=(self.sizes.sweep_n,), d_values=(d,), gamma=GAMMA, epsilon=EPSILON, tau=TAU,
            c_thresh=c_thresh, trials=1, base_seed=base_seed,
            adversary=dp.ConstantCluster(offset=MAGNITUDE), fixed_count_corruption=True,
        )
        reports, plans = [], []

        def keep(sink):
            def wrapper(fn):
                def recorded(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    sink.append(result)
                    return result
                return recorded
            return wrapper

        # The records lack the termination reason and the corruption plan,
        # so the reports and plans are taken where the harness receives them.
        with patched(harness, ("dp_robust_mean", "dp_mean", "dp_winsorized_mean"), keep(reports)):
            with patched(harness, ("corrupt",), keep(plans)):
                records = harness.run_sweep(config)
        return records, reports, [plan for _dirty, plan in plans]

    def _check_cell(self, out, d):
        records, reports, plans = out
        errors = []
        if len(records) != len(METHODS) or len(reports) != len(METHODS) or len(plans) != 1:
            return [], [f"cell gave {len(records)} records, {len(reports)} reports, {len(plans)} plans"]
        for rec in records:
            fields = (rec.l2_error, rec.robust_l2_error, rec.noise_sigma, rec.bound_used)
            if rec.iterations < 0 or rec.removed_count < 0 or not all(math.isfinite(v) for v in fields):
                errors.append(f"marker row for {rec.method}: the trial failed inside the harness")
        releases = []
        for rec, report in zip(records, reports):
            release, errs = _release_from_report(report, d, plans[0] if report.method.value == "dp_robust" else None)
            if rec.method != release.method or rec.robust_l2_error != release.robust_err:
                errs.append(f"record for {rec.method} disagrees with its report")
            releases.append(release)
            errors += errs
        return releases, errors

    def close(self):
        pass


class CliIo:
    """In-process ``dprobust.cli.main``: synth writes a CSV, then estimate
    reads it once per method and writes JSON. Synth is a non-op step."""

    name = "cli_io"
    quality_passes = 5

    def __init__(self, dp, seed: int, sizes: Sizes, workdir):
        self.dp, self.seed, self.sizes = dp, seed, sizes
        self.workdir = workdir
        self.csv = os.path.join(workdir, "data.csv")

    def setup(self) -> str:
        """Import the CLI in a fresh interpreter: the start-up every CLI call pays."""
        os.makedirs(self.workdir, exist_ok=True)
        src = Path(self.dp.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c", f"import {self.dp.__name__}.cli"],
            env=dict(os.environ, PYTHONPATH=str(src)), cwd=src.parent,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"importing the CLI failed: {done.stderr.decode(errors='replace').strip()}")
        return ""

    def steps(self, k: int):
        cli, s = importlib.import_module(f"{self.dp.__name__}.cli"), self.sizes
        if os.path.exists(self.csv):
            os.remove(self.csv)  # a failed synth must not leave stale input behind
        synth_args = ["synth", "--n", str(s.cli_n), "--d", str(s.cli_d),
                      "--seed", str(derive(self.seed, "synth", k)), "--out", self.csv]
        yield Step("synth", False, lambda: cli.main(synth_args), self._check_synth)
        for method in METHODS:
            out = os.path.join(self.workdir, f"{method}.json")
            args = ["estimate", "--data", self.csv, "--method", method, "--gamma", str(GAMMA),
                    "--tau", str(TAU), "--c-thresh", str(C_THRESH), "--epsilon", str(EPSILON),
                    "--seed", str(derive(self.seed, "estimate", k, method)), "--diagnostic", "--out", out]
            yield Step(
                "estimate", True,
                lambda args=args: cli.main(args),
                lambda code, method=method, out=out: self._check_estimate(code, method, out),
            )

    def _check_synth(self, code):
        if code != 0 or not os.path.exists(self.csv):
            return [], [f"synth exited {code}"]
        return [], []

    def _check_estimate(self, code, method, out):
        if code != 0:
            return [], [f"estimate --method {method} exited {code}"]
        with open(out, encoding="ascii") as fh:
            payload = json.loads(fh.read())
        result = payload["result"]
        if payload["method"] != method:
            return [], [f"estimate --method {method} reported method {payload['method']!r}"]
        robust = np.asarray(result["robust_mean"], dtype=float)
        termination = result["filter"]["terminated_by"] if "filter" in result else None
        robust_err = float(np.linalg.norm(robust))
        errors = check_release(
            result["private_mean"], self.sizes.cli_d, result["noise_variance"], result["sensitivity_used"],
            result["bound_used"], termination, robust_err,
        )
        release = Release(
            method=method,
            robust_err=robust_err,
            private_err=float(np.linalg.norm(result["private_mean"])),
            noise_sigma=math.sqrt(result["noise_variance"]),
            termination=termination,
            planted_recall=1.0 if method == "dp_robust" else None,  # clean data: nothing planted
            digest=_digest(robust, result["private_mean"]) + f":{result.get('filter')}",
        )
        return [release], errors

    def close(self):
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)


def make(name: str, dp, seed: int, sizes: Sizes, workdir):
    if name == "attack":
        return Attack(dp, seed, sizes)
    if name == "sweep":
        return Sweep(dp, seed, sizes)
    if name == "cli_io":
        return CliIo(dp, seed, sizes, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("attack", "sweep", "cli_io")
