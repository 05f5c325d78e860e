"""Experiment harness: seeded parameter sweeps, threshold calibration, and
aggregation into figure-style tables.

Every trial seed is derived from (base_seed, n, d, trial, method) through a
stable hash, so a sweep is reproducible bit-for-bit from its config alone.
Records are written as CSV with shortest round-trip decimal formatting; the
wall-clock column is left blank unless timings are explicitly requested,
keeping default output byte-identical across runs.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .datagen import (
    ADVERSARY_NAMES,
    Adversary,
    ConstantCluster,
    DirectionalSpread,
    SubtractiveOnly,
    corrupt,
    sample_gaussian,
)
from .estimators import (
    EstimateReport,
    Method,
    WinsorizeConfig,
    dp_mean,
    dp_robust_mean,
    dp_winsorized_mean,
)
from .filtering import SampleSizeWarning, thresh
from .linalg import empirical_covariance, empirical_mean, spectral_deviation
from .privacy import PrivacyParams
from .sensitivity import RobustConfig

BASE_SEED_ENV_VAR = "DPROBUST_BASE_SEED"

RECORD_COLUMNS = (
    "method",
    "n",
    "d",
    "gamma",
    "epsilon",
    "tau",
    "c_thresh",
    "trial",
    "seed",
    "l2_error",
    "robust_l2_error",
    "noise_sigma",
    "bound_used",
    "iterations",
    "removed_count",
    "terminated_by",
    "runtime_ms",
)


class ConfigError(ValueError):
    """Invalid experiment configuration (usage error, not a runtime failure)."""


@dataclass(frozen=True)
class ExperimentConfig:
    n_values: tuple[int, ...]
    d_values: tuple[int, ...]
    gamma: float = 0.1
    epsilon: float = 1.0
    tau: float = 0.05
    c_thresh: float = 1.0
    trials: int = 1
    base_seed: int = 0
    methods: tuple[Method, ...] = (Method.DP_ROBUST, Method.DP_PLAIN, Method.DP_WINSORIZED)
    winsorize: WinsorizeConfig = field(default_factory=WinsorizeConfig)
    adversary: Adversary | None = field(default_factory=ConstantCluster)
    corrupt_all: bool = False
    fixed_count_corruption: bool = False

    def __post_init__(self):
        if not self.n_values or not self.d_values:
            raise ConfigError("n_values and d_values must be nonempty")
        if any(n < 3 for n in self.n_values):
            raise ConfigError("all n_values must be at least 3")
        if any(d < 1 for d in self.d_values):
            raise ConfigError("all d_values must be at least 1")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not self.methods:
            raise ConfigError("methods must be nonempty")
        if not 0.0 < self.gamma < 0.5:
            raise ConfigError("gamma must lie in (0, 0.5)")
        if not 0.0 < self.tau < 1.0:
            raise ConfigError("tau must lie in (0, 1)")
        if self.epsilon <= 0.0 or self.c_thresh <= 0.0:
            raise ConfigError("epsilon and c_thresh must be positive")


@dataclass(frozen=True)
class TrialRecord:
    method: str
    n: int
    d: int
    gamma: float
    epsilon: float
    tau: float
    c_thresh: float
    trial: int
    seed: int
    l2_error: float
    robust_l2_error: float
    noise_sigma: float
    bound_used: float
    iterations: int
    removed_count: int
    terminated_by: str
    runtime_ms: float


@dataclass(frozen=True)
class AggregateRow:
    n: int
    d: int
    medians: dict[str, float]
    iqrs: dict[str, float]
    means: dict[str, float]
    excess_l2: float | None


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 64-bit seed from base_seed and a tuple of labels."""
    digest = hashlib.blake2b(
        "|".join(str(p) for p in parts).encode("ascii"), digest_size=8
    ).digest()
    return (int.from_bytes(digest, "big") ^ (base_seed & 0xFFFFFFFFFFFFFFFF)) & 0x7FFFFFFFFFFFFFFF


def _run_method(
    method: Method,
    data: np.ndarray,
    config: ExperimentConfig,
    seed: int,
) -> EstimateReport:
    if method is Method.DP_ROBUST:
        cfg = RobustConfig(gamma=config.gamma, tau=config.tau, c_thresh=config.c_thresh)
        return dp_robust_mean(data, cfg, config.epsilon, seed, diagnostic=True)
    if method is Method.DP_PLAIN:
        return dp_mean(data, config.tau, config.c_thresh, config.epsilon, seed, diagnostic=True)
    if method is Method.DP_WINSORIZED:
        params = PrivacyParams(epsilon=config.epsilon, delta=config.tau)
        return dp_winsorized_mean(data, config.winsorize, params, seed, diagnostic=True)
    raise ConfigError(f"unknown method {method!r}")


def run_sweep(config: ExperimentConfig) -> list[TrialRecord]:
    """Run every (n, d, trial, method) cell of the sweep.

    The true mean is the origin. Corrupted input is fed to dp_robust (and,
    with corrupt_all, to the other methods); dp_plain and dp_winsorized
    otherwise see the clean sample. terminated_by is the filter's ending
    for the filtered methods and blank for dp_winsorized. A failed trial is
    recorded as a marker row (NaN errors, -1 counters, blank terminated_by)
    and the sweep continues.
    """
    records: list[TrialRecord] = []
    for n in config.n_values:
        for d in config.d_values:
            for trial in range(config.trials):
                data_seed = derive_seed(config.base_seed, "data", n, d, trial)
                clean = sample_gaussian(n, d, 0.0, seed=data_seed)
                if config.adversary is not None:
                    corrupt_seed = derive_seed(config.base_seed, "corrupt", n, d, trial)
                    dirty, _plan = corrupt(
                        clean,
                        config.gamma,
                        config.adversary,
                        seed=corrupt_seed,
                        fixed_count=config.fixed_count_corruption,
                    )
                else:
                    dirty = clean
                for method in config.methods:
                    seed = derive_seed(config.base_seed, "method", n, d, trial, method.value)
                    use_dirty = config.adversary is not None and (
                        method is Method.DP_ROBUST or config.corrupt_all
                    )
                    data = dirty if use_dirty else clean
                    records.append(
                        _run_trial(method, data, config, n, d, trial, seed)
                    )
    return records


def _run_trial(
    method: Method,
    data: np.ndarray,
    config: ExperimentConfig,
    n: int,
    d: int,
    trial: int,
    seed: int,
) -> TrialRecord:
    gamma = 1.0 / data.shape[0] if method is Method.DP_PLAIN else config.gamma
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleSizeWarning)
            report = _run_method(method, data, config, seed)
    except Exception as exc:  # noqa: BLE001 - marker row keeps the sweep alive
        warnings.warn(f"trial failed ({method.value}, n={n}, d={d}, trial={trial}): {exc}")
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return TrialRecord(
            method=method.value,
            n=n,
            d=d,
            gamma=gamma,
            epsilon=config.epsilon,
            tau=config.tau,
            c_thresh=config.c_thresh,
            trial=trial,
            seed=seed,
            l2_error=float("nan"),
            robust_l2_error=float("nan"),
            noise_sigma=float("nan"),
            bound_used=float("nan"),
            iterations=-1,
            removed_count=-1,
            terminated_by="",
            runtime_ms=elapsed_ms,
        )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    diag = report.filter_diag
    return TrialRecord(
        method=method.value,
        n=n,
        d=d,
        gamma=gamma,
        epsilon=config.epsilon,
        tau=config.tau,
        c_thresh=config.c_thresh,
        trial=trial,
        seed=seed,
        l2_error=float(np.linalg.norm(report.private_mean)),
        robust_l2_error=float(np.linalg.norm(report.robust_mean)),
        noise_sigma=math.sqrt(report.noise_variance),
        bound_used=report.bound_used,
        iterations=diag.iterations if diag is not None else 0,
        removed_count=len(diag.removed_indices) if diag is not None else 0,
        terminated_by=diag.terminated_by.value if diag is not None else "",
        runtime_ms=elapsed_ms,
    )


def calibrate_c(
    n: int,
    d: int,
    gamma: float,
    quantile: float = 0.95,
    trials: int = 50,
    seed: int = 0,
    *,
    grid=None,
) -> float:
    """Smallest grid C whose threshold covers the stated quantile of
    first-pass spectral deviations on clean N(0, I) samples.

    The pass fraction is monotone in C, so a binary search over the
    (geometric) grid finds the smallest admissible value. If even the grid
    maximum fails, that maximum is returned with a warning.
    """
    if not 0.5 < quantile < 1.0:
        raise ValueError("quantile must lie in (0.5, 1)")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if grid is None:
        grid = np.logspace(-2, 4, 301)
    grid = np.sort(np.asarray(grid, dtype=float))

    deviations = np.empty(trials)
    for t in range(trials):
        data = sample_gaussian(n, d, 0.0, seed=derive_seed(seed, "calibrate", n, d, t))
        deviations[t] = spectral_deviation(empirical_covariance(data, empirical_mean(data)))

    def passes(c: float) -> bool:
        return float(np.mean(deviations <= thresh(gamma, c))) >= quantile

    lo, hi = 0, len(grid) - 1
    if not passes(grid[hi]):
        warnings.warn(
            f"requested quantile {quantile} unreachable on the calibration grid; "
            f"returning grid maximum {grid[hi]}"
        )
        return float(grid[hi])
    if passes(grid[lo]):
        return float(grid[lo])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(grid[mid]):
            hi = mid
        else:
            lo = mid
    return float(grid[hi])


def _iqr(values: list[float]) -> float:
    q1, q3 = np.quantile(values, [0.25, 0.75])
    return float(q3 - q1)


def excess_error_table(records: list[TrialRecord]) -> list[AggregateRow]:
    """Aggregate trial records into one row per (n, d).

    Within each cell, only trials for which every participating method has
    a finite record are kept (unpaired trials are skipped with a warning).
    The excess column is median(dp_winsorized) - median(dp_robust), falling
    back to dp_plain when dp_robust is absent.
    """
    cells: dict[tuple[int, int], dict[str, dict[int, float]]] = {}
    for rec in records:
        cell = cells.setdefault((rec.n, rec.d), {})
        cell.setdefault(rec.method, {})[rec.trial] = rec.l2_error

    rows: list[AggregateRow] = []
    for (n, d) in sorted(cells):
        by_method = cells[(n, d)]
        trial_sets = [
            {t for t, v in trials.items() if math.isfinite(v)}
            for trials in by_method.values()
        ]
        paired = set.intersection(*trial_sets) if trial_sets else set()
        total = {t for trials in by_method.values() for t in trials}
        if paired != total:
            warnings.warn(
                f"skipping {len(total - paired)} unpaired/failed trial(s) at n={n}, d={d}"
            )
        if not paired:
            rows.append(AggregateRow(n=n, d=d, medians={}, iqrs={}, means={}, excess_l2=None))
            continue
        medians, iqrs, means = {}, {}, {}
        for method, trials in sorted(by_method.items()):
            vals = [trials[t] for t in sorted(paired)]
            medians[method] = float(statistics.median(vals))
            iqrs[method] = _iqr(vals)
            means[method] = float(statistics.fmean(vals))
        excess = None
        base = medians.get(Method.DP_ROBUST.value, medians.get(Method.DP_PLAIN.value))
        if Method.DP_WINSORIZED.value in medians and base is not None:
            excess = medians[Method.DP_WINSORIZED.value] - base
        rows.append(AggregateRow(n=n, d=d, medians=medians, iqrs=iqrs, means=means, excess_l2=excess))
    return rows


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def records_to_csv(records: list[TrialRecord], include_timings: bool = False) -> str:
    """Render records as CSV text.

    Column order is fixed and runtime_ms is last. It is emitted blank by
    default so that two runs of the same sweep produce byte-identical
    output; pass include_timings=True to keep the measured wall times.
    """
    lines = [",".join(RECORD_COLUMNS)]
    for rec in records:
        values = [getattr(rec, col) for col in RECORD_COLUMNS]
        if not include_timings:
            values[-1] = ""
        lines.append(",".join(_format_value(v) if v != "" else "" for v in values))
    return "\n".join(lines) + "\n"


def write_records_csv(records: list[TrialRecord], path, include_timings: bool = False) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(records_to_csv(records, include_timings=include_timings))


def aggregate_to_csv(rows: list[AggregateRow]) -> str:
    methods = [m.value for m in Method]
    header = ["n", "d"]
    for m in methods:
        header += [f"median_{m}", f"iqr_{m}", f"mean_{m}"]
    header.append("excess_l2")
    lines = [",".join(header)]
    for row in rows:
        cells = [str(row.n), str(row.d)]
        for m in methods:
            for table in (row.medians, row.iqrs, row.means):
                cells.append(repr(table[m]) if m in table else "")
        cells.append("" if row.excess_l2 is None else repr(row.excess_l2))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_LIST_KEYS = {"n_values", "d_values"}
_FLOAT_KEYS = {"gamma", "epsilon", "tau", "c_thresh", "winsorize_alpha", "winsorize_range_bound", "adversary_magnitude"}
_INT_KEYS = {"trials", "base_seed"}
_BOOL_KEYS = {"corrupt_all", "fixed_count_corruption"}
_KNOWN_KEYS = (
    _LIST_KEYS | _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | {"methods", "adversary"}
)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key = value sweep configuration format.

    Keys match ExperimentConfig field names; the nested winsorize and
    adversary settings use the flattened keys winsorize_alpha,
    winsorize_range_bound, adversary and adversary_magnitude. Lists are
    comma-separated. Lines starting with # are comments.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    kwargs: dict = {}
    try:
        for key in _LIST_KEYS & raw.keys():
            kwargs[key] = tuple(int(v.strip()) for v in raw[key].split(",") if v.strip())
        for key in _INT_KEYS & raw.keys():
            kwargs[key] = int(raw[key])
        for key in {"gamma", "epsilon", "tau", "c_thresh"} & raw.keys():
            kwargs[key] = float(raw[key])
        for key in _BOOL_KEYS & raw.keys():
            value = raw[key].lower()
            if value not in ("true", "false"):
                raise ConfigError(f"{key} must be true or false")
            kwargs[key] = value == "true"
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid value: {exc}") from exc

    if "methods" in raw:
        methods = []
        for name in raw["methods"].split(","):
            name = name.strip()
            try:
                methods.append(Method(name))
            except ValueError:
                raise ConfigError(f"unknown method {name!r}") from None
        kwargs["methods"] = tuple(methods)

    try:
        wcfg = WinsorizeConfig(
            alpha=float(raw.get("winsorize_alpha", 0.05)),
            range_bound=float(raw.get("winsorize_range_bound", 10.0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    kwargs["winsorize"] = wcfg

    if "adversary" in raw or "adversary_magnitude" in raw:
        name = raw.get("adversary", "constant_cluster").strip().lower()
        magnitude = float(raw.get("adversary_magnitude", 10.0))
        kwargs["adversary"] = make_adversary(name, magnitude)

    if "n_values" not in kwargs or "d_values" not in kwargs:
        raise ConfigError("config must set n_values and d_values")
    return ExperimentConfig(**kwargs)


def make_adversary(name: str, magnitude: float = 10.0) -> Adversary | None:
    """Adversary from its config-file name; 'none' disables corruption."""
    if name == "none":
        return None
    if name == "constant_cluster":
        return ConstantCluster(offset=magnitude)
    if name == "directional_spread":
        return DirectionalSpread(magnitude=magnitude)
    if name == "subtractive_only":
        return SubtractiveOnly()
    raise ConfigError(f"unknown adversary {name!r}; expected one of {ADVERSARY_NAMES} or 'none'")


def load_config(path, seed_override: int | None = None, env_seed: str | None = None) -> ExperimentConfig:
    """Read a sweep config file, applying base-seed overrides.

    Precedence: --seed flag (seed_override), then the environment variable,
    then the config file value.
    """
    with open(path, "r", encoding="utf-8") as fh:
        config = parse_config_text(fh.read())
    if seed_override is not None:
        return replace(config, base_seed=int(seed_override))
    if env_seed is not None and env_seed != "":
        try:
            return replace(config, base_seed=int(env_seed))
        except ValueError as exc:
            raise ConfigError(f"invalid {BASE_SEED_ENV_VAR} value {env_seed!r}") from exc
    return config
