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
from dataclasses import dataclass, field, fields, replace

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
    Method,
    WinsorizeConfig,
    _plain_gamma,
    dp_mean,
    dp_robust_mean,
    dp_winsorized_mean,
)
from .filtering import SampleSizeWarning, thresh
from .linalg import as_sym_matrix, empirical_covariance, empirical_mean
from .privacy import PrivacyParams
from .sensitivity import RobustConfig

class ConfigError(ValueError):
    """Invalid experiment configuration (usage error, not a runtime failure)."""


@dataclass(frozen=True)
class ExperimentConfig:
    n_values: tuple[int, ...]
    d_values: tuple[int, ...]
    gamma: float = 0.1
    epsilon: float = 1.0
    tau: float = 0.05
    c_thresh: float | None = 1.0  # None: calibrate C once per (n, d) cell
    trials: int = 1
    base_seed: int = 0
    methods: tuple[Method, ...] = (Method.DP_ROBUST, Method.DP_PLAIN, Method.DP_WINSORIZED)
    winsorize: WinsorizeConfig = field(default_factory=WinsorizeConfig)
    adversary: Adversary | None = field(default_factory=ConstantCluster)
    fixed_count_corruption: bool = False

    def __post_init__(self):
        if not self.n_values or not self.d_values:
            raise ConfigError("n_values and d_values must be nonempty")
        if any(len(set(v)) < len(v) for v in (self.n_values, self.d_values, self.methods)):
            raise ConfigError("n_values, d_values and methods must not repeat a value")
        if any(n < 3 for n in self.n_values):
            raise ConfigError("all n_values must be at least 3")
        if any(d < 1 for d in self.d_values):
            raise ConfigError("all d_values must be at least 1")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not self.methods:
            raise ConfigError("methods must be nonempty")
        if not all(isinstance(m, Method) for m in self.methods):
            raise ConfigError(f"methods must be Method members, got {self.methods!r}")
        if not isinstance(self.adversary, Adversary | None):
            raise ConfigError(f"adversary must be an adversary instance or None, got {self.adversary!r}")
        try:
            PrivacyParams(epsilon=self.epsilon, delta=self.tau)
            RobustConfig(self.gamma, self.tau, 1.0 if self.c_thresh is None else self.c_thresh)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


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


RECORD_COLUMNS = tuple(f.name for f in fields(TrialRecord))


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


def run_sweep(config: ExperimentConfig) -> list[TrialRecord]:
    """Run every (n, d, trial, method) cell of the sweep.

    The true mean is the origin. Corrupted input is fed to dp_robust only;
    dp_plain and dp_winsorized see the clean sample. terminated_by is the
    filter's ending for the filtered methods and blank for dp_winsorized. A
    failed trial is recorded as a marker row (NaN errors, -1 counters, blank
    terminated_by) and the sweep continues. With c_thresh None, each (n, d)
    cell first calibrates C on 30 clean samples seeded by base_seed, and its
    records carry that C.
    """
    records: list[TrialRecord] = []
    for n in config.n_values:
        for d in config.d_values:
            cell = config
            if config.c_thresh is None:
                c = calibrate_c(n, d, config.gamma, trials=30, seed=config.base_seed)
                cell = replace(config, c_thresh=c)
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
                    data = dirty if method is Method.DP_ROBUST else clean
                    records.append(_run_trial(method, data, cell, n, d, trial, seed))
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
    gamma = _plain_gamma(data.shape[0]) if method is Method.DP_PLAIN else config.gamma
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SampleSizeWarning)
            if method is Method.DP_ROBUST:
                cfg = RobustConfig(gamma=gamma, tau=config.tau, c_thresh=config.c_thresh)
                report = dp_robust_mean(data, cfg, config.epsilon, seed, diagnostic=True)
            elif method is Method.DP_PLAIN:
                report = dp_mean(data, config.tau, config.c_thresh, config.epsilon, seed, diagnostic=True)
            else:
                params = PrivacyParams(epsilon=config.epsilon, delta=config.tau)
                report = dp_winsorized_mean(data, config.winsorize, params, seed, diagnostic=True)
    except Exception as exc:  # noqa: BLE001 - marker row keeps the sweep alive
        warnings.warn(f"trial failed ({method.value}, n={n}, d={d}, trial={trial}): {exc}")
        nan = float("nan")
        outcome = dict(
            l2_error=nan, robust_l2_error=nan, noise_sigma=nan, bound_used=nan,
            iterations=-1, removed_count=-1, terminated_by="",
        )
    else:
        diag = report.filter_diag
        outcome = dict(
            l2_error=float(np.linalg.norm(report.private_mean)),
            robust_l2_error=float(np.linalg.norm(report.robust_mean)),
            noise_sigma=math.sqrt(report.noise_variance),
            bound_used=report.bound_used,
            iterations=diag.iterations if diag is not None else 0,
            removed_count=len(diag.removed_indices) if diag is not None else 0,
            terminated_by=diag.terminated_by.value if diag is not None else "",
        )
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
        runtime_ms=(time.perf_counter() - start) * 1000.0,
        **outcome,
    )


_C_GRID = np.logspace(-2, 4, 301)  # the candidate constants C, ascending


def calibrate_c(
    n: int,
    d: int,
    gamma: float,
    quantile: float = 0.95,
    trials: int = 50,
    seed: int = 0,
) -> float:
    """Smallest C of 301 log-spaced values from 1e-2 to 1e4 whose threshold
    covers the stated quantile of first-pass spectral deviations on clean
    N(0, I) samples.

    C passes when at least k of the trials have deviation <= thresh(gamma,
    C), k being the smallest count with k / trials >= quantile; that holds
    exactly when the k-th smallest deviation is within the threshold, so the
    answer is the first grid threshold at or above that order statistic. If
    even the grid maximum fails, that maximum is returned with a warning.
    The arguments are checked before any sample is drawn.
    """
    if not 0.0 < gamma < 0.5:
        raise ConfigError("gamma must lie in (0, 0.5)")
    if n < 2 or d < 1:
        raise ConfigError("n must be at least 2 and d at least 1")
    if not 0.5 < quantile < 1.0:
        raise ConfigError("quantile must lie in (0.5, 1)")
    if trials < 1:
        raise ConfigError("trials must be at least 1")

    deviations = np.empty(trials)
    for t in range(trials):
        data = sample_gaussian(n, d, 0.0, seed=derive_seed(seed, "calibrate", n, d, t))
        # spectral_deviation_pair's deviation, from the eigenvalues alone;
        # sigma is dropped so that it does not sit beside the next trial's.
        sigma = as_sym_matrix(empirical_covariance(data, empirical_mean(data)))
        deviations[t] = max(0.0, float(np.linalg.eigvalsh(sigma - np.eye(d))[-1]))
        del sigma

    k = next(k for k in range(1, trials + 1) if k / trials >= quantile)
    kth = np.sort(deviations)[k - 1]
    i = int(np.searchsorted([thresh(gamma, c) for c in _C_GRID], kth))
    if i == _C_GRID.size:
        warnings.warn(
            f"requested quantile {quantile} unreachable on the calibration grid; "
            f"returning grid maximum {_C_GRID[-1]}"
        )
        return float(_C_GRID[-1])
    return float(_C_GRID[i])


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


def _read_text(path, encoding: str) -> str:
    """The text of a file; bytes that do not decode raise ConfigError naming
    the file and line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode(encoding)
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}, line {line}: byte {raw[exc.start]:#04x} is not {encoding} text") from exc


def read_records_csv(path) -> list[TrialRecord]:
    """Read back a records CSV. Floats were written with repr, so they
    round-trip exactly; a blank runtime_ms reads as NaN. A file that is not
    a records CSV raises ConfigError naming the file and line."""
    lines = _read_text(path, "ascii").splitlines()
    header = lines[0] if lines else ""
    if tuple(header.split(",")) != RECORD_COLUMNS:
        raise ConfigError(f"{path}, line 1: not a records CSV: header {header!r}")
    casts = {"int": int, "float": lambda v: float(v or "nan"), "str": str}
    types = {f.name: casts[f.type] for f in fields(TrialRecord)}
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            values = zip(RECORD_COLUMNS, line.split(","), strict=True)
            records.append(TrialRecord(**{col: types[col](v) for col, v in values}))
        except ValueError as exc:
            raise ConfigError(f"{path}, line {lineno}: {exc}") from exc
    return records


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
_FLOAT_KEYS = {"gamma", "epsilon", "tau", "c_thresh", "winsorize_range_bound", "adversary_magnitude"}
_INT_KEYS = {"trials", "base_seed"}
_BOOL_KEYS = {"fixed_count_corruption"}
_KNOWN_KEYS = (
    _LIST_KEYS | _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | {"methods", "adversary"}
)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key = value sweep configuration format.

    Keys match ExperimentConfig field names; the nested winsorize and
    adversary settings use the flattened keys winsorize_range_bound,
    adversary and adversary_magnitude. Lists are comma-separated.
    c_thresh = calibrate sets c_thresh None (calibrated per cell by
    run_sweep). Lines starting with # are comments.
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
            calibrate = key == "c_thresh" and raw[key] == "calibrate"
            kwargs[key] = None if calibrate else float(raw[key])
        magnitude = float(raw.get("adversary_magnitude", 10.0))
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
        kwargs["winsorize"] = WinsorizeConfig(range_bound=float(raw.get("winsorize_range_bound", 10.0)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if "adversary" in raw or "adversary_magnitude" in raw:
        name = raw.get("adversary", "constant_cluster").strip().lower()
        kwargs["adversary"] = make_adversary(name, magnitude)

    if "n_values" not in kwargs or "d_values" not in kwargs:
        raise ConfigError("config must set n_values and d_values")
    return ExperimentConfig(**kwargs)


def make_adversary(name: str, magnitude: float = 10.0) -> Adversary | None:
    """Adversary from its config-file name; 'none' disables corruption."""
    if not math.isfinite(magnitude):
        raise ConfigError(f"adversary magnitude must be finite, got {magnitude!r}")
    if name == "none":
        return None
    if name == "constant_cluster":
        return ConstantCluster(offset=magnitude)
    if name == "directional_spread":
        return DirectionalSpread(magnitude=magnitude)
    if name == "subtractive_only":
        return SubtractiveOnly()
    raise ConfigError(f"unknown adversary {name!r}; expected one of {ADVERSARY_NAMES} or 'none'")


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Read a sweep config file; seed_override (the --seed flag), when
    given, replaces the file's base_seed."""
    config = parse_config_text(_read_text(path, "utf-8"))
    if seed_override is not None:
        return replace(config, base_seed=int(seed_override))
    return config
