"""Command-line interface.

Subcommands:
  synth      generate a (optionally corrupted) Gaussian dataset CSV
  estimate   run one estimator on a dataset CSV, emit a JSON line
  sweep      run a config-driven experiment sweep, emit a records CSV
  aggregate  read a sweep's records CSV, emit per-(n, d) medians, IQRs,
             means and the winsorized-minus-filtered excess error
  calibrate  calibrate the certificate constant C and print it

Exit codes: 0 success, 1 usage/config error, 2 runtime failure.

estimate's noise seed comes from OS entropy unless --seed is given, and
is printed only with --diagnostic: anyone who knows the seed can
regenerate the noise and subtract it from the release.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .datagen import corrupt, load_dataset_csv, sample_gaussian, save_dataset_csv
from .estimators import Method, WinsorizeConfig, _plain_gamma, dp_mean, dp_robust_mean, dp_winsorized_mean
from .harness import (
    ConfigError,
    aggregate_to_csv,
    calibrate_c,
    excess_error_table,
    load_config,
    make_adversary,
    read_records_csv,
    run_sweep,
    write_records_csv,
)
from .privacy import PrivacyParams
from .sensitivity import RobustConfig

USAGE_ERROR = 1
RUNTIME_ERROR = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dprobust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a Gaussian dataset CSV")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--d", type=int, required=True)
    p_synth.add_argument("--mean", type=float, default=0.0, help="common coordinate mean")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.add_argument("--gamma", type=float, default=0.0, help="corruption fraction")
    p_synth.add_argument(
        "--adversary",
        default="constant_cluster",
        help="constant_cluster, directional_spread, subtractive_only or none",
    )
    p_synth.add_argument("--magnitude", type=float, default=10.0, help="adversary offset/magnitude")
    p_synth.add_argument("--fixed-count", action="store_true", help="corrupt exactly round(gamma*n) rows")
    p_synth.add_argument("--plan-out", default=None, help="optional JSON path for the corruption plan")

    p_est = sub.add_parser("estimate", help="one private mean from a dataset CSV")
    p_est.add_argument("--data", required=True, help="input dataset CSV")
    p_est.add_argument("--method", required=True, choices=[m.value for m in Method])
    p_est.add_argument("--gamma", type=float, default=0.1)
    p_est.add_argument("--tau", type=float, default=0.05)
    p_est.add_argument("--c-thresh", type=float, default=1.0)
    p_est.add_argument("--epsilon", type=float, default=1.0)
    p_est.add_argument(
        "--seed",
        type=int,
        default=None,
        help="noise seed for reproducible experiments (default: OS entropy)",
    )
    p_est.add_argument("--range-bound", type=float, default=10.0, help="winsorization known range R")
    p_est.add_argument(
        "--diagnostic",
        action="store_true",
        help="include the non-private pre-noise mean and filter diagnostics",
    )
    p_est.add_argument("--out", default=None, help="output path (default stdout)")

    p_sweep = sub.add_parser("sweep", help="run an experiment sweep from a config file")
    p_sweep.add_argument("--config", required=True, help="flat key = value config file")
    p_sweep.add_argument("--out", required=True, help="output records CSV path")
    p_sweep.add_argument("--seed", type=int, default=None, help="override base_seed")
    p_sweep.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock times (breaks byte-identical reruns)",
    )

    p_agg = sub.add_parser("aggregate", help="aggregate a sweep's records CSV per (n, d)")
    p_agg.add_argument("--records", required=True, help="records CSV written by sweep")
    p_agg.add_argument("--out", required=True, help="output aggregate CSV path")

    p_cal = sub.add_parser("calibrate", help="calibrate the certificate constant C")
    p_cal.add_argument("--n", type=int, required=True)
    p_cal.add_argument("--d", type=int, required=True)
    p_cal.add_argument("--gamma", type=float, required=True)
    p_cal.add_argument("--quantile", type=float, default=0.95)
    p_cal.add_argument("--trials", type=int, default=50)
    p_cal.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_synth(args) -> int:
    # Every argument is checked before sampling, so a bad one is a usage
    # error (exit 1) and no file is written.
    if args.n < 1 or args.d < 1:
        raise ConfigError("n and d must be at least 1")
    if not math.isfinite(args.mean):
        raise ConfigError("mean must be finite")
    if args.seed < 0:
        raise ConfigError("seed must be non-negative")
    if not 0.0 <= args.gamma < 0.5:
        raise ConfigError("gamma must lie in [0, 0.5)")
    adversary = make_adversary(args.adversary, args.magnitude)
    data = sample_gaussian(args.n, args.d, args.mean, seed=args.seed)
    plan = None
    if args.gamma > 0.0:
        data, plan = corrupt(
            data,
            args.gamma,
            adversary,
            seed=args.seed,
            mu_true=args.mean,
            fixed_count=args.fixed_count,
        )
    save_dataset_csv(data, args.out)
    if args.plan_out is not None:
        payload = {
            "gamma": args.gamma,
            "adversary": None if plan is None or plan.adversary is None else plan.adversary.name,
            "m_prime": 0 if plan is None else plan.m_prime,
            "replaced_indices": [] if plan is None else plan.replaced_indices,
        }
        with open(args.plan_out, "w", encoding="ascii") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    return 0


def _report_payload(args, report) -> dict:
    result = {
        "private_mean": [float(x) for x in report.private_mean],
        "noise_variance": report.noise_variance,
        "bound_used": report.bound_used,
        "sensitivity_used": report.sensitivity_used,
    }
    if args.diagnostic:
        result["seed"] = report.seed
        result["robust_mean"] = [float(x) for x in report.robust_mean]
        diag = report.filter_diag
        if diag is not None:
            result["filter"] = dataclasses.asdict(diag) | {"removed_count": len(diag.removed_indices)}
    return result


def _cmd_estimate(args) -> int:
    method = Method(args.method)
    # Every argument is checked before the data is read, so a bad one is a
    # usage error (exit 1) whichever method it is given to.
    try:
        privacy = PrivacyParams(epsilon=args.epsilon, delta=args.tau)
        if method is Method.DP_ROBUST:
            cfg = RobustConfig(gamma=args.gamma, tau=args.tau, c_thresh=args.c_thresh)
        elif method is Method.DP_WINSORIZED:
            wcfg = WinsorizeConfig(range_bound=args.range_bound)
        elif not (math.isfinite(args.c_thresh) and args.c_thresh > 0.0):
            # dp_plain's gamma = 1/n is known only once the data is read.
            raise ValueError("c_thresh must be positive and finite")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    data = load_dataset_csv(args.data)
    if method is Method.DP_ROBUST:
        report = dp_robust_mean(data, cfg, args.epsilon, args.seed, diagnostic=args.diagnostic)
        params = {"gamma": args.gamma, "tau": args.tau, "c_thresh": args.c_thresh, "epsilon": args.epsilon}
    elif method is Method.DP_PLAIN:
        report = dp_mean(data, args.tau, args.c_thresh, args.epsilon, args.seed, diagnostic=args.diagnostic)
        params = {
            "gamma": _plain_gamma(data.shape[0]),
            "tau": args.tau,
            "c_thresh": args.c_thresh,
            "epsilon": args.epsilon,
        }
    else:
        report = dp_winsorized_mean(data, wcfg, privacy, args.seed, diagnostic=args.diagnostic)
        params = {
            "range_bound": args.range_bound,
            "epsilon": args.epsilon,
            "delta": args.tau,
        }
    line = json.dumps(
        {"method": method.value, "params": params, "result": _report_payload(args, report)}
    )
    if args.out is None:
        print(line)
    else:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(line + "\n")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config, seed_override=args.seed)
    records = run_sweep(config)
    write_records_csv(records, args.out, include_timings=args.timings)
    return 0


def _cmd_aggregate(args) -> int:
    rows = excess_error_table(read_records_csv(args.records))
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write(aggregate_to_csv(rows))
    return 0


def _cmd_calibrate(args) -> int:
    c = calibrate_c(args.n, args.d, args.gamma, args.quantile, args.trials, args.seed)
    print(repr(c))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "estimate": _cmd_estimate,
    "sweep": _cmd_sweep,
    "aggregate": _cmd_aggregate,
    "calibrate": _cmd_calibrate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"dprobust: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"dprobust: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"dprobust: failure: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
