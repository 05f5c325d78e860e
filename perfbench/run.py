#!/usr/bin/env python3
"""dprobust benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload attack --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
Each workload runs in its own process, so ``peak_rss_mb`` is that workload's.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is a separate run that wraps every public function of each
dprobust layer, reports per-layer metrics, checks that the traced run gives
bit-identical pre-noise means and identical exact counters, and writes its
spans to ``.perfbench_out/``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. A human-readable
table goes to standard error. BENCHMARK.json names every metric and says
what each workload is for; README.md in this directory maps each per-layer
metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import layers
from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
COUNT_UNITS = ("count", "GFLOP", "GB", "MB")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use.

    Must run before numpy is imported: BLAS reads these variables at load.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc)
    return nproc


def load_program():
    """Import dprobust from this checkout's src/, or exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "dprobust" / "__init__.py").is_file():
        print(f"perfbench: no dprobust package under {src}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import dprobust
    import dprobust.cli  # noqa: F401  (the package does not import its CLI)

    if Path(dprobust.__file__).resolve().parent != (src / "dprobust").resolve():
        print(f"perfbench: imported dprobust from {dprobust.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return dprobust


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


@dataclass
class StepResult:
    is_op: bool
    seconds: float
    releases: list
    errors: list[str]


@dataclass
class PassResult:
    steps: list[StepResult] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(s.seconds for s in self.steps)

    def digests(self) -> list[str]:
        return [r.digest for s in self.steps for r in s.releases]


def run_pass(workload, k: int, tracer=None) -> PassResult:
    """Run pass k; time each step's program call, then check its output."""
    result = PassResult()
    for step in workload.steps(k):
        out, raised = None, None
        if tracer is not None:
            tracer.begin_step()
        start = time.perf_counter()
        try:
            if tracer is None:
                out = step.call()
            else:
                with tracer.span(f"bench.{step.name}"):
                    out = step.call()
        except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
            raised = exc
        seconds = time.perf_counter() - start
        if raised is not None:
            releases, errors = [], [f"{step.name} raised {type(raised).__name__}: {raised}"]
        else:
            try:
                releases, errors = step.check(out)
            except Exception as exc:  # noqa: BLE001 - a malformed output fails the op
                releases, errors = [], [f"{step.name} output check raised {type(exc).__name__}: {exc}"]
        result.steps.append(StepResult(step.is_op, seconds, releases, errors))
    return result


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its rank.

    With fewer than 2 * TAIL_BEYOND samples that percentile is below the
    median; the printed table says which percentile was used.
    """
    ordered = sorted(values)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def quality(passes: list[PassResult]) -> dict:
    """Output-quality metrics over the dp_robust releases of all passes."""
    releases = [r for p in passes for s in p.steps for r in s.releases]
    robust = [r for r in releases if r.method == "dp_robust"]
    filtered = [r for r in releases if r.termination is not None]
    recalls = [r.planted_recall for r in robust if r.planted_recall is not None]
    return {
        "robust_l2_error_p50": statistics.median(r.robust_err for r in robust) if robust else math.nan,
        "private_l2_error_p50": statistics.median(r.private_err for r in robust) if robust else math.nan,
        "noise_sigma": statistics.median(r.noise_sigma for r in robust) if robust else math.nan,
        "certified_frac": sum(r.termination == "certificate" for r in filtered) / len(filtered) if filtered else math.nan,
        "planted_recall": statistics.median(recalls) if recalls else math.nan,
    }


def failures(passes: list[PassResult]) -> tuple[int, int, list[str]]:
    ops = [s for p in passes for s in p.steps if s.is_op]
    messages = [e for p in passes for s in p.steps for e in s.errors]
    return len(ops), sum(1 for s in ops if s.errors), messages


def measure(workload, seconds: float) -> tuple[dict, list[PassResult], list[str], str]:
    """Untraced run: set up SETUP_REPEATS times, then whole passes for `seconds`
    and at least `workload.quality_passes` of them."""
    setups, prints, problems = [], set(), []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prints.add(workload.setup())
        setups.append(time.perf_counter() - start)
    if len(prints) != 1:
        problems.append("set-up gave different inputs for the same seed")

    passes = []
    start = time.perf_counter()
    while len(passes) < workload.quality_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, len(passes)))
    op_times = [s.seconds for p in passes for s in p.steps if s.is_op]
    tail_value, tail_pct = tail(op_times)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(p.wall for p in passes),
        "op_p50_s": statistics.median(op_times),
        "op_tail_s": tail_value,
        "ops_per_s": len(op_times) / sum(p.wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **quality(passes[: workload.quality_passes]),
    }
    note = f"op_tail_s is p{tail_pct:.0f} of {len(op_times)} ops in {len(passes)} passes"
    return metrics, passes, problems, note


def trace_run(workload, dp, seconds: float, spans_path: Path, env: dict, declared: dict):
    """Traced run: per-layer metrics, determinism and self-time checks."""
    tracer = Tracer(dp)
    problems = []
    try:
        tracer.unit = "setup"
        tracer.begin_step()
        with tracer.active(), tracer.span("bench.setup"):
            workload.setup()

        start = time.perf_counter()
        pairs, traced = [], []

        def traced_pass(k):
            tracer.unit = len(traced)
            with tracer.active():
                traced.append(run_pass(workload, k, tracer))
            return traced[-1]

        # Pass 0 runs untraced once and traced twice: the reference for the
        # determinism check and for the exact counters.
        reference = run_pass(workload, 0)
        pairs.append((reference, traced_pass(0)))
        repeat = traced_pass(0)
        k = 1
        while time.perf_counter() - start < seconds:
            plain = run_pass(workload, k)
            pairs.append((plain, traced_pass(k)))
            k += 1

        selfs = self_times(tracer.spans)
        by_unit = defaultdict(list)
        for i, span in enumerate(tracer.spans):
            by_unit[tracer.step_units[span[4]]].append(i)
        warns_by_unit = defaultdict(list)
        for step, kind, message in tracer.warnings:
            warns_by_unit[tracer.step_units[step]].append((kind, message))

        problems += layers.additivity_problems(tracer.spans, selfs)
        per_unit = {
            unit: layers.layer_metrics(tracer.spans, selfs, indices, warns_by_unit[unit])
            for unit, indices in by_unit.items()
        }
        for unit, result in enumerate(traced):
            per_unit.setdefault(unit, layers.layer_metrics(tracer.spans, selfs, [], []))
            per_unit[unit]["filtering.clean_rows_removed"] = sum(
                r.clean_removed or 0 for s in result.steps for r in s.releases
            )
        setup_part = per_unit.get("setup", layers.layer_metrics(tracer.spans, selfs, [], []))

        if not (reference.digests() == traced[0].digests() == repeat.digests()):
            problems.append("pre-noise means or filter outcomes differ between runs of the same pass")
        first, second = per_unit[0], per_unit[1]
        for name in layers.EXACT_COUNTERS:
            if first[name] != second[name]:
                problems.append(f"exact counter {name} differs between runs of the same pass: {first[name]} vs {second[name]}")

        derived = {
            "filtering.rows_per_round": (
                first["filtering.rows_removed"] / first["filtering.filter_steps"] if first["filtering.filter_steps"] else 0.0
            ),
            "trace.setup_s": setup_part["bench.root_s"],
            "trace.pass_s": statistics.fmean(p.wall for p in traced),
            "trace.overhead_s": statistics.median(t.wall - u.wall for u, t in pairs),
        }
        metrics = {}
        for spec in declared["per_layer"]:
            name = spec["name"]
            if name in derived:
                metrics[name] = derived[name]
            elif spec["unit"] in COUNT_UNITS:
                metrics[name] = setup_part[name] + first[name]
            else:
                metrics[name] = setup_part[name] + statistics.fmean(per_unit[u][name] for u in range(len(traced)))
        all_passes = [p for pair in pairs for p in pair] + [repeat]
        profile = layers.profile(tracer.spans, selfs, len(traced))
        return metrics, all_passes, problems, profile
    finally:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(spans_path, {"env": env, "step_units": tracer.step_units, "warnings": tracer.warnings})


def print_table(title: str, metrics: dict, units: dict, note: str = "") -> None:
    print(f"== {title}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units.get(name, '')}", file=sys.stderr)
    if note:
        print(f"  ({note})", file=sys.stderr)


def run_one(args, nproc: int, sizes=None) -> dict:
    """Run one workload in this process and return the result object."""
    import workloads  # imports numpy, so only after cap_blas_threads()

    dp = load_program()
    env = environment(nproc)
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed, "trace": args.trace}))
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, dp, args.seed, sizes or workloads.Sizes(), str(workdir))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, passes, problems, profile = trace_run(workload, dp, args.seconds, spans_path, env, declared)
            print(profile, file=sys.stderr)
            note = f"spans in {spans_path.relative_to(ROOT)}"
        else:
            metrics, passes, problems, note = measure(workload, args.seconds)
            metrics = {m["name"]: metrics[m["name"]] for m in declared["end_to_end"]}
    finally:
        workload.close()
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    attempted, failed, messages = failures(passes)
    for message in (problems + messages)[:20]:
        print(f"perfbench: {message}", file=sys.stderr)
    print_table(f"{args.workload} seed={args.seed} trace={args.trace}", metrics, units,
                f"{note}; failed_frac = {failed}/{attempted}")
    return {
        "correct": not problems and not messages and all(math.isfinite(v) for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload, each in its own process, then one table of all metrics."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=600, check=False)
        lines = done.stdout.decode().strip().splitlines()
        results[name] = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    names = list(workloads.WORKLOADS)
    print(f"{'metric':34s} {'unit':10s} " + " ".join(f"{n:>14s}" for n in names))
    metric_names = next((list(r["metrics"]) for r in results.values() if r), [])
    for metric in metric_names + ["failed_frac"]:
        cells, unit = [], ""
        for n in names:
            r = results[n]
            if r is None:
                cells.append(f"{'error':>14s}")
            elif metric == "failed_frac":
                cells.append(f"{r['failed'] / r['attempted']:14.6g}")
            else:
                unit = r["metrics"][metric]["unit"]
                cells.append(f"{r['metrics'][metric]['value']:14.6g}")
        print(f"{metric:34s} {unit or 'fraction':10s} " + " ".join(cells))
    ok = all(r is not None and r["correct"] and r["failed"] == 0 for r in results.values())
    print(f"correct: {ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    nproc = cap_blas_threads()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_one(args, nproc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
