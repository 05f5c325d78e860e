"""Tiny-size smoke runs of every workload, untraced and traced.

    python -m pytest perfbench/test_smoke.py -q
"""

import argparse
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.0, trace=trace)
    result = run.run_one(args, nproc=1, sizes=workloads.TINY)
    assert result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_traced_run_restores_every_binding():
    dp = run.load_program()
    import dprobust.filtering
    import dprobust.linalg

    originals = {id(fn) for fn in (dp.dp_robust_mean, dprobust.filtering.empirical_covariance)}
    args = argparse.Namespace(workload="attack", seed=4, seconds=0.0, trace=1)
    run.run_one(args, nproc=1, sizes=workloads.TINY)
    assert dprobust.filtering.empirical_covariance is dprobust.linalg.empirical_covariance
    assert {id(fn) for fn in (dp.dp_robust_mean, dprobust.filtering.empirical_covariance)} == originals
    assert not hasattr(dprobust.linalg.empirical_covariance, "__wrapped__")


def test_fails_without_a_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attack", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
