"""CLI surface: subcommands, JSON output, exit codes, seed overrides."""

import json

import pytest

from dprobust import estimators
from dprobust.cli import main
from dprobust.datagen import load_dataset_csv
from dprobust.harness import BASE_SEED_ENV_VAR

SWEEP_CONFIG = """
n_values = 100
d_values = 3
gamma = 0.1
trials = 2
base_seed = 21
methods = dp_plain,dp_winsorized
adversary = none
"""


def run(args):
    return main(args)


class TestSynth:
    def test_generates_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        assert run(["synth", "--n", "20", "--d", "4", "--seed", "3", "--out", str(out)]) == 0
        data = load_dataset_csv(out)
        assert data.shape == (20, 4)

    def test_corrupted_with_plan(self, tmp_path):
        out = tmp_path / "data.csv"
        plan_path = tmp_path / "plan.json"
        code = run(
            [
                "synth", "--n", "50", "--d", "2", "--seed", "5", "--out", str(out),
                "--gamma", "0.2", "--adversary", "constant_cluster", "--magnitude", "8",
                "--fixed-count", "--plan-out", str(plan_path),
            ]
        )
        assert code == 0
        plan = json.loads(plan_path.read_text())
        assert plan["adversary"] == "constant_cluster"
        assert plan["m_prime"] == 10
        assert len(plan["replaced_indices"]) == 10

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["synth", "--n", "15", "--d", "2", "--seed", "9", "--out", str(a)])
        run(["synth", "--n", "15", "--d", "2", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestEstimate:
    @pytest.fixture()
    def dataset(self, tmp_path):
        path = tmp_path / "data.csv"
        run(["synth", "--n", "200", "--d", "5", "--seed", "1", "--out", str(path)])
        return path

    def test_json_line_structure(self, dataset, capsys):
        code = run(
            ["estimate", "--data", str(dataset), "--method", "dp_plain", "--seed", "4"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["method"] == "dp_plain"
        assert len(payload["result"]["private_mean"]) == 5
        assert payload["result"]["noise_variance"] > 0
        assert "robust_mean" not in payload["result"]
        assert "seed" not in payload["result"]

    def test_diagnostic_mode(self, dataset, capsys):
        run(
            [
                "estimate", "--data", str(dataset), "--method", "dp_robust",
                "--gamma", "0.1", "--seed", "4", "--diagnostic",
            ]
        )
        payload = json.loads(capsys.readouterr().out.strip())
        assert "robust_mean" in payload["result"]
        assert payload["result"]["filter"]["terminated_by"] in (
            "certificate",
            "fallback_exhausted",
        )
        assert payload["result"]["seed"] == 4

    def test_winsorized(self, dataset, capsys):
        run(
            [
                "estimate", "--data", str(dataset), "--method", "dp_winsorized",
                "--alpha", "0.05", "--range-bound", "10", "--seed", "2",
            ]
        )
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["params"]["range_bound"] == 10

    def test_deterministic_given_seed(self, dataset, capsys):
        run(["estimate", "--data", str(dataset), "--method", "dp_plain", "--seed", "6"])
        first = capsys.readouterr().out
        run(["estimate", "--data", str(dataset), "--method", "dp_plain", "--seed", "6"])
        assert capsys.readouterr().out == first

    def test_default_seed_is_fresh(self, dataset, capsys):
        means = []
        for _ in range(2):
            run(["estimate", "--data", str(dataset), "--method", "dp_plain"])
            means.append(json.loads(capsys.readouterr().out)["result"]["private_mean"])
        assert means[0] != means[1]

    def test_file_output(self, dataset, tmp_path):
        out = tmp_path / "result.jsonl"
        run(
            ["estimate", "--data", str(dataset), "--method", "dp_plain", "--out", str(out)]
        )
        assert json.loads(out.read_text())["method"] == "dp_plain"


class TestSweep:
    def test_sweep_and_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CONFIG)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert run(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2  # header + trials x methods

    def test_seed_flag_beats_env(self, tmp_path, monkeypatch):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CONFIG)
        base = tmp_path / "base.csv"
        via_env = tmp_path / "env.csv"
        via_flag = tmp_path / "flag.csv"
        run(["sweep", "--config", str(cfg), "--out", str(base)])
        monkeypatch.setenv(BASE_SEED_ENV_VAR, "1234")
        run(["sweep", "--config", str(cfg), "--out", str(via_env)])
        run(["sweep", "--config", str(cfg), "--seed", "21", "--out", str(via_flag)])
        assert via_env.read_bytes() != base.read_bytes()
        assert via_flag.read_bytes() == base.read_bytes()


class TestCalibrate:
    def test_prints_constant(self, capsys):
        code = run(
            ["calibrate", "--n", "400", "--d", "5", "--gamma", "0.1", "--trials", "10", "--seed", "2"]
        )
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value > 0


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert run(["estimate", "--method", "dp_plain"]) == 1  # missing --data

    def test_unknown_command_is_one(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_config_file_is_one(self, tmp_path, capsys):
        assert run(["sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o.csv")]) == 1

    def test_bad_config_value_is_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_values = 10\nd_values = 2\ngamma = 0.9\n")
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1

    def test_bad_gamma_flag_is_one(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run(["synth", "--n", "10", "--d", "2", "--seed", "1", "--out", str(data)])
        assert run(["estimate", "--data", str(data), "--method", "dp_robust", "--gamma", "0.9"]) == 1

    @pytest.mark.parametrize(
        "method,flag,value",
        [
            (method, flag, value)
            for method in ("dp_robust", "dp_plain", "dp_winsorized")
            for flag, value in (("--epsilon", "0"), ("--epsilon", "nan"), ("--tau", "2"))
        ]
        + [(method, "--c-thresh", value) for method in ("dp_robust", "dp_plain") for value in ("0", "nan")],
    )
    def test_bad_privacy_argument_is_one(self, tmp_path, capsys, monkeypatch, method, flag, value):
        data = tmp_path / "d.csv"
        run(["synth", "--n", "10", "--d", "2", "--seed", "1", "--out", str(data)])

        def no_filter(*args, **kwargs):
            raise AssertionError("the filter ran before the arguments were checked")

        monkeypatch.setattr(estimators, "filter_gaussian_unknown_mean", no_filter)
        assert run(["estimate", "--data", str(data), "--method", method, flag, value]) == 1

    def test_runtime_failure_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,nan\n2.0,3.0\n")  # non-finite entries
        assert run(["estimate", "--data", str(bad), "--method", "dp_plain"]) == 2

    def test_success_is_zero(self, tmp_path):
        out = tmp_path / "ok.csv"
        assert run(["synth", "--n", "5", "--d", "2", "--seed", "0", "--out", str(out)]) == 0
