"""The committed experiment configs and the README's sample config stay
loadable, so renaming or removing a config key breaks the build rather
than the experiment."""

from pathlib import Path

import pytest

from dprobust.harness import load_config, parse_config_text

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "experiments").glob("*.cfg"))


def test_experiments_exist():
    assert {"dimension_sweep.cfg", "n_scaling.cfg"} <= {path.name for path in CONFIGS}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_config_loads(path):
    config = load_config(path)
    assert config.trials >= 1


def test_readme_sample_config_parses():
    # The README's fenced block of key = value lines that sets n_values.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```")[1::2]
    samples = [block for block in blocks if "\nn_values =" in block]
    assert len(samples) == 1
    config = parse_config_text(samples[0])
    assert config.trials >= 1
