"""The committed experiment configs stay loadable, so renaming a config key
breaks the build rather than the experiment."""

from pathlib import Path

import pytest

from dprobust.harness import load_config

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "experiments").glob("*.cfg"))


def test_experiments_exist():
    assert {"dimension_sweep.cfg", "n_scaling.cfg"} <= {path.name for path in CONFIGS}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_config_loads(path):
    config = load_config(path)
    assert config.trials >= 1
