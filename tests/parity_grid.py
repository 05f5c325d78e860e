"""Parity grid for the spectral filter: one JSON line per filter run.

Runs filter_gaussian_unknown_mean over 2,496 settings and prints, for each,
the case and what the filter returned: the mean's bytes in hex, the
removed indices in removal order, the iteration count, the termination and
float.hex of the final spectral deviation (or the exception, if it raised).
Two trees whose filters agree bit for bit print byte-identical output, so a
change meant to keep every output is checked with cmp:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<parent>/src python tests/parity_grid.py > parent.jsonl
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/parity_grid.py > change.jsonl
    cmp parent.jsonl change.jsonl

One BLAS thread keeps the BLAS calls' rounding the same from run to run.
The grid: 13 shapes from (3, 1) to (40, 1000); clean N(0, I) rows, a 10%
cluster of identical rows at 10 e1, a 10% directional spread, and two rows
moved by 1e4 e1; each as is, offset by 1e6, and scaled by 1e-8 and 1e8;
gamma in {0.01, 0.1, 0.25, 0.45, 1/n} and C in {0.3, 1, 5}. The three
shapes with n d >= 50,000 run only as is and offset, with gamma in
{0.1, 1/n} and C in {1, 5}. This module is a script, not a test: pytest
does not collect it.
"""

import json
import warnings

import numpy as np

from dprobust.datagen import ConstantCluster, DirectionalSpread, corrupt, sample_gaussian
from dprobust.filtering import filter_gaussian_unknown_mean
from dprobust.sensitivity import RobustConfig

SHAPES = [(3, 1), (3, 2), (10, 1), (20, 3), (50, 2), (100, 5), (200, 10), (500, 20),
          (1000, 50), (2000, 10), (5000, 50), (1000, 200), (40, 1000)]
TRANSFORMS = {"as_is": lambda x: x, "offset_1e6": lambda x: x + 1e6,
              "scale_1e-8": lambda x: x * 1e-8, "scale_1e8": lambda x: x * 1e8}


def datasets(n, d, seed):
    clean = sample_gaussian(n, d, 0.0, seed=seed)
    far = clean.copy()
    far[:2, 0] += 1e4
    return {
        "clean": clean,
        "planted": corrupt(clean, 0.1, ConstantCluster(offset=10.0), seed=seed + 1, fixed_count=True)[0],
        "spread": corrupt(clean, 0.1, DirectionalSpread(), seed=seed + 2, fixed_count=True)[0],
        "far": far,
    }


def run(data, gamma, c):
    try:
        out = filter_gaussian_unknown_mean(data, RobustConfig(gamma=gamma, c_thresh=c))
    except Exception as exc:  # a raise is an output too
        return ["error", type(exc).__name__, str(exc)]
    diag = out.diagnostics
    return [out.mean.tobytes().hex(), diag.removed_indices, diag.iterations, diag.terminated_by.value,
            float.hex(diag.final_spectral_deviation)]


def main():
    warnings.simplefilter("ignore")
    for seed, (n, d) in enumerate(SHAPES):
        large = n * d >= 50_000
        transforms = ["as_is", "offset_1e6"] if large else list(TRANSFORMS)
        gammas = [0.1, "1/n"] if large else [0.01, 0.1, 0.25, 0.45, "1/n"]
        cs = [1.0, 5.0] if large else [0.3, 1.0, 5.0]
        for kind, base in datasets(n, d, 100 * seed).items():
            for name in transforms:
                data = TRANSFORMS[name](base)
                for g in gammas:
                    for c in cs:
                        gamma = 1.0 / n if g == "1/n" else g
                        case = [n, d, kind, name, g, c]
                        print(json.dumps([case, run(data, gamma, c)]), flush=True)


if __name__ == "__main__":
    main()
