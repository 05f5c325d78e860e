"""Per-layer metrics computed from the traced run's spans.

Times are in seconds of one pass; set-up, traced once, is added in. Counts
are those of the reference pass (pass 0) plus set-up, so they are exact
and repeat for a seed. ``<layer>.self_s`` is the time spent in the layer's
own code, net of every traced call it makes, so the self times of all
layers plus ``bench.self_s`` add up to ``trace.setup_s + trace.pass_s``.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import END, INFO, LAYERS, PARENT, START, covered

EIGEN = {
    "linalg.spectral_deviation", "linalg.spectral_deviation_pair", "linalg.max_eigenpair",
    "linalg.top_eigenpair", "linalg.spectral_norm",
}
VALIDATE = {"linalg.as_dataset", "linalg.as_vector", "linalg.as_sym_matrix"}
RELEASES = {"estimators.dp_robust_mean", "estimators.dp_mean", "estimators.dp_winsorized_mean"}
TERMINATIONS = ("certificate", "fallback_exhausted", "max_iterations")

# Counters that follow from the program's own decisions; they must repeat
# exactly when the same pass runs again.
EXACT_COUNTERS = (
    "filtering.rounds", "filtering.rows_removed", "filtering.filter_steps", "linalg.eig_calls",
    "linalg.eig_iters", "linalg.eig_unconverged", "filtering.term.certificate",
    "filtering.term.fallback_exhausted", "filtering.term.max_iterations", "trace.spans",
)


def layer_metrics(spans, selfs, indices, warns) -> dict:
    """Per-layer times and counts over the spans at `indices`."""
    m = defaultdict(float)
    by_name = defaultdict(list)
    for i in indices:
        name = spans[i][0]
        by_name[name].append(i)
        m[f"{name.split('.')[0]}.self_s"] += selfs[i]
        if spans[i][PARENT] < 0:
            m["bench.root_s"] += spans[i][END] - spans[i][START]

    def total(name, keep=lambda i: True):
        return sum(spans[i][END] - spans[i][START] for i in by_name[name] if keep(i))

    m["linalg.mean_s"] = total("linalg.empirical_mean")
    m["linalg.cov_s"] = total("linalg.empirical_covariance")
    # A covariance of n rows in d dimensions: the d x d GEMM is 2 n d^2 flop;
    # it reads the rows, writes and rereads the centered copy (3 n d doubles)
    # and writes, rereads and symmetrizes the d x d result (4 d^2 doubles).
    shapes = [spans[i][INFO] for i in by_name["linalg.empirical_covariance"] if spans[i][INFO]]
    m["linalg.cov_gflop"] = sum(2 * n * d * d for n, d in shapes) / 1e9
    m["linalg.cov_gb_moved"] = sum(8 * (3 * n * d + 4 * d * d) for n, d in shapes) / 1e9
    m["linalg.eig_s"] = covered(spans, indices, EIGEN)
    eig = [spans[i][INFO] for i in by_name["linalg.top_eigenpair"] if spans[i][INFO]]
    m["linalg.eig_calls"] = len(eig)
    m["linalg.eig_iters"] = sum(iterations for iterations, _ in eig)
    m["linalg.eig_unconverged"] = sum(not converged for _, converged in eig)
    m["linalg.validate_s"] = covered(spans, indices, VALIDATE)

    filters = [spans[i][INFO] for i in by_name["filtering.filter_gaussian_unknown_mean"] if spans[i][INFO]]
    m["filtering.rounds"] = sum(rounds for rounds, _, _ in filters)
    m["filtering.rows_removed"] = sum(removed for _, removed, _ in filters)
    m["filtering.filter_steps"] = len(by_name["filtering.filter_step"])
    for term in TERMINATIONS:
        m[f"filtering.term.{term}"] = sum(t == term for _, _, t in filters)
    m["filtering.step_s"] = total("filtering.filter_step")

    m["datagen.sample_s"] = total("datagen.sample_gaussian")
    m["datagen.corrupt_s"] = total("datagen.corrupt")
    m["datagen.csv_write_s"] = total("datagen.save_dataset_csv")
    m["datagen.csv_read_s"] = total("datagen.load_dataset_csv")
    m["datagen.csv_mb"] = sum(spans[i][INFO] or 0 for i in by_name["datagen.save_dataset_csv"]) / 1e6

    m["estimators.release_s"] = covered(spans, indices, RELEASES)
    m["estimators.winsorize_s"] = total("estimators.winsorized_mean")
    m["sensitivity.bound_s"] = covered(spans, indices, {n for n in by_name if n.startswith("sensitivity.")})
    m["privacy.noise_s"] = covered(spans, indices, {n for n in by_name if n.startswith("privacy.")})
    m["harness.calibrate_s"] = total("harness.calibrate_c")
    m["harness.trial_s"] = sum(
        spans[i][END] - spans[i][START]
        for name in RELEASES
        for i in by_name[name]
        if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][0] == "harness.run_sweep"
    )
    m["cli.synth_s"] = total("cli.main", lambda i: spans[i][INFO] and spans[i][INFO][0] == "synth")
    m["cli.estimate_s"] = total("cli.main", lambda i: spans[i][INFO] and spans[i][INFO][0] == "estimate")
    m["cli.nonzero_exits"] = sum(1 for i in by_name["cli.main"] if spans[i][INFO] and spans[i][INFO][1] != 0)

    m["filtering.sample_size_warnings"] = sum(kind == "SampleSizeWarning" for kind, _ in warns)
    m["privacy.regime_warnings"] = sum(kind == "PrivacyRegimeWarning" for kind, _ in warns)
    m["harness.failed_trials"] = sum(message.startswith("trial failed") for _, message in warns)
    m["trace.spans"] = len(indices)
    m["filtering.clean_rows_removed"] = 0  # set by the benchmark, which knows the planted rows
    for key in [f"{layer}.self_s" for layer in LAYERS + ("bench",)] + ["bench.root_s"]:
        m[key] += 0.0
    return dict(m)


def additivity_problems(spans, selfs) -> list[str]:
    """Self times of the spans under each root must add up to the root's duration."""
    totals = defaultdict(float)
    for i, span in enumerate(spans):
        j = i
        while spans[j][PARENT] >= 0:
            j = spans[j][PARENT]
        totals[j] += selfs[i]
    return [
        f"self times under {spans[j][0]} add to {total!r}, not its duration {spans[j][END] - spans[j][START]!r}"
        for j, total in totals.items()
        if abs(total - (spans[j][END] - spans[j][START])) > 1e-9 + 1e-9 * (spans[j][END] - spans[j][START])
    ]


def profile(spans, selfs, passes: int, top: int = 15) -> str:
    """Text table of the span names with the most self time per traced pass."""
    calls, inclusive, own = defaultdict(int), defaultdict(float), defaultdict(float)
    for i, span in enumerate(spans):
        calls[span[0]] += 1
        inclusive[span[0]] += span[END] - span[START]
        own[span[0]] += selfs[i]
    grand = sum(own.values()) or 1.0
    lines = [f"{'span (all traced passes + set-up)':44s} {'calls':>8s} {'incl s/pass':>12s} {'self s/pass':>12s} {'self %':>7s}"]
    for name in sorted(own, key=own.get, reverse=True)[:top]:
        lines.append(
            f"{name:44s} {calls[name]:8d} {inclusive[name] / passes:12.4f} {own[name] / passes:12.4f} {100 * own[name] / grand:6.1f}%"
        )
    return "\n".join(lines)
