"""Span tracer for the benchmark's traced run.

The tracer wraps every public function of each dprobust layer module at
every name it is looked up under (``empirical_covariance`` is bound in
``dprobust.linalg``, ``dprobust.filtering`` and ``dprobust`` itself), so a
call is recorded whichever module makes it. Nothing inside ``src/`` is
edited: the wrappers are installed by ``Tracer.active()`` and the original
bindings are put back when it exits.

A span is ``[name, start, end, parent, step, info]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``step`` is the benchmark step
(one op, or one non-op step such as a calibration) that caused it, and
``info`` holds the few result fields the per-layer counters need. Spans stay
in memory; ``write`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
import warnings
from contextlib import contextmanager

LAYERS = ("datagen", "linalg", "filtering", "sensitivity", "privacy", "estimators", "harness", "cli")

START, END, PARENT, STEP, INFO = 1, 2, 3, 4, 5


def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


def _file_bytes(args, kwargs, _result):
    path = _argument(args, kwargs, 1, "path")
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


# Result fields recorded per span, keyed by span name. Only what the
# per-layer counters read is kept, so spans stay small.
HOOKS = {
    "linalg.empirical_covariance": lambda a, k, r: getattr(_argument(a, k, 0, "data"), "shape", None),
    "linalg.top_eigenpair": lambda a, k, r: (r.iterations, bool(r.converged)),
    "filtering.filter_gaussian_unknown_mean": lambda a, k, r: (
        r.diagnostics.iterations,
        len(r.diagnostics.removed_indices),
        r.diagnostics.terminated_by.value,
    ),
    "filtering.filter_step": lambda a, k, r: len(r),
    "datagen.save_dataset_csv": _file_bytes,
    "cli.main": lambda a, k, r: (list(_argument(a, k, 0, "argv") or ["?"])[0], r),
}


def public_functions(module):
    """(name, function) for each public function defined in module itself."""
    for name, obj in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


@contextmanager
def patched(module, names, make_wrapper):
    """Replace module.<name> by make_wrapper(current binding) for each name,
    restoring the previous bindings on exit."""
    saved = {name: getattr(module, name) for name in names}
    try:
        for name, fn in saved.items():
            setattr(module, name, make_wrapper(fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


class Tracer:
    """Records spans and warnings for the layers of one dprobust package."""

    def __init__(self, package):
        self.spans: list[list] = []
        self.warnings: list[tuple[int, str, str]] = []
        self.step = -1
        self.unit = None  # label of the set-up or traced pass now running
        self.step_units: list = []  # unit label of each step id
        self._stack: list[int] = []
        modules = [package] + [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for name, fn in public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        # Every binding of a wrapped function, in any module of the package.
        self._sites = [
            (module, attr, hit[0], hit[1])
            for module in modules
            for attr, obj in list(vars(module).items())
            for hit in [wrappers.get(id(obj))]
            if hit is not None and hit[0] is obj
        ]

    def begin_step(self) -> int:
        """Start a new benchmark step in the current unit; returns its id."""
        self.step = len(self.step_units)
        self.step_units.append(self.unit)
        return self.step

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if hook is not None:
                span[INFO] = hook(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        """Record a span around the body; yields the span."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.step, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def active(self):
        """Install the wrappers and the warning counter; restore on exit."""
        original_warn = warnings.warn

        def counting_warn(message, category=None, stacklevel=1, *args, **kwargs):
            kind = (category or (type(message) if isinstance(message, Warning) else UserWarning)).__name__
            self.warnings.append((self.step, kind, str(message)))
            # One level up, so the warning still points at the program's caller.
            return original_warn(message, category, stacklevel + 1, *args, **kwargs)

        warnings.warn = counting_warn
        try:
            for module, attr, _fn, wrapper in self._sites:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, fn, _wrapper in self._sites:
                setattr(module, attr, fn)
            warnings.warn = original_warn

    def write(self, path, header: dict) -> None:
        """Write the header and then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest without overlap, so the children's durations
    can simply be summed.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[i] for i, span in enumerate(spans)]


def covered(spans, indices, family) -> float:
    """Time covered by spans named in family, counting nested ones once."""
    return sum(
        spans[i][END] - spans[i][START]
        for i in indices
        if spans[i][0] in family and (spans[i][PARENT] < 0 or spans[spans[i][PARENT]][0] not in family)
    )
