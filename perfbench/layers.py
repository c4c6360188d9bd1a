"""Per-layer tracing of polybound from outside the package.

Every layer boundary is one module-level function of polybound, listed
once in BOUNDARIES.  While a Tracer records, each listed function is
replaced, in its defining module and in every polybound module that
imported it by name, with a wrapper that records a span: calls, self
time (span time minus the time of the spans it caused) and counts read
from the arguments or the result.  Leaving the recording restores the
originals, so the untraced run executes the package unmodified.

A boundary whose function no longer exists is reported as absent and
leaves its metrics at zero.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from time import perf_counter
from typing import Callable, Optional

import numpy as np

PACKAGE = "polybound"


def _rows(name):
    """Count the rows of the coefficient stack passed second."""
    return lambda args, result: {name: np.shape(args[1])[0]}


def _adaptive(args, result):
    return {
        "bounder.adaptive_cells": sum(h["cells"] for h in result.level_history),
        "bounder.adaptive_levels_sum": result.levels_used,
    }


def _squeeze(args, result):
    alpha = np.asarray(result, dtype=float)
    return {
        "limiter.limited": int(np.count_nonzero(alpha < 1.0)),
        "limiter.alphas": alpha.size,
        "min:limiter.min_alpha": float(alpha.min()) if alpha.size else 1.0,
    }


def _element(args, result):
    level = min(result.levels_used, 2)
    return {
        f"meshcheck.{result.status}": 1,
        f"meshcheck.elements_level{level}{'plus' if level == 2 else ''}": 1,
    }


@dataclass(frozen=True)
class Boundary:
    """One traced function: polybound.<module>.<function>, span name key.

    The wrapper adds <key>_calls and <key>_ms (self time) to the stats;
    counts, when given, maps (args, result) to further stats.
    """

    module: str
    function: str
    key: str
    counts: Optional[Callable] = None


BOUNDARIES = (
    Boundary("basis", "basis_matrix", "basis.matrix"),
    Boundary("bounder", "_p1_batch", "bounder.p1"),
    Boundary("bounder", "_bound_rows", "bounder.exact", _rows("bounder.exact_rows")),
    Boundary("bounder", "_bound_interval_rows", "bounder.interval",
             _rows("bounder.interval_rows")),
    Boundary("bounder", "_batch_bounds_2d", "bounder.batch2d"),
    Boundary("bounder", "bound_1d", "bounder.tensor"),
    Boundary("bounder", "bound_tensor", "bounder.tensor"),
    Boundary("bounder", "subdivide", "bounder.subdivide"),
    Boundary("bounder", "bound_adaptive", "bounder.adaptive", _adaptive),
    Boundary("limiter", "_rhs", "limiter.rhs"),
    Boundary("limiter", "_limit_arrays", "limiter.limit"),
    Boundary("limiter", "squeeze_alpha", "limiter.squeeze", _squeeze),
    Boundary("meshcheck", "read_mesh", "meshcheck.read"),
    Boundary("meshcheck", "detj_coeffs", "meshcheck.detj"),
    Boundary("meshcheck", "classify_element", "meshcheck.driver", _element),
    Boundary("boxopt", "load_table", "boxopt.load"),
    Boundary("boxopt", "verify_table", "boxopt.verify"),
    Boundary("boxopt", "_raw_objective", "boxopt.objective"),
    Boundary("boxopt", "optimize_values", "boxopt.values"),
)

# span of one whole benchmark operation; its self time is the part of the
# operation that no boundary covers
OTHER = "trace.other"


class Stats:
    """Accumulated span totals; keys starting with 'min:' keep a minimum."""

    def __init__(self):
        self.total = defaultdict(float)
        self.low = {}

    def add(self, key, value):
        if key.startswith("min:"):
            key = key[4:]
            self.low[key] = min(self.low.get(key, value), value)
        else:
            self.total[key] += value


def layer_metrics(setup: Stats, passes: list[Stats], absent: int,
                  overhead_pct: float) -> dict:
    """Per-layer record: one set-up plus the mean over the traced passes."""
    t = defaultdict(float, setup.total)
    for s in passes:
        for k, v in s.total.items():
            t[k] += v / len(passes)
    low = dict(setup.low)
    for s in passes:
        for k, v in s.low.items():
            low[k] = min(low.get(k, v), v)

    def ratio(num, den):
        return t[num] / t[den] if t[den] else 0.0

    def ms(key):
        return (1e3 * t[key + "_ms"], "ms")

    def count(key, unit="count"):
        return (t[key], unit)

    return {
        "basis.matrix_calls": count("basis.matrix_calls"),
        "basis.matrix_ms": ms("basis.matrix"),
        "bounder.p1_ms": ms("bounder.p1"),
        "bounder.exact_rows": count("bounder.exact_rows", "rows"),
        "bounder.exact_ms": ms("bounder.exact"),
        "bounder.interval_rows": count("bounder.interval_rows", "rows"),
        "bounder.interval_ms": ms("bounder.interval"),
        "bounder.batch2d_ms": ms("bounder.batch2d"),
        "bounder.rows_per_call": (
            (t["bounder.exact_rows"] + t["bounder.interval_rows"])
            / max(1.0, t["bounder.exact_calls"] + t["bounder.interval_calls"]),
            "rows",
        ),
        "bounder.tensor_calls": count("bounder.tensor_calls"),
        "bounder.tensor_ms": ms("bounder.tensor"),
        "bounder.subdivide_calls": count("bounder.subdivide_calls"),
        "bounder.subdivide_ms": ms("bounder.subdivide"),
        "bounder.adaptive_cells": count("bounder.adaptive_cells"),
        "bounder.adaptive_levels": (
            ratio("bounder.adaptive_levels_sum", "bounder.adaptive_calls"), "levels"
        ),
        "meshcheck.read_ms": ms("meshcheck.read"),
        "meshcheck.detj_ms": ms("meshcheck.detj"),
        "meshcheck.driver_ms": ms("meshcheck.driver"),
        "meshcheck.valid": count("meshcheck.valid"),
        "meshcheck.invalid": count("meshcheck.invalid"),
        "meshcheck.indeterminate": count("meshcheck.indeterminate"),
        "meshcheck.elements_level0": count("meshcheck.elements_level0"),
        "meshcheck.elements_level1": count("meshcheck.elements_level1"),
        "meshcheck.elements_level2plus": count("meshcheck.elements_level2plus"),
        "limiter.rhs_ms": ms("limiter.rhs"),
        "limiter.limit_ms": ms("limiter.limit"),
        "limiter.squeeze_ms": ms("limiter.squeeze"),
        "limiter.limited_frac": (ratio("limiter.limited", "limiter.alphas"), "ratio"),
        # no squeeze call means no element was scaled back
        "limiter.min_alpha": (low.get("limiter.min_alpha", 1.0), "ratio"),
        "boxopt.load_calls": count("boxopt.load_calls"),
        "boxopt.load_ms": ms("boxopt.load"),
        "boxopt.verify_ms": ms("boxopt.verify"),
        "boxopt.objective_evals": count("boxopt.objective_calls"),
        "boxopt.objective_ms": ms("boxopt.objective"),
        "boxopt.values_ms": ms("boxopt.values"),
        "trace.other_ms": ms(OTHER),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.absent": (float(absent), "count"),
    }


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _replace(original, replacement) -> list:
    """Point every polybound name bound to original at replacement."""
    done = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                done.append((mod, attr))
    return done


def _lookup(boundary: Boundary):
    mod = sys.modules.get(f"{PACKAGE}.{boundary.module}")
    return getattr(mod, boundary.function, None) if mod is not None else None


@contextmanager
def patched(module: str, function: str, make_wrapper):
    """Replace polybound.<module>.<function> everywhere it is bound.

    make_wrapper receives the original and returns its replacement.
    """
    original = _lookup(Boundary(module, function, ""))
    if original is None:
        raise LookupError(f"{PACKAGE}.{module}.{function} does not exist")
    done = _replace(original, make_wrapper(original))
    try:
        yield
    finally:
        for mod, attr in done:
            setattr(mod, attr, original)


class Tracer:
    """Records spans at BOUNDARIES into a Stats while active."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.absent = [
            f"{PACKAGE}.{b.module}.{b.function}"
            for b in boundaries if _lookup(b) is None
        ]
        self._stack = []
        self._stats = None

    def _wrap(self, fn, key, counts):
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += span
                stats = self._stats
                stats.add(key + "_ms", span - child[0])
                stats.add(key + "_calls", 1)
            if counts is not None:
                for k, v in counts(args, result).items():
                    stats.add(k, v)
            return result

        return traced

    @contextmanager
    def record(self, stats: Stats):
        """Install the wrappers; spans go to stats until the block ends."""
        self._stats = stats
        installed = []
        try:
            for b in self.boundaries:
                original = _lookup(b)
                if original is not None:
                    wrapper = self._wrap(original, b.key, b.counts)
                    installed.append((original, _replace(original, wrapper)))
            yield
        finally:
            for original, done in installed:
                for mod, attr in done:
                    setattr(mod, attr, original)
            self._stats = None

    def operation(self, fn):
        """fn wrapped as the root span of one benchmark operation."""
        return self._wrap(fn, OTHER, None)
