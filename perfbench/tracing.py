"""Spans around calls into each hardysym module, recorded from outside.

The package is not changed. `Tracer.install` replaces, for the duration of a
traced round, the public names that each calling module looks up (for
example `hardysym.minimizer.hs_constraint` or `hardysym.cli.eps_sweep`) with
wrappers that time and count each call; `uninstall` puts the originals
back. Spans nest: each one knows its parent, so a layer's self time and the
time a child spends inside a given parent can be read off afterwards.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (calling module, looked-up name, span name). The package-level names are
# the ones the benchmark's own workload code calls.
WRAPPED = [
    ("hardysym", "make_radial_grid", "grid.build"),
    ("hardysym.cli", "make_radial_grid", "grid.build"),
    ("hardysym.minimizer", "make_radial_grid", "grid.build"),
    ("hardysym.sharp_constant", "make_radial_grid", "grid.build"),
    ("hardysym.minimizer", "hs_constraint", "functionals.hs_constraint"),
    ("hardysym.minimizer", "hs_quotient", "functionals.hs_quotient"),
    ("hardysym.functionals", "weighted_dirichlet", "functionals.weighted_dirichlet"),
    ("hardysym.rearrange", "weighted_dirichlet", "functionals.weighted_dirichlet"),
    ("hardysym.sharp_constant", "weighted_dirichlet", "functionals.weighted_dirichlet"),
    ("hardysym", "double_star", "rearrange.double_star"),
    ("hardysym.minimizer", "double_star", "rearrange.double_star"),
    ("hardysym.cli", "double_star", "rearrange.double_star"),
    ("hardysym", "polya_szego_check", "rearrange.polya_szego"),
    ("hardysym", "hardy_littlewood_check", "rearrange.hardy_littlewood"),
    ("hardysym.cli", "hardy_littlewood_check", "rearrange.hardy_littlewood"),
    ("hardysym.cli", "eps_sweep", "sharp_constant.eps_sweep"),
    ("hardysym.minimizer", "product_family", "sharp_constant.product_family"),
    ("hardysym.minimizer", "eps_family_truncated", "sharp_constant.eps_family_truncated"),
    ("hardysym.cli", "split_infimum_demo", "sharp_constant.split_demo"),
    ("hardysym", "minimize_hs", "minimizer.minimize"),
    ("hardysym.cli", "minimize_hs", "minimizer.minimize"),
    ("hardysym.minimizer", "GridFunction", "minimizer.gridfunction"),
    ("hardysym.cli", "grid_function_to_csv", "cli.grid_function_to_csv"),
]


class Tracer:
    """Per-span total time and call count, plus time of children by parent."""

    def __init__(self):
        self.time = defaultdict(float)
        self.calls = defaultdict(int)
        self.inside = defaultdict(float)  # (parent, child) -> child time
        self.children = defaultdict(float)  # parent -> time of its direct children
        self._stack = []
        self._saved = []

    def _enter(self, name):
        frame = [name, perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        dt = perf_counter() - frame[1]
        self._stack.pop()
        name = frame[0]
        self.time[name] += dt
        self.calls[name] += 1
        if self._stack:
            parent = self._stack[-1][0]
            self.children[parent] += dt
            self.inside[parent, name] += dt

    @contextmanager
    def span(self, name):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        traced.__wrapped__ = fn
        return traced

    def _traced_splu(self, splu):
        tracer = self

        class TimedLU:
            """SuperLU factor whose solves are spans of their own."""

            def __init__(self, lu):
                self._lu = lu

            def solve(self, *args, **kwargs):
                frame = tracer._enter("minimizer.splu_solve")
                try:
                    return self._lu.solve(*args, **kwargs)
                finally:
                    tracer._exit(frame)

            def __getattr__(self, attr):
                return getattr(self._lu, attr)

        def traced_splu(*args, **kwargs):
            frame = tracer._enter("minimizer.splu_factor")
            try:
                lu = splu(*args, **kwargs)
            finally:
                tracer._exit(frame)
            return TimedLU(lu)

        return traced_splu

    def _replace(self, module, attr, new):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self):
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            self._replace(module, attr, self.wrap(getattr(module, attr), name))
        minimizer = importlib.import_module("hardysym.minimizer")
        self._replace(minimizer, "splu", self._traced_splu(minimizer.splu))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class NullTracer:
    """Stands in for Tracer in untraced rounds: spans cost one call."""

    @contextmanager
    def span(self, name):
        yield

    def install(self):
        pass

    def uninstall(self):
        pass
