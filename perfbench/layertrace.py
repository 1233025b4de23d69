"""Per-layer tracing of tvspec from outside the package.

``Tracer`` wraps every public function defined in each layer module
(``cli``, ``elliptic``, ``poly``, ``heun``, ``spectral``, ``hill``,
``premodular``) and rebinds the wrapper under every name that refers to
the original in any loaded ``tvspec`` module, because the modules import
each other's functions by name (``from .elliptic import wp``).  Leaving
the ``with`` block restores every name.

A span is one wrapped call.  Spans are folded into per-function totals
as they close rather than kept: calls, calls that raised, inclusive
time, self time (inclusive time minus the spans opened inside it) and,
for a few functions, the size of one argument or of the result.
``PathPotential.__call__`` is counted without a span, since it runs once
per integrator stage.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "elliptic", "poly", "heun", "spectral", "hill", "premodular")

# layers that must see calls on a workload for its traced run to count
HEAVY = {
    "qpoly": ("cli", "elliptic", "poly", "heun", "spectral"),
    "bands": ("cli", "hill"),
    "unitary": ("cli", "hill"),
    "premodular": ("cli", "elliptic", "premodular"),
}

ELLIPTIC_EVALS = ("wp", "wp_prime", "wp_second", "zeta_w", "wp_half_shift")
PARSERS = ("build_parser", "_Parser.parse_args", "parse_complex",
           "parse_grid", "parse_n_tuple", "parse_rs")

# function -> index of the argument whose size is summed
SIZE_ARG = {**{f"elliptic.{f}": 0 for f in ELLIPTIC_EVALS},
            "hill.trace_on_grid": 1}
# function -> count taken from the return value
RESULT_COUNT = {"hill.stability_set_1d": lambda bs: len(bs.finite_edges)}


class _Stat:
    __slots__ = ("calls", "raised", "incl", "self", "size")

    def __init__(self):
        self.calls = self.raised = self.size = 0
        self.incl = self.self = 0.0


def public_functions(module) -> dict:
    """Public functions defined in ``module`` itself, by name."""
    return {
        name: obj for name, obj in vars(module).items()
        if inspect.isfunction(obj) and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


class Tracer:
    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.potential_evals = 0
        self._stack = []        # time covered by child spans, per open span
        self._saved = []        # (namespace, name, original)

    # ── wrapping ──────────────────────────────────────────────────────

    def _span(self, key: str, fn):
        stats, stack = self.stats[key], self._stack
        size_arg = SIZE_ARG.get(key)
        result_count = RESULT_COUNT.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats.calls += 1
                stats.raised += not ok
                stats.incl += dt
                stats.self += dt - child
                if size_arg is not None:
                    stats.size += int(np.size(args[size_arg]))
                if ok and result_count is not None:
                    stats.size += result_count(result)

        return wrapper

    def _counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.potential_evals += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, wrapper):
        """Point every tvspec module name bound to ``original`` at
        ``wrapper``."""
        for modname, module in list(sys.modules.items()):
            if modname != "tvspec" and not modname.startswith("tvspec."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def _patch_attr(self, owner, name, wrapper):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for layer in LAYERS:
            module = importlib.import_module(f"tvspec.{layer}")
            for name, fn in public_functions(module).items():
                self._rebind(fn, self._span(f"{layer}.{name}", fn))
        cli = sys.modules["tvspec.cli"]
        hill = sys.modules["tvspec.hill"]
        self._patch_attr(cli._Parser, "parse_args", self._span(
            "cli._Parser.parse_args", cli._Parser.parse_args))
        self._patch_attr(hill.PathPotential, "__call__",
                         self._counter(hill.PathPotential.__call__))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False

    # ── metrics ───────────────────────────────────────────────────────

    def _sum(self, field: str, keys) -> float:
        return sum(getattr(self.stats[k], field) for k in keys
                   if k in self.stats)

    def _layer(self, layer: str):
        return [k for k in self.stats if k.startswith(layer + ".")]

    def layer_calls(self, layer: str) -> int:
        return self._sum("calls", self._layer(layer))

    def metrics(self) -> dict:
        """Per-layer values, named as in BENCHMARK.json."""
        s = self.stats
        m = {}
        for layer in ("elliptic", "poly", "heun", "spectral", "premodular"):
            m[f"{layer}.self_s"] = self._sum("self", self._layer(layer))
        m["cli.parse_s"] = self._sum("incl", [f"cli.{f}" for f in PARSERS])
        m["cli.emit_s"] = s["cli.emit"].incl
        evals = [f"elliptic.{f}" for f in ELLIPTIC_EVALS]
        m["elliptic.eval_calls"] = self._sum("calls", evals)
        m["elliptic.eval_points"] = self._sum("size", evals)
        m["elliptic.lattice_calls"] = s["elliptic.make_lattice"].calls
        m["elliptic.lattice_s"] = s["elliptic.make_lattice"].incl
        m["poly.aberth_calls"] = s["poly.aberth_roots"].calls
        m["heun.calls"] = self.layer_calls("heun")
        m["spectral.phi_s"] = s["spectral.q_via_phi_ansatz"].incl
        m["spectral.factor_s"] = s["spectral.q_via_factorization"].incl
        m["hill.refine_s"] = s["hill.stability_set_1d"].self
        m["hill.potential_evals"] = self.potential_evals
        m["hill.edges"] = s["hill.stability_set_1d"].size
        m["hill.problem_s"] = s["hill.make_problem"].incl
        m["hill.grid_calls"] = s["hill.trace_on_grid"].calls
        m["hill.grid_energies"] = s["hill.trace_on_grid"].size
        m["hill.grid_s"] = s["hill.trace_on_grid"].incl
        m["premodular.zn_calls"] = s["premodular.z_n"].calls
        zf = s["premodular.zero_find"]
        m["premodular.newton_starts"] = zf.calls
        m["premodular.newton_converged"] = zf.calls - zf.raised
        return m
