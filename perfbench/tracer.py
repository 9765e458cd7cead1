"""Outside-in tracer for spexlab: wraps public functions from outside the package.

Every public (non-underscore, non-generator) function defined in a layer
module, every public method of a class defined there, and each class's
``__post_init__`` is wrapped once. The wrapper is installed at every
module-global binding of the original inside the ``spexlab`` package
(modules import each other by name, e.g. ``search.spectral_radius`` or
``cli.graph6_decode``), so calls between modules are seen too.

Spans nest on one stack. A span's self time is its duration minus the
durations of its direct child spans. Spans are aggregated in memory per
function (calls, self seconds) and read out once at the end with ``report``.
Private helpers and generators are not wrapped; their time counts as the
self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("graphs", "spectral", "search", "structure", "quotient", "random_graphs", "cli")


def _wrappable(obj) -> bool:
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, self_s]
        self.counts: dict[str, float] = {
            "spectral.iterations": 0,
            "spectral.matvec_flops": 0,
            "search.classes": 0,
        }
        self._stack: list[float] = []  # child time of each open span

    def wrap(self, name: str, fn):
        agg = self.spans.setdefault(name, [0, 0.0])
        stack = self._stack
        count = _COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                agg[0] += 1
                agg[1] += dt - child
                if stack:
                    stack[-1] += dt
            if count is not None:
                count(counts, args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions and rebind them package-wide."""
        replaced = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"spexlab.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if _wrappable(obj):
                    replaced[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if (meth == "__post_init__" or not meth.startswith("_")) and _wrappable(fn):
                            setattr(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))
        for name, mod in list(sys.modules.items()):
            if name != "spexlab" and not name.startswith("spexlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def report(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _count_spectral(counts, args, res) -> None:
    n = args[0].n
    counts["spectral.iterations"] += res.iterations
    # computed, not measured: one dense n x n mat-vec per iteration
    counts["spectral.matvec_flops"] += 2 * n * n * res.iterations


def _count_search(counts, args, report) -> None:
    counts["search.classes"] += report.graphs_scanned


_COUNTERS = {
    "spectral.spectral_radius": _count_spectral,
    "search.spex_search": _count_search,
}
