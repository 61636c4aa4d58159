"""Per-layer tracing from outside the program.

``LayerTracer`` replaces every public function of the dgspec modules with a
timing wrapper, under every name it is bound to: ``energy_report`` lives in
``dgspec.energy`` but is also imported into ``oracle``, ``randic``,
``hermitian``, ``cli`` and the package itself, and a call through any of
those aliases must land in the same layer.  The wrappers keep a span stack so
each layer's self time excludes the time of the traced layers it calls.
Leaving the ``traced()`` block restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

PACKAGE = "dgspec"
LAYERS = ("digraph", "densela", "energy", "randic", "hermitian", "classify", "oracle", "cli")


def public_functions() -> dict[str, object]:
    """``layer.name`` -> function for every public function a layer defines."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, value in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__:
                found[f"{layer}.{name}"] = value
    return found


def package_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


class LayerTracer:
    """Calls, inclusive and self time of every public dgspec function."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.eig_dim3_sum = 0  # sum of k**3 over the k x k inputs of sym_eigen
        self.adjacency_under_report = 0
        self._stack: list[list[int]] = []  # per open span: [ns spent in traced children]
        self._report_depth = 0

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        is_report = name == "energy.energy_report"
        is_eigen = name == "densela.sym_eigen"
        is_adjacency = name == "densela.adjacency"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_eigen:
                shape = getattr(args[0], "shape", ())
                self.eig_dim3_sum += int(shape[0]) ** 3 if len(shape) == 2 else 0
            elif is_adjacency and self._report_depth:
                self.adjacency_under_report += 1
            self._report_depth += is_report
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                self._report_depth -= is_report
                stats[0] += 1
                stats[1] += spent
                stats[2] += spent - frame[0]
                if stack:
                    stack[-1][0] += spent

        return traced

    @contextmanager
    def traced(self):
        """Route every alias of every public function through a wrapper."""
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in public_functions().items()}
        patched = []
        try:
            for module in package_modules():
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, attr, hit[1])
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: ``<layer>.<fn>.calls|ms|self_ms`` plus derived ones."""
        out: dict[str, float] = {}
        for name, (calls, total_ns, self_ns) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.ms"] = total_ns / 1e6
            out[f"{name}.self_ms"] = self_ns / 1e6
        out["densela.eig_dim3_sum"] = self.eig_dim3_sum
        reports = self.stats.get("energy.energy_report", [0])[0]
        out["energy.report_cache_hit_ratio"] = (
            1.0 - self.adjacency_under_report / reports if reports else 0.0
        )
        return out
