"""Per-layer spans and counts, recorded from outside the package.

:class:`Tracer` replaces each traced public function of ``cantor_measures``
with a timing wrapper in every module that has bound it (``cli.fast_moments``
as well as ``fast.fast_moments``), so calls from one layer into another are
timed.  A span's self time is its duration minus the time of the traced spans
it called.  Rendering is timed at the ``to_csv``/``to_json``/``grid_csv``
boundary, not per value, so the wrappers stay few and cheap.
"""
from __future__ import annotations

import gc
import importlib
import time
import tracemalloc
from collections import defaultdict

MODULES = ("cli", "fast", "moments", "measure", "legendre", "analysis")


def _calls(counts, name, args, kwargs, result):
    counts[name] += 1


def _log2_depth(counts, name, args, kwargs, result):
    counts[name] += result.depth_used.bit_length() - 1


def _moment_indices(counts, name, args, kwargs, result):
    counts[name] += len(result)


def _table_entries(counts, name, args, kwargs, result):
    counts[name] += len(result.points)


#: (module, function, span name, count name, counter)
FUNCTIONS = (
    ("cli", "run", "cli", None, None),
    ("fast", "series_mul_trunc", "fast.series_mul_trunc", "fast.series_mul_trunc_calls", _calls),
    ("fast", "partial_product_series", "fast.partial_product_series", None, None),
    ("fast", "fast_moments", "fast.fast_moments", "fast.log2_depth", _log2_depth),
    ("fast", "shifted_fast_moments", "fast.shifted_fast_moments", "fast.log2_depth", _log2_depth),
    ("fast", "mgf_eval", "fast.mgf_eval", None, None),
    ("moments", "exact_moments", "moments.exact_moments", "moments.exact_moment_indices", _moment_indices),
    ("moments", "shifted_moments", "moments.shifted_moments", None, None),
    ("legendre", "monic_basis_symmetric", "legendre.basis", None, None),
    ("legendre", "monic_basis_general", "legendre.basis", None, None),
    ("legendre", "inner_product", "legendre.inner_product", "legendre.inner_product_calls", _calls),
    ("legendre", "grid_csv", "legendre.grid_csv", None, None),
    ("analysis", "check_decay", "analysis.check_decay", None, None),
    ("analysis", "check_lipschitz", "analysis.check_lipschitz", None, None),
    ("measure", "cdf_table", "measure.cdf_table", "measure.table_entries", _table_entries),
    ("measure", "kronecker_power", "measure.kronecker_power", None, None),
    ("measure", "cdf_sup_distance", "measure.cdf_sup_distance", None, None),
    ("measure", "parse_weights", "measure.parse_weights", None, None),
)

#: (module, class, span name): its to_csv and to_json are timed as rendering.
RENDERERS = (
    ("fast", "FastResult", "fast.render"),
    ("moments", "MomentSequence", "moments.render"),
    ("measure", "CdfTable", "measure.render"),
    ("legendre", "OrthoBasis", "legendre.render"),
)


class Tracer:
    def __init__(self, package: str = "cantor_measures") -> None:
        self.modules = [importlib.import_module(package)] + [
            importlib.import_module(f"{package}.{m}") for m in MODULES
        ]
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.memory = False
        self._quiet = False
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self.peak_alloc = 0
        self._gc_start = 0.0

    def read(self) -> dict:
        out = {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "gc.pause_s": self.gc_pause_s,
            "gc.collections": self.gc_collections,
            "measure.peak_alloc_bytes": self.peak_alloc,
        }
        self.reset()
        return out

    def _wrap(self, fn, name, count_name, counter):
        stack = self._stack
        perf_counter = time.perf_counter
        tracer = self
        memory = name == "measure.cdf_table"

        def traced(*args, **kwargs):
            if memory and tracer.memory:
                tracemalloc.start()
            start = perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                tracer.self_s[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                if memory and tracer.memory:
                    tracer.peak_alloc = max(tracer.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if counter is not None:
                counter(tracer.counts, count_name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            return
        by_module = {m.__name__.rsplit(".", 1)[-1]: m for m in self.modules}
        for mod_name, attr, name, count_name, counter in FUNCTIONS:
            original = getattr(by_module[mod_name], attr)
            wrapper = self._wrap(original, name, count_name, counter)
            for module in self.modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for mod_name, cls_name, name in RENDERERS:
            cls = getattr(by_module[mod_name], cls_name)
            for method in ("to_csv", "to_json"):
                if method in vars(cls):
                    original = vars(cls)[method]
                    self._patches.append((cls, method, original))
                    setattr(cls, method, self._wrap(original, name, None, None))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def collect(self) -> None:
        """A full collection between requests, left out of the gc metrics."""
        self._quiet = True
        try:
            gc.collect()
        finally:
            self._quiet = False

    def _on_gc(self, phase: str, info: dict) -> None:
        if self._quiet:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
