"""Span tracer for the benchmark's traced run.

The library is not changed: the tracer wraps its functions from the
outside and undoes that afterwards.  A wrapped function is rebound in
every ``indumatch`` module namespace that holds it (``barcode`` is
imported into ``matching``, ``bauer_lesnick``, ``cli`` and the package),
so a call is recorded whichever module makes it.  Classmethods and
methods are rewrapped on their class.

Every call opens a span whose parent is the innermost open span.  A
span's self time is its duration minus the time covered by its child
spans; calls are synchronous, so children never overlap.  Inclusive
time is summed over outermost calls only, so a recursive function such
as ``PersistenceModule.composite`` is not counted twice.  Spans are
aggregated per name as they close, which keeps memory flat over the
tens of thousands of kernel calls one pass makes.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "indumatch"
LAYERS = ("cli", "serial", "modules", "matching", "bauer_lesnick", "gf")
# Private helpers that carry a layer's work, and the names they report under.
PRIVATE = {
    "matching": {"_entry_count": "entry_count", "_pushed": "pushed",
                 "_pushed_early": "pushed_early"},
}
# (layer, class, attribute, reported name)
METHODS = (
    ("gf", "Subspace", "image", "gf.Subspace.image"),
    ("gf", "Subspace", "kernel", "gf.Subspace.kernel"),
    ("modules", "PersistenceModule", "composite", "modules.composite"),
    ("modules", "PersistenceModule", "validate", "modules.PersistenceModule.validate"),
    ("modules", "Morphism", "validate", "modules.Morphism.validate"),
)
SUB_CACHE_ACCESSORS = ("im_plus", "im_minus", "ker_plus", "ker_minus", "v_plus", "v_minus")
DIM_BUCKETS = ((4, "le4"), (8, "le8"), (16, "le16"), (32, "le32"))

CALLS = (
    "gf.rref", "gf.Subspace.image", "gf.Subspace.kernel", "gf.intersect",
    "gf.sum_subspaces", "gf.preimage", "gf.complement_columns", "gf.solve",
    "gf.matmul", "gf.normalize", "matching.entry_count", "matching.y_plus",
    "matching.y_minus", "matching.x_module", "modules.barcode", "modules.v_plus",
    "modules.v_minus", "modules.composite", "cli.build_parser",
)
SELF_S = (
    "gf.rref", "gf.intersect", "gf.Subspace.kernel", "gf.normalize",
    "modules.barcode", "modules.Morphism.validate", "serial.read_morphism",
    "serial.dumps_canonical", "cli.build_parser",
)
INCL_S = (
    "matching.entry_count", "matching.x_module", "modules.barcode",
    "modules.image_factorization", "bauer_lesnick.chi", "bauer_lesnick.iota",
    "bauer_lesnick.lambda_", "modules.shift_morphism",
)


def _shape(m) -> tuple[int, int]:
    shape = np.shape(m)
    return shape[0], (shape[1] if len(shape) > 1 else 1)  # rref reads a vector as a column


class Tracer:
    """Wraps the library's layers while installed; one instance per traced pass."""

    def __init__(self, lib):
        self.lib = lib
        self.calls: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[list[float]] = []  # child time of each open span
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        # Objects whose caches the current command consulted, by id.
        self._modules: dict[int, object] = {}
        self._morphisms: dict[int, object] = {}

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        calls, incl, self_s = self.calls, self.incl_s, self.self_s
        open_, depth = self._open, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [0.0]
            open_.append(span)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                open_.pop()
                depth[name] -= 1
                if open_:
                    open_[-1][0] += dur
                calls[name] += 1
                self_s[name] += dur - span[0]
                if not depth[name]:
                    incl[name] += dur
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observer(self, layer: str, attr: str):
        counts = self.counts
        if (layer, attr) == ("gf", "rref"):
            def observe(args, _):
                rows, cols = _shape(args[0])
                counts["gf.rref.cells"] += rows * cols
                dim = max(rows, cols)
                label = next((lab for top, lab in DIM_BUCKETS if dim <= top), "gt32")
                counts[f"gf.rref.calls_by_dim.{label}"] += 1
            return observe
        if (layer, attr) == ("matching", "_entry_count"):
            def observe(_, result):
                counts["matching.entry_count.nonzero"] += result != 0
            return observe
        if (layer, attr) == ("serial", "dumps_canonical"):
            def observe(_, result):
                counts["serial.bytes_out"] += len(result.encode("utf-8"))
            return observe
        if layer == "modules" and attr in SUB_CACHE_ACCESSORS:
            interval_only = attr in ("v_plus", "v_minus")  # these return early off I

            def observe(args, _):
                m, iv, t = args[:3]
                if interval_only and not iv.contains(t):
                    return
                counts["modules.sub_cache.calls"] += 1
                self._modules[id(m)] = m
            return observe
        if layer == "matching" and attr in ("_pushed", "_pushed_early"):
            def observe(args, _):
                counts["matching.push_cache.calls"] += 1
                self._morphisms[id(args[0])] = args[0]
            return observe
        return None

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = getattr(self.lib, layer)
            private = PRIVATE.get(layer, {})
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in private:
                    continue
                label = f"{layer}.{private.get(attr, attr)}"
                wrappers[id(obj)] = (obj, self._wrap(label, obj, self._observer(layer, attr)))
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for layer, cls_name, attr, label in METHODS:
            cls = getattr(getattr(self.lib, layer), cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(label, raw.__func__)))
            else:
                self._patch(cls, attr, self._wrap(label, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-command accounting ---------------------------------------------

    def end_command(self) -> None:
        """Count cache entries of the objects the finished command touched.

        Every cache miss stores exactly one entry, so entries / accessor
        calls is the miss ratio.  A missing cache attribute is counted so
        that the ratio is reported as unknown rather than as a perfect hit.
        """
        for objs, attr, key in ((self._modules, "_sub_cache", "modules.sub_cache"),
                                (self._morphisms, "_push_cache", "matching.push_cache")):
            for obj in objs.values():
                cache = getattr(obj, attr, None)
                if cache is None:
                    self.counts[f"{key}.unknown"] += 1
                else:
                    self.counts[f"{key}.entries"] += len(cache)
            objs.clear()

    # -- metrics -------------------------------------------------------------

    def _hit_ratio(self, key: str) -> float:
        calls = self.counts[f"{key}.calls"]
        if self.counts[f"{key}.unknown"] or not calls:
            return -1.0
        return 1.0 - self.counts[f"{key}.entries"] / calls

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of one traced pass: name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in CALLS:
            out[f"{name}.calls"] = (self.calls[name], "count")
        for name in SELF_S:
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name in INCL_S:
            out[f"{name}.incl_s"] = (self.incl_s[name], "s")
        rref_calls = self.calls["gf.rref"]
        out["gf.rref.us_per_call"] = (
            1e6 * self.self_s["gf.rref"] / rref_calls if rref_calls else 0.0, "us")
        out["gf.rref.cells"] = (self.counts["gf.rref.cells"], "count")
        for _, label in DIM_BUCKETS + ((None, "gt32"),):
            key = f"gf.rref.calls_by_dim.{label}"
            out[key] = (self.counts[key], "count")
        visited = self.calls["matching.entry_count"]
        out["matching.entry_useful_ratio"] = (
            self.counts["matching.entry_count.nonzero"] / visited if visited else 0.0, "ratio")
        out["matching.push_cache.hit_ratio"] = (self._hit_ratio("matching.push_cache"), "ratio")
        out["modules.sub_cache.hit_ratio"] = (self._hit_ratio("modules.sub_cache"), "ratio")
        out["serial.bytes_out"] = (self.counts["serial.bytes_out"], "B")
        return out

    def exact_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly across traced passes of one seed."""
        exact = {f"{name}.calls": n for name, n in self.calls.items()}
        exact["gf.rref.cells"] = self.counts["gf.rref.cells"]
        return exact
