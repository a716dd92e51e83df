"""Per-layer tracing from outside the package.

`Tracer.install` replaces the public functions and methods of every
package module with wrappers, everywhere the package binds them.  A call
that crosses from one layer (module) into another opens a span with its
name, start, end, parent and the index of the benchmark operation that
caused it; calls inside a layer only feed the counters.  A layer's self
time is the time of its spans minus the time of their child spans.
Finite-field element operations are counted, never spanned, so their time
is self time of the calling layer.
"""

from __future__ import annotations

import gzip
import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

LAYERS = ("fields", "multipoly", "series", "linalg", "surface", "residues",
          "cohomology", "symbols", "measures", "cli")
ARITHMETIC = {"__add__", "__sub__", "__mul__", "__truediv__", "__pow__",
              "__neg__"}
# flag-cached expansion functions of `surface` (for the hit ratio)
EXPAND_FNS = ("expand_at_flag", "expand_poly_at_flag", "expand_power_at_flag",
              "invert_poly_at_flag", "flag_coordinate_series",
              "canonical_local_form")
NS = 1e-9
# spans kept for the span file; later spans still feed every metric
MAX_SPANS = 200_000

# name -> unit of every layer-specific metric, in reporting order
LAYER_METRICS = {
    "fields.elem_mul": "count",
    "fields.elem_add": "count",
    "fields.elem_inv": "count",
    "fields.ext_elem_mul": "count",
    "fields.factor_calls": "count",
    "multipoly.evaluate_calls": "count",
    "multipoly.exact_div_calls": "count",
    "multipoly.resultant_calls": "count",
    "series.mul_calls": "count",
    "series.mul_term_pairs": "count",
    "series.inverse_calls": "count",
    "series.substitute_calls": "count",
    "linalg.rref_rows": "count",
    "surface.points_on_curve_s": "s",
    "surface.ambient_points_scanned": "count",
    "surface.points_found": "count",
    "surface.expand_calls": "count",
    "surface.expand_retries": "count",
    "surface.flag_cache_hit_ratio": "ratio",
    "surface.curve_make_s": "s",
    "residues.local_residue_calls": "count",
    "cohomology.rr_space_calls": "count",
    "symbols.commutator_flags": "count",
    "symbols.symbol_route_s": "s",
    "symbols.resultant_route_s": "s",
    "measures.window_build_s": "s",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.errors": "count", f"{layer}.lines": "lines"})
    units.update(LAYER_METRICS)
    units["trace.overhead_ratio"] = "ratio"
    return units


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    def __init__(self, pkg: dict):
        self.pkg = pkg
        self.op = 0                       # index of the current operation
        self.stack: List[list] = []       # [layer, child_ns, span_id]
        self.spans: List[tuple] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.errors: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(int)
        self.expand_hits = 0
        self._next_id = 1

    # -- probes: per-function counters, run on every call -------------------

    def _count(self, metric: str, amount=None):
        counts = self.counts

        def probe(args, kwargs):
            counts[metric] += 1 if amount is None else amount(args, kwargs)
        return probe

    def _inclusive(self, metric: str):
        """Wall time of the outermost calls, in seconds."""
        depth = [0]
        counts = self.counts

        def probe(args, kwargs):
            depth[0] += 1
            t0 = time.perf_counter_ns()

            def after(result, exc):
                depth[0] -= 1
                if depth[0] == 0:
                    counts[metric] += (time.perf_counter_ns() - t0) * NS
            return after
        return probe

    def _points_on_curve(self, args, kwargs):
        D = _arg(args, kwargs, 0, "D")
        max_degree = _arg(args, kwargs, 1, "max_degree")
        q = D.surface.base.q
        for m in range(1, max_degree + 1):
            n = q ** m
            self.counts["surface.ambient_points_scanned"] += (
                n * n + n + 1 if D.surface.model == "P2" else (n + 1) ** 2)
        timer = self._inclusive("surface.points_on_curve_s")(args, kwargs)

        def after(result, exc):
            timer(result, exc)
            if exc is None:
                self.counts["surface.points_found"] += len(result)
        return after

    def _expand(self, args, kwargs):
        Flag = self.pkg["surface"].Flag
        fl = next((a for a in list(args) + list(kwargs.values())
                   if isinstance(a, Flag)), None)
        cache = getattr(fl, "_cache", None)
        size = None if cache is None else len(cache)
        self.counts["surface.expand_calls"] += 1
        precision_error = self.pkg["series"].PrecisionError

        def after(result, exc):
            if isinstance(exc, precision_error):
                self.counts["surface.expand_retries"] += 1
            if size is not None and len(cache) == size:
                self.expand_hits += 1
        return after

    def _probes(self) -> Dict[str, Callable]:
        def pairs(args, kwargs):
            return len(args[0].terms) * len(args[1].terms)

        probes = {
            "fields.poly_factor": self._count("fields.factor_calls"),
            "multipoly.MPoly.evaluate":
                self._count("multipoly.evaluate_calls"),
            "multipoly.MPoly.exact_div":
                self._count("multipoly.exact_div_calls"),
            "multipoly.resultant_elim":
                self._count("multipoly.resultant_calls"),
            "series.LaurentSeries2.inverse":
                self._count("series.inverse_calls"),
            "series.LaurentSeries2.substitute":
                self._count("series.substitute_calls"),
            "linalg.mat_rref": self._count(
                "linalg.rref_rows",
                lambda a, k: len(_arg(a, k, 0, "rows"))),
            "surface.points_on_curve": self._points_on_curve,
            "surface.curve_make": self._inclusive("surface.curve_make_s"),
            "residues.local_residue":
                self._count("residues.local_residue_calls"),
            "cohomology.rr_space": self._count("cohomology.rr_space_calls"),
            "symbols.commutator_pairing": self._count(
                "symbols.commutator_flags",
                lambda a, k: len(_arg(a, k, 2, "flags"))),
            "symbols.intersection_number":
                self._inclusive("symbols.symbol_route_s"),
            "symbols.intersection_oracle":
                self._inclusive("symbols.resultant_route_s"),
            "measures.window_build": self._inclusive("measures.window_build_s"),
        }
        for cls in ("LaurentSeries1", "LaurentSeries2"):
            mul_calls = self._count("series.mul_calls")
            mul_pairs = self._count("series.mul_term_pairs", pairs)

            def probe(args, kwargs, c=mul_calls, p=mul_pairs):
                c(args, kwargs)
                p(args, kwargs)
            probes[f"series.{cls}.__mul__"] = probe
        for name in EXPAND_FNS:
            probes[f"surface.{name}"] = self._expand
        return probes

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, fn, layer: str, name: str,
                 probe: Optional[Callable]):
        stack, spans = self.stack, self.spans
        calls, self_ns, errors = self.calls, self.self_ns, self.errors
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            after = probe(args, kwargs) if probe is not None else None
            inner = bool(stack) and stack[-1][0] == layer
            if inner and after is None:
                return fn(*args, **kwargs)
            exc = result = None
            if not inner:
                parent = stack[-1][2] if stack else 0
                frame = [layer, 0, self._next_id]
                self._next_id += 1
                stack.append(frame)
                start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                if not inner:
                    end = clock()
                    stack.pop()
                    dur = end - start
                    self_ns[layer] += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
                    calls[layer] += 1
                    failed = isinstance(exc, Exception)
                    if failed:
                        errors[layer] += 1
                    if len(spans) < MAX_SPANS:
                        spans.append((frame[2], parent, self.op, name,
                                      start, end, int(failed)))
                if after is not None:
                    after(result, exc)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _element_ops(self, cls) -> None:
        """Count FieldElem mul/add/sub/inverse without opening spans."""
        counts = self.counts
        mul, add, sub, inv = (cls.__mul__, cls.__add__, cls.__sub__,
                              cls.inverse)

        def counted_mul(a, b):
            counts["fields.elem_mul"] += 1
            if a.desc.d > 1:
                counts["fields.ext_elem_mul"] += 1
            return mul(a, b)

        def counted_add(a, b):
            counts["fields.elem_add"] += 1
            return add(a, b)

        def counted_sub(a, b):
            counts["fields.elem_add"] += 1
            return sub(a, b)

        def counted_inv(a):
            counts["fields.elem_inv"] += 1
            return inv(a)

        cls.__mul__, cls.__add__, cls.__sub__, cls.inverse = (
            counted_mul, counted_add, counted_sub, counted_inv)

    def install(self) -> None:
        probes = self._probes()
        replaced = {}
        for layer in LAYERS:
            mod = self.pkg[layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(
                        obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if not inspect.isgeneratorfunction(obj):
                        key = f"{layer}.{name}"
                        replaced[obj] = self._spanned(obj, layer, key,
                                                      probes.get(key))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer, probes)
        for layer in LAYERS:
            mod = self.pkg[layer]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])

    def _wrap_class(self, cls, layer: str, probes) -> None:
        if cls.__name__ == "FieldElem":
            self._element_ops(cls)
            return
        if cls.__name__ == "FieldDesc":
            return
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            setattr(cls, attr, self._spanned(fn, layer, key, probes.get(key)))

    # -- results -----------------------------------------------------------

    def bind(self, index: int, run: Callable) -> Callable:
        def traced(pkg):
            self.op = index
            return run(pkg)
        return traced

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for layer in LAYERS:
            with open(self.pkg[layer].__file__, encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_ns[layer] * NS
            out[f"{layer}.errors"] = self.errors[layer]
            out[f"{layer}.lines"] = lines
        for name in LAYER_METRICS:
            out[name] = self.counts[name]
        expands = self.counts["surface.expand_calls"]
        out["surface.flag_cache_hit_ratio"] = (
            self.expand_hits / expands if expands else 0.0)
        return out

    def write_spans(self, path: str) -> None:
        """Gzipped TSV, one span a line, in the order the spans ended."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\terror\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
