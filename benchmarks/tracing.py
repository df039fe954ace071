"""Span tracing of the jacring layers, installed from outside the package.

The layers are the package's modules.  `Tracer.install` wraps every public
function and every public method (plus `__init__`) of the public classes
of each layer module, and rebinds each wrapped function under every name
that any jacring module namespace holds for it (`koszul.rank_gfp`,
`spaces.rref_gfp`, ...), so calls between modules and inside a module are
both seen.  `Tracer.uninstall` restores the originals.

Every call becomes a span: name, layer, parent span, job, start and end.
Spans of one job share its root span, and are kept in memory until the
run ends.  `layer_metrics` turns one pass of spans into the per-layer
metrics of BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("modp", "polynomials", "spaces", "jacobian", "koszul", "yukawa", "cli")

# Helpers called once per pivot or per constructed object that finish in
# microseconds: a span each would cost more than the call and mark no
# layer boundary.
UNTRACED = frozenset({
    "modp.cell_budget", "modp.check_budget", "modp.inv_mod", "modp.is_prime",
    "modp.validate_prime", "polynomials.dim_graded", "polynomials.monomial_degree",
})

SMALL_COLS = 64
LARGE_COLS = 1000


def _shape(M) -> tuple[int, int]:
    shape = np.shape(M)
    return (shape[0], shape[1]) if len(shape) == 2 else (0, 0)


# Extra facts recorded on some spans: f(args, result) -> attrs dict.
_NOTES = {
    "modp.rank_gfp": lambda a, out: {"shape": _shape(a[0]), "rank": out},
    "modp.rref_gfp": lambda a, out: {"shape": _shape(a[0]), "rank": len(out[1])},
    "spaces.product_span": lambda a, out: {"rows_in": a[0].dim * a[1].dim,
                                           "dim": out.dim},
}


class Span:
    __slots__ = ("name", "layer", "parent", "job", "t0", "t1", "attrs")

    def __init__(self, name, layer, parent, job):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.job = job
        self.t0 = self.t1 = 0.0
        self.attrs = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    def ancestors(self):
        s = self.parent
        while s is not None:
            yield s
            s = s.parent


def _is_traced_class(cls, module_name: str) -> bool:
    return (cls.__module__ == module_name and not cls.__name__.startswith("_")
            and not issubclass(cls, BaseException)
            and not dataclasses.is_dataclass(cls))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"jacring.{layer}") for layer in LAYERS}
        namespaces = [mod for name, mod in sys.modules.items()
                      if name == "jacring" or name.startswith("jacring.")]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj):
                    if _is_traced_class(obj, mod.__name__):
                        self._install_class(layer, obj)
                    continue
                name = f"{layer}.{attr}"
                if (not callable(obj) or getattr(obj, "__module__", None) != mod.__name__
                        or name in UNTRACED):
                    continue
                traced = self._wrap(name, layer, obj)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            self._patches.append((ns, key, val))
                            setattr(ns, key, traced)

    def _install_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, classmethod):
                traced = classmethod(self._wrap(name, layer, member.__func__))
            elif isinstance(member, staticmethod):
                traced = staticmethod(self._wrap(name, layer, member.__func__))
            elif inspect.isfunction(member):
                traced = self._wrap(name, layer, member)
            else:
                continue
            self._patches.append((cls, attr, member))
            setattr(cls, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, layer: str, fn):
        spans, stack, note = self.spans, self._stack, _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else None,
                        stack[0].job if stack else None)
            spans.append(span)
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
            if note is not None:
                span.attrs = note(args, out)
            return out

        return traced

    @contextmanager
    def job(self, key: str):
        """Root span of one job; every span opened inside it shares its job."""
        if self._stack:
            raise RuntimeError("jobs do not nest")
        span = Span("job", "job", None, key)
        self.spans.append(span)
        self._stack.append(span)
        span.t0 = time.perf_counter()
        try:
            yield span
        finally:
            span.t1 = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "parent": ids[id(s.parent)] if s.parent else None,
                       "job": s.job, "name": s.name, "t0": s.t0, "t1": s.t1}
                if s.attrs:
                    rec.update(s.attrs)
                fh.write(json.dumps(rec) + "\n")


# -- analysis ----------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    out = {id(s): s.dur for s in spans}
    for s in spans:
        if s.parent is not None:
            out[id(s.parent)] -= s.dur
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    selft = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        # outermost spans only, so recursion is not counted twice
        return sum(s.dur for s in by_name[name]
                   if all(a.name != name for a in s.ancestors()))

    def self_s(name):
        return sum(selft[id(s)] for s in by_name[name])

    def layer_busy(layer):
        return sum(s.dur for s in spans if s.layer == layer
                   and all(a.layer != layer for a in s.ancestors()))

    def layer_self(layer):
        return sum(selft[id(s)] for s in spans if s.layer == layer)

    def children_of(parent_name, name):
        return sum(1 for s in by_name[name]
                   if s.parent is not None and s.parent.name == parent_name)

    elim = by_name["modp.rank_gfp"] + by_name["modp.rref_gfp"]
    shape_rank = [(*s.attrs["shape"], s.attrs["rank"]) for s in elim]
    small = [s for s in elim if s.attrs["shape"][1] <= SMALL_COLS]
    large = [s for s in elim if s.attrs["shape"][1] >= LARGE_COLS]
    cells = by_name["koszul.middle_exactness"]
    strand_ranks = sum(1 for s in by_name["modp.rank_gfp"]
                       if any(a.name == "koszul.middle_exactness" for a in s.ancestors()))
    samples = by_name["koszul.sample_bpf_subsystem"]
    forms = by_name["jacobian.random_smooth"]
    products = by_name["spaces.product_span"]
    rows_in = sum(s.attrs["rows_in"] for s in products)

    m = {
        "modp.rank.calls": (calls("modp.rank_gfp"), "count"),
        "modp.rank.busy_s": (busy("modp.rank_gfp"), "s"),
        "modp.rref.calls": (calls("modp.rref_gfp"), "count"),
        "modp.rref.busy_s": (busy("modp.rref_gfp"), "s"),
        "modp.nullspace.busy_s": (busy("modp.nullspace_gfp"), "s"),
        "modp.matmul.busy_s": (busy("modp.matmul_gfp"), "s"),
        "modp.cells": (sum(r * c for r, c, _ in shape_rank), "cell"),
        "modp.flops": (sum(r * c * k for r, c, k in shape_rank), "flop"),
        "modp.pivot_yield": (_ratio(sum(k for _, _, k in shape_rank),
                                    sum(min(r, c) for r, c, _ in shape_rank)), "ratio"),
        "modp.small.calls": (len(small), "count"),
        "modp.small.busy_s": (sum(s.dur for s in small), "s"),
        "modp.large.calls": (len(large), "count"),
        "modp.large.busy_s": (sum(s.dur for s in large), "s"),
        "koszul.middle_exactness.self_s": (self_s("koszul.middle_exactness"), "s"),
        "koszul.rank_calls_per_cell": (_ratio(strand_ranks, len(cells)), "calls/cell"),
        "koszul.sample_bpf.busy_s": (busy("koszul.sample_bpf_subsystem"), "s"),
        "koszul.sample_bpf.attempts_per_sample": (
            _ratio(children_of("koszul.sample_bpf_subsystem", "spaces.bpf_check"),
                   len(samples)), "attempts/sample"),
        "jacobian.rings_built": (calls("jacobian.JacobianRing.__init__"), "count"),
        "jacobian.degrees_eliminated": (
            sum(1 for s in by_name["modp.rref_gfp"]
                if s.parent is not None and s.parent.layer == "jacobian"), "count"),
        "jacobian.hilbert.self_s": (self_s("jacobian.JacobianRing.hilbert"), "s"),
        "jacobian.certificate.calls": (
            calls("jacobian.JacobianRing.smoothness_certificate"), "count"),
        "jacobian.certificate.busy_s": (
            busy("jacobian.JacobianRing.smoothness_certificate"), "s"),
        "jacobian.random_smooth.busy_s": (busy("jacobian.random_smooth"), "s"),
        "jacobian.random_smooth.tries_per_form": (
            _ratio(children_of("jacobian.random_smooth", "jacobian.JacobianRing.__init__"),
                   len(forms)), "tries/form"),
        "jacobian.reduce.busy_s": (busy("jacobian.JacobianRing.reduce"), "s"),
        "spaces.product_span.calls": (len(products), "count"),
        "spaces.product_span.self_s": (self_s("spaces.product_span"), "s"),
        "spaces.product_span.rows_in": (rows_in, "count"),
        "spaces.product_span.row_yield": (
            _ratio(sum(s.attrs["dim"] for s in products), rows_in), "ratio"),
        "spaces.from_rows.busy_s": (busy("spaces.GradedSubspace.from_rows"), "s"),
        "spaces.bpf_check.calls": (calls("spaces.bpf_check"), "count"),
        "spaces.bpf_check.busy_s": (busy("spaces.bpf_check"), "s"),
        "spaces.colon.busy_s": (busy("spaces.colon_by_linear_forms"), "s"),
        "spaces.multiplication_matrix.busy_s": (busy("spaces.multiplication_matrix"), "s"),
        "yukawa.chain.self_s": (self_s("yukawa.yukawa_chain"), "s"),
        "yukawa.power_span.busy_s": (busy("yukawa.power_span"), "s"),
        "yukawa.hyperplane.busy_s": (busy("yukawa.random_hyperplane_over_jacobian"), "s"),
        "polynomials.busy_s": (layer_busy("polynomials"), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    return m
