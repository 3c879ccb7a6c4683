"""Spans around calls into the program's layers, taken from outside.

`Tracer.install` rebinds each target function in every `singlocus`
module that holds it (so `arrangement.top_comb` and `corpus.top_comb` are
both caught) and each target method on its class.  Spans are kept in
memory as (name, start, end, parent, op, failed) and summarised by
`layer_metrics`; `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, attribute, span name).  "Class.method" names a method.  These
# are the entry points the workloads reach; a call into one that is not
# listed counts toward its caller's span.
TARGETS = (
    ("polyring", "parse_linear_expr", "polyring.parse"),
    ("polyring", "expand_product", "polyring.expand"),
    ("polyring", "gradient", "polyring.expand"),
    ("linalg", "rref", "linalg"),
    ("linalg", "rank", "linalg"),
    ("linalg", "in_span", "linalg"),
    ("linalg", "solve_in_span", "linalg"),
    ("arrangement", "parse_arrangement", "arrangement.parse"),
    ("arrangement", "parse_graph", "arrangement.parse"),
    ("arrangement", "intersection_flats", "arrangement.flats"),
    ("arrangement", "jacobian_ideal", "arrangement.jacobian"),
    ("arrangement", "top_comb", "arrangement.top_comb"),
    ("arrangement", "radical_comb", "arrangement.radical_comb"),
    ("arrangement", "symbolic_intersection", "arrangement.symbolic"),
    ("arrangement", "hypothesis_check", "arrangement.hypothesis"),
    ("arrangement", "lattice_isomorphic", "arrangement.lattice_iso"),
    ("arrangement", "generic_section", "arrangement.section"),
    ("arrangement", "graphic_arrangement", "arrangement.graphic"),
    ("arrangement", "triangle_condition", "arrangement.triangles"),
    ("groebner", "Ideal.groebner", "groebner.gb"),
    ("groebner", "GroebnerBasis.normal_form", "groebner.nf"),
    ("groebner", "intersect", "groebner.intersect"),
    ("groebner", "saturate_irrelevant", "groebner.saturate"),
    ("homology", "hilbert", "homology.hilbert"),
    ("homology", "minimal_free_resolution", "homology.resolution"),
    ("homology", "betti_table", "homology.betti"),
    ("homology", "rao_dimensions", "homology.rao"),
    ("liaison", "construct_lr", "liaison.construct"),
    ("liaison", "construct_lr_radical", "liaison.construct"),
    ("liaison", "verify_construction", "liaison.verify"),
    ("corpus", "run_regressions", "corpus."),
)

OP = "op"

LAYERS = ("polyring", "linalg", "arrangement", "groebner", "homology",
          "liaison", "corpus")


# Cached entry points: where each keeps its result on the ideal.  A call
# that finds it there returns without work, so it is counted, not spanned.
_CACHES = {"Ideal.groebner": None, "hilbert": "_hilbert_cache",
           "minimal_free_resolution": "_resolution_cache"}


def _is_hit(attr, args, kwargs, default_order):
    cache = _CACHES[attr]
    if cache is None:  # Ideal.groebner keeps one basis per order tag
        order = args[1] if len(args) > 1 else kwargs.get("order",
                                                         default_order)
        return order.tag in getattr(args[0], "_cache", {})
    return getattr(args[0], cache, None) is not None


def _span_name(name, args, kwargs):
    if name != "corpus.":
        return name
    names = kwargs.get("names", args[1] if len(args) > 1 else None)
    return f"corpus.{names[0]}" if names and len(names) == 1 else "corpus.run"


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, op, failed]
        self.stack = []
        self.hits = {}
        self.counts = {}
        self.op = None
        self._saved = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span; a span whose call raised is marked failed."""
        parent = self.stack[-1] if self.stack else None
        span = [name, time.perf_counter(), None, parent, self.op, False]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[5] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrapping -------------------------------------------------------------
    def _wrapper(self, orig, attr, name):
        tracer = self
        cached = attr in _CACHES
        # The order a call without one gets, read from the program itself.
        default_order = (inspect.signature(orig).parameters["order"].default
                         if attr == "Ideal.groebner" else None)

        @functools.wraps(orig)
        def wrapped(*args, **kwargs):
            if cached and _is_hit(attr, args, kwargs, default_order):
                tracer.hits[name] = tracer.hits.get(name, 0) + 1
                return orig(*args, **kwargs)
            out = tracer.span(_span_name(name, args, kwargs), orig,
                              *args, **kwargs)
            if name == "groebner.gb":
                tracer.add("groebner.gb.basis_terms",
                           sum(len(p.terms) for p in out.polys))
            elif name == "homology.resolution":
                tracer.add("homology.betti_total",
                           sum(len(m.twists) for m in out.modules))
            return out
        return wrapped

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "singlocus"
                                         or n.startswith("singlocus."))]
        for modname, attr, name in TARGETS:
            home = sys.modules[f"singlocus.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrapper(orig, attr, name))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrapper(orig, attr, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    # -- ops ------------------------------------------------------------------
    def run_op(self, op_id, fn):
        """Run one op under an op-level span."""
        self.op = op_id
        try:
            return self.span(OP, fn)
        finally:
            self.op = None


def wrapper_cost(n=20000):
    """Seconds a wrapper adds to one call, from a calibration loop."""
    def noop(x):
        return x

    wrapped = Tracer()._wrapper(noop, "noop", "calibrate")
    t = time.perf_counter()
    for i in range(n):
        noop(i)
    plain = time.perf_counter() - t
    t = time.perf_counter()
    for i in range(n):
        wrapped(i)
    return max(time.perf_counter() - t - plain, 0.0) / n


def _outermost(spans, i):
    """Whether span i has no ancestor with the same name."""
    name = spans[i][0]
    p = spans[i][3]
    while p is not None:
        if spans[p][0] == name:
            return False
        p = spans[p][3]
    return True


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans, hits, counts):
    """Summarise spans.

    busy_s and calls count outermost spans of a name, so a layer that
    calls itself is not counted twice; self_s sums every span's own time.
    Op spans are not layer spans: their self time is harness time.
    """
    self_t = self_times(spans)
    busy, calls, own, failed = {}, {}, {}, {}
    covered = op_total = 0.0
    for i, s in enumerate(spans):
        name, dur = s[0], s[2] - s[1]
        if name == OP:
            op_total += dur
            continue
        own[name] = own.get(name, 0.0) + self_t[i]
        if s[3] is not None and spans[s[3]][0] == OP:
            covered += dur
        if _outermost(spans, i):
            busy[name] = busy.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if s[5]:
                failed[name] = failed.get(name, 0) + 1
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, t in own.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += t
    return {"busy": busy, "calls": calls, "self": own, "failed": failed,
            "hits": dict(hits), "counts": dict(counts),
            "layer_self": layer_self,
            "coverage": covered / op_total if op_total else 0.0,
            "op_total": op_total,
            "wrapped_calls": (sum(s[0] != OP for s in spans)
                              + sum(hits.values()))}
