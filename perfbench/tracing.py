"""Per-layer tracing of ``invsys`` from outside the library.

``Tracer.install`` rebinds the public functions of each library module --
in the module that defines them and in every ``invsys`` module (and the
package) that imported them -- to wrappers that record a span per call.
Spans are aggregated per function in memory: calls, total time and self
time, where self time is a span's duration minus the time covered by the
spans it caused.  A few hot leaf calls are only counted, because timing them
would cost more than the work they do; their time falls into the caller.
``uninstall`` restores every original binding.  Untraced runs never call
``install``, so they execute the library unmodified.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

# Modules of src/invsys/, which are the layers.  The CLI is a thin adapter
# over single library calls and is not measured separately.
LAYERS = ("ring", "parsing", "linalg", "duality", "groebner", "admissible", "gorenstein")

# Exponent-vector helpers run millions of times per job; a wrapper would
# dominate them, so they are neither timed nor counted.
UNWRAPPED = {
    "ring": {"exp_add", "exp_sub", "exp_degree", "exp_divides", "exp_lcm", "drl_key"},
}
# Class methods that are timed: (module, class, method).
TIMED_METHODS = (("linalg", "SpanBuilder", "insert"), ("linalg", "SpanBuilder", "reduce"))
# Hot leaf methods that are counted only: (module, class, method, counter).
COUNTED_METHODS = (
    ("ring", "Polynomial", "leading_monomial", "ring.leading_monomial.calls"),
    ("ring", "Polynomial", "__mul__", "ring.mul.calls"),
)
# Calls whose repeated input within one job is reported as a repeat ratio.
ANNIHILATORS = ("ann_cyclic", "ann_module", "annihilator_slices", "annihilator_window")
DUALITY_KEYED = ("module_span",) + ANNIHILATORS


def _fingerprint(value):
    """Hashable value-identity of polynomials, lists of them and plain values."""
    terms = getattr(value, "terms", None)
    if isinstance(terms, dict):
        return (type(value).__name__, frozenset(terms.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_fingerprint(v) for v in value)
    return value


class Tracer:
    """Aggregated spans and counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}  # "layer.function" -> [calls, total seconds, self seconds]
        self.counts = Counter()
        self._stack = []  # child time accumulated by each open span
        self._seen = set()  # inputs already met in the current job
        self._bindings = []  # (owner, attribute, original) for uninstall

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span under ``name``.

        ``before(args, kwargs)`` runs ahead of the call and ``after(result)``
        behind it, both outside the span.
        """
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, self.clock

        def traced(*args, **kwargs):
            if before:
                before(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if after:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_job(self):
        """Start a new job: repeat ratios only look for inputs within a job."""
        self._seen.clear()

    def _repeat(self, counter, key):
        if key in self._seen:
            self.counts[counter] += 1
        else:
            self._seen.add(key)

    # -- hooks for the per-layer counters -------------------------------------

    def _hooks(self, layer, name):
        counts = self.counts
        if layer == "duality" and name in DUALITY_KEYED:
            def before(args, kwargs):
                if name in ANNIHILATORS:
                    counts["duality.ann.calls"] += 1
                counts["duality.keyed.calls"] += 1
                self._repeat("duality.keyed.repeats", (name, _fingerprint(args), _fingerprint(sorted(kwargs.items()))))
            return before, None
        if layer == "groebner" and name == "buchberger":
            def before(args, kwargs):
                ideal = args[0]
                if ideal.cached_gb is None:
                    counts["groebner.buchberger.computed"] += 1
                    key = frozenset(_fingerprint(g) for g in ideal.gens)
                    self._repeat("groebner.buchberger.repeats", ("gb", key))
            return before, None
        if layer == "groebner" and name == "normal_form":
            def after(result):
                if result.is_zero():
                    counts["groebner.normal_form.zero"] += 1
            return None, after
        if layer == "linalg" and name == "rref_rows":
            def before(args, kwargs):
                rows = args[0]
                if isinstance(rows, (list, tuple)):  # never consume an iterator
                    width = max((max(r) + 1 for r in rows if r), default=0)
                    counts["linalg.elim.rows"] += len(rows)
                    counts["linalg.elim.max_cols"] = max(counts["linalg.elim.max_cols"], width)

            def after(result):
                counts["linalg.elim.rank"] += len(result[1])
            return before, after
        if layer == "linalg" and name == "SpanBuilder.insert":
            def after(result):
                if result:
                    counts["linalg.span.useful"] += 1
            return None, after
        return None, None

    # -- installation ----------------------------------------------------------

    def _rebind(self, original, wrapper, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._bindings.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _rebind_method(self, package, layer, cls_name, meth, make_wrapper):
        cls = getattr(sys.modules.get(f"{package}.{layer}"), cls_name, None)
        if cls is None:
            return
        owner = next(c for c in cls.__mro__ if meth in c.__dict__)
        original = owner.__dict__[meth]
        self._bindings.append((owner, meth, original))
        setattr(owner, meth, make_wrapper(original))

    def install(self, package="invsys"):
        """Wrap every public function and the listed methods of each layer."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            for name, fn in list(vars(mod).items()) if mod else ():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                    or name in UNWRAPPED.get(layer, ())
                ):
                    continue
                self._rebind(fn, self.span(f"{layer}.{name}", fn, *self._hooks(layer, name)), modules)
        for layer, cls_name, meth in TIMED_METHODS:
            name = f"{cls_name}.{meth}"
            self._rebind_method(
                package, layer, cls_name, meth,
                lambda fn: self.span(f"{layer}.{name}", fn, *self._hooks(layer, name)),
            )
        for layer, cls_name, meth, counter in COUNTED_METHODS:
            self._rebind_method(package, layer, cls_name, meth, lambda fn: self.counted(counter, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    # -- results ---------------------------------------------------------------

    def snapshot(self):
        """Raw spans and counts, JSON-ready."""
        return {"spans": {k: list(v) for k, v in self.spans.items()}, "counts": dict(self.counts)}


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(raw):
    """The per-layer metrics of one traced pass from a ``snapshot``."""
    spans, counts = raw["spans"], raw["counts"]

    def calls(*names):
        return sum(spans.get(n, (0,))[0] for n in names)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v[2] for k, v in spans.items() if k.split(".", 1)[0] == layer)
    rows, rank = counts.get("linalg.elim.rows", 0), counts.get("linalg.elim.rank", 0)
    inserts = calls("linalg.SpanBuilder.insert")
    computed = counts.get("groebner.buchberger.computed", 0)
    nf = calls("groebner.normal_form")
    out.update(
        {
            "ring.contract.calls": calls("ring.contract", "ring.contract_monomial"),
            "ring.leading_monomial.calls": counts.get("ring.leading_monomial.calls", 0),
            "ring.mul.calls": counts.get("ring.mul.calls", 0),
            "linalg.elim.rows": rows,
            "linalg.elim.rank": rank,
            "linalg.elim.useful_ratio": _ratio(rank, rows),
            "linalg.elim.max_cols": counts.get("linalg.elim.max_cols", 0),
            "linalg.span.inserts": inserts,
            "linalg.span.useful_ratio": _ratio(counts.get("linalg.span.useful", 0), inserts),
            "linalg.span.reduces": calls("linalg.SpanBuilder.reduce"),
            "linalg.solve.calls": calls("linalg.solve_affine"),
            "duality.module_span.calls": calls("duality.module_span"),
            "duality.ann.calls": counts.get("duality.ann.calls", 0),
            "duality.repeat_ratio": _ratio(
                counts.get("duality.keyed.repeats", 0), counts.get("duality.keyed.calls", 0)
            ),
            "groebner.buchberger.calls": calls("groebner.buchberger"),
            "groebner.buchberger.computed": computed,
            "groebner.repeat_ratio": _ratio(counts.get("groebner.buchberger.repeats", 0), computed),
            "groebner.normal_form.calls": nf,
            "groebner.normal_form.zero_ratio": _ratio(counts.get("groebner.normal_form.zero", 0), nf),
        }
    )
    return out
