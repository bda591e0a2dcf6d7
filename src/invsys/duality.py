"""Macaulay duality primitives.

Spans of cyclic submodules of the dual, annihilator ideals, per-degree
inverse systems and Hilbert functions.  In graded mode everything is sliced
degree by degree; in local mode computations run over a bounded-degree window
and spaces are organized by the filtration (leading-degree) slices, so every
bounded statement is exact despite the truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import (
    MonomialIndex,
    SpanBuilder,
    SubspaceBasis,
    kernel_vectors,
    span_reduce,
)
from .ring import (
    DPPolynomial,
    Polynomial,
    PreconditionError,
    contract_monomial,
    drl_key,
    exp_divisors,
    exp_sub,
    monomials_of_degree,
    monomials_up_to_degree,
)


@dataclass
class Ideal:
    """A generator list in R; Groebner/Hilbert data attached lazily."""

    gens: list
    context: object
    cached_gb: object = field(default=None, compare=False, repr=False)
    cached_hilbert: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.gens = [g for g in self.gens if not g.is_zero()]
        self.gens.sort(key=lambda g: drl_key(g.leading_monomial()))

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.gens)

    def max_degree(self):
        return max((int(g.degree()) for g in self.gens), default=0)

    def __str__(self):
        return ", ".join(str(g) for g in self.gens) if self.gens else "0"


@dataclass(frozen=True)
class GradedSlice:
    """Basis of one degree slice of a subspace of the dual (or of R).

    In graded mode the vectors are homogeneous of the stated degree; in local
    mode they are filtration representatives whose leading degree equals it.
    """

    degree: int
    basis: SubspaceBasis

    @property
    def dim(self):
        return self.basis.dim


def _slices_from_vectors(vectors, degree_bound=None):
    by_degree = {}
    for v in vectors:
        d = int(v.degree())
        if degree_bound is not None and d > degree_bound:
            continue
        by_degree.setdefault(d, []).append(v)
    return [
        GradedSlice(d, SubspaceBasis(sorted(vs, key=lambda v: drl_key(v.leading_monomial()), reverse=True)))
        for d, vs in sorted(by_degree.items())
    ]


def flatten(slices):
    """All basis vectors of a slice list, canonical order."""
    out = []
    for s in slices:
        out.extend(s.basis.vectors)
    return out


# ---------------------------------------------------------------------------
# cyclic and finitely generated module spans


def module_span(gens, degree_bound=None):
    """Coefficient span of the R-module generated by dual elements.

    Enumerates contractions of each generator by every monomial dividing one
    of its term exponents (all other contractions vanish), reduces them to a
    canonical basis and organizes the result into degree slices.
    """
    builder = SpanBuilder()
    for g in gens:
        if g.is_zero():
            continue
        seen = set()
        for l in g.terms:
            for m in exp_divisors(l):
                if m in seen:
                    continue
                seen.add(m)
                builder.insert(contract_monomial(m, g))
    return _slices_from_vectors(builder.basis(), degree_bound)


def span_dim(slices):
    return sum(s.dim for s in slices)


def hilbert_function(slices):
    """Dimension sequence of the slices, indexed from degree 0 upward."""
    if not slices:
        return []
    top = max(s.degree for s in slices)
    hf = [0] * (top + 1)
    for s in slices:
        hf[s.degree] = s.dim
    return hf


# ---------------------------------------------------------------------------
# contraction matrices


def contraction_rows(fixed, index):
    """Sparse rows of contraction against each fixed element, columns over index.

    With dual elements F the columns are ring monomials and a column h maps
    to the contractions h o F; with ring elements g the columns are dual
    monomials and G maps to g o G.  Rows are keyed by (position of the fixed
    element, exponent of the contraction result); a key is present whenever
    some column reaches it, even when its entries cancel.
    """
    rows = {}
    for k, f in enumerate(fixed):
        dual_fixed = isinstance(f, DPPolynomial)
        for j, col in enumerate(index.monomials):
            for m, a in f.terms.items():
                d = exp_sub(m, col) if dual_fixed else exp_sub(col, m)
                if d is None:
                    continue
                row = rows.setdefault((k, d), {})
                s = row.get(j)
                s = a if s is None else s + a
                if s:
                    row[j] = s
                else:
                    row.pop(j, None)
    return rows


def contraction_kernel(fixed, index, context, side):
    """Canonical kernel basis of contraction against the fixed elements.

    ``side`` names the side of the columns: "r" when the fixed elements are
    dual, "dual" when they are ring elements.
    """
    one = context.scalar(1)
    polys = [
        index.poly(v, context, side)
        for v in kernel_vectors(list(contraction_rows(fixed, index).values()), len(index), one)
    ]
    del index  # a temporary index is freed before the memory peak of span_reduce
    return span_reduce(polys)


# ---------------------------------------------------------------------------
# annihilators


def annihilator_slices(gens, bound):
    """Graded annihilator slices: basis of Ann(gens)_j for each j in 1..bound.

    Ann_0 is zero because the generators are nonzero.
    """
    ctx = gens[0].context
    return {
        j: contraction_kernel(gens, MonomialIndex.of_degree(ctx.n, j), ctx, "r").vectors
        for j in range(1, bound + 1)
    }


def annihilator_window(gens, bound):
    """Basis of the joint annihilator of the given dual elements within R_{<=bound}."""
    ctx = gens[0].context
    return contraction_kernel(gens, MonomialIndex.window(ctx.n, bound), ctx, "r")


def _minimalize_graded(kernels_by_degree, context):
    """Extract minimal homogeneous generators from per-degree annihilator slices."""
    gens = []
    for j in sorted(kernels_by_degree):
        slice_basis = kernels_by_degree[j]
        if not slice_basis:
            continue
        span = SpanBuilder()
        for g in gens:
            dg = int(g.degree())
            if dg >= j:
                continue
            for m in monomials_of_degree(context.n, j - dg):
                span.insert(Polynomial.monomial(context, m) * g)
        for v in slice_basis:
            r = span.reduce(v)
            if not r.is_zero():
                r = r.monic()
                gens.append(r)
                span.insert(r)
    return gens


def _minimalize_local(space, bound, context):
    """Extract generators for the ideal spanned by a window subspace of R_{<=bound}.

    Candidates are taken in increasing order (valuation), degrevlex breaking
    ties; a candidate is redundant when it lies in the span of the multiples
    of already-chosen generators that still fit in the window.  Only honest
    (untruncated) multiples are used, so every emitted generator lies exactly
    in the window subspace; the list is minimal with respect to window-degree
    multiples.
    """
    candidates = sorted(
        space.vectors, key=lambda v: drl_key(v.leading_monomial()), reverse=True
    )
    candidates.sort(key=lambda v: v.order())
    gens = []
    span = SpanBuilder()
    for v in candidates:
        r = span.reduce(v)
        if r.is_zero():
            continue
        g = r.monic()
        gens.append(g)
        limit = bound - int(g.degree())
        for m in monomials_up_to_degree(context.n, max(limit, 0)):
            span.insert(Polynomial.monomial(context, m) * g)
    return gens


def ann_cyclic(F, gen_bound=None):
    """Minimal generators of the annihilator of a single dual element.

    Graded mode slices degree by degree (kernels of the contraction maps
    R_j -> dual_(s-j)); local mode solves one kernel over the window
    R_{<=bound} and minimalizes along the valuation filtration.  With the
    default bound deg F + 1 the result generates the full annihilator, and
    the quotient by it is Artinian Gorenstein.
    """
    if F.is_zero():
        raise PreconditionError("annihilator of 0 is the unit ideal")
    return ann_module([F], gen_bound)


def ann_module(gens, degree_bound=None):
    """Bounded part of the joint annihilator of several dual elements.

    The joint annihilator is the intersection of the per-generator
    annihilators; it is computed here as one stacked contraction kernel,
    which produces the same canonical subspace in a single elimination.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise PreconditionError("annihilator of the zero module is the unit ideal")
    ctx = gens[0].context
    bound = (
        degree_bound
        if degree_bound is not None
        else max(int(g.degree()) for g in gens) + 1
    )
    if ctx.mode == "graded" and all(g.is_homogeneous() for g in gens):
        out = _minimalize_graded(annihilator_slices(gens, bound), ctx)
    else:
        window = annihilator_window(gens, bound)
        out = _minimalize_local(window, bound, ctx)
    return Ideal(out, ctx)


# ---------------------------------------------------------------------------
# inverse systems per degree


def perp_ideal(I, degree_bound=None):
    """Per-degree inverse system of an ideal.

    The kernel of contraction by every generator: graded mode takes it on
    each dual degree j (by <m*g, G> = <m, g o G> this is the orthogonal of
    the degree-j part of the ideal), local mode over the dual window of
    degree <= bound, organized by filtration slices.
    """
    ctx = I.context
    bound = degree_bound if degree_bound is not None else I.max_degree() + 2
    if ctx.mode == "graded":
        if not I.is_homogeneous():
            raise PreconditionError("graded mode needs homogeneous generators")
        slices = []
        for j in range(bound + 1):
            index = MonomialIndex.of_degree(ctx.n, j)
            slices.append(GradedSlice(j, contraction_kernel(I.gens, index, ctx, "dual")))
        return slices
    index = MonomialIndex.window(ctx.n, bound)
    return _slices_from_vectors(contraction_kernel(I.gens, index, ctx, "dual").vectors, bound)


def ideal_window_span(gens, bound, context):
    """Span of the window R_{<=bound} part of the ideal the generators produce.

    Multiples whose honest degree exceeds the bound enter truncated, which is
    exactly the image of the ideal in R modulo degrees above the bound.
    """
    span = SpanBuilder()
    for g in gens:
        if g.is_zero():
            continue
        limit = bound - g.order()
        for m in monomials_up_to_degree(context.n, max(limit, 0)):
            prod = (Polynomial.monomial(context, m) * g).truncate(bound)
            if not prod.is_zero():
                span.insert(prod)
    return span


def ideal_contains_mod(gens, candidates, trunc, context):
    """Do all candidates lie in (gens) + m^trunc?  Works in R_{< trunc}."""
    span = ideal_window_span(gens, trunc - 1, context)
    return all(span.contains(c.truncate(trunc - 1)) for c in candidates)


def ideals_equal_mod(gens_a, gens_b, trunc, context):
    """Ideal equality modulo m^trunc, tested by mutual truncated membership."""
    return ideal_contains_mod(gens_a, gens_b, trunc, context) and ideal_contains_mod(
        gens_b, gens_a, trunc, context
    )
