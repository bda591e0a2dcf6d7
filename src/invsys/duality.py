"""Macaulay duality primitives.

Spans of cyclic submodules of the dual, annihilator ideals, per-degree
inverse systems and Hilbert functions.  In graded mode everything is sliced
degree by degree; in local mode computations run over a bounded-degree window
and spaces are organized by the filtration (leading-degree) slices, so every
bounded statement is exact despite the truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .linalg import MonomialIndex, SpanBuilder, SubspaceBasis, kernel_vectors
from .ring import (
    DPPolynomial,
    Polynomial,
    PreconditionError,
    _check_degree,
    _packed_monomials,
    contract_monomial,
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
        self.gens.sort(key=lambda g: g.leading_monomial())

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
        GradedSlice(d, SubspaceBasis(sorted(vs, key=lambda v: v.leading_monomial(), reverse=True)))
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

    R o F is the smallest space holding the generators and closed under
    contraction by x_1..x_n: every vector that enlarges the span queues its
    contractions by the variables.  The canonical basis comes out in degree
    slices.  Inputs whose terms have more than ``MAX_ANN_COLUMNS`` divisors
    (a bound on the dimension) are refused up front.
    """
    divisors = sum(math.prod(e + 1 for e in g.context.unpack(l)) for g in gens for l in g.terms)
    _refuse_oversized(divisors, "module span")
    builder = SpanBuilder()
    queue = list(gens)
    while queue:
        v = queue.pop()
        if builder.insert(v):
            queue.extend(contract_monomial(x, v) for x in v.context.var_monomials)
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
    element, packed monomial of the contraction result); a key is present
    whenever some column reaches it, even when its entries cancel.
    """
    rows = {}
    for k, f in enumerate(fixed):
        base, guard = f.context.base, f.context.guard
        if isinstance(f, DPPolynomial):  # col + t packs L - col for each term L
            cols, terms = [-c for c in index.monomials], [(m + base, a) for m, a in f.terms.items()]
        else:  # col + t packs col - M for each term M
            cols, terms = index.monomials, [(base - m, a) for m, a in f.terms.items()]
        for j, col in enumerate(cols):
            for t, a in terms:
                d = col + t
                if not d & guard:  # distinct terms reach distinct rows from one column
                    rows.setdefault((k, d), {})[j] = a
    return rows


def contraction_kernel(fixed, index, context, side):
    """Canonical kernel basis of contraction against the fixed elements.

    ``side`` names the side of the columns: "r" when the fixed elements are
    dual, "dual" when they are ring elements.
    """
    kernel = kernel_vectors(list(contraction_rows(fixed, index).values()), len(index), context.one)
    return SubspaceBasis([index.poly(v, context, side) for v in kernel])


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


def _monomial_multiple(m, terms, context, bound):
    """The polynomial m * sum(terms) for a packed monomial m, terms of degree above ``bound`` dropped."""
    _check_degree(bound)
    limit = (bound - (m >> context.shift) + 1) << context.shift
    m -= context.base
    return Polynomial._of(context, {m + e: c for e, c in terms.items() if e < limit})


def _minimalize_graded(kernels_by_degree, context):
    """Extract minimal homogeneous generators from per-degree ideal slices.

    The degree-j part of the ideal is R_{j-k} times its part in the previous
    nonempty degree k plus new generators, so each degree's span starts from
    the monomials of degree j - k times the previous span's pivot rows; the
    slice vectors it misses are the new generators.
    """
    gens, prev = [], None
    for j in sorted(kernels_by_degree):
        if not kernels_by_degree[j]:
            continue
        span = SpanBuilder()
        if prev is not None:
            k, below = prev
            for m in _packed_monomials(context.n, j - k, j - k):
                for row in below.pivots.values():
                    span.insert(_monomial_multiple(m, row, context, j))
        for v in kernels_by_degree[j]:
            r = span.reduce(v)
            if not r.is_zero():
                r = r.monic()
                gens.append(r)
                span.insert(r)
        prev = (j, span)
    return gens


def _minimalize_local(space, bound, context, truncated):
    """Extract generators for the ideal spanned by a window subspace of R_{<=bound}.

    Candidates are taken in increasing order (valuation), degrevlex breaking
    ties, and kept when they are independent of the span built so far.

    ``truncated`` says the bound exceeds the degree of every dual generator,
    so the window is the ideal I modulo m^{bound+1}, and m^{bound+1} lies in
    m*I.  The span then starts as m*I modulo m^{bound+1}, the window vectors
    times each variable cut at the bound, and by Nakayama the kept
    candidates are a minimal generating set; a product made of monomials
    already inserted alone is skipped.  Otherwise a kept candidate
    brings its honest multiples that fit in the window, so every emitted
    generator lies exactly in the window subspace; the list is minimal with
    respect to window-degree multiples.
    """
    candidates = sorted(space.vectors, key=lambda v: v.leading_monomial(), reverse=True)
    candidates.sort(key=lambda v: v.order())
    span = SpanBuilder()
    if truncated:
        inserted = set()  # monomials inserted as products of one term
        for x in context.var_monomials:
            for w in space.vectors:
                prod = _monomial_multiple(x, w.terms, context, bound)
                if not prod.terms.keys() <= inserted:
                    span.insert(prod)
                    if len(prod.terms) == 1:
                        inserted.update(prod.terms)
    gens = []
    for v in candidates:
        r = span.reduce(v)
        if r.is_zero():
            continue
        g = r.monic()
        gens.append(g)
        if truncated:
            span.insert(g)
            continue
        for m in _packed_monomials(context.n, 0, bound - int(g.degree())):
            span.insert(_monomial_multiple(m, g.terms, context, bound))
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


# Largest number of contraction columns that ``ann_module`` and
# ``perp_ideal`` accept -- monomials of degree at most the bound,
# C(n + bound, n) -- and of contractions that ``module_span`` accepts, one per
# divisor of a generator term.  The tests and benchmarks need at most 3003
# columns and 9100 divisors; ``ann`` of X^[250]*Y^[250] (126253 columns)
# took 4.6 s on one core of a shared 2-core Xeon VM, and the cost grows
# faster than linearly in the column count.
MAX_ANN_COLUMNS = 100_000


def _refuse_oversized(columns, what):
    if columns > MAX_ANN_COLUMNS:
        raise PreconditionError(
            f"{what} needs {columns} contraction columns, more than the limit {MAX_ANN_COLUMNS}"
        )


def _refuse_oversized_window(n, bound, what):
    _refuse_oversized(math.comb(n + max(bound, 0), n), f"{what} up to degree {bound}")
    _check_degree(bound)


def ann_module(gens, degree_bound=None):
    """Bounded part of the joint annihilator of several dual elements.

    The joint annihilator is the intersection of the per-generator
    annihilators; it is computed here as one stacked contraction kernel,
    which produces the same canonical subspace in a single elimination.
    Inputs needing more than ``MAX_ANN_COLUMNS`` contraction columns are
    refused up front.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise PreconditionError("annihilator of the zero module is the unit ideal")
    ctx = gens[0].context
    bound = degree_bound if degree_bound is not None else max(int(g.degree()) for g in gens) + 1
    _refuse_oversized_window(ctx.n, bound, "annihilator")
    if ctx.mode == "graded" and all(g.is_homogeneous() for g in gens):
        out = _minimalize_graded(annihilator_slices(gens, bound), ctx)
    else:
        window = annihilator_window(gens, bound)
        truncated = bound > max(int(g.degree()) for g in gens)
        out = _minimalize_local(window, bound, ctx, truncated)
    return Ideal(out, ctx)


# ---------------------------------------------------------------------------
# inverse systems per degree


def perp_ideal(I, degree_bound=None):
    """Per-degree inverse system of an ideal.

    The kernel of contraction by every generator: graded mode takes it on
    each dual degree j (by <m*g, G> = <m, g o G> this is the orthogonal of
    the degree-j part of the ideal), local mode over the dual window of
    degree <= bound, organized by filtration slices.  Both need C(n + bound, n)
    contraction columns in all, refused beyond ``MAX_ANN_COLUMNS``.
    """
    ctx = I.context
    bound = degree_bound if degree_bound is not None else I.max_degree() + 2
    _refuse_oversized_window(ctx.n, bound, "inverse system")
    if ctx.mode == "graded":
        if not I.is_homogeneous():
            raise PreconditionError("graded mode needs homogeneous generators")
        return [
            GradedSlice(j, contraction_kernel(I.gens, MonomialIndex.of_degree(ctx.n, j), ctx, "dual"))
            for j in range(bound + 1)
        ]
    index = MonomialIndex.window(ctx.n, bound)
    return _slices_from_vectors(contraction_kernel(I.gens, index, ctx, "dual").vectors, bound)


def ideal_window_span(gens, bound, context):
    """Span of the window R_{<=bound} part of the ideal the generators produce.

    Multiples whose honest degree exceeds the bound enter truncated, which is
    exactly the image of the ideal in R modulo degrees above the bound.
    """
    _check_degree(bound)
    span = SpanBuilder()
    for g in gens:
        if g.is_zero():
            continue
        for m in _packed_monomials(context.n, 0, max(bound - g.order(), 0)):
            prod = _monomial_multiple(m, g.terms, context, bound)
            if prod.terms:
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
