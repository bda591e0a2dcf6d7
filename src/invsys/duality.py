"""Macaulay duality primitives.

Spans of cyclic submodules of the dual, annihilator ideals, per-degree
inverse systems and Hilbert functions.  Annihilators are one kernel over a
bounded-degree window; graded inverse systems are sliced degree by degree,
local ones organized by the filtration (leading-degree) slices, so every
bounded statement is exact despite the truncation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import accumulate

from .linalg import (
    SpanBuilder,
    SubspaceBasis,
    kernel_vectors,
    monomial_columns,
    peel_units,
    refuse_column_range,
    refuse_negative_bound,
    refuse_oversized,
    span_reduce,
)
from .ring import (
    DPPolynomial,
    Polynomial,
    PreconditionError,
    _check_degree,
    _packed_monomials,
    _staircase_step,
    check_side,
    contract_monomial,
    linear_combination,
)


@dataclass
class Ideal:
    """A generator list in R; Groebner/Hilbert data attached lazily."""

    gens: list
    context: object
    cached_gb: object = field(default=None, compare=False, repr=False)
    cached_hilbert: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        check_side(Polynomial, self.gens, self.context)
        self.gens = [g for g in self.gens if not g.is_zero()]
        self.gens.sort(key=lambda g: g.leading_monomial())

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.gens)

    def max_degree(self):
        return max((int(g.degree()) for g in self.gens), default=0)

    def __str__(self):
        return ", ".join(str(g) for g in self.gens) if self.gens else "0"


@dataclass
class GroebnerBasis:
    """A degrevlex Groebner basis, each element paired with its leading monomial.

    ``groebner.buchberger`` returns it reduced, monic and sorted by ascending
    leading monomial; while it runs, it grows an unreduced one element by
    element with ``add``.  ``ann_module`` attaches the same reduced basis to
    the graded annihilators it reads off their kernels, with the pair that
    ``groebner._border_walk`` returns as ``staircase``.  ``reducers`` holds
    the (leading monomial, element) pairs that ``normal_form`` divides by,
    computed once per element.
    """

    elements: list
    context: object
    source: Ideal = None
    staircase: tuple = field(default=None, repr=False, compare=False)
    reducers: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.reducers = [(g.leading_monomial(), g) for g in self.elements]

    def __iter__(self):
        return iter(self.elements)

    def add(self, g):
        """Append a nonzero element; returns its leading monomial."""
        lm = g.leading_monomial()
        self.elements.append(g)
        self.reducers.append((lm, g))
        return lm

    def leading_monomials(self):
        return [lm for lm, _ in self.reducers]


@dataclass
class HilbertData:
    """Numerator h(t) with h(1) != 0, Krull dimension, multiplicity, regularity proxy.

    The Hilbert series of the quotient is h(t)/(1-t)^dimension; the
    regularity proxy is deg h, which for a Cohen-Macaulay quotient equals the
    Castelnuovo-Mumford regularity (the socle degree of an Artinian reduction).
    ``groebner.hilbert_series`` computes it from a leading-term ideal;
    ``ann_module`` reads that of a graded annihilator off its kernel.
    """

    numerator: list
    dimension: int
    multiplicity: int
    regularity: int

    def series_coeffs(self, upto):
        """Hilbert function values 0..upto from the rational form."""
        coeffs = (list(self.numerator) + [0] * (upto + 1))[: upto + 1]
        for _ in range(self.dimension):  # multiply by 1/(1-t): prefix sums
            coeffs = list(accumulate(coeffs))
        return coeffs


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
    """Degree slices of nonzero vectors that come by descending lead, as ``SpanBuilder.basis()`` gives them."""
    by_degree = {}
    for v in vectors:
        by_degree.setdefault(max(v.terms) >> v.context.shift, []).append(v)
    return [
        GradedSlice(d, SubspaceBasis(vs))
        for d, vs in sorted(by_degree.items())
        if degree_bound is None or d <= degree_bound
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

    The span of the images u o F_k over all monomials u, built by a
    staircase walk per generator: the monomials u in ascending degrevlex
    order, layer by layer.  Each image goes into one shared echelon span,
    and u is kept when its image enlarged it; the next layer holds only the
    products u * x_i whose every quotient by a variable was kept, which
    ``_staircase_step`` finds by counting how often the kept set reaches
    each product.  The pruning is exact.  The pairs (k, u) in lexicographic
    order form a module monomial order, and when u o F_k lies in the span of
    the earlier images, (x * u) o F_k = x o (u o F_k) lies in the span of
    their x-multiples, all of which come earlier.  The canonical basis comes
    out in degree slices.
    Inputs whose terms have more than ``MAX_ANN_COLUMNS`` divisors (a bound
    on the dimension) are refused up front, and so are a negative
    ``degree_bound`` and generators of another ring context or side.
    """
    check_side(DPPolynomial, gens)
    if degree_bound is not None:
        refuse_negative_bound(degree_bound, "module span")
    divisors = sum(math.prod(e + 1 for e in g.context.unpack(l)) for g in gens for l in g.terms)
    refuse_oversized(divisors, "module span")
    builder = SpanBuilder()
    for F in gens:
        layer = [F.context.base]
        while layer:
            kept = {u for u in layer if builder.insert(contract_monomial(u, F))}
            layer = sorted(_staircase_step(kept, F.context.n))
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


def contraction_rows(fixed, columns):
    """Sparse rows of contraction by each fixed ring element, one column per dual monomial.

    A column G maps to the contractions g o G.  Rows are keyed by (position
    of the fixed element, packed monomial of the contraction result) and
    hold column positions; a key is present whenever some column reaches it,
    even when its entries cancel.
    """
    rows = {}
    for k, g in enumerate(fixed):
        base, guard = g.context.base, g.context.guard
        terms = [(base - m, a) for m, a in g.terms.items()]  # col + t packs col - M for each term M
        for j, col in enumerate(columns):
            for t, a in terms:
                d = col + t
                if not d & guard:  # distinct terms reach distinct rows from one column
                    rows.setdefault((k, d), {})[j] = a
    return rows


def contraction_kernel(fixed, columns, one):
    """Canonical kernel basis of contraction by the fixed ring elements, keyed by column monomial."""
    return kernel_vectors(list(contraction_rows(fixed, columns).values()), columns, one)


# ---------------------------------------------------------------------------
# annihilators


def _term_divisors(gens, bound):
    """Each generator term with its divisors of degree <= bound.

    Lists (k, L, a, divisors) for every term a*Z^[L] of gens[k], monomials
    packed.  By Macaulay duality u o Z^[L] is Z^[L-u] when u divides L and 0
    otherwise, so the pairs (L, u) are exactly the nonzero entries of the
    contraction matrix of the generators over the window R_{<=bound}: row
    (k, L/u), column u, value a.  The divisors are listed variable by
    variable, each once, so the work follows the number of entries.
    """
    if not gens:  # every generator was zero
        return []
    ctx = gens[0].context
    base = ctx.base
    steps = [x - base for x in ctx.var_monomials]  # u + step packs u * x
    limit = bound << ctx.shift  # u * x has degree <= bound exactly when u < limit
    out = []
    for k, g in enumerate(gens):
        for l, a in g.terms.items():
            divisors = [base]
            for step, e in zip(steps, ctx.unpack(l)):
                layer = divisors
                for _ in range(min(e, bound)):  # the divisors with one more factor x
                    layer = [u + step for u in layer if u < limit]
                    divisors += layer
            out.append((k, l, a, divisors))
    return out


@dataclass
class AnnihilatorWindow:
    """The joint annihilator of dual elements within R_{<=bound}, in two parts.

    ``divisors`` is the order ideal D of the window monomials that divide a
    term of some generator.  By Macaulay duality every other window monomial
    u kills every generator (u o F = 0), so it is a one-term kernel vector,
    and none of them is built.  ``multi_term`` holds the rest of the kernel:
    the canonical kernel of contraction over the columns in D, whose vectors
    all have more than one term (a column in D is nonzero), by descending
    leading monomial.  Together they are the reduced echelon kernel over the
    whole window, vector for vector.

    ``border`` lists the minimal one-term vectors: the monomials outside D
    whose every quotient u/x_i lies in D.  Every monomial outside D is a
    monomial multiple of one of them, and a window monomial m is a product
    x_i * u of a one-term vector u exactly when some m/x_i lies outside D,
    that is when m lies neither in D nor in the border.
    """

    context: object
    bound: int
    divisors: set
    multi_term: list

    @functools.cached_property
    def border(self):
        """The border, descending: the products u * x_i of members of D reached from D as often as
        they have variables dividing them (``_staircase_step``), cut at the bound, with 1, minus D."""
        limit = (self.bound + 1) << self.context.shift
        step = {m for m in _staircase_step(self.divisors, self.context.n) if m < limit}
        return sorted((step | {self.context.base}) - self.divisors, reverse=True)

    def generating_vectors(self):
        """The multi-term vectors and the border monomials as one-term vectors.

        Modulo m^{bound+1} they generate the same ideal as the whole kernel:
        every other kernel vector is a monomial multiple of a border monomial.
        """
        return self.multi_term + [Polynomial._of(self.context, {u: self.context.unit}) for u in self.border]


def _top_generators(gens):
    """The nonzero generators that no other one reaches by a monomial contraction, in order.

    A generator G is dropped when G = c * (m o F) for another generator F, a
    monomial m and a unit c; for m = 1, proportional generators, only when F
    comes earlier.  Contraction by m keeps the degrevlex order of the terms
    that m divides, so the lead t of G is L/m for a term L of F: only those
    m are tried, each by comparing monic term dicts.  Each drop lowers the
    degree or the list position, so every dropped generator traces back to a
    kept one, and Ann(F) lies in Ann(m o F).
    """
    ctx = gens[0].context
    base, guard = ctx.base, ctx.guard
    kept = []
    for j, g in enumerate(gens):
        if not g.terms:
            continue
        t = max(g.terms)
        tries = (
            contract_monomial(m, f).terms
            for i, f in enumerate(gens)
            if i != j
            for l in f.terms
            if not (m := l - t + base) & guard and (m != base or i < j)  # m packs L/t
        )
        if not any(h.keys() == g.terms.keys() and DPPolynomial._of(ctx, h).monic() == g.monic() for h in tries):
            kept.append(g)
    return kept


def annihilator_window(gens, bound):
    """The joint annihilator of the given dual elements within R_{<=bound}.

    Returns an ``AnnihilatorWindow``: the divisor set D and the multi-term
    kernel vectors, eliminated over the columns in D only.  A generator that
    another one reaches by a monomial contraction adds no rows: its divisors
    and its rows, scalar multiples of the other's, are already there
    (``_top_generators``).  The matrix is built from its nonzero entries, the
    (term, divisor) pairs of ``_term_divisors``, and D is the set of those
    divisors.  For homogeneous generators the matrix is block-diagonal by
    degree (a column of degree j reaches only rows of degree deg F - j), so
    the kernel is the union of the per-degree kernels.  Generators of
    another ring context or side, an empty list, a negative bound, windows
    of more than ``MAX_ANN_COLUMNS`` monomials and degrees above the packing
    limit are refused up front, in that order, before any generator is
    dropped.
    """
    ctx = check_side(DPPolynomial, gens)
    if ctx is None:
        raise PreconditionError("annihilator window needs at least one generator")
    refuse_column_range(ctx.n, 0, bound, "annihilator")
    gens = _top_generators(gens)
    pairs = _term_divisors(gens, bound)
    divisors = {u for *_, us in pairs for u in us}
    columns = sorted(divisors, reverse=True)
    position = {u: j for j, u in enumerate(columns)}
    rows = [{} for _ in gens]  # rows[k] maps L/u to row (k, L/u)
    for k, l, a, us in pairs:
        l += ctx.base  # so that l - u packs L/u
        row_at = rows[k].setdefault
        for u in us:
            row_at(l - u, {})[position[u]] = a
    kernel = kernel_vectors([row for by_quotient in rows for row in by_quotient.values()], columns, ctx.one)
    return AnnihilatorWindow(ctx, bound, divisors, [Polynomial._of(ctx, v) for v in kernel])


def _monomial_multiple(m, terms, context, bound):
    """The polynomial m * sum(terms) for a packed monomial m, terms of degree above ``bound`` dropped."""
    _check_degree(bound)
    limit = (bound - (m >> context.shift) + 1) << context.shift
    m -= context.base
    return Polynomial._of(context, {m + e: c for e, c in terms.items() if e < limit})


def _reduced_basis(vectors, divisors, ideal):
    """Reduced degrevlex Groebner basis of a homogeneous ideal read off its window kernel.

    Each kernel vector is homogeneous, monic at its leading monomial, a free
    column, and elsewhere nonzero only at pivot columns, the standard
    monomials of its degree.  So the leading monomials of each degree are
    those of the leading-term ideal, and once the window reaches a degree
    where every monomial lies in the ideal, the vectors led by a minimal
    generator u of it -- no u/x_i is a leading monomial -- are exactly the
    reduced basis, in ascending order.  ``vectors`` are the window's
    multi-term vectors and border monomials: a one-term vector off the
    border has a one-term quotient, and the quotients of the others lie in
    the divisor set, so only multi-term leading monomials are looked up.
    The staircase too: the ``divisors`` minus those leads are standard, and
    a lead u has normal form u minus its vector.
    """
    ctx = ideal.context
    base, xs = ctx.base, ctx.var_monomials
    lead = sorted(((v.leading_monomial(), v) for v in vectors), key=lambda pair: pair[0])
    forms = {m: ctx.normalize({t: -c for t, c in v.terms.items() if t != m}) for m, v in lead if len(v.terms) > 1}
    # m - x + base packs m / x; an x not dividing m sets a guard bit, which no monomial has
    kept = [v for m, v in lead if not any(m - x + base in forms for x in xs)]
    return GroebnerBasis(kept, ctx, ideal, (sorted(divisors.difference(forms)), forms))


def _minimalize(vectors, bound, context, hull=None):
    """Minimal generators of the ideal spanned by vectors of R_{<=bound}.

    Candidates are taken in increasing order (valuation), degrevlex breaking
    ties, and kept when they are independent of the span built so far: by
    Nakayama, g is a new generator iff g is not in m*I plus the kept ones.

    A ``hull`` (an annihilator window's divisor set with its border) says
    the vectors are a window kernel that, with the window monomials outside
    the hull, spans all of I modulo m^{bound+1}: a graded annihilator at any
    bound, whose products never cross degrees, or a local one whose bound
    exceeds every dual generator degree, so m^{bound+1} lies in m*I.  Those
    monomials, products x_i * u of one-term kernel vectors, lie in m*I.
    Every other kernel vector is monic at its lead, a border monomial or a
    free column, and elsewhere nonzero only at standard monomials, so the
    coordinates at the leads in the hull map I modulo the monomials outside
    it one-to-one.  There a product x_i * w keeps only its terms on a lead,
    a candidate is the unit vector at its lead, and m*I is a set ``units``
    of leads (products and kept generators left with one term) plus an
    echelon span of the rest.  A candidate reduced by the span and stripped
    is its remainder; made monic, a nonzero one is emitted as the same
    combination of the window vectors at its leads, taken on their integer
    forms (``linear_combination``).

    Without a hull a kept candidate brings its honest multiples that fit
    below the bound, so every emitted generator lies exactly in the span of
    the vectors; the list is minimal with respect to those multiples.  When
    every candidate is homogeneous the span is graded, and the multiples go
    only into degrees that a later candidate has.
    """
    candidates = sorted(((v.leading_monomial(), v) for v in vectors), key=lambda p: (p[1].order(), -p[0]))
    span, gens = SpanBuilder(), []
    if hull is not None:
        at = {lm: v for lm, v in candidates if lm in hull}
        steps = [x - context.base for x in context.var_monomials]  # m + step packs m * x
        rows = [  # the products of a one-term w lie outside the hull
            row
            for _, w in candidates
            for step in steps
            if len(w.terms) > 1 and (row := {p: c for m, c in w.terms.items() if (p := m + step) in at})
        ]
        units, rows = peel_units(rows)
        for row in rows:
            span.insert(Polynomial._of(context, row))
        pivots = {max(b.terms) for b in span.basis()}
        for lm, _ in candidates:
            if lm not in at or lm in units:
                continue  # in the span of the monomials outside the hull or of the set
            r = {lm: context.unit}
            if lm in pivots:  # else the unit vector is its own remainder
                r = {m: c for m, c in span.reduce(Polynomial._of(context, r)).terms.items() if m not in units}
            r = Polynomial._of(context, r).monic()
            if len(r.terms) == 1:
                units.update(r.terms)
                gens.append(at[max(r.terms)])
            elif r.terms:
                span.insert(r)
                pivots.add(max(r.terms))
                gens.append(linear_combination(r.terms, at))
        return gens
    homogeneous = all(v.is_homogeneous() for _, v in candidates)
    for k, (_, v) in enumerate(candidates):
        r = span.reduce(v)
        if r.is_zero():
            continue
        g = r.monic()
        gens.append(g)
        d = int(g.degree())
        multiples = _packed_monomials(context.n, 0, bound - d)
        if homogeneous:
            later = {int(w.degree()) - d for _, w in candidates[k + 1 :]}
            multiples = [m for m in multiples if m >> context.shift in later]
        for m in multiples:
            span.insert(_monomial_multiple(m, g.terms, context, bound))
    return gens


def minimal_generators(ideal):
    """Minimal homogeneous generating set of an ideal with homogeneous generators.

    The candidates are the canonical per-degree spans of the given
    generators; ``_minimalize`` keeps each one outside the honest multiples
    of the generators kept before it.
    """
    if not ideal.is_homogeneous():
        raise PreconditionError("minimal_generators expects homogeneous generators")
    return _minimalize(span_reduce(ideal.gens).vectors, ideal.max_degree(), ideal.context)


def ann_cyclic(F, gen_bound=None):
    """Minimal generators of the annihilator of a single dual element.

    Both modes solve one kernel over the window R_{<=bound}, which for a
    homogeneous F is the direct sum of the kernels of the contraction maps
    R_j -> dual_(s-j), and minimalize along the valuation filtration.  With
    the default bound deg F + 1 the result generates the full annihilator,
    and the quotient by it is Artinian Gorenstein.
    """
    check_side(DPPolynomial, (F,))
    if F.is_zero():
        raise PreconditionError("annihilator of 0 is the unit ideal")
    return ann_module([F], gen_bound)


def ann_module(gens, degree_bound=None):
    """Bounded part of the joint annihilator of several dual elements.

    The joint annihilator is the intersection of the per-generator
    annihilators; it is computed here as one stacked contraction kernel over
    the window R_{<=bound} (``annihilator_window``, which refuses windows of
    more than ``MAX_ANN_COLUMNS`` monomials and eliminates only over the
    monomials that divide a generator term).  ``_minimalize`` reads the
    generators off the kernel: graded mode at every bound, and local mode
    once the bound exceeds every generator degree, start its span from m*Ann
    cut at the bound and take as candidates only the multi-term vectors and
    the border monomials; a local bound at or below the top degree offers
    every kernel vector with its honest multiples.  In graded mode, when the
    bound exceeds the degree of every generator (the default), the window
    holds the whole ideal through a degree it contains entirely, so the
    returned ideal arrives with its reduced Groebner basis (``cached_gb``)
    read off the kernel, with the staircase that ``groebner.socle_dim``
    reads, and neither ``groebner.buchberger`` nor the border walk does
    work on it.  It also arrives with its Hilbert data (``cached_hilbert``):
    by Macaulay duality the quotient is Artinian of socle degree top, and
    its Hilbert function in degree d counts the standard monomials of
    degree d, the divisor monomials that lead no multi-term vector.
    """
    ctx = check_side(DPPolynomial, gens)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise PreconditionError("annihilator of the zero module is the unit ideal")
    top = max(int(g.degree()) for g in gens)
    bound = degree_bound if degree_bound is not None else top + 1
    graded = ctx.mode == "graded" and all(g.is_homogeneous() for g in gens)
    window = annihilator_window(gens, bound)
    if graded or bound > top:
        vectors = window.generating_vectors()
        ideal = Ideal(_minimalize(vectors, bound, ctx, window.divisors.union(window.border)), ctx)
    else:
        one_term = [
            Polynomial._of(ctx, {m: ctx.unit})
            for m in _packed_monomials(ctx.n, 0, bound)
            if m not in window.divisors
        ]
        ideal = Ideal(_minimalize(window.multi_term + one_term, bound, ctx), ctx)
    if graded and bound > top:
        ideal.cached_gb = _reduced_basis(vectors, window.divisors, ideal)
        hf = [0] * (top + 1)
        for m in ideal.cached_gb.staircase[0]:
            hf[m >> ctx.shift] += 1
        ideal.cached_hilbert = HilbertData(hf, 0, sum(hf), top)
    return ideal


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
    graded = ctx.mode == "graded"
    if graded and not I.is_homogeneous():
        raise PreconditionError("graded mode needs homogeneous generators")
    bound = degree_bound if degree_bound is not None else I.max_degree() + 2
    columns = monomial_columns(ctx.n, 0, bound, "inverse system")
    if graded:
        # One kernel per degree, not their sum over the window: the window
        # matrix holds every degree at once (twice the traced peak memory
        # for the inverse system of a degree-29 form in three variables).
        by_degree = [[] for _ in range(bound + 1)]
        for m in columns:
            by_degree[m >> ctx.shift].append(m)
        kernels = (contraction_kernel(I.gens, cols, ctx.one) for cols in by_degree)
        return [
            GradedSlice(j, SubspaceBasis([DPPolynomial._of(ctx, v) for v in kernel]))
            for j, kernel in enumerate(kernels)
        ]
    kernel = contraction_kernel(I.gens, columns, ctx.one)
    return _slices_from_vectors([DPPolynomial._of(ctx, v) for v in kernel], bound)


def ideal_window_span(gens, bound, context, span=None):
    """Span of the window R_{<=bound} part of the ideal the generators produce.

    Multiples whose honest degree exceeds the bound enter truncated, which is
    exactly the image of the ideal in R modulo degrees above the bound.
    Given ``span``, the window span of other generators, the multiples are
    added to it and it is returned: the span of the sum of the two ideals.
    A negative bound, windows of more than ``MAX_ANN_COLUMNS`` monomials,
    degrees above the packing limit and generators that are not ring
    elements of ``context`` are refused up front, in that order.
    """
    refuse_column_range(context.n, 0, bound, "ideal window")
    check_side(Polynomial, gens, context)
    if span is None:
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
    check_side(Polynomial, candidates, context)
    return all(span.contains(c.truncate(trunc - 1)) for c in candidates)


def ideals_equal_mod(gens_a, gens_b, trunc, context):
    """Ideal equality modulo m^trunc, tested by mutual truncated membership."""
    return ideal_contains_mod(gens_a, gens_b, trunc, context) and ideal_contains_mod(
        gens_b, gens_a, trunc, context
    )
