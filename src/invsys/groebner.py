"""Homogeneous Buchberger engine and the invariants it certifies.

Enough Groebner machinery to certify Gorenstein-ness of graded quotients:
reduced bases under degrevlex, normal forms, Hilbert series by the monomial
inclusion-exclusion recursion, Krull dimension, multiplicities, regular
sequence tests and socle dimensions.  Local ideals are deliberately not
handled here; the duality layer treats them by degree truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .duality import Ideal, _minimalize_graded, _slices_from_vectors
from .linalg import rank_of, span_reduce
from .ring import (
    Polynomial,
    PreconditionError,
    drl_key,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
    monomials_of_degree,
)


@dataclass
class GroebnerBasis:
    """A reduced, monic degrevlex Groebner basis together with its source ideal."""

    elements: list
    context: object
    source: Ideal = None

    def __iter__(self):
        return iter(self.elements)

    def leading_monomials(self):
        return [g.leading_monomial() for g in self.elements]


def normal_form(f, basis):
    """Fully reduced remainder of f: no term divisible by a basis leading monomial.

    f - normal_form(f) lies in the ideal; membership is the vanishing of the
    normal form once ``basis`` is a Groebner basis.
    """
    elements = basis.elements if isinstance(basis, GroebnerBasis) else list(basis)
    lms = [(g.leading_monomial(), g) for g in elements if not g.is_zero()]
    ctx = f.context
    remainder = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=drl_key)
        c = work.pop(m)
        for lm, g in lms:
            quot = exp_sub(m, lm)
            if quot is not None:
                factor = c / g.terms[lm]
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    tm = exp_add(gm, quot)
                    s = work.get(tm)
                    s = -factor * gc if s is None else s - factor * gc
                    if s:
                        work[tm] = s
                    else:
                        work.pop(tm, None)
                break
        else:
            remainder[m] = c
    return Polynomial(ctx, remainder)


def _s_polynomial(f, g):
    lf, lg = f.leading_monomial(), g.leading_monomial()
    l = exp_lcm(lf, lg)
    mf = Polynomial.monomial(f.context, exp_sub(l, lf), 1)
    mg = Polynomial.monomial(f.context, exp_sub(l, lg), 1)
    return (mf * f).scale(1 / f.leading_coeff()) - (mg * g).scale(1 / g.leading_coeff())


def _interreduce(polys):
    polys = [p.monic() for p in polys if not p.is_zero()]
    changed = True
    while changed:
        changed = False
        out = []
        for i, p in enumerate(polys):
            rest = out + polys[i + 1 :]
            r = normal_form(p, rest)
            if r.is_zero():
                changed = True
                continue
            r = r.monic()
            if r != p:
                changed = True
            out.append(r)
        polys = out
    polys.sort(key=lambda p: drl_key(p.leading_monomial()))
    return polys


def buchberger(ideal):
    """Reduced Groebner basis of a homogeneous ideal under degrevlex.

    Pair selection is the normal strategy (smallest lcm degree first); pairs
    with coprime leading terms are discarded by the product criterion.  The
    final basis is auto-reduced and monic, sorted by ascending leading
    monomial.
    """
    if ideal.cached_gb is not None:
        return ideal.cached_gb
    ctx = ideal.context
    if ctx.mode == "graded" and not ideal.is_homogeneous():
        raise PreconditionError("graded mode requires homogeneous generators")
    basis = _interreduce(list(ideal.gens))
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}

    def lcm_deg(pair):
        i, j = pair
        return sum(exp_lcm(basis[i].leading_monomial(), basis[j].leading_monomial()))

    while pairs:
        i, j = min(pairs, key=lambda p: (lcm_deg(p), p))
        pairs.discard((i, j))
        li, lj = basis[i].leading_monomial(), basis[j].leading_monomial()
        if exp_lcm(li, lj) == exp_add(li, lj):  # product criterion
            continue
        r = normal_form(_s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        basis.append(r.monic())
        t = len(basis) - 1
        pairs.update((t, k) for k in range(t))
    gb = GroebnerBasis(_interreduce(basis), ctx, ideal)
    ideal.cached_gb = gb
    return gb


# ---------------------------------------------------------------------------
# Hilbert series of the leading-term ideal


@dataclass
class HilbertData:
    """Numerator h(t) with h(1) != 0, Krull dimension, multiplicity, regularity proxy.

    The Hilbert series of the quotient is h(t)/(1-t)^dimension; the
    regularity proxy is deg h, which for a Cohen-Macaulay quotient equals the
    Castelnuovo-Mumford regularity (the socle degree of an Artinian reduction).
    """

    numerator: list
    dimension: int
    multiplicity: int
    regularity: int

    def series_coeffs(self, upto):
        """Hilbert function values 0..upto from the rational form."""
        coeffs = list(self.numerator) + [0] * max(0, upto + 1 - len(self.numerator))
        coeffs = coeffs[: upto + 1]
        for _ in range(self.dimension):  # multiply by 1/(1-t): prefix sums
            total = 0
            for i, c in enumerate(coeffs):
                total += c
                coeffs[i] = total
        return coeffs


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _minimalize_monomials(monos):
    out = []
    for m in sorted(monos, key=sum):
        if not any(exp_divides(p, m) for p in out):
            out.append(m)
    return out


def _numerator(monos, n):
    """Numerator of HS of R/(monos) over (1-t)^n, by pivot recursion."""
    monos = _minimalize_monomials(monos)
    if not monos:
        return [1]
    if any(sum(m) == 0 for m in monos):
        return [0]
    supports = [set(i for i, e in enumerate(m) if e) for m in monos]
    if all(s1.isdisjoint(s2) for a, s1 in enumerate(supports) for s2 in supports[a + 1 :]):
        out = [1]  # pairwise coprime: complete intersection product
        for m in monos:
            factor = [0] * (sum(m) + 1)
            factor[0] = 1
            factor[sum(m)] = -1
            out = _poly_mul_int(out, factor)
        return out
    counts = [0] * n
    for s in supports:
        for i in s:
            counts[i] += 1
    pivot = max(range(n), key=lambda i: (counts[i], -i))
    pv = tuple(1 if i == pivot else 0 for i in range(n))
    plus = [m for m in monos if m[pivot] == 0] + [pv]
    colon = [tuple(e - 1 if i == pivot else e for i, e in enumerate(m)) if m[pivot] else m
             for m in monos]
    a = _numerator(plus, n)
    b = _numerator(colon, n)
    out = [0] * max(len(a), len(b) + 1)
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i + 1] += c  # t * numerator of the colon ideal
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def hilbert_series(gb):
    """HilbertData of R/I from the leading-term ideal of a Groebner basis."""
    n = gb.context.n
    num = _numerator(gb.leading_monomials(), n)
    if num == [0]:
        return HilbertData([0], -1, 0, 0)  # unit ideal
    strips = 0
    while sum(num) == 0 and len(num) > 1:
        # divide by (1-t) while the numerator vanishes at t=1
        quot = []
        acc = 0
        for c in num[:-1]:
            acc += c
            quot.append(acc)
        num = quot
        strips += 1
        while len(num) > 1 and num[-1] == 0:
            num.pop()
    dimension = n - strips
    return HilbertData(num, dimension, sum(num), len(num) - 1)


def hilbert_data(ideal):
    """Hilbert data of R/I, cached on the ideal."""
    if ideal.cached_hilbert is None:
        ideal.cached_hilbert = hilbert_series(buchberger(ideal))
    return ideal.cached_hilbert


# ---------------------------------------------------------------------------
# certified invariants


def is_regular_sequence(ideal, zs):
    """Is the list of linear forms a regular sequence on R/I?

    Verified step by step through Hilbert series: adjoining a regular element
    multiplies the series by (1-t), i.e. keeps the numerator and drops the
    dimension by one.
    """
    ctx = ideal.context
    for z in zs:
        if z.is_zero() or int(z.degree()) != 1:
            raise PreconditionError("regular sequence test expects linear forms")
    current = Ideal(list(ideal.gens), ctx)
    data = hilbert_data(current)
    for z in zs:
        extended = Ideal(list(current.gens) + [z], ctx)
        ext_data = hilbert_data(extended)
        if ext_data.numerator != data.numerator or ext_data.dimension != data.dimension - 1:
            return False
        current, data = extended, ext_data
    return True


def standard_monomials(gb):
    """Monomials outside the leading-term ideal; error when R/I is not Artinian."""
    lms = gb.leading_monomials()
    n = gb.context.n
    caps = [None] * n
    for m in lms:
        for i in range(n):
            if m[i] and all(e == 0 for j, e in enumerate(m) if j != i):
                if caps[i] is None or m[i] < caps[i]:
                    caps[i] = m[i]
    if any(c is None for c in caps):
        raise PreconditionError("quotient is not Artinian")
    std = []
    degree = 0
    while True:
        layer = [
            m
            for m in monomials_of_degree(n, degree)
            if not any(exp_divides(lm, m) for lm in lms)
        ]
        if not layer and degree > 0:
            break
        std.extend(layer)
        degree += 1
    return std


def socle_dim(ideal):
    """Dimension of the socle (0 : m) / I of an Artinian quotient.

    Computed by linear algebra against the Groebner normal-form basis: the
    kernel of joint multiplication by all the variables.
    """
    gb = buchberger(ideal)
    ctx = ideal.context
    std = standard_monomials(gb)
    pos = {m: i for i, m in enumerate(std)}
    rows = {}
    for j, m in enumerate(std):
        for i in range(ctx.n):
            image = normal_form(Polynomial.monomial(ctx, exp_add(m, ctx.unit_exp(i))), gb)
            for tm, tc in image.terms.items():
                row = rows.setdefault((i, pos[tm]), {})
                row[j] = row.get(j, ctx.scalar(0)) + tc
    return len(std) - rank_of(list(rows.values()))


def minimal_generators(ideal):
    """Minimal homogeneous generating set, degree-by-degree completion.

    At each degree the span of multiples of lower-degree chosen generators is
    removed from the span of the given generators' degree slice.
    """
    if not ideal.is_homogeneous():
        raise PreconditionError("minimal_generators expects homogeneous generators")
    slices = _slices_from_vectors(ideal.gens)
    canonical = {s.degree: span_reduce(s.basis.vectors).vectors for s in slices}
    return _minimalize_graded(canonical, ideal.context)
