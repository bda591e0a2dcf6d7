"""Homogeneous Buchberger engine and the invariants it certifies.

Enough Groebner machinery to certify Gorenstein-ness of graded quotients:
reduced bases under degrevlex, normal forms, Hilbert series by the monomial
inclusion-exclusion recursion, Krull dimension, multiplicities, regular
sequence tests, and standard monomials and socle dimensions read off a
walk over the border of the standard monomials or off an annihilator
window.  Every socle element is led by a corner, a standard monomial with
no standard successor x_i*m; the other rows are triangular at relabelled
keys, so the socle ranks only the corner rows and the rows they reach.
Local ideals are not handled here; the duality layer truncates them.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .duality import GroebnerBasis, HilbertData, Ideal
from .linalg import rank_of, refuse_oversized
from .ring import Polynomial, PreconditionError, _check_degree


def normal_form(f, basis):
    """Fully reduced remainder of f: no term divisible by a basis leading monomial.

    ``basis`` is a GroebnerBasis or a list of polynomials.  f - normal_form(f)
    lies in the ideal; membership is the vanishing of the normal form once
    ``basis`` is a Groebner basis.
    """
    if isinstance(basis, GroebnerBasis):
        return _reduce(f, basis.reducers)
    return _reduce(f, [(g.leading_monomial(), g) for g in basis if not g.is_zero()])


def _reduce(f, reducers):
    """normal_form against (leading monomial, element) pairs, tried in order."""
    base, guard, p = f.context.base, f.context.guard, f.context.char
    remainder = {}
    work = dict(f.terms)
    while work:
        m = max(work)
        c = work.pop(m)
        for lm, g in reducers:
            quot = m - lm  # gm + quot packs gm * (m / lm)
            if not (quot + base) & guard:
                factor = c * f.context.inverse(g.terms[lm])
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    tm = gm + quot
                    s = work.get(tm)
                    s = -factor * gc if s is None else s - factor * gc
                    if p:
                        s %= p
                    if s:
                        work[tm] = s
                    else:
                        work.pop(tm, None)
                break
        else:
            remainder[m] = c
    return Polynomial._of(f.context, remainder)


def _s_polynomial(f, g):
    lf, lg = f.leading_monomial(), g.leading_monomial()
    ctx = f.context
    l = ctx.lcm(lf, lg) + ctx.base
    mf, mg = (Polynomial._of(ctx, {l - lm: ctx.unit}) for lm in (lf, lg))
    return (mf * f).monic() - (mg * g).monic()


def _interreduce(polys):
    pairs = [(p.leading_monomial(), p) for p in (q.monic() for q in polys if not q.is_zero())]
    changed = True
    while changed:
        changed = False
        out = []
        for i, (lm, p) in enumerate(pairs):
            r = _reduce(p, out + pairs[i + 1 :])
            if r.is_zero():
                changed = True
                continue
            r = r.monic()
            if r != p:
                changed = True
                lm = r.leading_monomial()
            out.append((lm, r))
        pairs = out
    pairs.sort(key=lambda pair: pair[0])
    return [p for _, p in pairs]


def _update(work, h, active, pairs):
    """Add h to the working basis and its pairs to the queue, pruned by Gebauer-Moeller.

    ``active`` lists the indices of the elements that still make pairs;
    ``pairs`` lists the untreated pairs ``(deg lcm, i, j, lcm)``, j < i,
    sorted in descending order so that the next pair to treat is the last.
    The new pairs (h, g) pass criteria M and F: a pair is dropped when the
    lcm of another new pair, still untreated or already kept, divides its
    lcm; pairs with coprime leading monomials are kept through that step and
    dropped afterwards by the product criterion.  An old pair (g1, g2) is
    dropped by criterion B_k when lm(h) divides its lcm while lcm(g1, h) and
    lcm(g2, h) both differ from it.  Finally the elements whose leading
    monomial lm(h) divides stop making pairs.
    """
    t = len(work.elements)
    lm = work.add(h)
    ctx, reducers = work.context, work.reducers
    divides, lcm = ctx.divides, ctx.lcm
    new = [(lcm(lm, reducers[k][0]), k) for k in active]
    kept = []
    for a, (l, k) in enumerate(new):
        if l == lm + reducers[k][0] - ctx.base:
            kept.append((l, k, True))
        elif not any(divides(m, l) for m, _ in new[a + 1 :]) and not any(
            divides(m, l) for m, _, _ in kept
        ):
            kept.append((l, k, False))
    pairs[:] = [
        p
        for p in pairs
        if not (
            divides(lm, p[3])
            and lcm(reducers[p[1]][0], lm) != p[3]
            and lcm(reducers[p[2]][0], lm) != p[3]
        )
    ]
    pairs.extend((l >> ctx.shift, t, k, l) for l, k, coprime in kept if not coprime)
    pairs.sort(reverse=True)
    active[:] = [k for k in active if not divides(lm, reducers[k][0])] + [t]


def buchberger(ideal):
    """Reduced Groebner basis of an ideal under degrevlex.

    Untreated pairs wait in one list sorted by (lcm degree, i, j), and the
    smallest is treated first: the normal strategy.  On homogeneous input
    the sugar of a pair is its lcm degree, so this is also the sugar
    strategy.  Each element that joins the basis updates the pairs by the
    Gebauer-Moeller criteria (B_k, M and F) and the product criterion, see
    ``_update``; only the surviving S-polynomials are reduced.  Criterion
    B_k rebuilds the list at every new element anyway, so keeping it sorted
    costs what a heap would.  The final basis is auto-reduced and monic,
    sorted by ascending leading monomial, and cached on the ideal.  A
    cached basis is returned as it is: graded annihilators from
    ``ann_module`` with a bound above every generator degree (the default
    of ``ann_cyclic``) arrive with theirs, read off their contraction
    kernels.  Graded mode requires homogeneous generators.
    """
    if ideal.cached_gb is not None:
        return ideal.cached_gb
    ctx = ideal.context
    if ctx.mode == "graded" and not ideal.is_homogeneous():
        raise PreconditionError("graded mode requires homogeneous generators")
    work = GroebnerBasis([], ctx, ideal)
    active, pairs = [], []
    for g in _interreduce(list(ideal.gens)):
        _update(work, g, active, pairs)
    while pairs:
        _, i, j, _ = pairs.pop()
        r = normal_form(_s_polynomial(work.elements[i], work.elements[j]), work)
        if not r.is_zero():
            _update(work, r.monic(), active, pairs)
    gb = GroebnerBasis(_interreduce([work.elements[k] for k in active]), ctx, ideal)
    ideal.cached_gb = gb
    return gb


# ---------------------------------------------------------------------------
# Hilbert series of the leading-term ideal


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _minimalize_monomials(monos, ctx):
    out = []
    for m in sorted(monos):  # a proper divisor has a lower degree
        if not any(ctx.divides(p, m) for p in out):
            out.append(m)
    return out


def _numerator(monos, ctx):
    """Numerator of HS of R/(monos) over (1-t)^n for packed monomials, by pivot recursion."""
    monos = _minimalize_monomials(monos, ctx)
    if not monos:
        return [1]
    if ctx.base in monos:
        return [0]
    supports = [set(i for i, e in enumerate(ctx.unpack(m)) if e) for m in monos]
    if all(s1.isdisjoint(s2) for a, s1 in enumerate(supports) for s2 in supports[a + 1 :]):
        out = [1]  # pairwise coprime: complete intersection product, a factor 1 - t^deg m each
        for m in monos:
            out = _poly_mul_int(out, [1] + [0] * ((m >> ctx.shift) - 1) + [-1])
        return out
    counts = [0] * ctx.n
    for s in supports:
        for i in s:
            counts[i] += 1
    pivot = max(range(ctx.n), key=lambda i: (counts[i], -i))
    pv = ctx.var_monomials[pivot]
    plus = [m for m, s in zip(monos, supports) if pivot not in s] + [pv]
    colon = [m - pv + ctx.base if pivot in s else m for m, s in zip(monos, supports)]
    a = _numerator(plus, ctx)
    b = _numerator(colon, ctx)
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
    num = _numerator(gb.leading_monomials(), gb.context)
    if num == [0]:
        return HilbertData([0], -1, 0, 0)  # unit ideal
    dimension = gb.context.n
    while sum(num) == 0 and len(num) > 1:  # divide by (1-t) while the numerator vanishes at t=1
        num = list(accumulate(num[:-1]))
        dimension -= 1
        while len(num) > 1 and num[-1] == 0:
            num.pop()
    return HilbertData(num, dimension, sum(num), len(num) - 1)


def hilbert_data(ideal):
    """Hilbert data of R/I, cached on the ideal.

    Graded annihilators from ``ann_module`` arrive with theirs, read off
    their kernel; other ideals take the Hilbert series of their basis.
    """
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
    return _regular_chain(ideal, zs)[0]


def _regular_chain(ideal, zs):
    """The regular-sequence verdict and the ideal I + (zs).

    The chain starts from ``ideal`` itself and adjoins one form at a time, so
    every Groebner basis and Hilbert series it computes stays cached on the
    ideals returned and passed in.  When the test fails early, the remaining
    forms are adjoined at once without computing anything.
    """
    ctx = ideal.context
    for z in zs:
        if z.is_zero() or int(z.degree()) != 1:
            raise PreconditionError("regular sequence test expects linear forms")
    current = ideal
    data = hilbert_data(current)
    for k, z in enumerate(zs):
        current = Ideal(list(current.gens) + [z], ctx)
        ext_data = hilbert_data(current)
        if ext_data.numerator != data.numerator or ext_data.dimension != data.dimension - 1:
            return False, Ideal(list(current.gens) + list(zs[k + 1 :]), ctx)
        data = ext_data
    return True, current


def _border_walk(gb):
    """Standard monomials of an Artinian quotient and the normal forms of its border.

    The border is the set of non-standard products x*m, m standard; its
    normal forms are the multiplication matrices of Faugere, Gianni, Lazard
    and Mora (J. Symb. Comput. 16, 1993).  Degree by degree, in ascending
    order, a candidate u that leads an element g of the reduced monic basis
    has NF(u) = u - g; else, when u/y is in the border, NF(u) is the sum of
    c*NF(y*t) over the terms c*t of NF(u/y), each y*t a candidate below u;
    else u is standard.  Returns the ascending standard monomials, a dict from
    each border monomial u to int sums s_u, and an int E > 0 such that NF(u)
    is s_u / E.  A basis that ``ann_module`` read off a window carries this
    triple as its ``staircase``, not walked: the dict holds the non-standard
    monomials of the window's divisor set, and any other has normal form 0.
    """
    if gb.staircase is not None:
        return gb.staircase
    ctx = gb.context
    lead = dict(gb.reducers)
    if ctx.base in lead:
        return [], {}, 1
    supports = [[i for i, e in enumerate(ctx.unpack(m)) if e] for m in lead]
    if len({s[0] for s in supports if len(s) == 1}) < ctx.n:  # a pure power of each variable
        raise PreconditionError("quotient is not Artinian")
    base, xs, unit = ctx.base, ctx.var_monomials, ctx.unit
    std, border = [], {}
    layer, degree = [base], 0
    while layer:
        std.extend(layer)
        degree += 1
        _check_degree(degree)
        candidates, layer = sorted({m + x - base for m in layer for x in xs}), []
        for u in candidates:
            g = lead.get(u)
            if g is not None:
                border[u] = ctx.normalize({t: -c for t, c in g.terms.items() if t != u})
                continue
            for y in xs:  # u - y + base packs u / y; a y not dividing u sets a guard bit
                image = border.get(u - y + base)
                if image is not None:
                    break
            else:
                layer.append(u)
                continue
            nf = {}
            for t, c in image.items():
                w = t + y - base
                for v, e in border.get(w, {w: unit}).items():  # a standard w is its own normal form
                    s = nf.get(v)
                    nf[v] = c * e if s is None else s + c * e
            border[u] = ctx.normalize(nf)
    e = math.lcm(*[c.denominator for nf in border.values() for c in nf.values()])
    return std, {u: {t: c.numerator * (e // c.denominator) for t, c in nf.items()} for u, nf in border.items()}, e


def standard_monomials(gb):
    """Monomials outside the leading-term ideal, ascending, from ``_border_walk``.

    None for the unit ideal; an error when R/I is not Artinian.
    """
    return _border_walk(gb)[0]


def socle_dim(ideal):
    """Dimension of the socle (0 : m) / I of an Artinian quotient; 0 for the unit ideal.

    The kernel of joint multiplication by all the variables, read off
    ``_border_walk`` without a normal form and ranked transposed: the row of
    a standard monomial m holds E * NF(x_i*m), ints, at key (position of t,
    i) for each term t.  A corner is a standard m with no standard successor
    x_i*m.  The row of any other m holds E at the key (x_i*m, i) of its first
    one, and a row m' nonzero there has m' > m, as NF(x_i*m') has no term
    above x_i*m'.  That key is relabelled -1 - (position of m), below every
    other key, so ``rank_of`` pivots on it: these rows are independent,
    triangular there, and every socle element is led by a corner.  Only the corner rows
    and the rows they reach through relabelled keys, transitively, are
    built, and the socle dimension is their number less their rank (zero
    rows skipped).  The refusal counts the standard monomials, the
    multiplicity, as "multiplication columns" though they index the rows: a
    quotient whose cached Hilbert data put it above ``MAX_ANN_COLUMNS`` is
    refused before the walk.
    """
    gb = buchberger(ideal)
    ctx = ideal.context
    data = hilbert_data(ideal)
    if data.dimension == 0:
        refuse_oversized(data.multiplicity, "socle of the Artinian quotient", "multiplication")
    std, forms, e = _border_walk(gb)
    n, base, xs = ctx.n, ctx.base, ctx.var_monomials
    pos = {m: j for j, m in enumerate(std)}
    relabel, todo = {}, []
    for j, m in enumerate(std):
        for i, x in enumerate(xs):
            if (u := m + x - base) in pos:
                relabel[pos[u] * n + i] = -1 - j
                break
        else:
            todo.append(j)
    rows = dict.fromkeys(todo)  # the corners, then the rows they reach
    while todo:
        j = todo.pop()
        row = rows[j] = {}
        for i, x in enumerate(xs):
            u = std[j] + x - base
            for t, c in forms.get(u, {u: e} if u in pos else {}).items():
                key = pos[t] * n + i
                row[relabel.get(key, key)] = c
        for k in row:
            if k < 0 and -1 - k not in rows:
                rows[-1 - k] = None
                todo.append(-1 - k)
    return len(rows) - rank_of([row for row in rows.values() if row], ctx.one)
