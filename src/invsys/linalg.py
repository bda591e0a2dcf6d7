"""Exact linear algebra over the coefficient field.

One echelon engine maintains a reduced row echelon form of sparse rows
(dicts mapping a key to a scalar); everything is exact, so there are no pivot
thresholds of any kind.  Keys are either int columns, leftmost pivot first
for reduced echelon forms and affine solving, rightmost first for kernels,
or monomials, degrevlex-largest pivot first.  The columns of a contraction
system are the monomials of a degree range (``monomial_columns``, which
sizes them); kernels and affine solutions come back keyed by them.

Rows, kernel vectors and solutions hold what polynomial terms hold: ints in
[1, p) over Fp(p), Fractions over Q, never zero.  Over Q the engine holds
primitive int rows (as ``rref_rows`` returns them), eliminates fraction-free
(Bareiss, Math. Comp. 22, 1968) and makes Fractions only at its boundary; a
``SpanBuilder`` takes a Q polynomial's integer form as its row.  A batch
elimination (``rref_rows``) peels its unit rows first (``peel_units``), so
only the rows left with two keys or more are eliminated.  ``one``
(``RingContext.one``) names the field of an elimination; a ``SpanBuilder``
takes the ring context and side of the first polynomial.

Coordinate vectors indexed by monomials are just polynomials, so subspaces
of a degree window are kept as lists of polynomials in reduced echelon form
with respect to the canonical (degrevlex descending) monomial order: monic
vectors, pairwise distinct leading monomials, mutually reduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ring import PreconditionError, _check_degree, _packed_monomials, check_side, linear_combination

# ---------------------------------------------------------------------------
# the echelon engine: sparse rows keyed by int columns or by monomials


class _Echelon:
    """Incrementally maintained RREF: pivots[key] is the row led by key.

    ``lead`` picks the pivot key among a row's keys: ``min`` or ``max`` for
    int columns, ``max`` (the degrevlex largest) for packed monomials.  Rows
    carry no zero entries.  ``holders`` maps each non-pivot column to the
    set of pivot keys whose row is nonzero there, so back substitution visits
    only those rows; a pivot column needs no entry, since RREF leaves it in
    its own row only.

    Most rows of contraction systems are monomials, so a remainder with one
    key is a unit pivot: it is stored as ``{key: 1}`` with no lead search,
    inverse or holders entry, and its back substitution deletes ``key`` from
    the rows holding it (over Q such a row is then divided by its content).
    ``rref_rows`` peels the rows that start with one key, or are left with
    one once such keys are stripped, before the engine sees any row.

    ``modulus`` is the field's characteristic (None in a ``SpanBuilder``
    that has seen no polynomial yet).  Over Fp(p) the rows hold ints in
    [1, p), reduced with ``% p`` and normalised by ``pow(lc, -1, p)``.  Over
    Q (0) a row is a primitive int row with a positive pivot entry L, which
    stands for the monic row row / L; rows of Fractions are cleared of
    denominators on the way in (a ``SpanBuilder`` row is an integer form,
    whose denominators are all 1), reduced by cross-multiplying, and made
    Fractions only on the way out (``monic_row``, kernels and solutions;
    ``SpanBuilder.reduce`` through the ring).
    """

    def __init__(self, lead, modulus):
        self.lead = lead
        self.modulus = modulus
        self.pivots = {}
        self.holders = {}

    def reduce_row(self, row):
        """Remainder of a row after eliminating every pivot key (a new dict).

        Over Q it comes as the engine holds rows, a positive int multiple of
        the remainder (``_reduce_integral``).  One pass suffices: each pivot
        row vanishes at every other pivot key, so subtracting row[c] times
        pivot row c for each pivot key c of the input clears exactly those
        keys and creates no new ones.
        """
        p = self.modulus
        if not p:
            return self._reduce_integral(row)[0]
        out = dict(row)
        pivots = self.pivots
        for c, factor in row.items():
            prow = pivots.get(c)
            if prow is None:
                continue
            for pc, pv in prow.items():
                s = (out.get(pc, 0) - factor * pv) % p
                if s:
                    out[pc] = s
                else:
                    del out[pc]  # factor * pv is a unit, so s is 0 only where pc was
        return out

    def _reduce_integral(self, row):
        """Over Q: (r, d), r an int row and r / d the remainder of a rational row.

        Cleared of denominators, the row is scaled by the least m that makes
        each q_c = f_c * m / L_c integral (f_c its entry and L_c the pivot
        entry at pivot key c); then q_c times pivot row c is subtracted.
        """
        d = math.lcm(*[v.denominator for v in row.values()])
        out = {c: v.numerator * (d // v.denominator) for c, v in row.items()}
        pivots = self.pivots
        hits = [(c, f, prow) for c, f in out.items() if (prow := pivots.get(c))]
        m = math.lcm(*[lc // math.gcd(f, lc) for c, f, prow in hits if (lc := prow[c]) != 1])
        if m != 1:
            for c in out:
                out[c] *= m
        for c, f, prow in hits:
            q = f * m // prow[c]
            for pc, pv in prow.items():
                s = out.get(pc, 0) - q * pv
                if s:
                    out[pc] = s
                else:
                    del out[pc]  # q * pv is nonzero, so s is 0 only where pc was
        return out, d * m

    def insert_row(self, row):
        """Reduce and insert; returns the new pivot key or None."""
        row = self.reduce_row(row)
        if not row:
            return None
        p, pivots, holders = self.modulus, self.pivots, self.holders
        if len(row) == 1:
            # a unit pivot: back substitution deletes its key, over Q followed by the content division
            (key,) = row
            for pk in holders.pop(key, ()):
                other = pivots[pk]
                del other[key]
                if not p and other[pk] != 1 and (g := math.gcd(*other.values())) != 1:
                    for c in other:
                        other[c] //= g
            pivots[key] = {key: 1}
            return key
        key = self.lead(row)
        lc = row.pop(key)
        if p:
            inverse = pow(lc, -1, p)
            row = {c: v * inverse % p for c, v in row.items()}
        else:
            g = math.gcd(lc, *row.values()) * (1 if lc > 0 else -1)
            if g != 1:
                lc //= g
                row = {c: v // g for c, v in row.items()}
        for c in row:
            holders.setdefault(c, set()).add(key)
        # every set touched below also holds key, so none becomes empty
        for pk in holders.pop(key, ()):
            other = pivots[pk]
            f = other.pop(key)
            if p:
                for c, v in row.items():
                    s = other.get(c)
                    if s is None:
                        other[c] = -f * v % p
                        holders[c].add(pk)
                        continue
                    s = (s - f * v) % p
                    if s:
                        other[c] = s
                    else:
                        del other[c]
                        holders[c].discard(pk)
                continue
            # other <- (lc/g) * other - (f/g) * row, then divided by its content
            g = math.gcd(f, lc)
            a, f = lc // g, f // g
            if a != 1:
                for c in other:
                    other[c] *= a
            for c, v in row.items():
                s = other.get(c)
                if s is None:
                    other[c] = -f * v
                    holders[c].add(pk)
                    continue
                s -= f * v
                if s:
                    other[c] = s
                else:
                    del other[c]
                    holders[c].discard(pk)
            if other[pk] != 1 and (g := math.gcd(*other.values())) != 1:  # the content divides other[pk]
                for c in other:
                    other[c] //= g
        row[key] = 1 if p else lc
        pivots[key] = row
        return key

    def monic_row(self, key):
        """Pivot row ``key`` divided by its pivot entry: a new dict of field scalars, Fractions over Q."""
        row = self.pivots[key]
        return dict(row) if self.modulus else {c: Fraction(v, row[key]) for c, v in row.items()}

    def copy(self):
        """An independent copy, to extend without changing this one."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.pivots = {key: dict(row) for key, row in self.pivots.items()}
        new.holders = {c: set(keys) for c, keys in self.holders.items()}
        return new


def peel_units(rows):
    """The unit rows of sparse rows, peeled to a fixpoint: (units, rest).

    A row with one key makes that key a unit: the RREF holds the unit vector
    there.  Every unit is stripped from the other rows, which may leave new
    one-key rows, until none is left (the singleton step of structured
    Gaussian elimination, LaMacchia and Odlyzko, CRYPTO '90).  ``rest``
    lists the remaining rows of two keys or more, none of them a unit, in
    their order; a stripped row is a new dict and no input row is changed.
    The RREF of the rows is the unit rows plus the RREF of ``rest``.
    """
    fresh, rest = set(), []
    for row in rows:
        if len(row) > 1:
            rest.append(row)
        else:
            fresh.update(row)
    units = set()
    while fresh:
        units |= fresh
        stripped, fresh = fresh, set()
        kept = []
        for row in rest:
            if not stripped.isdisjoint(row):
                row = {c: v for c, v in row.items() if c not in stripped}
                if len(row) < 2:
                    fresh.update(row)
                    continue
            kept.append(row)
        rest = kept
    return units, rest


def rref_rows(rows, one, lead=min):
    """Reduced row echelon form of sparse rows over the field of ``one``: Fp(one.p), or Q.

    Returns (rows, pivot columns), the rows as ``_Echelon`` holds them.  The
    unit rows are peeled first (``peel_units``) and become pivots ``{key: 1}``
    with no elimination; only the rest is inserted.  The RREF is unique, so
    rows and pivots are those of inserting every row.
    """
    units, rows = peel_units(rows)
    ech = _Echelon(lead, getattr(one, "p", 0))
    ech.pivots = {key: {key: 1} for key in units}
    for row in rows:
        ech.insert_row(row)
    pivots = sorted(ech.pivots)
    return [ech.pivots[c] for c in pivots], pivots


def rank_of(rows, one):
    return len(rref_rows(rows, one)[1])


def _free_column_kernel(reduced, pivots, columns, one):
    """Null-space basis of the engine's RREF rows, one vector per free column, keyed by ``columns``."""
    p, pivot_set = getattr(one, "p", 0), set(pivots)
    kernel = {c: {columns[c]: 1 if p else one} for c in range(len(columns)) if c not in pivot_set}
    for lead, prow in zip(pivots, reduced):
        for c, v in prow.items():
            if c in kernel:
                kernel[c][columns[lead]] = p - v if p else Fraction(-v, prow[lead])
    return list(kernel.values())


def kernel_vectors(rows, columns, one):
    """Null-space basis in reduced echelon form with leftmost pivots.

    Rows are keyed by column position 0..len(columns)-1, vectors by the
    column labels in ``columns``.  Rightmost pivots make the vector of free
    column c, 1 at c, nonzero elsewhere only at pivot columns right of c.
    ``one`` names the field.
    """
    reduced, pivots = rref_rows(rows, one, lead=max)
    return _free_column_kernel(reduced, pivots, columns, one)


def solve_affine(rows, rhs, columns, one):
    """Solve the sparse linear system rows * x = rhs.

    Returns (particular solution, kernel basis) with all free coordinates of
    the particular solution set to zero, or None when inconsistent.  Rows are
    keyed by column position 0..len(columns)-1, the returned vectors by the
    column labels in ``columns``; ``one`` names the field.
    """
    ncols = len(columns)
    aug = []
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[ncols] = b
        aug.append(r)
    reduced, pivots = rref_rows(aug, one)
    if ncols in pivots:
        return None
    p, particular = getattr(one, "p", 0), {}
    for lead, prow in zip(pivots, reduced):
        b = prow.get(ncols)
        if b:
            particular[columns[lead]] = b if p else Fraction(b, prow[lead])
    return particular, _free_column_kernel(reduced, pivots, columns, one)


# ---------------------------------------------------------------------------
# monomial columns and their size limit

# Largest number of columns any system here accepts: the monomials of a
# degree range that ``refuse_column_range`` counts before ``monomial_columns``
# builds them or ``annihilator_window`` keeps the divisors among them
# (C(n + bound, n) up to a bound, fewer for one degree), the window of
# ``ideal_window_span``, all the lifts of a
# ``family_from_ideal`` box, the divisors of ``module_span``'s generator
# terms and the standard monomials (the multiplicity) of ``socle_dim``,
# called "multiplication columns" in its refusal though they index its rows.
# Tests and benchmarks need at most 3003 columns (2569 for a family box) and
# 9100 divisors; ``ann`` of X^[250]*Y^[250] (126253 columns) took 4.6 s on one
# core of a shared 2-core Xeon VM, and the cost grows faster than linearly.
MAX_ANN_COLUMNS = 100_000


def refuse_oversized(columns, what, kind="contraction"):
    if columns > MAX_ANN_COLUMNS:
        raise PreconditionError(
            f"{what} needs {columns} {kind} columns, more than the limit {MAX_ANN_COLUMNS}"
        )


def refuse_negative_bound(bound, what):
    if bound < 0:
        raise PreconditionError(f"{what} degree bound must be at least 0, got {bound}")


def column_count(n, low, high):
    """Number of monomials of degree low..high in n variables."""
    return math.comb(n + high, n) - math.comb(n + low - 1, n)


def refuse_column_range(n, low, high, what, scope="up to"):
    """Refuse a system over the monomials of degree low..high in n variables.

    In this order: a negative ``high``, more than ``MAX_ANN_COLUMNS``
    monomials, a degree above the packing limit.  The refusal names
    ``what`` and, for the size, "``what`` ``scope`` degree ``high``".
    """
    refuse_negative_bound(high, what)
    refuse_oversized(column_count(n, low, high), f"{what} {scope} degree {high}")
    _check_degree(high)


def monomial_columns(n, low, high, what, scope="up to", variables=None):
    """The packed monomials of degree low..high in n variables, degrevlex descending.

    Column 0 is the largest monomial, so leftmost pivots are canonical
    leading monomials.  ``refuse_column_range`` runs before any is built and
    counts all of them, also when only the monomials in the listed
    ``variables`` (positions) are built.
    """
    refuse_column_range(n, low, high, what, scope)
    return sorted(_packed_monomials(n, low, high, variables), reverse=True)


# ---------------------------------------------------------------------------
# subspaces of polynomial coefficient spans


class SpanBuilder(_Echelon):
    """Incremental reduced basis of a span of polynomials.

    Keeps one monic vector per leading monomial, fully inter-reduced, so the
    resulting basis is canonical for the subspace: two spans are equal iff
    their bases coincide vector by vector.  The first polynomial it sees
    fixes its ring context and side; a polynomial from another context or
    the other side is refused.  Over Q a polynomial's row is its integer
    form (``integer_form``), an int row, and a remainder is made through the
    ring (``_of_sums``).
    """

    def __init__(self):
        super().__init__(max, None)
        self.context = self._side = None

    def _adopt(self, poly):
        """poly's row, its terms over Fp(p) and the ints of its integer form over Q, refused (``check_side``)
        unless poly has the side and context the first one fixed."""
        if type(poly) is not self._side or poly.context is not self.context:
            if self._side is None:
                self.context = check_side(None, (poly,))
                self.modulus, self._side = self.context.char, type(poly)
            check_side(self._side, (poly,), self.context)
        return poly.terms if self.modulus else poly.integer_form()[0]

    def reduce(self, poly):
        """Remainder of poly after eliminating every basis leading monomial."""
        row = self._adopt(poly)
        if self.modulus:
            return type(poly)._of(poly.context, self.reduce_row(row))
        out, m = self._reduce_integral(row)
        return type(poly)._of_sums(poly.context, out, poly.integer_form()[1] * m)

    def insert(self, poly):
        """Add a vector to the span; returns True if it enlarged the span."""
        return self.insert_row(self._adopt(poly)) is not None

    def contains(self, poly):
        return not self.reduce_row(self._adopt(poly))

    def dim(self):
        return len(self.pivots)

    def basis(self):
        return [self._side._of(self.context, self.monic_row(lm)) for lm in sorted(self.pivots, reverse=True)]


@dataclass
class SubspaceBasis:
    """A reduced echelon basis of a finite-dimensional coefficient subspace."""

    vectors: list

    @property
    def dim(self):
        return len(self.vectors)

    def builder(self):
        b = SpanBuilder()
        for v in self.vectors:
            b.insert(v)
        return b

    def contains(self, poly):
        return membership(poly, self)

    def __iter__(self):
        return iter(self.vectors)


def span_reduce(polys):
    """Canonical SubspaceBasis spanned by the given polynomials."""
    b = SpanBuilder()
    for p in polys:
        b.insert(p)
    return SubspaceBasis(b.basis())


def membership(poly, basis):
    """Exact test: does poly lie in the span of the basis?"""
    return poly.is_zero() or basis.builder().contains(poly)


def span_intersect(a, b):
    """Reduced basis of the intersection of two spans on the same side and in the same context.

    Solved via the kernel of the stacked system: a combination of a-vectors
    equals a combination of b-vectors iff the joint coefficient vector lies in
    the kernel of the column matrix [A | -B].
    """
    if not a.vectors or not b.vectors:
        return SubspaceBasis([])
    check_side(None, [*a.vectors, *b.vectors])
    cols = list(a.vectors) + [-w for w in b.vectors]
    meet = vanishing_combinations(cols, lambda m: True, len(a.vectors))
    return span_reduce(meet)


def vanishing_combinations(vectors, selected, head):
    """Combinations of vectors[:head] from the relations among all the vectors.

    A relation is a coefficient vector c with sum_j c_j vectors[j] zero on
    every monomial m for which ``selected(m)`` holds; the result lists
    sum_{j < head} c_j vectors[j] over a kernel basis of relations, zero
    combinations dropped.  ``vectors`` must be non-empty.
    """
    rows = {}
    for j, v in enumerate(vectors):
        for m, c in v.terms.items():
            if selected(m):
                rows.setdefault(m, {})[j] = c
    out = []
    for combo in kernel_vectors(list(rows.values()), range(len(vectors)), vectors[0].context.one):
        combo = {j: c for j, c in combo.items() if j < head}
        if combo and (acc := linear_combination(combo, vectors)).terms:
            out.append(acc)
    return out
