"""Exact linear algebra over the coefficient field.

One echelon engine maintains a reduced row echelon form of sparse rows
(dicts mapping a key to a scalar); everything is exact, so there are no pivot
thresholds of any kind.  Keys are either int columns, leftmost pivot first,
which gives reduced echelon forms, kernels and affine solving, or monomials,
degrevlex-largest pivot first.

Coordinate vectors indexed by monomials are just polynomials, so subspaces
of a degree window are kept as lists of polynomials in reduced echelon form
with respect to the canonical (degrevlex descending) monomial order: monic
vectors, pairwise distinct leading monomials, mutually reduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ring import (
    DPPolynomial,
    Polynomial,
    drl_key,
    monomials_of_degree,
    monomials_up_to_degree,
)

# ---------------------------------------------------------------------------
# the echelon engine: sparse rows keyed by int columns or by monomials


class _Echelon:
    """Incrementally maintained RREF: pivots[key] is a monic row led by key.

    ``lead`` picks the pivot key among a row's keys: ``min`` for int columns
    (leftmost pivot), the degrevlex maximum for monomial keys.  Rows carry no
    zero entries.
    """

    def __init__(self, lead):
        self.lead = lead
        self.pivots = {}

    def reduce_row(self, row):
        """Remainder of a row after eliminating every pivot key (a new dict)."""
        row = dict(row)
        pivots, lead = self.pivots, self.lead
        while row:
            hit = [c for c in row if c in pivots]
            if not hit:
                break
            c = lead(hit)
            factor = row[c]
            for pc, pv in pivots[c].items():
                s = row.get(pc)
                s = -factor * pv if s is None else s - factor * pv
                if s:
                    row[pc] = s
                else:
                    row.pop(pc, None)
        return row

    def insert_row(self, row):
        """Reduce and insert; returns the new pivot key or None."""
        row = self.reduce_row(row)
        if not row:
            return None
        key = self.lead(row)
        lc = row[key]
        row = {c: v / lc for c, v in row.items()}
        for other in self.pivots.values():
            f = other.get(key)
            if f is not None:
                for c, v in row.items():
                    s = other.get(c)
                    s = -f * v if s is None else s - f * v
                    if s:
                        other[c] = s
                    else:
                        other.pop(c, None)
        self.pivots[key] = row
        return key


def rref_rows(rows):
    """Reduced row echelon form of sparse rows; returns (rows, pivot columns)."""
    ech = _Echelon(min)
    for row in rows:
        ech.insert_row({c: v for c, v in row.items() if v})
    pivots = sorted(ech.pivots)
    return [ech.pivots[c] for c in pivots], pivots


def rank_of(rows):
    return len(rref_rows(rows)[1])


def _free_column_kernel(reduced, pivots, ncols, one):
    """Null-space basis of an RREF system, one vector per free column below ncols."""
    pivot_set = set(pivots)
    kernel = {c: {c: one} for c in range(ncols) if c not in pivot_set}
    for lead, prow in zip(pivots, reduced):
        for c, v in prow.items():
            if c in kernel:
                kernel[c][lead] = -v
    return list(kernel.values())


def kernel_vectors(rows, ncols, one):
    """Basis of the null space of the sparse row system; ``one`` is the field's unit."""
    reduced, pivots = rref_rows(rows)
    return _free_column_kernel(reduced, pivots, ncols, one)


def solve_affine(rows, rhs, ncols, one):
    """Solve the sparse linear system rows * x = rhs.

    Returns (particular solution, kernel basis) with all free coordinates of
    the particular solution set to zero, or None when inconsistent.  Vectors
    are sparse dicts over 0..ncols-1; ``one`` is the field's unit.
    """
    aug = []
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[ncols] = b
        aug.append(r)
    reduced, pivots = rref_rows(aug)
    if ncols in pivots:
        return None
    particular = {}
    for lead, prow in zip(pivots, reduced):
        b = prow.get(ncols)
        if b:
            particular[lead] = b
    return particular, _free_column_kernel(reduced, pivots, ncols, one)


# ---------------------------------------------------------------------------
# monomial-indexed columns


@dataclass(frozen=True)
class MonomialIndex:
    """A bijection between a sorted monomial list and column positions.

    Monomials are stored degrevlex-descending so that column 0 is the largest
    monomial and leftmost pivots correspond to canonical leading monomials.
    """

    monomials: tuple
    position: dict = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(
            self, "monomials", tuple(sorted(self.monomials, key=drl_key, reverse=True))
        )
        object.__setattr__(self, "position", {m: i for i, m in enumerate(self.monomials)})

    @classmethod
    def of_degree(cls, n, degree):
        return cls(tuple(monomials_of_degree(n, degree)))

    @classmethod
    def window(cls, n, bound):
        return cls(tuple(monomials_up_to_degree(n, bound)))

    def __len__(self):
        return len(self.monomials)

    def poly(self, vec, context, side):
        cls = Polynomial if side == "r" else DPPolynomial
        return cls(context, {self.monomials[i]: c for i, c in vec.items() if c})


# ---------------------------------------------------------------------------
# subspaces of polynomial coefficient spans


def _drl_max(monomials):
    return max(monomials, key=drl_key)


class SpanBuilder(_Echelon):
    """Incremental reduced basis of a span of polynomials.

    Keeps one monic vector per leading monomial, fully inter-reduced, so the
    resulting basis is canonical for the subspace: two spans are equal iff
    their bases coincide vector by vector.
    """

    def __init__(self):
        super().__init__(_drl_max)

    def reduce(self, poly):
        """Remainder of poly after eliminating every basis leading monomial."""
        return type(poly)(poly.context, self.reduce_row(poly.terms))

    def insert(self, poly):
        """Add a vector to the span; returns True if it enlarged the span."""
        if self.insert_row(poly.terms) is None:
            return False
        self._sample = poly
        return True

    def contains(self, poly):
        return self.reduce(poly).is_zero()

    def dim(self):
        return len(self.pivots)

    def basis(self):
        if not self.pivots:
            return []
        cls = type(self._sample)
        ctx = self._sample.context
        out = []
        for lm in sorted(self.pivots, key=drl_key, reverse=True):
            out.append(cls(ctx, dict(self.pivots[lm])))
        return out


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
    if poly.is_zero():
        return True
    return basis.builder().reduce(poly).is_zero()


def span_intersect(a, b):
    """Reduced basis of the intersection of two spans on the same side.

    Solved via the kernel of the stacked system: a combination of a-vectors
    equals a combination of b-vectors iff the joint coefficient vector lies in
    the kernel of the column matrix [A | -B].
    """
    if not a.vectors or not b.vectors:
        return SubspaceBasis([])
    if type(a.vectors[0]) is not type(b.vectors[0]):
        raise ValueError("cannot intersect spans from different sides")
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
    one = vectors[0].context.scalar(1)
    out = []
    for combo in kernel_vectors(list(rows.values()), len(vectors), one):
        acc = None
        for j, c in combo.items():
            if j < head:
                piece = vectors[j].scale(c)
                acc = piece if acc is None else acc + piece
        if acc is not None and not acc.is_zero():
            out.append(acc)
    return out
