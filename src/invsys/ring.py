"""Ring contexts and sparse polynomials for the ring/dual-module pair.

Two kinds of elements share one sparse representation: elements of the
polynomial (or power-series) ring R in the lowercase variables, and elements
of its graded dual, the divided-power module, written in the uppercase dual
variables with bracketed exponents (``X^[3]``).  A polynomial is a map from
packed monomials, one int per exponent vector (see ``RingContext``), to
nonzero coefficients: Fractions over Q, ints in [1, p) over Fp(p), never
field scalars.  ``RingContext.normalize`` and ``inverse`` keep that rule,
so each ring operation is one loop for both fields.  Exponent tuples appear
only at the boundary: the parser, the printer, the constructor,
``monomial``, ``coeff`` and ``shift_mul``.

A polynomial also has an integer form (ints, D), its terms as int sums over
one int D: over Q the numerators over the lcm D of the denominators, over
Fp(p) the terms themselves over 1.  Over Q it is computed on first use and
kept with the polynomial, whose terms never change after construction.
``contract`` and ``linear_combination`` multiply and add integer forms as
ints, and make one Fraction per output term, through ``RingContext``.

The dual side carries no internal product; R acts on it by contraction,
which sends ``z^M . Z^[L]`` to ``Z^[L-M]`` (zero when any component of L-M is
negative).  No binomial coefficients appear, so everything works verbatim
over a prime field as well as over the rationals.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

NEG_INF = float("-inf")  # degree of the zero polynomial (sentinel)


class ContextMismatchError(ValueError):
    """Operands belong to different sides, fields or ring contexts."""


class PreconditionError(ValueError):
    """A mathematical precondition of an operation is violated."""


# ---------------------------------------------------------------------------
# coefficient fields


class PrimeFieldElement:
    """An element of Z/pZ with field arithmetic via operator overloading."""

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise ContextMismatchError(f"mixed fields: Fp({self.p}) and Fp({other.p})")
            return other.val
        if isinstance(other, int):
            return other
        if isinstance(other, Fraction) and other.denominator == 1:
            return other.numerator
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.val + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.val - v, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.val * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.val * pow(v, -1, self.p), self.p)

    def __neg__(self):
        return PrimeFieldElement(-self.val, self.p)

    def __eq__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return self.val == v % self.p

    def __bool__(self):
        return self.val != 0

    def __hash__(self):
        return hash(self.val)  # like the int val, which compares equal

    def __repr__(self):
        return str(self.val)


# Miller-Rabin with the first thirteen primes as bases decides primality
# exactly below this bound, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 2017).  Twelve bases would not do:
# 318665857834031151167461 is a strong pseudoprime to the primes up to 37.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin test, exact for p below _MR_LIMIT."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# packed monomials (Monagan and Pearce, J. Symb. Comput. 46, 2011)
#
# Variable i owns the _BITS-wide field at bit i*_BITS and stores
# MAX_DEGREE - e_i there; the total degree sits above all the fields.  The
# last variable is the most significant field and a smaller exponent makes a
# larger field, so int order is degrevlex.  The top bit of each field is a
# guard.  With ``base`` the packed monomial 1, a product is a + b - base, and
# l - m + base packs L - M, with some guard bit set exactly when a component
# of L - M is negative.  Both need every exponent in 0..MAX_DEGREE, which
# holds while total degrees stay at most MAX_DEGREE.

_BITS = 16
MAX_DEGREE = (1 << (_BITS - 1)) - 1
_FIELD = (1 << _BITS) - 1


def _check_degree(degree):
    if degree > MAX_DEGREE:
        raise PreconditionError(f"total degree {degree} exceeds the limit {MAX_DEGREE} of packed monomials")


def _packed_monomials(n, low, high, variables=None):
    """Packed monomials of degree low..high in n variables, each once: factor indices never rise.

    Only the listed ``variables`` (positions, all n by default) occur as
    factors, and an index is a position in that list.  A monomial of degree
    d is the non-increasing sequence of its d factor indices, and each layer
    lists them in ascending lexicographic order, the order in which stepping
    up from degree 0 (appending any index up to the last one, ``top``)
    produces them.  Layer ``low`` > 0 starts at x_0^low and walks that order
    directly: the successor replaces the c trailing factors equal to the
    least index ``top`` by one factor top + 1 and c - 1 factors 0.  ``low``
    is at least 0.
    """
    _check_degree(high)
    shift = n * _BITS
    variables = range(n) if variables is None else variables
    steps = [(1 << shift) - (1 << (i * _BITS)) for i in variables]
    m = MAX_DEGREE * (((1 << shift) - 1) // _FIELD)
    if not steps:  # no variable: the monomial 1 alone
        return [m] if low == 0 else []
    k = len(steps)
    m += low * steps[0]
    top, c = (0, low) if low else (k - 1, 0)  # c factors equal the least index top
    layer = [(m, top)]
    while top < k - 1:
        m += steps[top + 1] - c * steps[top] + (c - 1) * steps[0]
        if c > 1:
            top, c = 0, c - 1
        else:
            top += 1
            c = MAX_DEGREE - (m >> (variables[top] * _BITS) & _FIELD)
        layer.append((m, top))
    out = []
    for d in range(low, high + 1):
        if d > low:
            layer = [(m + steps[i], i) for m, top in layer for i in range(top + 1)]
        out.extend(m for m, _ in layer)
    return out


def _staircase_step(monomials, n):
    """The products u * x_i of members u of a set of packed monomials whose every quotient by a variable is a member.

    A product is counted once per quotient in the set, and it passes when
    that count equals the number of variables dividing it: adding 1 to every
    field sets the guard bit of exactly the variables of exponent 0.  The
    products come in no particular order.
    """
    shift = n * _BITS
    ones = ((1 << shift) - 1) // _FIELD
    guard = (MAX_DEGREE + 1) * ones
    steps = [(1 << shift) - (1 << (i * _BITS)) for i in range(n)]  # u + steps[i] packs u * x_i
    hits = Counter(u + step for u in monomials for step in steps)
    return [m for m, c in hits.items() if c + ((m + ones) & guard).bit_count() == n]


# ---------------------------------------------------------------------------
# ring contexts


@dataclass(frozen=True)
class RingContext:
    """Shared naming/mode/field data for one ring R and its dual module.

    ``var_names[i]`` and ``dual_names[i]`` are dual to each other: contraction
    of variable i against the dual exponent e_i yields the unit.  ``mode`` is
    "graded" (polynomial ring, homogeneous computations) or "local"
    (power-series ring, degree-truncated computations).  ``char`` picks the
    field: 0 for Q, whose scalars are Fractions, or a prime p certified below
    ``_MR_LIMIT``, whose scalars are PrimeFieldElements.  ``scalar`` makes
    them; ``one``, ``zero`` and ``unit``, the term 1 (terms hold ints over
    Fp, see ``to_term``), are made once per context.  ``normalize`` (sums
    to terms) and ``inverse`` keep the term rule for the whole module.

    Monomials are packed ints (see above).  ``pack`` and ``unpack`` convert
    exponent tuples; ``shift`` is the bit position of the total degree,
    ``base`` the packed monomial 1, ``guard`` the mask of the guard bits, and
    ``var_monomials`` holds the packed variables.
    """

    var_names: tuple
    dual_names: tuple
    char: int = 0
    mode: str = "graded"

    def __post_init__(self):
        object.__setattr__(self, "var_names", tuple(self.var_names))
        object.__setattr__(self, "dual_names", tuple(self.dual_names))
        n = len(self.var_names)
        if n < 1 or len(self.dual_names) != n:
            raise ValueError("need n >= 1 variables and as many dual names")
        if len(set(self.var_names) | set(self.dual_names)) != 2 * n:
            raise ValueError("variable and dual names must be pairwise distinct")
        if self.mode not in ("graded", "local"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.char:
            if self.char >= _MR_LIMIT:
                raise ValueError(
                    f"{self.char} is too large: primality is certified only below {_MR_LIMIT}"
                )
            if not _is_prime(self.char):
                raise ValueError(f"{self.char} is not prime")
        shift = n * _BITS
        ones = ((1 << shift) - 1) // _FIELD  # 1 in every field
        base = MAX_DEGREE * ones
        for name, value in (
            ("zero", self.scalar(0)), ("one", self.scalar(1)), ("unit", 1 if self.char else self.scalar(1)),
            ("shift", shift), ("base", base),
            ("guard", (MAX_DEGREE + 1) * ones),
            ("var_monomials", tuple(base + (1 << shift) - (1 << (i * _BITS)) for i in range(n))),
        ):
            object.__setattr__(self, name, value)

    @property
    def n(self):
        return len(self.var_names)

    def scalar(self, num, den=1):
        """num/den as a field scalar: a Fraction over Q, a PrimeFieldElement over Fp."""
        p = self.char
        if p == 0:
            return Fraction(num, den)
        if den % p == 0:
            raise ZeroDivisionError("denominator vanishes in the prime field")
        return PrimeFieldElement(num * pow(den, -1, p), p)

    def to_term(self, c):
        """A field scalar or an int as a term coefficient: a Fraction over Q, an int in [0, p) over Fp(p)."""
        if not isinstance(c, PrimeFieldElement):
            c = self.scalar(*Fraction(c).as_integer_ratio())
        elif c.p != self.char:
            raise ContextMismatchError(f"mixed fields: a scalar of Fp({c.p}) in {self.decl()}")
        return c.val if self.char else c

    def normalize(self, sums):
        """The terms of a dict of accumulated sums: each reduced % p over Fp(p), zeros dropped."""
        p = self.char
        if p:
            return {m: r for m, s in sums.items() if (r := s % p)}
        return {m: s for m, s in sums.items() if s}

    def integer_form(self, terms):
        """(ints, D) with ints / D the ``terms``: over Q their numerators over the lcm D of their denominators, over Fp(p) (terms, 1)."""
        if self.char:
            return terms, 1
        d = math.lcm(*[c.denominator for c in terms.values()])
        return {m: c.numerator * (d // c.denominator) for m, c in terms.items()}, d

    def kept_form(self, g):
        """The integer form of the polynomial g: over Fp(p) (g.terms, 1); over Q computed on first use and kept in g."""
        if self.char:
            return g.terms, 1
        try:
            return g._form
        except AttributeError:
            g._form = form = self.integer_form(g.terms)
            return form

    def from_integer_form(self, sums, d):
        """The terms of the int sums over a positive int d, zeros dropped, and their integer form.

        Over Fp(p), where d is 1, the sums are reduced % p and are their own
        form.  Over Q the sums and d are divided by their gcd, which leaves
        the numerators over the lcm of the denominators, and each term is
        one Fraction.
        """
        if self.char:
            terms = self.normalize(sums)
            return terms, (terms, 1)
        ints = {m: s for m, s in sums.items() if s}
        g = math.gcd(d, *ints.values())
        if g != 1:
            d //= g
            ints = {m: s // g for m, s in ints.items()}
        return {m: Fraction(s, d) for m, s in ints.items()}, (ints, d)

    def inverse(self, c):
        """The exact inverse of a nonzero term coefficient: an int in [1, p) over Fp(p), a Fraction over Q."""
        return pow(c, -1, self.char) if self.char else self.unit / c  # unit is Fraction(1) over Q

    def pack(self, exps):
        """The packed monomial of an exponent vector; degrees above MAX_DEGREE are refused."""
        exps = tuple(exps)
        if len(exps) != self.n or min(exps) < 0:
            raise ValueError(f"{exps} is not an exponent vector of length {self.n}")
        _check_degree(sum(exps))
        return (sum(exps) << self.shift) + self.base - sum(e << (i * _BITS) for i, e in enumerate(exps))

    def unpack(self, m):
        """The exponent vector of a packed monomial."""
        return tuple(MAX_DEGREE - (m >> (i * _BITS) & _FIELD) for i in range(self.n))

    def divides(self, a, b):
        """Does the packed monomial a divide b?"""
        return not (b - a + self.base) & self.guard

    def lcm(self, a, b):
        """Least common multiple of packed monomials; its degree may exceed MAX_DEGREE."""
        fields = [min(a >> s & _FIELD, b >> s & _FIELD) for s in range(0, self.shift, _BITS)]
        degree = self.n * MAX_DEGREE - sum(fields)
        return (degree << self.shift) + sum(f << (i * _BITS) for i, f in enumerate(fields))

    def var_index(self, name):
        try:
            return self.var_names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def variable(self, i):
        return Polynomial._of(self, {self.var_monomials[i]: self.unit})

    def decl(self):
        """Canonical ring declaration string."""
        fld = "Q" if self.char == 0 else f"Fp({self.char})"
        return (
            f"ring {fld}[{','.join(self.var_names)}]"
            f" dual [{','.join(self.dual_names)}] mode {self.mode}"
        )


def check_side(side, operands, context=None):
    """The one operand check of every boundary: operands of class ``side`` in one ring context, which it returns.

    Terms carry neither field nor side.  The class is tested first ("mixed
    sides", also for an int), then the context, by identity first, against
    ``context`` or the first operand's ("mixed fields", "mixed ring contexts").
    A ``side`` of None takes the first operand's class, which must be
    ``Polynomial`` or ``DPPolynomial``.
    """
    for g in operands:
        if type(g) is not side:
            if side is None and type(g) in (Polynomial, DPPolynomial):
                side = type(g)
            else:
                name = "a polynomial" if side is None else side.__name__
                raise ContextMismatchError(f"mixed sides: {name} and {type(g).__name__}")
        other = g.context
        if context is None:
            context = other
        elif other is not context and other != context:
            kind = "mixed fields" if other.char != context.char else "mixed ring contexts"
            raise ContextMismatchError(f"{kind}: {context.decl()} and {other.decl()}")
    return context


def ring_context(variables, duals=None, char=0, mode="graded"):
    """Build a RingContext from name lists; duals default to the uppercased names."""
    if isinstance(variables, str):
        variables = [v.strip() for v in variables.split(",")]
    if duals is None:
        duals = [v.upper() for v in variables]
    elif isinstance(duals, str):
        duals = [v.strip() for v in duals.split(",")]
    return RingContext(tuple(variables), tuple(duals), char, mode)


# ---------------------------------------------------------------------------
# sparse polynomials


class _SparsePoly:
    """Shared machinery for both sides; terms map packed monomials to coefficients.

    A side prints with the context's names ``_names`` and exponent format
    ``_power``.  The slot ``_form`` keeps the integer form once it is known;
    equality and printing read only the terms.
    """

    __slots__ = ("context", "terms", "_form")

    def __init__(self, context, terms):
        """The element with ``terms``, a map from exponent tuples to field scalars or ints."""
        self.context = context
        self.terms = {context.pack(m): v for m, c in terms.items() if (v := context.to_term(c))}

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, context, terms):
        """The element whose packed terms are ``terms``, taken as is: nonzero coefficients (``to_term``)."""
        p = object.__new__(cls)
        p.context = context
        p.terms = terms
        return p

    @classmethod
    def _of_sums(cls, context, sums, d):
        """The element whose terms are the int sums over a positive int d (``RingContext.from_integer_form``), its form kept."""
        p = object.__new__(cls)
        p.context = context
        p.terms, p._form = context.from_integer_form(sums, d)
        return p

    @classmethod
    def zero(cls, context):
        return cls._of(context, {})

    @classmethod
    def constant(cls, context, value):
        return cls(context, {(0,) * context.n: value})

    @classmethod
    def monomial(cls, context, exps, coeff=None):
        return cls(context, {tuple(exps): context.unit if coeff is None else coeff})

    # -- basic queries -----------------------------------------------------

    def integer_form(self):
        """(ints, D) with ints / D the terms (``RingContext.kept_form``): kept over Q, the terms over 1 over Fp."""
        return self.context.kept_form(self)

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return NEG_INF
        return max(self.terms) >> self.context.shift

    def order(self):
        """Minimal total degree of a term; +inf for the zero polynomial."""
        if not self.terms:
            return float("inf")
        return min(self.terms) >> self.context.shift

    def is_homogeneous(self):
        shift = self.context.shift
        return len({m >> shift for m in self.terms}) <= 1

    def leading_monomial(self):
        if not self.terms:
            return None
        return max(self.terms)

    def leading_coeff(self):
        return self.context.scalar(self.terms[max(self.terms)] if self.terms else 0)

    def coeff(self, exps):
        return self.context.scalar(self.terms.get(self.context.pack(exps), 0))

    def truncate(self, bound):
        """Drop all terms of total degree > bound."""
        limit = (bound + 1) << self.context.shift
        return type(self)._of(self.context, {m: c for m, c in self.terms.items() if m < limit})

    # -- arithmetic (module operations, both sides) -------------------------

    def __add__(self, other):
        check_side(type(self), (other,), self.context)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            s = acc.get(m)
            acc[m] = c if s is None else s + c
        return type(self)._of(self.context, self.context.normalize(acc))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._times(-1)

    def scale(self, c):
        """c times self, for a field scalar or an int c."""
        return self._times(self.context.to_term(c))

    def monic(self):
        """self divided by its leading coefficient, with one inverse."""
        lc = self.terms[max(self.terms)] if self.terms else 1
        return self if lc == 1 else self._times(self.context.inverse(lc))

    def _times(self, k):
        """self times the term coefficient k."""
        return type(self)._of(self.context, self.context.normalize({m: k * c for m, c in self.terms.items()}))

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- printing: canonical (degrevlex descending) term order -----------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = getattr(self.context, self._names)
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            factors = [
                name if e == 1 else f"{name}{self._power.format(e)}"
                for name, e in zip(names, self.context.unpack(m))
                if e
            ]
            body = "*".join(factors)
            cs = str(c)
            sign, cs = ("-", cs[1:]) if cs.startswith("-") else ("+", cs)
            parts.append(sign + (cs if not body else body if cs == "1" else f"{cs}*{body}"))
        return "".join(parts).removeprefix("+")

    def __repr__(self):
        return str(self)


class Polynomial(_SparsePoly):
    """An element of the ring R (lowercase side); has an internal product."""

    __slots__ = ()
    _names, _power = "var_names", "^{}"

    def __mul__(self, other):
        check_side(Polynomial, (other,), self.context)
        _check_degree(self.degree() + other.degree())
        base, acc = self.context.base, {}
        for m1, c1 in self.terms.items():
            m1 -= base
            for m2, c2 in other.terms.items():
                m = m1 + m2
                s = acc.get(m)
                acc[m] = c1 * c2 if s is None else s + c1 * c2
        return Polynomial._of(self.context, self.context.normalize(acc))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = Polynomial.constant(self.context, 1)
        for _ in range(k):
            out = out * self
        return out


class DPPolynomial(_SparsePoly):
    """An element of the divided-power dual module (uppercase side).

    Purely an R-module: there is no internal product.  The degree of the zero
    element is the NEG_INF sentinel, never compared arithmetically with
    ordinary degrees by the library.
    """

    __slots__ = ()
    _names, _power = "dual_names", "^[{}]"


# ---------------------------------------------------------------------------
# the contraction action


def contract(h, F):
    """Contraction of F by h: sum a_M b_L Z^[L-M] over all term pairs.

    Bilinear in both arguments; terms where L-M has a negative component are
    dropped.  Composition agrees with the ring product: contracting by g*h
    equals contracting by h then by g.  The products are taken on the
    integer forms of h and F, as ints, and the result keeps its own.
    """
    check_side(Polynomial, (h,), check_side(DPPolynomial, (F,)))
    (ints, dh), (fints, df) = h.integer_form(), F.integer_form()
    base, guard, acc = F.context.base, F.context.guard, {}
    for m, a in ints.items():
        m -= base
        for l, b in fints.items():
            d = l - m
            if not d & guard:
                s = acc.get(d)
                acc[d] = a * b if s is None else s + a * b
    return DPPolynomial._of_sums(F.context, acc, dh * df)


def linear_combination(coeffs, vectors):
    """The sum of c * vectors[j] over the items (j, c) of ``coeffs``, term coefficients, on integer forms.

    ``coeffs`` is a non-empty dict whose keys index ``vectors``, elements of
    one side and ring context (``check_side`` refuses the rest).  With
    (w, D) the integer form of the coefficients and (v_j, D_j) that of
    vectors[j], the sum is sum_j w_j * (E / D_j) * v_j over D * E, E the
    lcm of the D_j: int products only, then one Fraction per output term
    over Q.
    """
    ctx = check_side(None, [vectors[j] for j in coeffs])
    first = vectors[next(iter(coeffs))]
    weights, d = ctx.integer_form(coeffs)
    forms = [(w, vectors[j].integer_form()) for j, w in weights.items()]
    e = math.lcm(*[dj for _, (_, dj) in forms])
    acc = {}
    for w, (ints, dj) in forms:
        w *= e // dj
        for m, a in ints.items():
            s = acc.get(m)
            acc[m] = w * a if s is None else s + w * a
    return type(first)._of_sums(ctx, acc, d * e)


def contract_monomial(m, F):
    """Contraction of F by the single packed monomial m (fast path)."""
    m -= F.context.base
    guard = F.context.guard
    acc = {}
    for l, b in F.terms.items():
        d = l - m
        if not d & guard:
            acc[d] = b
    return DPPolynomial._of(F.context, acc)


def pairing(f, F):
    """The exact pairing <f, F>: the constant term of contract(f, F).

    On monomials it is the Kronecker delta: <z^M, Z^[L]> = 1 iff M == L.
    """
    check_side(Polynomial, (f,), check_side(DPPolynomial, (F,)))
    return f.context.scalar(sum(a * F.terms[m] for m, a in f.terms.items() if m in F.terms))


def shift_mul(exps, F):
    """Exponent shift Z^[L] -> Z^[L+exps] on every term of F.

    This realizes products like ``Z1*H`` from the primitive construction: it
    is a pure index shift, not an internal divided-power product, and it is a
    section of contraction: contract(z^exps, shift_mul(exps, F)) == F.
    Repeated shifts commute and compose additively in the exponent.
    """
    ctx = F.context
    m = ctx.pack(exps)
    _check_degree(F.degree() + (m >> ctx.shift))
    m -= ctx.base
    return DPPolynomial._of(ctx, {l + m: b for l, b in F.terms.items()})
