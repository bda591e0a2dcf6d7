"""Ring contexts and sparse polynomials for the ring/dual-module pair.

Two kinds of elements share one sparse representation: elements of the
polynomial (or power-series) ring R in the lowercase variables, and elements
of its graded dual, the divided-power module, written in the uppercase dual
variables with bracketed exponents (``X^[3]``).  A polynomial is a map from
packed monomials, one int per exponent vector (see ``RingContext``), to
nonzero field scalars.  Exponent tuples appear only at the boundary: the
parser, the printer, the constructor, ``monomial``, ``coeff``, ``shift_mul``
and ``monomials_of_degree``.

The dual side carries no internal product; R acts on it by contraction,
which sends ``z^M . Z^[L]`` to ``Z^[L-M]`` (zero when any component of L-M is
negative).  No binomial coefficients appear, so everything works verbatim
over a prime field as well as over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

NEG_INF = float("-inf")  # degree of the zero polynomial (sentinel)


class ContextMismatchError(ValueError):
    """Operands belong to different ring contexts."""


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
                raise ValueError("mixed prime fields")
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


def _packed_monomials(n, low, high):
    """Packed monomials of degree low..high in n variables, each once: factor indices never rise."""
    _check_degree(high)
    shift = n * _BITS
    steps = [(1 << shift) - (1 << (i * _BITS)) for i in range(n)]
    layer = [(MAX_DEGREE * (((1 << shift) - 1) // _FIELD), n - 1)]
    out = []
    for d in range(high + 1):
        if d:
            layer = [(m + steps[i], i) for m, top in layer for i in range(top + 1)]
        if d >= low:
            out.extend(m for m, _ in layer)
    return out


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
    them; ``one`` and ``zero`` are made once per context.

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
            ("zero", self.scalar(0)), ("one", self.scalar(1)), ("shift", shift), ("base", base),
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

    @property
    def zero_exp(self):
        return (0,) * self.n

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
        return Polynomial._of(self, {self.var_monomials[i]: self.one})

    def decl(self):
        """Canonical ring declaration string."""
        fld = "Q" if self.char == 0 else f"Fp({self.char})"
        return (
            f"ring {fld}[{','.join(self.var_names)}]"
            f" dual [{','.join(self.dual_names)}] mode {self.mode}"
        )


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
# exponent vectors


def monomials_of_degree(n, d):
    """All exponent vectors of total degree d in n variables."""
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(n - 1, d - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# sparse polynomials


class _SparsePoly:
    """Shared machinery for both sides; terms map packed monomials to scalars."""

    __slots__ = ("context", "terms")

    def __init__(self, context, terms):
        """The element with ``terms``, a map from exponent tuples to scalars."""
        self.context = context
        self.terms = {context.pack(m): c for m, c in terms.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, context, terms):
        """The element whose packed terms are ``terms``, taken as is: no zero scalars."""
        p = object.__new__(cls)
        p.context = context
        p.terms = terms
        return p

    @classmethod
    def zero(cls, context):
        return cls._of(context, {})

    @classmethod
    def constant(cls, context, value):
        c = value if not isinstance(value, int) else context.scalar(value)
        return cls._of(context, {context.base: c} if c else {})

    @classmethod
    def monomial(cls, context, exps, coeff=None):
        c = context.one if coeff is None else coeff
        return cls(context, {tuple(exps): context.scalar(c) if isinstance(c, int) else c})

    # -- basic queries -----------------------------------------------------

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
        lm = self.leading_monomial()
        return self.context.zero if lm is None else self.terms[lm]

    def coeff(self, exps):
        return self.terms.get(self.context.pack(exps), self.context.zero)

    def sorted_terms(self):
        """Terms in canonical (degrevlex descending) order."""
        return [(m, self.terms[m]) for m in sorted(self.terms, reverse=True)]

    def truncate(self, bound):
        """Drop all terms of total degree > bound."""
        limit = (bound + 1) << self.context.shift
        return type(self)._of(self.context, {m: c for m, c in self.terms.items() if m < limit})

    # -- arithmetic (module operations, both sides) -------------------------

    def _check(self, other):
        if self.context is not other.context and self.context != other.context:
            raise ContextMismatchError("operands live in different ring contexts")
        if type(self) is not type(other):
            raise ContextMismatchError("cannot mix ring and dual-module elements")

    def __add__(self, other):
        self._check(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            s = acc.get(m)
            s = c if s is None else s + c
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
        return type(self)._of(self.context, acc)

    def __sub__(self, other):
        self._check(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            s = acc.get(m)
            s = -c if s is None else s - c
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
        return type(self)._of(self.context, acc)

    def __neg__(self):
        return type(self)._of(self.context, {m: -c for m, c in self.terms.items()})

    def scale(self, c):
        if isinstance(c, int):
            c = self.context.scalar(c)
        if not c:
            return type(self)._of(self.context, {})
        return type(self)._of(self.context, {m: c * v for m, v in self.terms.items()})

    def monic(self):
        lc = self.leading_coeff()
        if not lc or lc == self.context.one:
            return self
        return type(self)._of(self.context, {m: c / lc for m, c in self.terms.items()})

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- printing ------------------------------------------------------------

    def _names(self):
        raise NotImplementedError

    def _exp_str(self, e):
        raise NotImplementedError

    def __str__(self):
        if not self.terms:
            return "0"
        names = self._names()
        parts = []
        for m, c in self.sorted_terms():
            factors = [
                name if e == 1 else f"{name}{self._exp_str(e)}"
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

    def _names(self):
        return self.context.var_names

    def _exp_str(self, e):
        return f"^{e}"

    def __mul__(self, other):
        if isinstance(other, DPPolynomial):
            raise ContextMismatchError(
                "no internal product on the dual side; use contract() or shift_mul()"
            )
        self._check(other)
        _check_degree(self.degree() + other.degree())
        base = self.context.base
        acc = {}
        for m1, c1 in self.terms.items():
            m1 -= base
            for m2, c2 in other.terms.items():
                m = m1 + m2
                s = acc.get(m)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)
        return Polynomial._of(self.context, acc)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = Polynomial.constant(self.context, self.context.one)
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

    def _names(self):
        return self.context.dual_names

    def _exp_str(self, e):
        return f"^[{e}]"


# ---------------------------------------------------------------------------
# the contraction action


def contract(h, F):
    """Contraction of F by h: sum a_M b_L Z^[L-M] over all term pairs.

    Bilinear in both arguments; terms where L-M has a negative component are
    dropped.  Composition agrees with the ring product: contracting by g*h
    equals contracting by h then by g.
    """
    if not isinstance(h, Polynomial) or not isinstance(F, DPPolynomial):
        raise ContextMismatchError("contract() takes a ring element and a dual element")
    if h.context != F.context:
        raise ContextMismatchError("operands live in different ring contexts")
    base, guard = F.context.base, F.context.guard
    acc = {}
    for m, a in h.terms.items():
        m -= base
        for l, b in F.terms.items():
            d = l - m
            if d & guard:
                continue
            s = acc.get(d)
            s = a * b if s is None else s + a * b
            if s:
                acc[d] = s
            else:
                acc.pop(d, None)
    return DPPolynomial._of(F.context, acc)


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
    if not isinstance(f, Polynomial) or not isinstance(F, DPPolynomial):
        raise ContextMismatchError("pairing() takes a ring element and a dual element")
    if f.context != F.context:
        raise ContextMismatchError("operands live in different ring contexts")
    s = f.context.zero
    for m, a in f.terms.items():
        b = F.terms.get(m)
        if b is not None:
            s = s + a * b
    return s


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
