"""Ring contexts and sparse polynomials for the ring/dual-module pair.

Two kinds of elements share one sparse representation: elements of the
polynomial (or power-series) ring R in the lowercase variables, and elements
of its graded dual, the divided-power module, written in the uppercase dual
variables with bracketed exponents (``X^[3]``).  A polynomial is a map from
exponent vectors (plain int tuples) to nonzero field scalars.

The dual side carries no internal product; R acts on it by contraction,
which sends ``z^M . Z^[L]`` to ``Z^[L-M]`` (zero when any component of L-M is
negative).  No binomial coefficients appear, so everything works verbatim
over a prime field as well as over the rationals.
"""

from __future__ import annotations

import itertools
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

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(v - self.val, self.p)

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

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(v * pow(self.val, -1, self.p), self.p)

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
        return hash((self.val, self.p))

    def __repr__(self):
        return str(self.val)


class Rationals:
    """Exact rational coefficients (the default field)."""

    char = 0

    def __call__(self, num, den=1):
        return Fraction(num, den)

    def __repr__(self):
        return "Q"


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


class PrimeField:
    """The field with p elements; p must be a prime below _MR_LIMIT."""

    def __init__(self, p):
        if p >= _MR_LIMIT:
            raise ValueError(f"{p} is too large: primality is certified only below {_MR_LIMIT}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.char = p

    def __call__(self, num, den=1):
        if den % self.char == 0:
            raise ZeroDivisionError("denominator vanishes in the prime field")
        return PrimeFieldElement(num * pow(den, -1, self.char), self.char)

    def __repr__(self):
        return f"Fp({self.char})"


# ---------------------------------------------------------------------------
# ring contexts


@dataclass(frozen=True)
class RingContext:
    """Shared naming/mode/field data for one ring R and its dual module.

    ``var_names[i]`` and ``dual_names[i]`` are dual to each other: contraction
    of variable i against the dual exponent e_i yields the unit.  ``mode`` is
    "graded" (polynomial ring, homogeneous computations) or "local"
    (power-series ring, degree-truncated computations).
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
        field = Rationals() if self.char == 0 else PrimeField(self.char)
        object.__setattr__(self, "_field", field)

    @property
    def n(self):
        return len(self.var_names)

    @property
    def field(self):
        return self._field

    def scalar(self, num, den=1):
        return self._field(num, den)

    @property
    def zero_exp(self):
        return (0,) * self.n

    def unit_exp(self, i):
        e = [0] * self.n
        e[i] = 1
        return tuple(e)

    def var_index(self, name):
        try:
            return self.var_names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def variable(self, i):
        return Polynomial(self, {self.unit_exp(i): self.scalar(1)})

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
# exponent vectors (plain int tuples)


def exp_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def exp_sub(a, b):
    """Componentwise a - b, or None if any component would go negative."""
    out = []
    for x, y in zip(a, b):
        d = x - y
        if d < 0:
            return None
        out.append(d)
    return tuple(out)


def exp_degree(a):
    return sum(a)


def exp_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def drl_key(a):
    """Sort key realizing degrevlex: higher key = larger monomial."""
    return (sum(a), tuple(-e for e in reversed(a)))


def exp_divisors(a):
    """All exponent vectors componentwise <= a (including 0 and a)."""
    return itertools.product(*(range(e + 1) for e in a))


def monomials_of_degree(n, d):
    """All exponent vectors of total degree d in n variables."""
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(n - 1, d - first):
            yield (first,) + rest


def monomials_up_to_degree(n, bound):
    for d in range(bound + 1):
        yield from monomials_of_degree(n, d)


# ---------------------------------------------------------------------------
# sparse polynomials


class _SparsePoly:
    """Shared machinery for both sides; terms map exponent tuples to scalars."""

    __slots__ = ("context", "terms")

    def __init__(self, context, terms):
        self.context = context
        self.terms = {m: c for m, c in terms.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, context):
        return cls(context, {})

    @classmethod
    def constant(cls, context, value):
        c = value if not isinstance(value, int) else context.scalar(value)
        return cls(context, {context.zero_exp: c})

    @classmethod
    def monomial(cls, context, exps, coeff=1):
        c = coeff if not isinstance(coeff, int) else context.scalar(coeff)
        return cls(context, {tuple(exps): c})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(m) for m in self.terms)

    def order(self):
        """Minimal total degree of a term; +inf for the zero polynomial."""
        if not self.terms:
            return float("inf")
        return min(sum(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def leading_monomial(self):
        if not self.terms:
            return None
        return max(self.terms, key=drl_key)

    def leading_coeff(self):
        lm = self.leading_monomial()
        return self.context.scalar(0) if lm is None else self.terms[lm]

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.context.scalar(0))

    def sorted_terms(self):
        """Terms in canonical (degrevlex descending) order."""
        return [(m, self.terms[m]) for m in sorted(self.terms, key=drl_key, reverse=True)]

    def homogeneous_part(self, d):
        return type(self)(self.context, {m: c for m, c in self.terms.items() if sum(m) == d})

    def truncate(self, bound):
        """Drop all terms of total degree > bound."""
        return type(self)(self.context, {m: c for m, c in self.terms.items() if sum(m) <= bound})

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
        return type(self)(self.context, acc)

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
        return type(self)(self.context, acc)

    def __neg__(self):
        return type(self)(self.context, {m: -c for m, c in self.terms.items()})

    def scale(self, c):
        if isinstance(c, int):
            c = self.context.scalar(c)
        if not c:
            return type(self)(self.context, {})
        return type(self)(self.context, {m: c * v for m, v in self.terms.items()})

    def monic(self):
        lc = self.leading_coeff()
        if not lc or lc == 1:
            return self
        return type(self)(self.context, {m: c / lc for m, c in self.terms.items()})

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
                for name, e in zip(names, m)
                if e
            ]
            body = "*".join(factors)
            cs = str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            if not body:
                chunk = cs
            elif cs == "1":
                chunk = body
            else:
                chunk = f"{cs}*{body}"
            parts.append(("-" if neg else "+", chunk))
        sign, chunk = parts[0]
        out = (sign if sign == "-" else "") + chunk
        for sign, chunk in parts[1:]:
            out += sign + chunk
        return out

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
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = exp_add(m1, m2)
                s = acc.get(m)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)
        return Polynomial(self.context, acc)

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
    acc = {}
    for m, a in h.terms.items():
        for l, b in F.terms.items():
            d = exp_sub(l, m)
            if d is None:
                continue
            s = acc.get(d)
            s = a * b if s is None else s + a * b
            if s:
                acc[d] = s
            else:
                acc.pop(d, None)
    return DPPolynomial(F.context, acc)


def contract_monomial(exps, F):
    """Contraction of F by the single monomial z^exps (fast path)."""
    acc = {}
    for l, b in F.terms.items():
        d = exp_sub(l, exps)
        if d is not None:
            acc[d] = b
    return DPPolynomial(F.context, acc)


def pairing(f, F):
    """The exact pairing <f, F>: the constant term of contract(f, F).

    On monomials it is the Kronecker delta: <z^M, Z^[L]> = 1 iff M == L.
    """
    if not isinstance(f, Polynomial) or not isinstance(F, DPPolynomial):
        raise ContextMismatchError("pairing() takes a ring element and a dual element")
    if f.context != F.context:
        raise ContextMismatchError("operands live in different ring contexts")
    s = f.context.scalar(0)
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
    exps = tuple(exps)
    return DPPolynomial(F.context, {exp_add(l, exps): b for l, b in F.terms.items()})
