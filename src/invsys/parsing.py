"""Text grammar for polynomials, ring declarations and ideal generator lists.

Polynomial grammar (whitespace insignificant)::

    poly   := [sign] term (sign term)*
    term   := coeff ['*' factors] | [coeff '*'] factors | coeff factors
    factors:= factor (['*'] factor)*
    factor := name ['^' exponent]
    coeff  := integer ['/' integer]

On the ring side the exponent is a plain integer (``y^2-x^3``); on the dual
side it is bracketed (``X^[3]*Y^[2]``, ``2X^[4]``, ``XZ``).  Names are matched
greedily against the declared variable (or dual) names, so juxtaposition like
``XZ`` works for single-letter alphabets and longer names stay unambiguous.

Ring declarations look like ``ring Q[x,y,z] dual [X,Y,Z] mode graded`` or
``ring Fp(101)[x,y]``; the ``dual`` and ``mode`` clauses are optional.
"""

from __future__ import annotations

import re

from .ring import DPPolynomial, Polynomial, ring_context


class ParseError(ValueError):
    """Syntax error; carries the offending position in the input text."""

    def __init__(self, message, text, pos):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.text = text
        self.pos = pos


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.take(ch):
            raise ParseError(f"expected {ch!r}", self.text, self.pos)

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", self.text, self.pos)
        return int(self.text[start : self.pos])

    def name(self, names):
        """Longest declared name starting at the cursor, or None."""
        self.skip_ws()
        best = None
        for nm in names:
            if self.text.startswith(nm, self.pos) and (best is None or len(nm) > len(best)):
                best = nm
        if best is not None:
            self.pos += len(best)
        return best

    def done(self):
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_polynomial(text, context, side):
    """Parse ``text`` into a Polynomial (side="r") or DPPolynomial (side="dual")."""
    if side not in ("r", "dual"):
        raise ValueError("side must be 'r' or 'dual'")
    names = context.var_names if side == "r" else context.dual_names
    other = context.dual_names if side == "r" else context.var_names
    cls = Polynomial if side == "r" else DPPolynomial
    sc = _Scanner(text)
    terms = {}
    first = True
    while not sc.done():
        plus = sc.take("+")
        minus = not plus and sc.take("-")
        if not (plus or minus or first):
            raise ParseError("expected '+' or '-' between terms", text, sc.pos)
        first = False
        coeff, exps = _parse_term(sc, context, names, other, side)
        if minus:
            coeff = -coeff
        prev = terms.get(exps)
        total = coeff if prev is None else prev + coeff
        if total:
            terms[exps] = total
        else:
            terms.pop(exps, None)
    if first:
        raise ParseError("empty polynomial", text, 0)
    return cls._of(context, terms)


def _parse_term(sc, context, names, other, side):
    coeff = context.one
    exps = [0] * context.n
    saw_factor = False
    saw_coeff = False
    while True:
        ch = sc.peek()
        if ch.isdigit():
            if saw_coeff or saw_factor:
                raise ParseError("coefficient must precede the variables", sc.text, sc.pos)
            start = sc.pos
            num = sc.integer()
            den = sc.integer() if sc.take("/") else 1
            try:
                coeff = coeff * context.scalar(num, den)
            except ZeroDivisionError:
                raise ParseError("denominator vanishes in the field", sc.text, start) from None
            saw_coeff = True
            sc.take("*")
            continue
        nm = sc.name(names)
        if nm is None:
            if sc.name(other) is not None:
                which = "dual" if side == "r" else "ring"
                raise ParseError(f"{which}-side name on the wrong side", sc.text, sc.pos)
            if ch.isalpha():
                raise ParseError("unknown variable", sc.text, sc.pos)
            break
        idx = names.index(nm)
        e = 1
        if sc.take("^"):
            if side == "dual":
                if not sc.take("["):
                    raise ParseError("dual exponents are written ^[k]", sc.text, sc.pos)
                e = sc.integer()
                sc.expect("]")
            else:
                if sc.peek() == "[":
                    raise ParseError("bracketed exponent on the ring side", sc.text, sc.pos)
                e = sc.integer()
        exps[idx] += e
        saw_factor = True
        sc.take("*")
    if not (saw_factor or saw_coeff):
        raise ParseError("expected a term", sc.text, sc.pos)
    return coeff, context.pack(exps)


def parse_ideal_gens(text, context):
    """Parse a comma-separated list of ring-side generators."""
    gens = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk:
            gens.append(parse_polynomial(chunk, context, "r"))
    return gens


_RING_RE = re.compile(
    r"^\s*(?:ring\s+)?"
    r"(?P<field>Q|Fp\(\s*(?P<p>\d+)\s*\))\s*"
    r"\[(?P<vars>[^\]]*)\]"
    r"(?:\s*dual\s*\[(?P<duals>[^\]]*)\])?"
    r"(?:\s*mode\s+(?P<mode>graded|local))?\s*$"
)


def parse_ring_decl(text):
    """Parse a ring declaration string into a RingContext."""
    m = _RING_RE.match(text)
    if m is None:
        raise ParseError("malformed ring declaration", text, 0)
    char = int(m.group("p")) if m.group("p") else 0
    if m.group("p") and not char:
        raise ValueError("0 is not prime")  # char 0 would silently mean Q
    variables = [v.strip() for v in m.group("vars").split(",") if v.strip()]
    duals = m.group("duals")
    if duals is not None:
        duals = [v.strip() for v in duals.split(",") if v.strip()]
    mode = m.group("mode") or "graded"
    if not variables:
        raise ParseError("ring declaration lists no variables", text, 0)
    return ring_context(variables, duals, char, mode)
