"""Integer forms of Q polynomials against the Fraction arithmetic they replace.

A Q polynomial keeps (ints, D), its terms as ints over one denominator,
once it is known; over Fp the form is the terms themselves over 1.  ``contract``, ``linear_combination`` (the minimal generators'
emission) and ``SpanBuilder`` work on those forms; here each is compared
with the same computation on Fractions, over Q with real denominators,
graded and local, and every cached form is checked against its terms.
"""

from fractions import Fraction

import pytest
from conftest import ctx_of, ideal_of, rng_for

from invsys import (
    DPPolynomial,
    Polynomial,
    ann_module,
    check_family,
    contract,
    family_from_ideal,
    gorenstein_check,
    module_span,
    span_intersect,
    span_reduce,
)
from invsys import duality, linalg, ring
from invsys.ring import linear_combination

P = 32003
FIELDS = ["Q", f"Fp({P})"]
MODES = ["graded", "local"]


def _coefficient(rng, ctx):
    """A nonzero scalar; over Q with a denominator up to 12."""
    while True:
        c = ctx.scalar(rng.randint(-9, 9), rng.randint(1, 12) if not ctx.char else 1)
        if c:
            return c


def _poly(rng, ctx, cls, mode, max_degree=4, max_terms=6):
    """A seeded element; homogeneous in graded mode."""
    degree = rng.randint(1, max_degree)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ctx.n
        for _ in range(degree if mode == "graded" else rng.randint(0, degree)):
            exps[rng.randrange(ctx.n)] += 1
        terms[tuple(exps)] = _coefficient(rng, ctx)
    return cls(ctx, terms)


def _contexts(field, mode):
    return [ctx_of(f"ring {field}[{names}] mode {mode}") for names in ("x,y", "x,y,z", "x,y,z,t")]


def _fraction_contract(h, F):
    """Contraction on exponent tuples and field scalars, as the definition reads."""
    ctx = F.context
    acc = {}
    for m, a in h.terms.items():
        M = ctx.unpack(m)
        for l, b in F.terms.items():
            rest = tuple(x - y for x, y in zip(ctx.unpack(l), M))
            if min(rest) >= 0:
                acc[rest] = acc.get(rest, 0) + ctx.scalar(a) * ctx.scalar(b)
    return DPPolynomial(ctx, acc)


def _fraction_combination(coeffs, vectors):
    """sum c * vectors[j] through ``scale`` and ``+``, the emission before integer forms."""
    first = vectors[next(iter(coeffs))]
    return sum((vectors[j].scale(c) for j, c in coeffs.items()), type(first).zero(first.context))


def _assert_form_is_the_terms(p):
    ints, d = p.integer_form()
    assert type(d) is int and d > 0 and all(type(v) is int and v for v in ints.values())
    assert ints.keys() == p.terms.keys()
    if p.context.char:
        assert d == 1 and ints == p.terms
    else:
        assert {m: Fraction(v, d) for m, v in ints.items()} == p.terms
        assert p.integer_form() == p.context.integer_form(p.terms)  # the numerators over the lcm


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("mode", MODES)
def test_contract_on_integer_forms_matches_fraction_arithmetic(field, mode):
    rng = rng_for(f"integer-contract-{field}-{mode}")
    for ctx in _contexts(field, mode):
        for _ in range(40):
            F = _poly(rng, ctx, DPPolynomial, mode, 5)
            h = _poly(rng, ctx, Polynomial, mode, 2)
            if rng.random() < 0.5:
                F.integer_form()  # a kept form and a fresh one give the same result
            out = contract(h, F)
            assert out == _fraction_contract(h, F)
            _assert_form_is_the_terms(out)
            # the result's own form feeds the next contraction
            g = _poly(rng, ctx, Polynomial, mode, 1)
            assert contract(g, out) == _fraction_contract(g, out) == contract(g * h, F)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("mode", MODES)
def test_linear_combination_matches_scale_and_add(field, mode):
    rng = rng_for(f"integer-combination-{field}-{mode}")
    for ctx in _contexts(field, mode):
        for cls in (Polynomial, DPPolynomial):
            for _ in range(30):
                vectors = [_poly(rng, ctx, cls, mode) for _ in range(rng.randint(1, 5))]
                coeffs = {j: ctx.to_term(_coefficient(rng, ctx)) for j in range(len(vectors)) if rng.random() < 0.8}
                if not coeffs:
                    continue
                out = linear_combination(coeffs, vectors)
                assert type(out) is cls and out == _fraction_combination(coeffs, vectors)
                if out.terms:
                    _assert_form_is_the_terms(out)
                # cancelling to zero
                j = next(iter(coeffs))
                assert linear_combination({0: ctx.unit, 1: ctx.to_term(-1)}, [vectors[j], vectors[j]]).is_zero()


def _seeded_modules(field, mode, count):
    rng = rng_for(f"integer-emission-{field}-{mode}")
    for k in range(count):
        ctx = _contexts(field, mode)[k % 3]
        yield [_poly(rng, ctx, DPPolynomial, mode, 5) for _ in range(1 + (k % 4 == 3))]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("mode", MODES)
def test_minimal_generator_emission_matches_the_fraction_emission(field, mode, monkeypatch):
    # the minimalizer emits each kept generator as a combination of window
    # vectors; on Fractions, through scale and +, it emits the same ideal list
    cases = list(_seeded_modules(field, mode, 12))
    bounds = [[None, int(max(g.degree() for g in gens))] for gens in cases]
    integer = [[ann_module(gens, b).gens for b in bs] for gens, bs in zip(cases, bounds)]
    monkeypatch.setattr(duality, "linear_combination", _fraction_combination)
    fraction = [[ann_module(gens, b).gens for b in bs] for gens, bs in zip(cases, bounds)]
    assert [[[g.terms for g in gs] for gs in by_bound] for by_bound in integer] == [
        [[g.terms for g in gs] for gs in by_bound] for by_bound in fraction
    ]
    for by_bound in integer:
        for gs in by_bound:
            for g in gs:
                _assert_form_is_the_terms(g)


@pytest.mark.parametrize("mode", MODES)
def test_span_builder_on_integer_forms_matches_the_fraction_rows(mode):
    # the builder inserts and reduces a Q polynomial through its integer
    # form; the engine fed the Fraction terms clears them itself
    rng = rng_for(f"integer-span-{mode}")
    for ctx in _contexts("Q", mode):
        for _ in range(12):
            polys = [_poly(rng, ctx, DPPolynomial, mode, 3) for _ in range(rng.randint(2, 12))]
            polys += [contract(_poly(rng, ctx, Polynomial, mode, 1), p) for p in polys[:3]]  # kept forms
            polys = [p for p in polys if p.terms]
            probes = [_poly(rng, ctx, DPPolynomial, mode, 3) for _ in range(5)]
            for p in polys + probes:
                if rng.random() < 0.5:
                    p.integer_form()
            builder, reference = linalg.SpanBuilder(), linalg._Echelon(max, 0)
            for p in polys:
                assert builder.insert(p) == (reference.insert_row(p.terms) is not None)
                assert builder.pivots == reference.pivots and builder.holders == reference.holders
            for probe in probes + polys:
                out, d = reference._reduce_integral(probe.terms)
                remainder = builder.reduce(probe)
                assert remainder.terms == {m: Fraction(v, d) for m, v in out.items()}
                assert builder.contains(probe) == (not out)
                if remainder.terms:
                    _assert_form_is_the_terms(remainder)


@pytest.fixture
def kept_forms(monkeypatch):
    """Every polynomial whose integer form is computed or set while the test runs."""
    seen = []
    integer_form, of_sums = ring._SparsePoly.integer_form, ring._SparsePoly._of_sums.__func__

    def recording_integer_form(self):
        seen.append(self)
        return integer_form(self)

    def recording_of_sums(cls, context, sums, d):
        p = of_sums(cls, context, sums, d)
        seen.append(p)
        return p

    monkeypatch.setattr(ring._SparsePoly, "integer_form", recording_integer_form)
    monkeypatch.setattr(ring._SparsePoly, "_of_sums", classmethod(recording_of_sums))
    return seen


def test_every_kept_form_still_equals_its_terms(kept_forms, curve_codim2, elliptic_curve):
    # a form is kept for the polynomial's lifetime, so no library code may
    # change a polynomial's terms once it exists: after families, their
    # checks, annihilators, the socle and span operations, every polynomial
    # that got a form still has the terms the form was made from
    generators = str(elliptic_curve["ideal"])
    for field in FIELDS:
        ideal = ideal_of(ctx_of(f"ring {field}[x,y,z,t,w] dual [X,Y,Z,T,W] mode graded"), generators)
        fam = family_from_ideal(ideal, (3, 4), 3)
        assert check_family(fam).passed
        assert check_family(fam, mode="intersection").passed
    assert check_family(curve_codim2["family5"]).passed
    for mode in MODES:
        for gens in _seeded_modules("Q", mode, 6):
            ideal = ann_module(gens)
            if mode == "graded" and len(gens) == 1:
                gorenstein_check(ideal, 0, [])
            span = span_reduce(duality.flatten(module_span(gens)))
            span_intersect(span, span_reduce([contract(g.context.variable(0), g) for g in gens]))
    kept = list({id(p): p for p in kept_forms}.values())  # reading a form below records it again
    assert len(kept) > 1000
    assert any(not p.context.char and p.integer_form()[1] > 1 for p in kept)
    for p in kept:
        _assert_form_is_the_terms(p)


def test_equality_and_printing_ignore_the_kept_form():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    terms = {(2, 1): Fraction(3, 4), (0, 3): Fraction(-5, 6), (1, 0): Fraction(2)}
    for cls in (Polynomial, DPPolynomial):
        fresh, kept = cls(ctx, terms), cls(ctx, terms)
        assert kept.integer_form() == ({ctx.pack((2, 1)): 9, ctx.pack((0, 3)): -10, ctx.pack((1, 0)): 24}, 12)
        assert fresh == kept and kept == fresh
        assert repr(fresh) == repr(kept) == str(kept)
    made = contract(Polynomial(ctx, {(1, 0): Fraction(1, 2)}), DPPolynomial(ctx, {(3, 1): Fraction(2, 3)}))
    assert made == DPPolynomial(ctx, {(2, 1): Fraction(1, 3)}) and repr(made) == "1/3*X^[2]*Y"


def test_a_q_form_is_kept_and_an_fp_form_is_the_terms():
    # over Q the lcm is taken once per polynomial; over Fp there is nothing
    # to compute or keep, so a fresh Fp operand costs no miss
    for field, expected_d in (("Q", 12), ("Fp(7)", 1)):
        ctx = ctx_of(f"ring {field}[x,y] dual [X,Y]")
        for cls in (Polynomial, DPPolynomial):
            p = cls(ctx, {(2, 1): ctx.scalar(3, 4), (0, 3): ctx.scalar(-5, 6)})
            form = p.integer_form()
            assert form[1] == expected_d
            if ctx.char:
                assert form[0] is p.terms
            else:
                assert p.integer_form() is form
