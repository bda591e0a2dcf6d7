"""Contraction, pairing, shifts, arithmetic and the text grammar."""

import itertools
from fractions import Fraction

import pytest
from conftest import ctx_of, dual, exponent_vectors, ring_poly, rng_for, random_poly

from invsys import (
    ContextMismatchError,
    DPPolynomial,
    ParseError,
    Polynomial,
    contract,
    pairing,
    parse_polynomial,
    parse_ring_decl,
    ring_context,
    shift_mul,
)
from invsys.ring import NEG_INF, PrimeFieldElement


@pytest.fixture(scope="module")
def ctx2():
    return ctx_of("ring Q[x,y] dual [X,Y]")


@pytest.fixture(scope="module")
def ctx3():
    return ctx_of("ring Q[x,y,z] dual [X,Y,Z]")


# -- contraction ------------------------------------------------------------


def test_contract_monomial_case(ctx2):
    assert contract(ring_poly(ctx2, "x*y"), dual(ctx2, "X^[2]*Y")) == dual(ctx2, "X")


def test_contract_kills_inverse_system_generator(ctx2):
    assert contract(ring_poly(ctx2, "y^2-x^3"), dual(ctx2, "X^[3]+Y^[2]")).is_zero()


def test_contract_first_variable_misses(ctx3):
    assert contract(ring_poly(ctx3, "x"), dual(ctx3, "Y^[3]-Z^[3]")).is_zero()


def test_contract_requires_shared_context(ctx2, ctx3):
    with pytest.raises(ContextMismatchError):
        contract(ring_poly(ctx2, "x"), dual(ctx3, "X"))


def test_contract_module_action_random(ctx3):
    rng = rng_for("module-action")
    for _ in range(60):
        g = random_poly(rng, ctx3, "r", 3)
        h = random_poly(rng, ctx3, "r", 3)
        F = random_poly(rng, ctx3, "dual", 4)
        assert contract(g * h, F) == contract(g, contract(h, F))


def test_contract_bilinearity_random(ctx3):
    rng = rng_for("bilinearity")
    for _ in range(60):
        g = random_poly(rng, ctx3, "r", 3)
        h = random_poly(rng, ctx3, "r", 3)
        F = random_poly(rng, ctx3, "dual", 4)
        G = random_poly(rng, ctx3, "dual", 4)
        assert contract(h, F + G) == contract(h, F) + contract(h, G)
        assert contract(g + h, F) == contract(g, F) + contract(h, F)


# -- pairing ----------------------------------------------------------------


def test_pairing_identity(ctx2):
    assert pairing(ring_poly(ctx2, "1"), dual(ctx2, "1")) == 1


def test_pairing_annihilator_membership(ctx3):
    assert pairing(ring_poly(ctx3, "y^3+z^3"), dual(ctx3, "Y^[3]-Z^[3]")) == 0


def test_pairing_is_kronecker_delta(ctx3):
    for j in range(4):
        monos = exponent_vectors(ctx3, j)
        for m, l in itertools.product(monos, monos):
            f = Polynomial.monomial(ctx3, m)
            F = DPPolynomial.monomial(ctx3, l)
            assert pairing(f, F) == (1 if m == l else 0)


def test_pairing_is_constant_term_of_contraction(ctx3):
    rng = rng_for("pairing-constant-term")
    for _ in range(50):
        f = random_poly(rng, ctx3, "r", 4)
        F = random_poly(rng, ctx3, "dual", 4)
        assert pairing(f, F) == contract(f, F).coeff((0,) * 3)


def test_pairing_perfection_per_degree(ctx3):
    for j in range(5):
        monos = exponent_vectors(ctx3, j)
        grid = [
            [pairing(Polynomial.monomial(ctx3, m), DPPolynomial.monomial(ctx3, l)) for l in monos]
            for m in monos
        ]
        assert grid == [
            [1 if i == k else 0 for k in range(len(monos))] for i in range(len(monos))
        ]


# -- shifts -----------------------------------------------------------------


def test_shift_mul_is_exponent_shift(ctx2):
    assert shift_mul((1, 0), dual(ctx2, "Y^[2]")) == dual(ctx2, "X*Y^[2]")


def test_shift_mul_left_inverse_random(ctx3):
    rng = rng_for("shift-inverse")
    for _ in range(50):
        F = random_poly(rng, ctx3, "dual", 4)
        m = tuple(rng.randint(0, 1) for _ in range(3))
        assert contract(Polynomial.monomial(ctx3, m), shift_mul(m, F)) == F


def test_repeated_shifts_commute(ctx3):
    F = dual(ctx3, "X*Y^[2]+Z^[3]")
    assert shift_mul((1, 0, 0), shift_mul((0, 2, 0), F)) == shift_mul((1, 2, 0), F)


# -- ring arithmetic ---------------------------------------------------------


def test_product_in_r(ctx2):
    assert ring_poly(ctx2, "x*y") * ring_poly(ctx2, "y^2-x^3") == ring_poly(
        ctx2, "x*y^3-x^4*y"
    )


def test_additive_inverse(ctx3):
    F = dual(ctx3, "X^[2]-3Y*Z")
    assert (F + (-F)).is_zero()


def _convolution_oracle(a, b):
    terms = {}
    ctx = a.context
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ctx.unpack(ma), ctx.unpack(mb)))
            terms[key] = terms.get(key, 0) + ca * cb
    return Polynomial(a.context, terms)


def test_distributivity_random(ctx3):
    rng = rng_for("distributivity")
    for _ in range(100):
        a = random_poly(rng, ctx3, "r", 3)
        b = random_poly(rng, ctx3, "r", 3)
        c = random_poly(rng, ctx3, "r", 3)
        assert a * (b + c) == a * b + a * c
        assert a * b == _convolution_oracle(a, b)


# A dense reference over exponent tuples: coefficients are Fractions over Q
# and ints mod p over Fp(p), each result reduced and freed of zeros.


def _dense(f):
    return {f.context.unpack(m): c for m, c in f.terms.items()}


def _clean(ctx, terms):
    p = ctx.char
    return {e: c % p if p else c for e, c in terms.items() if (c % p if p else c)}


def _dense_add(ctx, a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _clean(ctx, out)


def _dense_scale(ctx, a, k):
    return _clean(ctx, {e: k * c for e, c in a.items()})


def _dense_inverse(ctx, c):
    return pow(c, -1, ctx.char) if ctx.char else 1 / Fraction(c)


def _degrevlex(e):
    return sum(e), tuple(-x for x in reversed(e))


def _dense_monic(ctx, a):
    return _dense_scale(ctx, a, _dense_inverse(ctx, a[max(a, key=_degrevlex)])) if a else {}


def _dense_mul(ctx, a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return _clean(ctx, out)


def _dense_contract(ctx, h, F):
    out = {}
    for em, a in h.items():
        for el, b in F.items():
            if all(x >= y for x, y in zip(el, em)):
                e = tuple(x - y for x, y in zip(el, em))
                out[e] = out.get(e, 0) + a * b
    return _clean(ctx, out)


def _random_sparse(rng, ctx, cls):
    p = ctx.char
    terms = {}
    for _ in range(rng.randint(0, 5)):
        e = tuple(rng.randint(0, 2) for _ in range(ctx.n))
        c = rng.randint(-2 * p, 2 * p) if p else Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        terms[e] = terms.get(e, 0) + c
    return cls(ctx, terms)


def _assert_clean_terms(f):
    p = f.context.char
    for c in f.terms.values():
        if p:
            assert type(c) is int and 1 <= c < p
        else:
            assert type(c) is Fraction and c != 0


@pytest.mark.parametrize("field", ["Q", "Fp(7)", "Fp(32003)"])
def test_ring_operations_match_a_dense_reference(field):
    ctx = ctx_of(f"ring {field}[x,y] dual [X,Y]")
    rng = rng_for(f"dense-reference-{field}")
    for _ in range(300):
        f, g = (_random_sparse(rng, ctx, Polynomial) for _ in range(2))
        F = _random_sparse(rng, ctx, DPPolynomial)
        k = rng.choice([0, -1, 2, 3, 5])
        results = {
            "+": (f + g, _dense_add(ctx, _dense(f), _dense(g))),
            "-": (f - g, _dense_add(ctx, _dense(f), _dense_scale(ctx, _dense(g), -1))),
            "neg": (-F, _dense_scale(ctx, _dense(F), -1)),
            "f + (-f)": (f + (-f), {}),
            "scale": (F.scale(k), _dense_scale(ctx, _dense(F), k)),
            "scale by 0": (f.scale(0), {}),
            "scale by -1": (f.scale(-1), _dense_scale(ctx, _dense(f), -1)),
            "monic": (F.monic(), _dense_monic(ctx, _dense(F))),
            "*": (f * g, _dense_mul(ctx, _dense(f), _dense(g))),
            "contract": (contract(f, F), _dense_contract(ctx, _dense(f), _dense(F))),
        }
        for name, (got, expected) in results.items():
            _assert_clean_terms(got)
            assert _dense(got) == expected, name


@pytest.mark.parametrize("field", ["Q", "Fp(7)", "Fp(32003)"])
def test_ring_operations_cancel_through_zero(field):
    ctx = ctx_of(f"ring {field}[x,y] dual [X,Y]")
    cases = [
        (ring_poly(ctx, "x+y") * ring_poly(ctx, "x-y"), ring_poly(ctx, "x^2-y^2")),
        # x.(X^[2]*Y) and y.(-X*Y^[2]) both land on X*Y, with opposite sums
        (contract(ring_poly(ctx, "x+y"), dual(ctx, "X^[2]*Y-X*Y^[2]")), dual(ctx, "X^[2]-Y^[2]")),
        (ring_poly(ctx, "3*x+y") - ring_poly(ctx, "3*x"), ring_poly(ctx, "y")),
        (dual(ctx, "2*X*Y").scale(0), DPPolynomial.zero(ctx)),
    ]
    if field == "Fp(7)":  # sums that wrap to 0 mod 7
        cases += [
            (ring_poly(ctx, "3*x+y") + ring_poly(ctx, "4*x"), ring_poly(ctx, "y")),
            (ring_poly(ctx, "x+3") * ring_poly(ctx, "x+4"), ring_poly(ctx, "x^2+5")),
            (contract(ring_poly(ctx, "3*x+4*y"), dual(ctx, "X^[2]*Y+X*Y^[2]")), dual(ctx, "4*X^[2]+3*Y^[2]")),
            (dual(ctx, "6*X+Y").scale(7), DPPolynomial.zero(ctx)),
        ]
    for got, expected in cases:
        _assert_clean_terms(got)
        assert got == expected


def test_no_internal_product_on_dual_side(ctx2):
    with pytest.raises((ContextMismatchError, TypeError, AttributeError)):
        dual(ctx2, "X") * dual(ctx2, "Y")  # type: ignore[operator]


def test_zero_degree_sentinel(ctx2):
    assert DPPolynomial.zero(ctx2).degree() == NEG_INF
    assert dual(ctx2, "X^[2]").degree() == 2


def test_degrevlex_order(ctx3):
    keys = [ctx3.pack(m) for m in [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]]
    assert keys == sorted(keys, reverse=True)


# -- parsing and printing ----------------------------------------------------


def test_parse_dual_binomial(ctx3):
    F = parse_polynomial("Y^[3]-Z^[3]", ctx3, "dual")
    assert {ctx3.unpack(m): c for m, c in F.terms.items()} == {(0, 3, 0): 1, (0, 0, 3): -1}


def test_parse_ring_side(ctx2):
    p = parse_polynomial("y^2-x^3", ctx2, "r")
    assert {ctx2.unpack(m): c for m, c in p.terms.items()} == {(0, 2): 1, (3, 0): -1}


def test_parse_juxtaposition_and_coefficients(ctx3):
    from fractions import Fraction

    assert parse_polynomial("2X^[4]", ctx3, "dual").coeff((4, 0, 0)) == 2
    XZ = parse_polynomial("XZ", ctx3, "dual")
    assert {ctx3.unpack(m): c for m, c in XZ.terms.items()} == {(1, 0, 1): 1}
    assert parse_polynomial("-3/2x*y^2", ctx3, "r").coeff((1, 2, 0)) == Fraction(-3, 2)


def test_format_parse_round_trip_on_example_corpus(ctx3):
    corpus = [
        "Y^[3]-Z^[3]",
        "X^[2]+Y^[2]+X*Z",
        "X^[3]*Y^[3]-X^[3]*Z^[3]+X^[2]*Y*Z^[3]-X*Y^[2]*Z^[3]+Y^[3]*Z^[3]-4*Z^[6]",
        "Z^[2]+Y^[3]",
    ]
    for text in corpus:
        F = parse_polynomial(text, ctx3, "dual")
        assert parse_polynomial(str(F), ctx3, "dual") == F
    rng = rng_for("round-trip")
    for _ in range(50):
        p = random_poly(rng, ctx3, "r", 4)
        assert parse_polynomial(str(p), ctx3, "r") == p
        F = random_poly(rng, ctx3, "dual", 4)
        assert parse_polynomial(str(F), ctx3, "dual") == F


def test_parse_errors_carry_position(ctx2):
    with pytest.raises(ParseError):
        parse_polynomial("x + ", ctx2, "r")
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^[2]", ctx2, "r")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse_polynomial("q", ctx2, "r")
    with pytest.raises(ParseError):
        parse_polynomial("X", ctx2, "r")  # dual name on the ring side


def test_ring_declaration_forms():
    ctx = parse_ring_decl("ring Q[x,y,z] dual [X,Y,Z] mode graded")
    assert ctx.n == 3 and ctx.mode == "graded" and ctx.char == 0
    ctx = parse_ring_decl("Q[a,b] mode local")
    assert ctx.dual_names == ("A", "B") and ctx.mode == "local"
    ctx = parse_ring_decl("ring Fp(101)[x,y]")
    assert ctx.char == 101
    with pytest.raises(ParseError):
        parse_ring_decl("ring Z[x]")


def test_context_declaration_round_trip(ctx3):
    assert parse_ring_decl(ctx3.decl()) == ctx3


# -- prime field -------------------------------------------------------------


def test_prime_field_contraction():
    ctx = ring_context("x,y", char=2)
    F = parse_polynomial("X^[2]+X*Y", ctx, "dual")
    out = contract(parse_polynomial("x", ctx, "r"), F)
    assert out == parse_polynomial("X+Y", ctx, "dual")
    assert (F + F).is_zero()


def test_prime_field_division():
    ctx = ring_context("x", char=7)
    a = ctx.scalar(3)
    assert a / a == 1
    assert (a * ctx.scalar(5)) == ctx.scalar(1)


def test_prime_field_element_hashes_like_the_int_it_equals():
    a = PrimeFieldElement(3, 7)
    assert a == 3 and hash(a) == hash(3)
    assert {3: "found"}[a] == "found"
    assert {a: "found"}[3] == "found"


def test_prime_field_scalars_refuse_another_field():
    # the same refusal, class and message, as RingContext.to_term and check_side
    a, b = PrimeFieldElement(3, 7), PrimeFieldElement(3, 11)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(ContextMismatchError, match=r"^mixed fields: Fp\(7\) and Fp\(11\)$"):
            op()
    with pytest.raises(ContextMismatchError, match=r"^mixed fields: Fp\(11\) and Fp\(7\)$"):
        b * a


def test_prime_field_accepts_large_primes():
    assert ring_context("x", char=2**61 - 1).scalar(3) * 2 == 6
    assert ring_context("x", char=32003).char == 32003


def test_prime_field_rejects_composites_and_huge_moduli():
    # 561 is a Carmichael number, 3215031751 a strong pseudoprime to the
    # bases 2, 3, 5 and 7, 318665857834031151167461 one to every prime up to 37
    for p in (0, 1, 4, 561, 3215031751, 318665857834031151167461):
        with pytest.raises(ValueError, match="not prime"):
            parse_ring_decl(f"ring Fp({p})[x]")
    with pytest.raises(ValueError, match="too large"):
        parse_ring_decl(f"ring Fp({2**89 - 1})[x]")
