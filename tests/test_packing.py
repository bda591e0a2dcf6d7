"""Packed monomials against exponent tuples, and the degree limit of packing."""

import itertools

import pytest
from conftest import ctx_of, dual, ring_poly, rng_for

from invsys import Ideal, Polynomial, buchberger, ideals_equal_mod, shift_mul
from invsys.cli import main
from invsys.duality import AnnihilatorWindow
from invsys.groebner import _s_polynomial
from invsys.ring import MAX_DEGREE, PreconditionError, _packed_monomials, _staircase_step, ring_context

# Reference definitions on exponent tuples: what the packed int expressions
# used by the kernels must agree with.


def tuple_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def tuple_sub(a, b):
    """Componentwise a - b, or None if a component is negative."""
    d = tuple(x - y for x, y in zip(a, b))
    return None if min(d) < 0 else d


def tuple_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def tuple_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def drl_key(a):
    """Degrevlex sort key: higher key = larger monomial."""
    return (sum(a), tuple(-e for e in reversed(a)))


def _random_exponents(rng, n):
    """Exponent vectors of total degree at most MAX_DEGREE, extremes included."""
    kind = rng.randrange(4)
    if kind == 0:  # zero, or the per-field maximum in one variable
        e = [0] * n
        if rng.random() < 0.5:
            e[rng.randrange(n)] = MAX_DEGREE
        return tuple(e)
    if kind == 1:  # small exponents, where ties in the degree are common
        return tuple(rng.randint(0, 3) for _ in range(n))
    budget = MAX_DEGREE if kind == 2 else rng.randint(0, 60)
    cuts = sorted(rng.randint(0, budget) for _ in range(n))
    return tuple(b - a for a, b in zip([0] + cuts, cuts))


def _divisor(rng, e):
    return tuple(rng.randint(0, x) for x in e)


@pytest.mark.parametrize("n", range(1, 7))
def test_packing_agrees_with_exponent_tuples(n):
    ctx = ring_context([f"v{i}" for i in range(n)])
    rng = rng_for(f"packing-{n}")
    vectors = [_random_exponents(rng, n) for _ in range(150)]
    vectors += [(0,) * n, (MAX_DEGREE,) + (0,) * (n - 1), (0,) * (n - 1) + (MAX_DEGREE,)]
    vectors += [_divisor(rng, e) for e in vectors]
    packed = {e: ctx.pack(e) for e in vectors}
    for e, m in packed.items():
        assert ctx.unpack(m) == e
        assert m >> ctx.shift == sum(e)
        assert not m & ctx.guard
    order = sorted(packed, key=drl_key)
    assert [packed[e] for e in order] == sorted(packed.values())
    pairs = list(itertools.product(vectors[:40], repeat=2))
    pairs += [(e, _divisor(rng, e)) for e in vectors]
    pairs += [(rng.choice(vectors), rng.choice(vectors)) for _ in range(400)]
    for a, b in pairs:
        pa, pb = packed.get(a) or ctx.pack(a), packed.get(b) or ctx.pack(b)
        total = tuple_add(a, b)
        if sum(total) <= MAX_DEGREE:
            assert pa + pb - ctx.base == ctx.pack(total)
        d = pa - pb + ctx.base
        diff = tuple_sub(a, b)
        assert bool(d & ctx.guard) == (diff is None)
        if diff is not None:
            assert d == ctx.pack(diff)
        assert ctx.divides(pb, pa) == tuple_divides(b, a)
        lcm = ctx.lcm(pa, pb)
        assert ctx.unpack(lcm) == tuple_lcm(a, b)
        assert lcm >> ctx.shift == sum(tuple_lcm(a, b))


def test_pack_refuses_what_it_cannot_hold():
    ctx = ring_context("x,y")
    assert ctx.unpack(ctx.pack((MAX_DEGREE - 1, 1))) == (MAX_DEGREE - 1, 1)
    with pytest.raises(PreconditionError, match=str(MAX_DEGREE)):
        ctx.pack((MAX_DEGREE, 1))
    for bad in [(1,), (1, 2, 3), (-1, 2)]:
        with pytest.raises(ValueError):
            ctx.pack(bad)


def test_products_past_the_limit_raise_instead_of_wrapping():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    a = Polynomial.monomial(ctx, (MAX_DEGREE - 5, 0))
    assert a * Polynomial.monomial(ctx, (5, 0)) == Polynomial.monomial(ctx, (MAX_DEGREE, 0))
    with pytest.raises(PreconditionError, match=str(MAX_DEGREE)):
        a * Polynomial.monomial(ctx, (6, 0))
    with pytest.raises(PreconditionError, match=str(MAX_DEGREE)):
        a * ring_poly(ctx, "1+y^6")
    with pytest.raises(PreconditionError, match=str(MAX_DEGREE)):
        ring_poly(ctx, "x^20000+y") ** 2
    F = dual(ctx, f"X^[{MAX_DEGREE - 1}]")
    assert shift_mul((0, 1), F) == dual(ctx, f"X^[{MAX_DEGREE - 1}]*Y")
    with pytest.raises(PreconditionError, match=str(MAX_DEGREE)):
        shift_mul((0, 2), F)


def test_window_multiples_and_s_polynomials_past_the_limit_raise():
    line = ctx_of("ring Q[x] dual [X] mode local")  # 32769 window monomials: within the size limit
    gens = [ring_poly(line, "x^30000")]
    with pytest.raises(PreconditionError, match=str(MAX_DEGREE)):
        ideals_equal_mod(gens, gens, MAX_DEGREE + 2, line)
    ctx = ctx_of("ring Q[x,y] dual [X,Y] mode local")  # oversized too: the size refusal comes first
    gens = [ring_poly(ctx, "x^30000")]
    with pytest.raises(PreconditionError, match="ideal window up to degree 32768 needs 536920065 contraction columns"):
        ideals_equal_mod(gens, gens, MAX_DEGREE + 2, ctx)
    f, g = ring_poly(ctx, "x^20000*y"), ring_poly(ctx, "x*y^20000")
    with pytest.raises(PreconditionError, match=str(MAX_DEGREE)):
        _s_polynomial(f, g)
    graded = ctx_of("ring Q[x,y] dual [X,Y]")
    with pytest.raises(PreconditionError, match=str(MAX_DEGREE)):
        buchberger(Ideal([ring_poly(graded, "x^20000*y"), ring_poly(graded, "x*y^20000")], graded))


@pytest.mark.parametrize(
    "argv",
    [
        ["contract", "--ring", "Q[x]", "--h", "1", "--F", "X^[40000]"],
        ["pair", "--ring", "Q[x,y]", "--f", "x^20000*x^20000", "--F", "X"],
        ["ann", "--ring", "Q[x]", "--poly", f"X^[{MAX_DEGREE}]"],
        ["cone", "--ring", "Q[x,y]", "--H", f"Y^[{MAX_DEGREE}]", "--d", "1", "--t0", "2"],
    ],
    ids=["parse", "parse-product", "ann-window", "cone-shift"],
)
def test_cli_refuses_degrees_past_the_limit(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 3
    assert f"limit {MAX_DEGREE}" in err
    assert "Traceback" not in out + err


def test_degree_range_starts_at_its_lowest_layer():
    # layer low is walked directly, not reached by stepping up from degree 0,
    # and comes out in the order the full window lists it
    rng = rng_for("packed-degree-range")
    for _ in range(80):
        n = rng.randint(1, 6)
        high = rng.randint(0, 12)
        low = rng.randint(0, high)
        shift = ring_context([f"x{i}" for i in range(n)]).shift
        window = _packed_monomials(n, 0, high)
        assert _packed_monomials(n, low, high) == [m for m in window if m >> shift >= low]


def test_degree_range_in_some_variables_is_the_window_without_the_others():
    # listed variables only, none at all included: the monomials of the
    # window in which no other variable occurs, in the window's order
    rng = rng_for("packed-variables")
    for _ in range(80):
        n = rng.randint(1, 5)
        high = rng.randint(0, 9)
        low = rng.randint(0, high)
        variables = sorted(rng.sample(range(n), rng.randint(0, n)))
        ctx = ring_context([f"x{i}" for i in range(n)])
        window = _packed_monomials(n, low, high)
        expected = [m for m in window if not any(e for i, e in enumerate(ctx.unpack(m)) if i not in variables)]
        assert _packed_monomials(n, low, high, variables) == expected


# -- one staircase step over a set of packed monomials -------------------------


def _tuple_window(n, top):
    return [e for e in itertools.product(range(top + 1), repeat=n) if sum(e) <= top]


def _quotients(e):
    """The quotients of a monomial by the variables dividing it."""
    return [e[:i] + (x - 1,) + e[i + 1 :] for i, x in enumerate(e) if x]


def _monomial_sets(rng, n):
    """Exponent sets to step from: order ideals over several degrees, arbitrary sets (often without 1), none."""
    sets = [set()]
    for _ in range(6):
        tops = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        sets.append({d for t in tops for d in itertools.product(*(range(x + 1) for x in t))})
        sets.append({e for e in _tuple_window(n, 4) if rng.random() < 0.3})
    return sets


@pytest.mark.parametrize("n", range(1, 5))
def test_staircase_step_matches_its_definition(n):
    # the products of members whose every quotient by a variable is a member,
    # each once, against a scan of every monomial up to one degree past the set
    ctx = ring_context([f"v{i}" for i in range(n)])
    for members in _monomial_sets(rng_for(f"staircase-step-{n}"), n):
        top = max(map(sum, members), default=0) + 1
        want = {e for e in _tuple_window(n, top) if _quotients(e) and set(_quotients(e)) <= members}
        step = _staircase_step({ctx.pack(e) for e in members}, n)
        assert len(step) == len(set(step)) and set(step) == {ctx.pack(e) for e in want}


@pytest.mark.parametrize("n", range(1, 5))
def test_window_border_matches_its_definition(n):
    # the window monomials outside D whose every quotient lies in D, 1 among
    # them when D lacks it, descending; bounds below, at and past D's top
    ctx = ring_context([f"v{i}" for i in range(n)])
    for members in _monomial_sets(rng_for(f"window-border-{n}"), n):
        top = max(map(sum, members), default=0)
        divisors = {ctx.pack(e) for e in members}
        for bound in range(top + 3):
            want = [e for e in _tuple_window(n, bound) if e not in members and set(_quotients(e)) <= members]
            border = AnnihilatorWindow(ctx, bound, divisors, []).border
            assert border == sorted((ctx.pack(e) for e in want), reverse=True)
