"""The minimalizer against a reference that spans every product, and pinned outputs."""

import hashlib

import pytest
from conftest import ctx_of, ideal_of, rng_for, window_kernel

from invsys import ann_cyclic, ann_module, minimal_generators
from invsys.duality import _minimalize, _monomial_multiple, annihilator_window
from invsys.linalg import SpanBuilder
from invsys.ring import DPPolynomial, Polynomial, _packed_monomials

P = 32003


def _form(rng, ctx, homogeneous):
    """A seeded dual form of degree 2..5 with 2..5 terms; the first has the full degree."""
    degree = rng.randint(2, 5)
    terms = {}
    for _ in range(rng.randint(2, 5)):
        d = degree if homogeneous or not terms else rng.randint(1, degree)
        e = [0] * ctx.n
        for _ in range(d):
            e[rng.randrange(ctx.n)] += 1
        terms[tuple(e)] = ctx.scalar(rng.choice([-3, -2, -1, 1, 2, 3]))
    return DPPolynomial(ctx, terms)


def _seeded_cases(name, field, mode, count):
    """(generators, top degree) for seeded forms, every third case a pair of forms."""
    rng = rng_for(name)
    for k in range(count):
        names = "xyzt"[: rng.randint(2, 4)]
        ctx = ctx_of(f"ring {field}[{','.join(names)}] dual [{','.join(names.upper())}] mode {mode}")
        gens = [_form(rng, ctx, mode == "graded") for _ in range(1 + (k % 3 == 2))]
        yield gens, max(int(g.degree()) for g in gens)


def _minimalize_all_products(vectors, bound, context, truncated):
    """Reference minimalizer: every product of every window vector enters the span.

    The truncated branch spans m*I modulo m^{bound+1} from all the products
    x * v cut at the bound, the honest branch every multiple of a kept
    generator that fits below the bound, in every degree.
    """
    candidates = sorted(vectors, key=lambda v: v.leading_monomial(), reverse=True)
    candidates.sort(key=lambda v: v.order())
    span = SpanBuilder()
    if truncated:
        for x in context.var_monomials:
            for w in vectors:
                span.insert(_monomial_multiple(x, w.terms, context, bound))
    gens = []
    for v in candidates:
        r = span.reduce(v)
        if r.is_zero():
            continue
        g = r.monic()
        gens.append(g)
        if truncated:
            span.insert(g)
            continue
        for m in _packed_monomials(context.n, 0, bound - int(g.degree())):
            span.insert(_monomial_multiple(m, g.terms, context, bound))
    return gens


@pytest.mark.parametrize("field", ["Q", f"Fp({P})"])
@pytest.mark.parametrize("mode", ["graded", "local"])
def test_minimalize_matches_all_products_reference(field, mode):
    for gens, top in _seeded_cases(f"minimalize-products-{field}-{mode}", field, mode, 9):
        ctx = gens[0].context
        for bound in range(1, top + 3):
            vectors = window_kernel(gens, bound).vectors
            truncated = mode == "graded" or bound > top
            window = annihilator_window(gens, bound)
            out = _minimalize(vectors, bound, ctx, window.divisors.union(window.border) if truncated else None)
            reference = _minimalize_all_products(vectors, bound, ctx, truncated)
            assert [g.terms for g in out] == [g.terms for g in reference], (str(gens), bound)


def _benchmark_forms(field, mode, count):
    """Seeded forms at the scale of the benchmark: 5 or 6 variables, degree 3 or 4, 6 terms.

    Graded forms are homogeneous; a local form has one term of the full
    degree and the others of degree 1 up to it.
    """
    rng = rng_for(f"benchmark-scale-{field}-{mode}")
    for _ in range(count):
        names = "xyztuv"[: rng.randint(5, 6)]
        ctx = ctx_of(f"ring {field}[{','.join(names)}] dual [{','.join(names.upper())}] mode {mode}")
        degree = rng.randint(3, 4)
        terms = {}
        while len(terms) < 6:
            e = [0] * ctx.n
            for _ in range(degree if mode == "graded" or not terms else rng.randint(1, degree)):
                e[rng.randrange(ctx.n)] += 1
            terms[tuple(e)] = ctx.scalar(rng.choice([-3, -2, -1, 1, 2, 3]))
        yield DPPolynomial(ctx, terms)


@pytest.mark.parametrize("field", ["Q", f"Fp({P})"])
@pytest.mark.parametrize("mode", ["graded", "local"])
def test_ann_cyclic_matches_all_products_reference_at_benchmark_scale(field, mode):
    for F in _benchmark_forms(field, mode, 8):
        assert len(F.terms) == 6
        bound = int(F.degree()) + 1
        reference = _minimalize_all_products(window_kernel([F], bound).vectors, bound, F.context, True)
        reference.sort(key=lambda g: g.leading_monomial())  # as an Ideal holds its generators
        assert [g.terms for g in ann_cyclic(F).gens] == [g.terms for g in reference], str(F)


def test_projected_span_stays_within_the_generator_count(inserted):
    # the echelon span holds only the relations among leads that the set of
    # one-term leads leaves open: here 4 rows for 14 generators, where
    # stripped whole products inserted 40
    F = next(_benchmark_forms("Q", "graded", 1))
    gens = ann_cyclic(F).gens
    assert inserted and len(inserted) <= len(gens)


@pytest.fixture
def inserted(monkeypatch):
    """The terms of every vector passed to ``SpanBuilder.insert``, and every int row passed to ``insert_ints``, while the test runs."""
    seen = []
    insert, insert_ints = SpanBuilder.insert, SpanBuilder.insert_ints

    def recording_insert(self, poly):
        seen.append(poly.terms)
        return insert(self, poly)

    def recording_insert_ints(self, row):
        seen.append(row)
        return insert_ints(self, row)

    monkeypatch.setattr(SpanBuilder, "insert", recording_insert)
    monkeypatch.setattr(SpanBuilder, "insert_ints", recording_insert_ints)
    return seen


def test_no_one_term_vector_enters_the_span(surface_codim4, inserted):
    # almost every window vector of Ann(H) is a monomial; their products are
    # held as a monomial set, never as rows of the echelon engine
    assert ann_cyclic(surface_codim4["H"]).gens
    assert [row for row in inserted if len(row) == 1] == []
    # a seeded form whose projected span is not empty: rows enter it, none with one term
    F = _form(rng_for("projected-span"), ctx_of("ring Q[x,y,z] dual [X,Y,Z] mode graded"), True)
    assert ann_cyclic(F).gens
    assert inserted and [row for row in inserted if len(row) == 1] == []


def test_no_one_term_vector_off_the_border_is_built(surface_codim4, monkeypatch):
    # the local annihilator of the surface form: the window monomials outside
    # the divisor set and its border are one-term kernel vectors that no step
    # builds as a polynomial
    H = surface_codim4["H"]
    ctx, bound = H.context, int(H.degree()) + 1
    window = annihilator_window([H], bound)
    hull = window.divisors.union(window.border)
    built = []
    of = Polynomial._of.__func__

    def recording_of(cls, context, terms):
        if cls is Polynomial and len(terms) == 1:
            built.extend(terms)
        return of(cls, context, terms)

    monkeypatch.setattr(Polynomial, "_of", classmethod(recording_of))
    assert ann_cyclic(H).gens
    window_monomials = set(_packed_monomials(ctx.n, 0, bound))
    assert len(window_monomials - hull) > 10 * len(window.border)  # almost all of the window
    assert [m for m in built if m in window_monomials and m not in hull] == []


def test_multiples_go_only_into_degrees_a_later_candidate_has(inserted):
    # the multiples of x meet y^8 only in degree 8: the 792 monomials of
    # degree 7 in six variables, not the 1716 of degree at most 7
    ideal = ideal_of(ctx_of("ring Q[x,y,z,t,u,v]"), "x, y^8")
    assert [str(g) for g in minimal_generators(ideal)] == ["x", "y^8"]
    multiples = inserted[2:]  # after the candidates' own span
    assert len(multiples) == 792 and {max(row) >> ideal.context.shift for row in multiples} == {8}


# SHA-256 of the reprs of ``ann_module`` generators and attached Groebner
# bases over the cases of ``_pinned_reprs``, recorded with the minimalizer
# that inserted every product into the echelon span; any change of an
# output changes it.
PINNED_DIGEST = "dd441f28b501f6387d0980b24a47528a6816c0d08fbdf03948d5353e4b8cf853"


def _pinned_reprs():
    out = []
    for field, mode in (("Q", "graded"), (f"Fp({P})", "local")):
        for gens, top in _seeded_cases(f"pinned-{field}-{mode}", field, mode, 12):
            for bound in range(1, top + 3):
                ideal = ann_module(gens, bound)
                gb = None if ideal.cached_gb is None else ideal.cached_gb.elements
                out.append(f"{gens!r} {bound} {ideal.gens!r} {gb!r}")
    return out


def test_annihilator_outputs_match_pinned_digest():
    reprs = _pinned_reprs()
    assert len(reprs) > 100
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == PINNED_DIGEST
