"""Module spans, annihilators, inverse systems and Hilbert functions."""

import itertools
import math
import re
import time

import pytest
from conftest import ctx_of, dual, exponent_vectors, ideal_of, ring_poly, rng_for, random_poly, window_kernel

from invsys import (
    ContextMismatchError,
    Ideal,
    PreconditionError,
    SubspaceBasis,
    ann_cyclic,
    ann_module,
    family_from_ideal,
    hilbert_function,
    membership,
    minimal_generators,
    module_span,
    pairing,
    perp_ideal,
    span_dim,
    span_intersect,
    span_reduce,
)
from invsys import duality
from invsys.duality import (
    _slices_from_vectors,
    _term_divisors,
    annihilator_window,
    flatten,
    ideal_contains_mod,
    ideal_window_span,
    ideals_equal_mod,
)
from invsys.linalg import SpanBuilder, kernel_vectors, monomial_columns, refuse_column_range
from invsys.ring import (
    DPPolynomial,
    Polynomial,
    _packed_monomials,
    check_side,
    contract,
    contract_monomial,
    linear_combination,
    shift_mul,
)


# -- module spans --------------------------------------------------------------


def test_cyclic_span_of_plane_curve_generator(plane_curve):
    ctx = plane_curve["ctx"]
    slices = module_span([plane_curve["generator"]])
    vectors = flatten(slices)
    expected = [dual(ctx, t) for t in ["X^[3]+Y^[2]", "X^[2]", "X", "Y", "1"]]
    assert sorted(map(str, vectors)) == sorted(map(str, expected))
    assert span_dim(slices) == 5


def test_span_of_zero_is_empty():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    from invsys import DPPolynomial

    assert module_span([DPPolynomial.zero(ctx)]) == []
    assert module_span([]) == []


def test_span_of_quasihomogeneous_generator_has_multiplicity_five(semigroup_curve):
    assert span_dim(module_span([semigroup_curve["H"][0]])) == 5


# -- hilbert functions -----------------------------------------------------------


def test_hilbert_function_of_plane_curve(plane_curve):
    assert hilbert_function(perp_ideal(plane_curve["ideal"])) == [1, 2, 1, 1]


def test_hilbert_function_of_unit_ideal():
    ctx = ctx_of("ring Q[x,y] dual [X,Y] mode local")
    slices = perp_ideal(ideal_of(ctx, "1"), 3)
    assert hilbert_function(slices) == []


def test_hilbert_function_of_codim4_reduction(codim4_curve):
    base = codim4_curve["H"][0]
    assert hilbert_function(module_span([base])) == [1, 4, 1]


# -- annihilators ------------------------------------------------------------------


def test_annihilator_of_cubic_binomial(curve_codim2):
    ctx = curve_codim2["ctx"]
    ann = ann_cyclic(curve_codim2["H"][0])
    assert [str(g) for g in ann.gens] == ["x", "y*z", "y^3+z^3"]


def test_annihilator_of_monomial():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    ann = ann_cyclic(dual(ctx, "X^[2]"))
    assert [str(g) for g in ann.gens] == ["y", "x^3"]


def test_annihilator_of_zero_rejected():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    from invsys import DPPolynomial

    with pytest.raises(PreconditionError):
        ann_cyclic(DPPolynomial.zero(ctx))


def test_annihilator_of_plane_conic_plus_linear(elliptic_curve):
    ctx = elliptic_curve["ctx"]
    ann = ann_cyclic(elliptic_curve["H11"])
    degree_one = [g for g in ann.gens if g.degree() == 1]
    quadrics = [g for g in ann.gens if g.degree() == 2]
    assert sorted(map(str, degree_one)) == ["t", "w"]
    assert len(quadrics) == 5
    assert all(str(g).count("t") == 0 and str(g).count("w") == 0 for g in quadrics)
    assert hilbert_function(module_span([elliptic_curve["H11"]])) == [1, 3, 1]


@pytest.mark.parametrize("mode", ["graded", "local"])
def test_negative_bounds_are_refused(mode):
    ctx = ctx_of(f"ring Q[x,y] dual [X,Y] mode {mode}")
    F = dual(ctx, "X^[2]*Y+Y^[3]")
    ideal = ideal_of(ctx, "x^2, y^2")
    calls = [
        lambda b: ann_cyclic(F, b),
        lambda b: ann_module([F], b),
        lambda b: annihilator_window([F], b),
        lambda b: perp_ideal(ideal, b),
        lambda b: module_span([F], b),
    ]
    for call in calls:
        for bound in (-1, -3):
            with pytest.raises(PreconditionError, match=f"at least 0, got {bound}"):
                call(bound)
    # bound 0 is the window of the constants, which kill no nonzero element
    assert ann_cyclic(F, 0).gens == [] and window_kernel([F], 0).vectors == []
    assert [(s.degree, s.dim) for s in perp_ideal(ideal, 0)] == [(0, 1)]
    assert [(s.degree, [str(v) for v in s.basis.vectors]) for s in module_span([F], 0)] == [(0, ["1"])]


def test_oversized_ideal_window_is_refused_up_front():
    # truncated comparison works in R_{<40}: C(45, 6) = 8145060 monomials
    ctx = ctx_of("ring Q[x,y,z,t,u,v] mode local")
    gens = [ring_poly(ctx, "x^2-y*z"), ring_poly(ctx, "t^3")]
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="ideal window up to degree 39 needs 8145060 contraction columns"):
        ideals_equal_mod(gens, gens, 40, ctx)
    assert time.perf_counter() - start < 5


def test_annihilator_quotient_socle_is_one(curve_codim2):
    from invsys import socle_dim

    ann = ann_cyclic(curve_codim2["H"][0])
    assert socle_dim(ann) == 1


# -- per-degree inverse systems ------------------------------------------------------


def test_perp_of_plane_curve_matches_cyclic_span(plane_curve):
    slices = perp_ideal(plane_curve["ideal"])
    span = module_span([plane_curve["generator"]])
    assert [(s.degree, [str(v) for v in s.basis.vectors]) for s in slices] == [
        (s.degree, [str(v) for v in s.basis.vectors]) for s in span
    ]


def test_perp_of_unit_ideal_is_zero():
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    slices = perp_ideal(ideal_of(ctx, "1"), 3)
    assert all(s.dim == 0 for s in slices)


def test_perp_of_maximal_ideal():
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    slices = perp_ideal(ideal_of(ctx, "x, y, z"), 1)
    by_degree = {s.degree: s for s in slices}
    assert by_degree[0].dim == 1 and str(by_degree[0].basis.vectors[0]) == "1"
    assert by_degree[1].dim == 0


def test_graded_perp_refuses_nonhomogeneous_generators_before_building_columns(monkeypatch):
    # the window of C(402, 2) = 80601 columns is never built for a refusal
    def build(*args):
        raise AssertionError("columns built")

    monkeypatch.setattr(duality, "monomial_columns", build)
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    with pytest.raises(PreconditionError, match="graded mode needs homogeneous generators"):
        perp_ideal(ideal_of(ctx, "x*y-x"), 400)


def test_graded_perp_dimension_formula(curve_codim2):
    ctx = curve_codim2["ctx"]
    ideal = curve_codim2["ideal"]
    slices = perp_ideal(ideal, 6)
    for s in slices:
        j = s.degree
        full = len(exponent_vectors(ctx, j))
        gens_span = span_reduce(
            [
                Polynomial.monomial(ctx, m) * g
                for g in ideal.gens
                for m in exponent_vectors(ctx, j - int(g.degree()))
                if j >= g.degree()
            ]
        )
        assert s.dim == full - gens_span.dim


# -- joint annihilators ---------------------------------------------------------------


def test_joint_annihilator_of_unit_dual_element():
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    ann = ann_module([dual(ctx, "1")])
    assert sorted(map(str, ann.gens)) == ["x", "y", "z"]


def test_joint_annihilator_redundant_generator(curve_codim2):
    ctx = curve_codim2["ctx"]
    H = curve_codim2["H"][3]
    both = ann_module([H, contract(ring_poly(ctx, "x"), H)], degree_bound=5)
    single = ann_cyclic(H, gen_bound=5)
    assert ideals_equal_mod(both.gens, single.gens, 6, ctx)


def test_joint_annihilator_empty_list_rejected():
    with pytest.raises(PreconditionError):
        ann_module([])


def test_surface_annihilator_has_corrected_generator_list(surface_codim4):
    # the joint annihilator of the stored family strictly contains the listed
    # nine generators: z^2*u kills every entry but is not among their combinations
    ctx = surface_codim4["ctx"]
    J = ann_module(surface_codim4["diagonal"], degree_bound=5)
    corrected = surface_codim4["ideal"].gens + [ring_poly(ctx, "z^2*u")]
    assert ideals_equal_mod(J.gens, corrected, 8, ctx)
    assert not ideal_contains_mod(surface_codim4["ideal"].gens, [ring_poly(ctx, "z^2*u")], 8, ctx)


# -- duality round trips -----------------------------------------------------------------


def test_matlis_round_trip_cyclic_random():
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    rng = rng_for("matlis-cyclic")
    done = 0
    while done < 50:
        F = random_poly(rng, ctx, "dual", 4, homogeneous=True)
        if F.is_zero():
            continue
        done += 1
        ann = ann_cyclic(F)
        back = perp_ideal(ann, int(F.degree()))
        span = module_span([F])
        spans = {s.degree: s.basis.vectors for s in span}
        backs = {s.degree: s.basis.vectors for s in back if s.dim}
        assert spans == backs


def test_matlis_round_trip_ideal_random():
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    rng = rng_for("matlis-ideal")
    from conftest import same_ideal

    for _ in range(50):
        powers = [rng.randint(1, 3) for _ in range(3)]
        gens = [
            Polynomial.monomial(ctx, tuple(p if i == k else 0 for i in range(3)))
            for k, p in enumerate(powers)
        ]
        extra = random_poly(rng, ctx, "r", 2, homogeneous=True)
        if not extra.is_zero() and extra.degree() >= 1:
            gens.append(extra)
        ideal = Ideal(gens, ctx)
        bound = sum(powers)
        vectors = flatten(perp_ideal(ideal, bound))
        if vectors:
            recovered = ann_module(vectors, degree_bound=max(powers) + 1)
        else:
            recovered = Ideal([Polynomial.constant(ctx, 1)], ctx)
        assert same_ideal(recovered, ideal)


def test_local_round_trip_plane_curve(plane_curve):
    ctx = plane_curve["ctx"]
    recovered = ann_cyclic(plane_curve["generator"])
    assert ideals_equal_mod(recovered.gens, plane_curve["ideal"].gens, 6, ctx)


def test_prime_field_kernels_keep_field_scalars():
    # kernels with no rows used to carry Fraction(1) into prime-field results
    ctx = ctx_of("ring Fp(7)[x,y]")
    unit_type = type(ctx.unit)
    ann = ann_cyclic(dual(ctx, "3"))
    assert [str(g) for g in ann.gens] == ["y", "x"]
    perp = perp_ideal(Ideal([], ctx), 1)
    polys = list(ann.gens) + flatten(perp)
    assert len(polys) == 5
    for p in polys:
        assert all(type(c) is unit_type for c in p.terms.values())


# -- rational and prime-field modes agree ----------------------------------------

P = 32003


def _integer_form(rng, n, degree, homogeneous):
    """Exponent -> small int coefficient; the first term has the full degree."""
    terms = {}
    for _ in range(rng.randint(2, 5)):
        d = degree if homogeneous or not terms else rng.randint(1, degree)
        e = [0] * n
        for _ in range(d):
            e[rng.randrange(n)] += 1
        terms[tuple(e)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return terms


def _mod_p(poly):
    """Q coefficients reduced mod P as ints; None when a denominator vanishes mod P."""
    out = {}
    for m, c in poly.terms.items():
        if c.denominator % P == 0:
            return None
        r = c.numerator * pow(c.denominator, -1, P) % P
        if r:
            out[m] = r
    return out


@pytest.mark.parametrize("mode", ["graded", "local"])
def test_rational_results_reduce_to_prime_field_results(mode):
    rng = rng_for(f"q-fp-{mode}")
    compared = skipped = 0
    for _ in range(20):
        n, degree = rng.randint(3, 4), rng.randint(3, 5)
        names = "xyzt"[:n]
        decl = f"[{','.join(names)}] dual [{','.join(names.upper())}] mode {mode}"
        ctx_q, ctx_p = ctx_of(f"ring Q{decl}"), ctx_of(f"ring Fp({P}){decl}")
        terms = _integer_form(rng, n, degree, mode == "graded")
        F_q = DPPolynomial(ctx_q, {m: ctx_q.scalar(c) for m, c in terms.items()})
        F_p = DPPolynomial(ctx_p, {m: ctx_p.scalar(c) for m, c in terms.items()})
        span_q, span_p = module_span([F_q]), module_span([F_p])
        rational = [_mod_p(v) for v in flatten(span_q) + ann_cyclic(F_q).gens]
        if None in rational or [(s.degree, s.dim) for s in span_q] != [
            (s.degree, s.dim) for s in span_p
        ]:
            skipped += 1  # a denominator divisible by P, or a rank drop mod P
            continue
        compared += 1
        modular = flatten(span_p) + ann_cyclic(F_p).gens
        assert rational == [v.terms for v in modular]
    assert compared >= 16 and compared + skipped == 20


def _over_prime_field(ideal):
    """The same integer generators, read over Fp(P)."""
    ctx_p = ctx_of(ideal.context.decl().replace("ring Q", f"ring Fp({P})", 1))
    return Ideal([ring_poly(ctx_p, str(g)) for g in ideal.gens], ctx_p)


def _dims(slices):
    return [(s.degree, s.dim) for s in slices]


def test_rational_inverse_systems_and_lifts_reduce_to_prime_field_results(
    curve_codim2, codim4_curve, elliptic_curve
):
    # perp_ideal slices and family_from_ideal entries (the lift systems) of
    # the worked graded ideals, under the skip rules of the random forms above
    cases = []
    for ideal, z_indices in [
        (curve_codim2["ideal"], (0,)),
        (codim4_curve["ideal"], (4,)),
        (elliptic_curve["ideal"], (3, 4)),
    ]:
        ideal_p = _over_prime_field(ideal)
        perp_q, perp_p = perp_ideal(ideal, 6), perp_ideal(ideal_p, 6)
        cases.append((flatten(perp_q), flatten(perp_p), _dims(perp_q) == _dims(perp_p)))
        fam_q, fam_p = (family_from_ideal(I, z_indices, 3) for I in (ideal, ideal_p))
        H_q = [fam_q.entry(L) for L in sorted(fam_q.entries)]
        H_p = [fam_p.entry(L) for L in sorted(fam_p.entries)]
        same_dims = [_dims(module_span([H])) for H in H_q] == [
            _dims(module_span([H])) for H in H_p
        ]
        cases.append((H_q, H_p, same_dims))
    compared = 0
    for rational, modular, same_dims in cases:
        reduced = [_mod_p(v) for v in rational]
        if None in reduced or not same_dims:
            continue  # a denominator divisible by P, or a rank drop mod P
        compared += 1
        assert reduced == [v.terms for v in modular]
    assert compared * 5 >= len(cases) * 4


# -- spans stepped by the variables agree with full enumerations ---------------


def _divisor_span(gens, degree_bound=None):
    """Reference span: every generator contracted by every divisor of every term.

    Returns (degree, vectors) per degree slice: the vectors of the span's
    reduced echelon basis whose top degree it is, by descending leading
    monomial, cut at the bound.
    """
    images = [
        contract_monomial(g.context.pack(m), g)
        for g in gens
        for l in g.terms
        for m in itertools.product(*(range(e + 1) for e in g.context.unpack(l)))
    ]
    by_degree = {}
    for v in span_reduce(images).vectors:
        by_degree.setdefault(int(v.degree()), []).append(v)
    return [
        (d, sorted(vs, key=lambda v: v.leading_monomial(), reverse=True))
        for d, vs in sorted(by_degree.items())
        if degree_bound is None or d <= degree_bound
    ]


def _slice_terms(slices):
    return [(d, [v.terms for v in vs]) for d, vs in slices]


def _span_terms(slices):
    return _slice_terms((s.degree, s.basis.vectors) for s in slices)


def _random_dual(rng, ctx, homogeneous):
    terms = _integer_form(rng, ctx.n, rng.randint(2, 5), homogeneous)
    return DPPolynomial(ctx, {m: ctx.scalar(c) for m, c in terms.items()})


@pytest.mark.parametrize("field", ["Q", f"Fp({P})"])
@pytest.mark.parametrize("mode", ["graded", "local"])
def test_module_span_matches_divisor_enumeration(field, mode):
    rng = rng_for(f"span-reference-{field}-{mode}")
    for k in range(16):
        names = "xyzt"[: rng.randint(2, 4)]
        ctx = ctx_of(f"ring {field}[{','.join(names)}] dual [{','.join(names.upper())}] mode {mode}")
        gens = [_random_dual(rng, ctx, mode == "graded") for _ in range(rng.randint(1, 4))]
        bound = None if k % 2 else rng.randint(1, 3)
        # the walk prunes by generator order: zero, repeated and reordered
        # generators must give the same basis
        for case in (gens, gens[::-1], [DPPolynomial.zero(ctx)] + gens, gens + [gens[0]]):
            span = module_span(case, bound)
            assert span and _span_terms(span) == _slice_terms(_divisor_span(case, bound))


def _contraction_chain(rng, ctx, length, homogeneous):
    """Generators F_0, ..., F_{length-1} with F_k = x*y o F_{k+1}, as on the surface diagonal."""
    chain = [_random_dual(rng, ctx, homogeneous)]
    while len(chain) < length:
        chain.append(shift_mul((1, 1) + (0,) * (ctx.n - 2), chain[-1]))
    return chain


@pytest.mark.parametrize("field", ["Q", "Fp(7)", f"Fp({P})"])
@pytest.mark.parametrize("mode", ["graded", "local"])
def test_module_span_matches_the_brute_force_reference_slice_by_slice(field, mode):
    rng = rng_for(f"span-brute-force-{field}-{mode}")
    homogeneous = mode == "graded"
    for k in range(12):
        names = "xyzt"[: rng.randint(2, 4)]
        ctx = ctx_of(f"ring {field}[{','.join(names)}] dual [{','.join(names.upper())}] mode {mode}")
        if k % 3 == 0:
            gens = _contraction_chain(rng, ctx, rng.randint(2, 3), homogeneous)
            assert contract(ring_poly(ctx, "x*y"), gens[1]) == gens[0]
        else:
            gens = [_random_dual(rng, ctx, homogeneous) for _ in range(rng.randint(1, 3))]
        top = max(int(g.degree()) for g in gens)
        if k % 4 == 1:
            gens.insert(rng.randint(0, len(gens)), DPPolynomial.zero(ctx))
        for bound in (None, 0, rng.randint(1, top)):
            span = module_span(gens, bound)
            assert _span_terms(span) == _slice_terms(_divisor_span(gens, bound))
    assert module_span([]) == [] == _divisor_span([])


def test_module_span_of_the_surface_diagonal_matches_the_divisor_oracle(surface_codim4):
    diagonal = surface_codim4["diagonal"]
    assert _span_terms(module_span(diagonal)) == _slice_terms(_divisor_span(diagonal))


def test_module_span_walk_inserts_little_beyond_the_span(monkeypatch, surface_codim4):
    # the worklist made about six inserts per basis vector on this diagonal;
    # the walk's count is pinned, so a step that loses pruning fails here
    inserts = []
    insert = SpanBuilder.insert

    def counting(self, poly):
        inserts.append(poly)
        return insert(self, poly)

    monkeypatch.setattr(SpanBuilder, "insert", counting)
    dim = span_dim(module_span(surface_codim4["diagonal"]))
    assert dim == 1216 and len(inserts) == 1383


def test_module_span_refuses_mixed_fields():
    q = ctx_of("ring Q[x,y] dual [X,Y]")
    fp = ctx_of(f"ring Fp({P})[x,y,z] dual [X,Y,Z]")
    for gens in ([dual(q, "X^[2]*Y"), dual(fp, "Z^[3]")], [dual(fp, "Z^[3]"), dual(q, "X^[2]*Y")]):
        with pytest.raises(ContextMismatchError, match="mixed fields"):
            module_span(gens)


@pytest.mark.parametrize(
    "held, other",
    [("Q[x,y]", "Q[x,y,z]"), ("Fp(7)[x,y]", "Fp(11)[x,y]"), ("Fp(7)[x,y]", "Q[x,y]"), ("Q[x,y]", "Fp(7)[x,y]")],
)
def test_spans_and_annihilators_refuse_mixed_contexts(held, other):
    # polynomial terms carry no field, so every place where polynomials of
    # two contexts meet checks the contexts; unchecked, a span over Q[x,y]
    # and Q[x,y,z] read the packed monomials of one as those of the other
    a, b = ctx_of(f"ring {held}"), ctx_of(f"ring {other}")
    cause = "mixed fields" if a.char != b.char else "mixed ring contexts"
    extra = "z" if b.n > 2 else "y"
    ring = [ring_poly(a, "x+y"), ring_poly(b, f"x*{extra}+y")]
    duals = [dual(a, "X^[2]+Y^[2]"), dual(b, f"X*{extra.upper()}+Y^[2]")]
    for order in (slice(None), slice(None, None, -1)):
        for refused in (
            lambda: span_reduce(ring[order]),
            lambda: module_span(duals[order]),
            lambda: ann_module(duals[order]),
            lambda: annihilator_window(duals[order], 3),
        ):
            with pytest.raises(ContextMismatchError, match=cause):
                refused()
        first, second = ring[order]
        if second.context.char:  # field scalars still carry their field
            with pytest.raises(ContextMismatchError, match="mixed fields"):
                first.scale(second.context.one)
        builder = SpanBuilder()
        builder.insert(first)
        for use in (builder.insert, builder.reduce, builder.contains):
            with pytest.raises(ContextMismatchError, match=cause):
                use(second)
        assert builder.basis() == [first]


@pytest.mark.parametrize(
    "other", [f"ring Fp({P})[x,y] dual [X,Y]", "ring Q[x,y] dual [X,Y] mode local", "ring side"]
)
def test_generators_from_another_context_are_refused_not_dropped(other):
    # X*Y is x o F; written in another field, another mode or on the ring side
    # it has the same packed terms and coefficients, so a window that dropped
    # reached generators before checking them would drop it silently
    a = ctx_of("ring Q[x,y] dual [X,Y]")
    F = dual(a, "X^[2]*Y+Y^[3]")
    G = ring_poly(a, "x*y") if other == "ring side" else dual(ctx_of(other), "X*Y")
    assert G.terms == contract_monomial(a.pack((1, 0)), F).terms
    for gens in ([F, G], [G, F]):
        first, second = gens[0].context, gens[1].context
        if other == "ring side":
            message = "mixed sides: DPPolynomial and Polynomial"
        else:
            kind = "mixed fields" if first.char != second.char else "mixed ring contexts"
            message = f"{kind}: {first.decl()} and {second.decl()}"
        for refused in (lambda: annihilator_window(gens, 3), lambda: ann_module(gens)):
            with pytest.raises(ContextMismatchError, match=f"^{re.escape(message)}$"):
                refused()


def test_ideal_window_spans_refuse_generators_from_another_context():
    # built in the context argument, the Q[x,y,z] generator x*z+y read its
    # packed monomials as those of Q[x,y] and gave an empty window span, so
    # the two ideals compared unequal instead of being refused
    # the dual X^[2]+Y was read as the ring element x^2+y: its window span
    # was [x^2+y, x*y, y^2], and it compared unequal to (x+y) unrefused
    small, large = ctx_of("ring Q[x,y]"), ctx_of("ring Q[x,y,z]")
    own = ring_poly(small, "x+y")
    for stranger, cause in (
        (ring_poly(large, "x*z+y"), "mixed ring contexts"),
        (dual(small, "X^[2]+Y"), "mixed sides: Polynomial and DPPolynomial"),
    ):
        for refused in (
            lambda: ideal_window_span([stranger], 2, small),
            lambda: ideal_contains_mod([stranger], [own], 3, small),
            lambda: ideals_equal_mod([stranger], [own], 3, small),
            lambda: ideals_equal_mod([own], [stranger], 3, small),
        ):
            with pytest.raises(ContextMismatchError, match=cause):
                refused()


def test_ideal_refuses_generators_from_another_context():
    # unchecked, an Fp(7) generator x^2+8*y^2 read as x^2+y^2 over Q gave
    # perp_ideal degree 2 = [X^[2]-Y^[2]], and a Q[x,y,z] generator x^2 read
    # its packed monomial in Q[x,y] as one of total degree 32769
    q, fp, large = ctx_of("ring Q[x,y]"), ctx_of("ring Fp(7)[x,y]"), ctx_of("ring Q[x,y,z]")
    cases = [
        (ring_poly(fp, "x^2+8*y^2"), ring_poly(q, "x*y"), "mixed fields"),
        (ring_poly(large, "x^2"), ring_poly(q, "y^2"), "mixed ring contexts"),
    ]
    for stranger, own, cause in cases:
        for gens in ([stranger, own], [own, stranger]):
            with pytest.raises(ContextMismatchError, match=cause):
                Ideal(gens, q)
    assert Ideal([ring_poly(q, "x*y"), ring_poly(q, "0")], q).gens == [ring_poly(q, "x*y")]


def test_ideal_refuses_dual_elements():
    # unchecked, X^[2] was read as x^2: hilbert_data gave numerator [1, 2, 1]
    # and perp_ideal degree 2 = [X*Y] for the "ideal" X^[2], y^2
    q = ctx_of("ring Q[x,y]")
    for gens in ([dual(q, "X^[2]"), ring_poly(q, "y^2")], [ring_poly(q, "y^2"), dual(q, "X^[2]")]):
        with pytest.raises(ContextMismatchError, match="mixed sides: Polynomial and DPPolynomial"):
            Ideal(gens, q)


@pytest.mark.parametrize("entry", ["module_span", "annihilator_window", "ann_module", "ann_cyclic"])
def test_dual_entry_points_refuse_ring_elements(entry):
    # unchecked, the ring element x^2 was read as X^[2]: module_span gave
    # 1, X, X^[2] and ann_cyclic gave y, x^3
    q = ctx_of("ring Q[x,y]")
    f, F = ring_poly(q, "x^2"), dual(q, "Y^[2]")
    call = {
        "module_span": module_span,
        "annihilator_window": lambda gens: annihilator_window(gens, 3),
        "ann_module": ann_module,
        "ann_cyclic": lambda gens: ann_cyclic(*gens),
    }[entry]
    for gens in ([f],) if entry == "ann_cyclic" else ([f], [F, f], [f, F]):
        with pytest.raises(ContextMismatchError, match="mixed sides: DPPolynomial and Polynomial"):
            call(gens)


# -- one operand check at every boundary -------------------------------------


def _boundary_entry_points():
    """Each public entry point as (side of the probed slot, call with the probe), next to good operands of Q[x,y]."""
    q = ctx_of("ring Q[x,y]")
    f, F = ring_poly(q, "x+y"), dual(q, "X^[2]*Y+Y^[3]")

    def builder(use):
        def call(bad):
            span = SpanBuilder()
            span.insert(f)
            return getattr(span, use)(bad)

        return call

    return {
        "contract h": ("r", lambda b: contract(b, F)),
        "contract F": ("dual", lambda b: contract(f, b)),
        "pairing f": ("r", lambda b: pairing(b, F)),
        "pairing F": ("dual", lambda b: pairing(f, b)),
        "ring +": ("r", lambda b: f + b),
        "dual +": ("dual", lambda b: F + b),
        "ring -": ("r", lambda b: f - b),
        "dual -": ("dual", lambda b: F - b),
        "*": ("r", lambda b: f * b),
        "Ideal": ("r", lambda b: Ideal([f, b], q)),
        "module_span": ("dual", lambda b: module_span([F, b])),
        "annihilator_window": ("dual", lambda b: annihilator_window([F, b], 3)),
        "ann_module": ("dual", lambda b: ann_module([F, b])),
        "ann_cyclic": ("dual", ann_cyclic),
        "ideal_window_span": ("r", lambda b: ideal_window_span([f, b], 2, q)),
        "ideals_equal_mod gens": ("r", lambda b: ideals_equal_mod([f, b], [f], 3, q)),
        "ideals_equal_mod candidates": ("r", lambda b: ideals_equal_mod([f], [f, b], 3, q)),
        "span_intersect": ("r", lambda b: span_intersect(span_reduce([f]), SubspaceBasis([b]))),
        "span_reduce": ("r", lambda b: span_reduce([f, b])),
        "SpanBuilder.insert": ("r", builder("insert")),
        "SpanBuilder.reduce": ("r", builder("reduce")),
        "SpanBuilder.contains": ("r", builder("contains")),
        "linear_combination": ("r", lambda b: linear_combination(({0: 1, 1: 1}, 1), [f, b])),
    }


def _bad_operand(kind, side):
    """A bad operand for a slot of ``side`` ("r" or "dual") next to operands of Q[x,y], and the start of its refusal."""
    if kind == "int":
        return 3, "mixed sides"
    decl, cause = {
        "wrong side": ("Q[x,y]", "mixed sides"),
        "another field": ("Fp(7)[x,y]", "mixed fields"),
        "another ring": ("Q[x,y,z]", "mixed ring contexts"),
    }[kind]
    if kind == "wrong side":
        side = "dual" if side == "r" else "r"
    build, text = {"r": (ring_poly, "x^2+y"), "dual": (dual, "X^[2]+Y")}[side]
    return build(ctx_of(f"ring {decl}"), text), cause


BAD_OPERANDS = ["wrong side", "another field", "another ring", "int"]


@pytest.mark.parametrize(
    "entry, kind",
    [
        (entry, kind)
        for entry in _boundary_entry_points()
        for kind in BAD_OPERANDS
        # a single operand meets no other field or ring
        if entry != "ann_cyclic" or kind in ("wrong side", "int")
    ],
)
def test_every_entry_point_refuses_every_bad_operand(entry, kind):
    # one check (ring.check_side) at every boundary: the side first, so an
    # int is "mixed sides" and no AttributeError, then the field and ring
    side, call = _boundary_entry_points()[entry]
    bad, cause = _bad_operand(kind, side)
    with pytest.raises(ContextMismatchError, match=f"^{cause}"):
        call(bad)


def test_a_fresh_span_refuses_a_first_operand_that_is_no_polynomial():
    # no side is fixed yet, so check_side takes either polynomial class and
    # refuses the rest, where reading the operand's context raised AttributeError
    q = ctx_of("ring Q[x,y]")
    f = ring_poly(q, "x+y")
    calls = [
        lambda: span_reduce([3]),
        lambda: span_intersect(SubspaceBasis([3]), span_reduce([f])),
        lambda: span_intersect(SubspaceBasis([3, f]), span_reduce([f])),
        *(lambda use=use: getattr(SpanBuilder(), use)(3) for use in ("insert", "reduce", "contains")),
    ]
    for call in calls:
        with pytest.raises(ContextMismatchError, match="^mixed sides: a polynomial and int$"):
            call()


def test_annihilator_window_of_no_generator_is_refused_before_the_window_is_sized():
    # an empty list has no ring context to size the window by, at any bound
    for bound in (3, -1, 10**6):
        with pytest.raises(PreconditionError, match="at least one generator"):
            annihilator_window([], bound)


def _compressed_hf(n, s):
    return [min(math.comb(n - 1 + i, i), math.comb(n - 1 + s - i, s - i)) for i in range(s + 1)]


@pytest.mark.parametrize("field", ["Q", f"Fp({P})"])
@pytest.mark.parametrize("n, s", [(4, 4), (4, 5), (5, 4)])
def test_general_forms_have_compressed_hilbert_functions(field, n, s):
    # Iarrobino (Trans. AMS 285, 1984): a general form F of degree s in n
    # variables has HF_i(R/Ann F) = min(C(n-1+i, i), C(n-1+s-i, s-i)), an
    # oracle independent of the library, checked through R o F and through
    # the Hilbert data read off the annihilator's kernel
    rng = rng_for(f"compressed-{field}-{n}-{s}")
    names = "xyztu"[:n]
    ctx = ctx_of(f"ring {field}[{','.join(names)}] dual [{','.join(names.upper())}]")
    F = DPPolynomial(ctx, {e: rng.randint(-(10**6), 10**6) for e in exponent_vectors(ctx, s)})
    assert hilbert_function(module_span([F])) == _compressed_hf(n, s)
    assert ann_cyclic(F).cached_hilbert.numerator == _compressed_hf(n, s)


def _contraction_rows_by_brute_force(gens, columns):
    """Rows of contraction of the dual generators by each column monomial, one column at a time."""
    rows = {}
    for j, u in enumerate(columns):
        for k, g in enumerate(gens):
            for d, c in contract_monomial(u, g).terms.items():
                rows.setdefault((k, d), {})[j] = c
    return list(rows.values())


def _per_degree_kernels(gens, bound):
    """Canonical kernel of contraction on each R_j, j = bound down to 0, concatenated."""
    ctx = gens[0].context
    out = []
    for j in range(bound, -1, -1):
        columns = monomial_columns(ctx.n, j, j, "test system", "of")
        rows = _contraction_rows_by_brute_force(gens, columns)
        out.extend(Polynomial._of(ctx, v) for v in kernel_vectors(rows, columns, ctx.one))
    return out


@pytest.mark.parametrize("field", ["Q", f"Fp({P})"])
def test_homogeneous_window_kernel_is_the_sum_of_degree_kernels(field):
    # a column of degree j reaches only rows of degree deg F - j, so the
    # window matrix is block-diagonal and its reduced echelon kernel is the
    # per-degree kernels, vector for vector and in the same order
    rng = rng_for(f"window-degree-kernels-{field}")
    for k in range(8):
        names = "xyzt"[: rng.randint(2, 4)]
        ctx = ctx_of(f"ring {field}[{','.join(names)}] dual [{','.join(names.upper())}]")
        gens = [_random_dual(rng, ctx, homogeneous=True) for _ in range(1 + k % 2)]
        top = max(int(g.degree()) for g in gens)
        for b in range(1, top + 2):
            window = window_kernel(gens, b).vectors
            assert [v.terms for v in window] == [v.terms for v in _per_degree_kernels(gens, b)]


def _full_window_reference(gens, bound):
    """The reduced echelon kernel over every window column, one-term vectors built too."""
    ctx = gens[0].context
    columns = monomial_columns(ctx.n, 0, bound, "reference window")
    rows = _contraction_rows_by_brute_force(gens, columns)
    return [Polynomial._of(ctx, v) for v in kernel_vectors(rows, columns, ctx.one)]


def _assert_window_matches_reference(gens, bound):
    ctx = gens[0].context
    window = annihilator_window(gens, bound)
    reference = _full_window_reference(gens, bound)
    # the multi-term vectors, vector for vector and in the same order
    assert [v.terms for v in window.multi_term] == [v.terms for v in reference if len(v.terms) > 1]
    # the one-term vectors are the window monomials outside the divisor set
    one_term = {m for v in reference if len(v.terms) == 1 for m in v.terms}
    assert one_term == set(_packed_monomials(ctx.n, 0, bound)) - window.divisors
    # and the border is their set of minimal elements
    minimal = {m for m in one_term if not any(u != m and ctx.divides(u, m) for u in one_term)}
    assert window.border == sorted(minimal, reverse=True)


@pytest.mark.parametrize("field", ["Q", f"Fp({P})", "Fp(7)"])
@pytest.mark.parametrize("mode", ["graded", "local"])
def test_window_parts_match_the_full_window_kernel(field, mode):
    rng = rng_for(f"window-parts-{field}-{mode}")
    for k in range(10):
        names = "xyzt"[: rng.randint(2, 4)]
        ctx = ctx_of(f"ring {field}[{','.join(names)}] dual [{','.join(names.upper())}] mode {mode}")
        gens = [_random_dual(rng, ctx, homogeneous=mode == "graded") for _ in range(1 + k % 3 // 2)]
        top = max(int(g.degree()) for g in gens)
        for bound in range(0, top + 3):
            _assert_window_matches_reference(gens, bound)


def test_window_parts_of_the_surface_diagonal(surface_codim4):
    # the joint annihilator of eight generators of degree 5..19 in six variables
    for bound in range(0, 9):
        _assert_window_matches_reference(surface_codim4["diagonal"], bound)


def _window_slices(gens, bound):
    """The window annihilator's kernel vectors grouped by degree."""
    slices = {}
    for v in window_kernel(gens, bound).vectors:
        slices.setdefault(int(v.degree()), []).append(v)
    return slices


def _minimalize_by_multiples(slices, ctx):
    """Reference graded minimalization: each degree spans every monomial
    multiple of every generator found in a lower degree."""
    gens = []
    for j in sorted(slices):
        span = SpanBuilder()
        for g in gens:
            for m in exponent_vectors(ctx, j - int(g.degree())):
                span.insert(Polynomial.monomial(ctx, m) * g)
        for v in slices[j]:
            r = span.reduce(v)
            if not r.is_zero():
                gens.append(r.monic())
                span.insert(gens[-1])
    return gens


@pytest.mark.parametrize("field", ["Q", f"Fp({P})"])
def test_graded_annihilator_generators_match_multiples_reference(field):
    rng = rng_for(f"minimalize-reference-{field}")
    for _ in range(8):
        names = "xyzt"[: rng.randint(3, 4)]
        ctx = ctx_of(f"ring {field}[{','.join(names)}] dual [{','.join(names.upper())}]")
        F = _random_dual(rng, ctx, homogeneous=True)
        slices = _window_slices([F], int(F.degree()) + 1)
        reference = Ideal(_minimalize_by_multiples(slices, ctx), ctx)
        assert [g.terms for g in ann_cyclic(F).gens] == [g.terms for g in reference.gens]
        # bounds at or below deg F too: every graded bound starts from m*Ann
        for b in range(1, int(F.degree()) + 2):
            reference = Ideal(_minimalize_by_multiples(_window_slices([F], b), ctx), ctx)
            assert [g.terms for g in ann_module([F], b).gens] == [g.terms for g in reference.gens]


@pytest.mark.parametrize(
    "decl, gens, minimal",
    [
        ("Q[x,y,z,t]", "x^2, y^7+x^2*z^5, z^7+x*t^6, x^2*y^3", "x^2, y^7, z^7+x*t^6"),
        ("Q[x,y,z,t,u,v]", "x, y^8", "x, y^8"),
        ("Q[x,y,z,t]", "x^2, x*y, y^6+z^6, x^2*t^4, t^9", "x^2, x*y, y^6+z^6, t^9"),
    ],
)
def test_minimal_generators_across_degree_gaps(decl, gens, minimal):
    ideal = ideal_of(ctx_of(f"ring {decl}"), gens)
    out = minimal_generators(ideal)
    assert ", ".join(str(g) for g in out) == minimal
    slices = {
        s.degree: span_reduce(s.basis.vectors).vectors for s in _slices_from_vectors(ideal.gens)
    }
    assert out == _minimalize_by_multiples(slices, ideal.context)


def _assert_locally_minimal(gens, duals, bound):
    """No generator lies in the window span of the truncated multiples of the
    others, and together they span the window annihilator modulo m^{bound+1}."""
    ctx = duals[0].context
    for k, g in enumerate(gens):
        assert g.degree() <= bound
        assert all(contract(g, F).is_zero() for F in duals)
        others = gens[:k] + gens[k + 1 :]
        assert not ideal_window_span(others, bound, ctx).contains(g), str(g)
    window = window_kernel(duals, bound)
    assert ideal_window_span(gens, bound, ctx).dim() == window.dim


@pytest.mark.parametrize(
    "poly, expected",
    [("X^[3]+Y^[2]", "x*y, x^3-y^2"), ("X^[4]+Y^[3]+X*Y", "y^3-x*y, x^4-x*y")],
)
def test_local_annihilator_examples_are_minimal(poly, expected):
    ctx = ctx_of("ring Q[x,y] dual [X,Y] mode local")
    F = dual(ctx, poly)
    ann = ann_cyclic(F)
    assert ", ".join(str(g) for g in ann.gens) == expected
    _assert_locally_minimal(ann.gens, [F], int(F.degree()) + 1)


@pytest.mark.parametrize("field", ["Q", f"Fp({P})"])
def test_local_annihilator_generators_are_minimal(field):
    rng = rng_for(f"local-minimal-{field}")
    for k in range(10):
        names = "xyzt"[: rng.randint(2, 4)]
        ctx = ctx_of(f"ring {field}[{','.join(names)}] dual [{','.join(names.upper())}] mode local")
        gens = [_random_dual(rng, ctx, homogeneous=False) for _ in range(1 + k % 2)]
        bound = max(int(g.degree()) for g in gens) + 1 + k % 3 // 2
        ann = ann_module(gens, degree_bound=bound)
        _assert_locally_minimal(ann.gens, gens, bound)


def test_term_divisors_list_every_window_entry_of_the_surface_diagonal(surface_codim4):
    # each (term, divisor) pair is one nonzero entry of the window's contraction
    # matrix, and the divisors are the 245 window monomials at bound 5 that
    # divide a term
    ctx, diagonal = surface_codim4["ctx"], surface_codim4["diagonal"]
    terms = {l for g in diagonal for l in g.terms}
    for bound in range(9):
        window = _packed_monomials(ctx.n, 0, bound)
        pairs = _term_divisors(diagonal, bound)
        divisors = [u for *_, us in pairs for u in us]
        assert set(divisors) == {m for m in window if any(ctx.divides(m, l) for l in terms)}
        entries = {(k, l - u + ctx.base, u, a) for k, l, a, us in pairs for u in us}
        assert len(entries) == len(divisors)  # no pair is listed twice
        assert entries == {
            (k, d, u, c) for u in window for k, g in enumerate(diagonal) for d, c in contract_monomial(u, g).terms.items()
        }
    assert len({u for *_, us in _term_divisors(diagonal, 5) for u in us}) == 245


# -- windows over the top generators ------------------------------------------------


def _stacked_window(gens, bound):
    """``annihilator_window`` with one contraction row block per generator, none dropped."""
    ctx = check_side(DPPolynomial, gens)
    refuse_column_range(ctx.n, 0, bound, "annihilator")
    pairs = _term_divisors(gens, bound)
    divisors = {u for *_, us in pairs for u in us}
    columns = sorted(divisors, reverse=True)
    position = {u: j for j, u in enumerate(columns)}
    rows = [{} for _ in gens]
    for k, l, a, us in pairs:
        l += ctx.base
        row_at = rows[k].setdefault
        for u in us:
            row_at(l - u, {})[position[u]] = a
    kernel = kernel_vectors([row for by_quotient in rows for row in by_quotient.values()], columns, ctx.one)
    return duality.AnnihilatorWindow(ctx, bound, divisors, [Polynomial._of(ctx, v) for v in kernel])


def _random_unit(rng, ctx):
    return ctx.scalar(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 5))


def _reached(rng, F):
    """c * (m o F) for a unit c and a monomial m dividing a term of F, m = 1 included."""
    ctx = F.context
    m = tuple(rng.randint(0, e) for e in ctx.unpack(rng.choice(list(F.terms))))
    return contract_monomial(ctx.pack(m), F).scale(_random_unit(rng, ctx))


def _bent(rng, G):
    """G with the coefficient of one term other than its lead moved: not a unit multiple of G."""
    ctx = G.context
    m = rng.choice(sorted(G.terms)[:-1])
    return G + DPPolynomial._of(ctx, {m: ctx.to_term(ctx.scalar(rng.choice([-1, 1])))})


def _pruning_case(rng, ctx, homogeneous):
    """Dual generators, some reached from others: chains of contractions by random
    monomials scaled by random units, a proportional duplicate on either side of
    its original, near misses with one coefficient bent, unrelated generators and
    zeros, shuffled."""
    F = _random_dual(rng, ctx, homogeneous)
    gens = [F]
    for _ in range(rng.randint(1, 3)):  # each one reached from an earlier one
        gens.append(_reached(rng, rng.choice(gens)))
    twin = rng.choice(gens)
    gens.insert(gens.index(twin) + rng.randint(0, 1), twin.scale(_random_unit(rng, ctx)))
    near = [G for G in gens if len(G.terms) > 1]
    if near and rng.random() < 0.6:
        gens.append(_bent(rng, rng.choice(near)))
    for _ in range(rng.randint(0, 1)):
        gens.append(_random_dual(rng, ctx, homogeneous))
    for _ in range(rng.randint(0, 1)):
        gens.append(DPPolynomial.zero(ctx))
    if rng.random() < 0.5:
        rng.shuffle(gens)
    return gens


def _annihilator_parts(gens, bound):
    J = ann_module(gens, bound)
    gb = J.cached_gb
    return (
        [g.terms for g in J.gens],
        gb and ([g.terms for g in gb.elements], gb.staircase),
        J.cached_hilbert,
    )


@pytest.mark.parametrize("field", ["Q", "Fp(7)", f"Fp({P})"])
@pytest.mark.parametrize("mode", ["graded", "local"])
def test_top_generator_windows_match_the_stacked_window(monkeypatch, field, mode):
    # a generator that another reaches by a monomial contraction adds no rows;
    # the window, the annihilator's generators, its Groebner basis with the
    # staircase and its Hilbert data come out term for term as when every
    # generator stacks its rows
    rng = rng_for(f"top-generators-{field}-{mode}")
    dropped = 0
    for k in range(12):
        names = "xyzt"[: rng.randint(2, 4)]
        ctx = ctx_of(f"ring {field}[{','.join(names)}] dual [{','.join(names.upper())}] mode {mode}")
        gens = _pruning_case(rng, ctx, mode == "graded")
        top = max(int(g.degree()) for g in gens if g.terms)
        dropped += len(gens) - len(duality._top_generators(gens))
        for bound in (rng.randint(0, max(top - 1, 0)), top, top + 1 + k % 2):
            window, stacked = annihilator_window(gens, bound), _stacked_window(gens, bound)
            assert window.divisors == stacked.divisors
            assert [v.terms for v in window.multi_term] == [v.terms for v in stacked.multi_term]
            fast = _annihilator_parts(gens, bound)
            with monkeypatch.context() as m:
                m.setattr(duality, "annihilator_window", _stacked_window)
                assert fast == _annihilator_parts(gens, bound), (k, bound, [str(g) for g in gens])
    assert dropped > 12
    zero = DPPolynomial.zero(ctx)
    for gens in ([zero], [zero, zero]):
        window, stacked = annihilator_window(gens, 2), _stacked_window(gens, 2)
        assert window.divisors == stacked.divisors == set() and window.multi_term == stacked.multi_term == []


def test_surface_diagonal_window_stacks_the_top_entry_alone(monkeypatch, surface_codim4):
    # each entry of the diagonal is x*y o the next up to a unit, so the window
    # eliminates 479 rows of the top entry over the 245 divisors, not the 2627
    # of all eight entries
    diagonal = surface_codim4["diagonal"]
    assert duality._top_generators(diagonal) == [diagonal[-1]]
    sizes = []
    kernel = duality.kernel_forms

    def counting(rows, columns, one):
        sizes.append((len(rows), len(columns)))
        return kernel(rows, columns, one)

    monkeypatch.setattr(duality, "kernel_forms", counting)
    ann_module(diagonal, degree_bound=5)
    assert sizes == [(479, 245)]
