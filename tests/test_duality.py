"""Module spans, annihilators, inverse systems and Hilbert functions."""

import itertools

import pytest
from conftest import ctx_of, dual, ideal_of, ring_poly, rng_for, random_poly

from invsys import (
    Ideal,
    PreconditionError,
    ann_cyclic,
    ann_module,
    family_from_ideal,
    hilbert_function,
    membership,
    minimal_generators,
    module_span,
    perp_ideal,
    span_dim,
    span_reduce,
)
from invsys.duality import (
    _slices_from_vectors,
    annihilator_slices,
    annihilator_window,
    flatten,
    ideal_contains_mod,
    ideal_window_span,
    ideals_equal_mod,
)
from invsys.linalg import SpanBuilder
from invsys.ring import DPPolynomial, Polynomial, contract, contract_monomial, monomials_of_degree


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


def test_graded_perp_dimension_formula(curve_codim2):
    ctx = curve_codim2["ctx"]
    ideal = curve_codim2["ideal"]
    slices = perp_ideal(ideal, 6)
    for s in slices:
        j = s.degree
        full = len(list(monomials_of_degree(ctx.n, j)))
        gens_span = span_reduce(
            [
                Polynomial.monomial(ctx, m) * g
                for g in ideal.gens
                for m in monomials_of_degree(ctx.n, j - int(g.degree()))
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
    unit_type = type(ctx.scalar(1))
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
        assert rational == [{m: c.val for m, c in v.terms.items()} for v in modular]
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
        assert reduced == [{m: c.val for m, c in v.terms.items()} for v in modular]
    assert compared * 5 >= len(cases) * 4


# -- spans stepped by the variables agree with full enumerations ---------------


def _divisor_span(gens, degree_bound=None):
    """Reference span: every generator contracted by every divisor of every term."""
    builder = SpanBuilder()
    for g in gens:
        for l in g.terms:
            for m in itertools.product(*(range(e + 1) for e in g.context.unpack(l))):
                builder.insert(contract_monomial(g.context.pack(m), g))
    return _slices_from_vectors(builder.basis(), degree_bound)


def _slice_terms(slices):
    return [(s.degree, [v.terms for v in s.basis]) for s in slices]


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
        gens = [_random_dual(rng, ctx, mode == "graded") for _ in range(rng.randint(1, 3))]
        bound = None if k % 2 else rng.randint(1, 3)
        span = module_span(gens, bound)
        assert span and _slice_terms(span) == _slice_terms(_divisor_span(gens, bound))


def _minimalize_by_multiples(slices, ctx):
    """Reference graded minimalization: each degree spans every monomial
    multiple of every generator found in a lower degree."""
    gens = []
    for j in sorted(slices):
        span = SpanBuilder()
        for g in gens:
            for m in monomials_of_degree(ctx.n, j - int(g.degree())):
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
        slices = annihilator_slices([F], int(F.degree()) + 1)
        reference = Ideal(_minimalize_by_multiples(slices, ctx), ctx)
        assert [g.terms for g in ann_cyclic(F).gens] == [g.terms for g in reference.gens]


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
    window = annihilator_window(duals, bound)
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
