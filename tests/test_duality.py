"""Module spans, annihilators, inverse systems and Hilbert functions."""

import pytest
from conftest import ctx_of, dual, ideal_of, ring_poly, rng_for, random_poly

from invsys import (
    Ideal,
    PreconditionError,
    ann_cyclic,
    ann_module,
    hilbert_function,
    membership,
    module_span,
    perp_ideal,
    span_dim,
    span_reduce,
)
from invsys.duality import flatten, ideal_contains_mod, ideals_equal_mod
from invsys.ring import contract, monomials_of_degree, Polynomial


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
