"""Buchberger engine, Hilbert series, regular sequences, socles, minimal generators."""

import pytest
from conftest import ctx_of, dual, ideal_of, ring_poly, rng_for, random_poly

from invsys import (
    Ideal,
    PreconditionError,
    ann_cyclic,
    buchberger,
    hilbert_data,
    hilbert_series,
    is_regular_sequence,
    minimal_generators,
    normal_form,
    perp_ideal,
    socle_dim,
    span_reduce,
)
from invsys import groebner
from invsys.groebner import _s_polynomial, standard_monomials
from invsys.ring import Polynomial, monomials_of_degree


@pytest.fixture(scope="module")
def ctx3():
    return ctx_of("ring Q[x,y,z] dual [X,Y,Z]")


# -- buchberger -----------------------------------------------------------------


def test_principal_ideal_basis_is_monic_generator(ctx3):
    gb = buchberger(ideal_of(ctx3, "2x^2-2y*z"))
    assert [str(g) for g in gb.elements] == ["x^2-y*z"]


def test_annihilator_generators_complete_to_basis(ctx3):
    # hand S-polynomial oracle: S(y*z, y^3+z^3) = y^2*(y*z) - z*(y^3+z^3) = -z^4,
    # irreducible by the leading terms x, y*z, y^3, so z^4 joins the basis
    gb = buchberger(ideal_of(ctx3, "x, y*z, y^3+z^3"))
    assert sorted(str(g) for g in gb.elements) == ["x", "y*z", "y^3+z^3", "z^4"]
    s = _s_polynomial(ring_poly(ctx3, "y*z"), ring_poly(ctx3, "y^3+z^3"))
    assert s == ring_poly(ctx3, "-z^4")
    assert normal_form(s, gb).is_zero()


def test_buchberger_certificate_random(ctx3):
    rng = rng_for("buchberger-cert")
    for _ in range(50):
        gens = [
            random_poly(rng, ctx3, "r", rng.randint(1, 3), homogeneous=True)
            for _ in range(rng.randint(1, 3))
        ]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(Ideal(gens, ctx3))
        for i, f in enumerate(gb.elements):
            for g in gb.elements[:i]:
                assert normal_form(_s_polynomial(f, g), gb).is_zero()


def test_membership_agrees_with_linear_algebra(ctx3):
    rng = rng_for("membership-agreement")
    for _ in range(50):
        gens = [
            random_poly(rng, ctx3, "r", rng.randint(1, 2), homogeneous=True)
            for _ in range(2)
        ]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ideal = Ideal(gens, ctx3)
        gb = buchberger(ideal)
        f = random_poly(rng, ctx3, "r", 4, homogeneous=True)
        if f.is_zero():
            continue
        j = int(f.degree())
        window = span_reduce(
            [
                Polynomial.monomial(ctx3, m) * g
                for g in gens
                for m in monomials_of_degree(3, j - int(g.degree()))
                if g.degree() <= j
            ]
        )
        assert normal_form(f, gb).is_zero() == window.contains(f)


def test_rejects_inhomogeneous_in_graded_mode(ctx3):
    with pytest.raises(PreconditionError):
        buchberger(ideal_of(ctx3, "x^2-y"))


def test_certificate_on_worked_ideals(ctx3, elliptic_curve, codim4_curve):
    cases = [
        ideal_of(ctx3, "y*z+x*z, y^3+z^3-x*y^2+x^2*y-x^3, x^2"),
        elliptic_curve["ideal"],
        codim4_curve["ideal"],
    ]
    for ideal in cases:
        gb = buchberger(Ideal(list(ideal.gens), ideal.context))
        for i, f in enumerate(gb.elements):
            for g in gb.elements[:i]:
                assert normal_form(_s_polynomial(f, g), gb).is_zero()


def _all_pairs_basis(gens):
    """Textbook Buchberger: all pairs, first made first reduced, no criteria, no heap.

    The result is then made reduced on its own terms: the elements with
    minimal leading monomials, each with its tail reduced by the others,
    monic and sorted by ascending leading monomial.
    """
    basis = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop(0)
        r = normal_form(_s_polynomial(basis[i], basis[j]), basis)
        if not r.is_zero():
            pairs.extend((len(basis), k) for k in range(len(basis)))
            basis.append(r)
    minimal = []
    unpack = basis[0].context.unpack
    for g in sorted(basis, key=lambda g: g.leading_monomial()):
        lg = unpack(g.leading_monomial())
        if not any(all(a <= b for a, b in zip(unpack(h.leading_monomial()), lg)) for h in minimal):
            minimal.append(g)
    return [normal_form(g, [h for h in minimal if h is not g]).monic() for g in minimal]


@pytest.mark.parametrize("field", ["Q", "Fp(32003)"])
def test_pruned_buchberger_matches_all_pairs_reference(field):
    rng = rng_for(f"all-pairs-{field}")
    compared = 0
    while compared < 50:
        names = "xyztu"[: rng.randint(3, 5)]
        ctx = ctx_of(f"ring {field}[{','.join(names)}] dual [{','.join(names.upper())}]")
        gens = [
            random_poly(rng, ctx, "r", 3, homogeneous=True)
            for _ in range(rng.randint(2, 4))
        ]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        assert buchberger(Ideal(gens, ctx)).elements == _all_pairs_basis(gens)
        compared += 1


def test_pruned_buchberger_matches_reference_on_worked_ideals(
    elliptic_curve, codim4_curve, surface_codim4
):
    for ideal in (elliptic_curve["ideal"], codim4_curve["ideal"], surface_codim4["ideal"]):
        fresh = Ideal(list(ideal.gens), ideal.context)
        assert buchberger(fresh).elements == _all_pairs_basis(ideal.gens)


def test_buchberger_never_rebuilds_reducers(monkeypatch, elliptic_curve):
    # a plain list handed to normal_form has its (leading monomial, element)
    # pairs rebuilt on every call; the reduction steps and the final
    # interreduction keep theirs
    plain = []

    def counting(f, basis):
        if not isinstance(basis, groebner.GroebnerBasis):
            plain.append(basis)
        return normal_form(f, basis)

    monkeypatch.setattr(groebner, "normal_form", counting)
    ideal = elliptic_curve["ideal"]
    gb = buchberger(Ideal(list(ideal.gens), ideal.context))
    assert plain == []
    monkeypatch.undo()
    assert gb.elements == _all_pairs_basis(ideal.gens)


def test_pair_criteria_bound_the_reduced_s_polynomials(monkeypatch):
    # Annihilator of a fixed quartic in six variables (35 generators, a basis
    # of 37).  With the product criterion alone Buchberger reduces 407
    # S-polynomials; with the Gebauer-Moeller criteria it reduces 139.  A
    # larger count means a criterion was lost.
    ctx = ctx_of("ring Q[x,y,z,t,u,w] dual [X,Y,Z,T,U,W]")
    ideal = ann_cyclic(dual(ctx, "X*Y*Z*T+Z*T*U*W+X^[2]*U^[2]+Y^[3]*W-2T^[4]+X*W^[3]"))
    sent = []

    def counting(f, g):
        sent.append((f, g))
        return _s_polynomial(f, g)

    monkeypatch.setattr(groebner, "_s_polynomial", counting)
    gb = buchberger(ideal)
    assert len(ideal.gens) == 35 and len(gb.elements) == 37
    assert len(sent) <= 139


# -- normal forms -----------------------------------------------------------------


def test_normal_form_of_generators_vanishes(ctx3):
    ideal = ideal_of(ctx3, "x*y-z^2, y^2")
    gb = buchberger(ideal)
    for g in ideal.gens:
        assert normal_form(g, gb).is_zero()


def test_normal_form_additive_random(ctx3):
    ideal = ideal_of(ctx3, "x*y-z^2, y^2")
    gb = buchberger(ideal)
    rng = rng_for("nf-linear")
    for _ in range(50):
        f = random_poly(rng, ctx3, "r", 3)
        g = random_poly(rng, ctx3, "r", 3)
        assert normal_form(f + g, gb) == normal_form(f, gb) + normal_form(g, gb)


def test_normal_form_hand_reduction(ctx3):
    gb = buchberger(ideal_of(ctx3, "x, y*z, y^3+z^3"))
    assert normal_form(ring_poly(ctx3, "x*y^3"), gb).is_zero()


# -- hilbert series ------------------------------------------------------------------


def test_hilbert_series_of_zero_ideal(ctx3):
    gb = buchberger(Ideal([], ctx3))
    data = hilbert_series(gb)
    assert data.numerator == [1] and data.dimension == 3 and data.multiplicity == 1


def test_hilbert_series_of_unit_ideal(ctx3):
    data = hilbert_data(ideal_of(ctx3, "1"))
    assert data.dimension == -1 and data.multiplicity == 0


def test_hilbert_series_elliptic_curve(elliptic_curve):
    data = hilbert_data(elliptic_curve["ideal"])
    assert data.dimension == 2 and data.multiplicity == 5


def test_hilbert_series_codim4_curve(codim4_curve):
    data = hilbert_data(codim4_curve["ideal"])
    assert data.dimension == 1 and data.multiplicity == 6


def test_series_expansion_matches_perp_dimensions(curve_codim2):
    data = hilbert_data(curve_codim2["ideal"])
    coeffs = data.series_coeffs(6)
    dims = [s.dim for s in perp_ideal(curve_codim2["ideal"], 6)]
    assert coeffs == dims


# -- regular sequences ----------------------------------------------------------------


def test_first_variable_regular_on_curve(curve_codim2):
    ctx = curve_codim2["ctx"]
    assert is_regular_sequence(curve_codim2["ideal"], [ctx.variable(0)])


def test_last_two_variables_regular_on_surface(elliptic_curve):
    ctx = elliptic_curve["ctx"]
    assert is_regular_sequence(
        elliptic_curve["ideal"], [ctx.variable(3), ctx.variable(4)]
    )


def test_variable_not_regular_on_its_own_ideal():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    assert not is_regular_sequence(ideal_of(ctx, "x"), [ctx.variable(0)])


# -- socle ------------------------------------------------------------------------------


def test_socle_of_complete_intersection():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    assert socle_dim(ideal_of(ctx, "x^2, y^2")) == 1


def test_socle_of_square_of_maximal_ideal():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    assert socle_dim(ideal_of(ctx, "x^2, x*y, y^2")) == 2


def test_socle_requires_artinian():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    with pytest.raises(PreconditionError):
        socle_dim(ideal_of(ctx, "x"))


def test_standard_monomial_count_is_colength():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    gb = buchberger(ideal_of(ctx, "x^2, y^3"))
    assert len(standard_monomials(gb)) == 6


# -- minimal generators -------------------------------------------------------------------


def test_minimal_generators_drop_multiples():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    assert [str(g) for g in minimal_generators(ideal_of(ctx, "x, x^2, x*y"))] == ["x"]


def test_minimal_generator_counts_on_reconstructions(elliptic_curve, codim4_curve):
    mg5 = minimal_generators(elliptic_curve["ideal"])
    assert len(mg5) == 5 and all(g.degree() == 2 for g in mg5)
    mg9 = minimal_generators(codim4_curve["ideal"])
    assert len(mg9) == 9 and all(g.degree() == 2 for g in mg9)
