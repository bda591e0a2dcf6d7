"""Buchberger engine, Hilbert series, regular sequences, socles, minimal generators."""

import pytest
from conftest import ctx_of, dual, exponent_vectors, ideal_of, ring_poly, rng_for, random_poly

from invsys import (
    Ideal,
    PreconditionError,
    ann_cyclic,
    ann_module,
    buchberger,
    gorenstein_check,
    hilbert_data,
    hilbert_series,
    is_regular_sequence,
    minimal_generators,
    module_span,
    normal_form,
    parse_polynomial,
    perp_ideal,
    socle_dim,
    span_dim,
    span_reduce,
)
from invsys import groebner
from invsys.duality import flatten
from invsys.groebner import _s_polynomial, standard_monomials
from invsys.linalg import kernel_vectors, rank_of, rref_rows
from invsys.ring import Polynomial, _packed_monomials, contract


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
                for m in exponent_vectors(ctx3, j - int(g.degree()))
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


@pytest.mark.parametrize("field", ["Q", "Fp(32003)", "Fp(7)"])
def test_graded_annihilator_basis_matches_buchberger(field):
    # ann_module reads the reduced basis off its slices once the bound passes
    # every generator degree; at the top degree itself it attaches none
    rng = rng_for(f"annihilator-basis-{field}")
    attached = 0
    for k in range(40):
        n = rng.randint(2, 6)
        ctx = ctx_of(f"ring {field}[{','.join(f'v{i}' for i in range(n))}]")
        gens = [
            random_poly(rng, ctx, "dual", 5 if n <= 4 else 4, homogeneous=True)
            for _ in range(rng.randint(1, 3))
        ]
        top = max(int(g.degree()) for g in gens)
        bound = (None, top + 3, top)[k % 3]
        ideal = ann_module(gens, bound)
        if bound == top:
            assert ideal.cached_gb is None
            continue
        gb = ideal.cached_gb
        assert gb is not None and gb.source is ideal
        reference = buchberger(Ideal(list(ideal.gens), ctx))
        assert [g.terms for g in gb.elements] == [g.terms for g in reference.elements]
        assert gb.leading_monomials() == reference.leading_monomials()
        attached += 1
    assert attached > 20


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


def test_regular_sequence_test_refuses_a_quadric():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    with pytest.raises(PreconditionError, match="regular sequence test expects linear forms"):
        is_regular_sequence(ideal_of(ctx, "x*y"), [ring_poly(ctx, "x^2")])


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


def test_unit_ideal_has_no_standard_monomials_and_no_socle():
    # R/(1) = 0 is Artinian: no standard monomial, a zero socle
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    for text in ("1", "x, 1, y^2"):
        ideal = ideal_of(ctx, text)
        assert standard_monomials(buchberger(ideal)) == []
        assert socle_dim(ideal) == 0


def _reference_standard_monomials(gb):
    """All-pairs divisibility scan, degree by degree until a degree has none."""
    ctx, lms = gb.context, gb.leading_monomials()
    std, degree = [], 0
    while True:
        layer = [
            m
            for m in _packed_monomials(ctx.n, degree, degree)
            if not any(ctx.divides(lm, m) for lm in lms)
        ]
        if not layer and degree > 0:
            return sorted(std)
        std.extend(layer)
        degree += 1


def _reference_rows(ideal):
    """Standard monomials and, for each, its row of NF(x_i*m) at keys (position of t, i)."""
    gb = buchberger(ideal)
    ctx = ideal.context
    std = _reference_standard_monomials(gb)
    pos = {m: j for j, m in enumerate(std)}
    rows = [{} for _ in std]
    for j, m in enumerate(std):
        for i, x in enumerate(ctx.var_monomials):
            image = normal_form(Polynomial._of(ctx, {m + x - ctx.base: ctx.unit}), gb)
            for tm, tc in image.terms.items():
                rows[j][pos[tm], i] = tc
    return std, rows


def _stacked_matrix(rows):
    """The multiplication matrix itself: one row per key, keyed by standard monomial position."""
    stacked = {}
    for j, row in enumerate(rows):
        for key, c in row.items():
            stacked.setdefault(key, {})[j] = c
    return list(stacked.values())


def _reference_socle_dim(ideal):
    """One normal form per product x*m of a variable and a standard monomial, then a rank."""
    std, rows = _reference_rows(ideal)
    return len(std) - rank_of(_stacked_matrix(rows), ideal.context.one)


def _artinian_ideal(rng, ctx):
    """Pure powers of every variable plus up to three random forms."""
    gens = []
    for i in range(ctx.n):
        e = [0] * ctx.n
        e[i] = rng.randint(1, 4)
        gens.append(Polynomial(ctx, {tuple(e): ctx.one}))
    gens += [random_poly(rng, ctx, "r", 3, homogeneous=True) for _ in range(rng.randint(0, 3))]
    return Ideal(gens, ctx)


def _agrees_with_references(ideal):
    """Compare the border walk with the references; returns the socle dimension."""
    gb = buchberger(ideal)
    ctx = ideal.context
    std, border = groebner._border_walk(gb)
    assert std == _reference_standard_monomials(gb)
    assert standard_monomials(gb) == std
    for u, nf in border.items():  # each border normal form is the honest one
        assert normal_form(Polynomial._of(ctx, {u: ctx.unit}), gb).terms == nf
    socle = socle_dim(ideal)
    assert socle == _reference_socle_dim(ideal)
    return socle


@pytest.mark.parametrize("field", ["Q", "Fp(32003)", "Fp(7)"])
def test_socle_and_standard_monomials_match_references(field):
    rng = rng_for(f"socle-reference-{field}")
    socles = []
    for k in range(24):
        n = rng.randint(2, 4)
        ctx = ctx_of(f"ring {field}[{','.join('xyzt'[:n])}]")
        if k % 2:  # a basis read off the window kernel
            F = random_poly(rng, ctx, "dual", 4, homogeneous=True)
            ideal = ann_cyclic(F)
            assert ideal.cached_gb is not None
        else:  # a basis from Buchberger
            ideal = _artinian_ideal(rng, ctx)
        socles.append(_agrees_with_references(ideal))
    assert 1 in socles and max(socles) >= 2


def _matlis_count(gens):
    """Minimal generators of the dual module M = R o gens: dim M / m o M."""
    ctx = gens[0].context
    xs = [Polynomial._of(ctx, {x: ctx.unit}) for x in ctx.var_monomials]
    products = [p for p in (contract(x, F) for x in xs for F in gens) if not p.is_zero()]
    return span_dim(module_span(gens)) - span_dim(module_span(products))


@pytest.mark.parametrize("field", ["Q", "Fp(32003)", "Fp(7)"])
def test_window_socle_matches_matlis_duality(field):
    # by Matlis duality the socle of R/Ann(M) is dual to M / m o M, whose
    # dimension is the number of minimal generators of the dual module M
    rng = rng_for(f"matlis-socle-{field}")
    socles = []
    for _ in range(5):
        n = rng.randint(2, 4)
        ctx = ctx_of(f"ring {field}[{','.join('xyzt'[:n])}]")
        gens = [random_poly(rng, ctx, "dual", 4, homogeneous=True) for _ in range(rng.randint(1, 3))]
        matlis = _matlis_count(gens)
        top = max(int(g.degree()) for g in gens)
        for bound in (top + 1, top + 2):
            ideal = ann_module(gens, bound)
            assert ideal.cached_gb.staircase is not None
            socle = socle_dim(ideal)
            assert socle == socle_dim(Ideal(list(ideal.gens), ctx)) == _reference_socle_dim(ideal) == matlis
            socles.append(socle)
    assert min(socles) >= 1 and max(socles) >= 2


def test_socle_walk_matches_references_on_nonhomogeneous_bases():
    # a local-mode ideal is not checked for homogeneity; the walk needs only
    # a reduced basis, whose tails may then drop in degree
    ctx = ctx_of("ring Q[x,y] mode local")
    for text in ("x^2-y, y^3", "x^3+x*y, y^2-x^2, x*y^2"):
        _agrees_with_references(ideal_of(ctx, text))


# -- the socle ranks only the corners and the rows they reach ----------------------------


def _socle_cases(field):
    """Seeded window staircases with their Matlis counts, Buchberger bases, two local bases."""
    rng = rng_for(f"socle-corners-{field}")
    cases = []
    for k in range(16):
        n = rng.randint(2, 4)
        ctx = ctx_of(f"ring {field}[{','.join('xyzt'[:n])}]")
        if k % 2:  # a window staircase of one to three generators
            gens = [random_poly(rng, ctx, "dual", 4, homogeneous=True) for _ in range(rng.randint(1, 3))]
            ideal = ann_module(gens, max(int(g.degree()) for g in gens) + 1)
            assert ideal.cached_gb.staircase is not None
            cases.append((ideal, _matlis_count(gens)))
        else:
            cases.append((_artinian_ideal(rng, ctx), None))
    local = ctx_of(f"ring {field}[x,y] mode local")
    return cases + [(ideal_of(local, text), None) for text in ("x^2-y, y^3", "x^3+x*y, y^2-x^2, x*y^2")]


def _lemma_rows(ideal):
    """Corners, and the rows ``socle_dim`` should rank, from the reference rows.

    The first standard successor x_i*m of a standard monomial m that is not a
    corner gives its key (position of x_i*m, i), relabelled -1 - (position of
    m); every other key (p, i) is p*n + i.  Returns the corners, the nonzero
    corner rows and the rows those reach through relabelled keys,
    transitively, and the number of standard monomials with a nonzero row.
    """
    ctx = ideal.context
    std, rows = _reference_rows(ideal)
    pos = {m: j for j, m in enumerate(std)}
    relabel = {}
    for j, m in enumerate(std):
        successors = [i for i, x in enumerate(ctx.var_monomials) if m + x - ctx.base in pos]
        if successors:
            i = successors[0]
            relabel[pos[m + ctx.var_monomials[i] - ctx.base], i] = -1 - j
    corners = [j for j in range(len(std)) if -1 - j not in relabel.values()]
    keyed = [{relabel.get((p, i), p * ctx.n + i): c for (p, i), c in row.items()} for row in rows]
    reached, todo = set(), list(corners)
    while todo:
        for k in keyed[todo.pop()]:
            if k < 0 and -1 - k not in reached:
                reached.add(-1 - k)
                todo.append(-1 - k)
    corner_rows = [keyed[j] for j in corners if keyed[j]]
    return [std[j] for j in corners], corner_rows, [keyed[j] for j in sorted(reached)], sum(map(bool, rows))


@pytest.mark.parametrize("field", ["Q", "Fp(32003)", "Fp(7)"])
def test_corner_socle_matches_references(field):
    socles, reaching = [], []
    for ideal, matlis in _socle_cases(field):
        socle = socle_dim(ideal)
        assert socle == _reference_socle_dim(ideal)
        if matlis is not None:
            assert socle == matlis
        socles.append(socle)
        reaching.append(bool(_lemma_rows(ideal)[2]))  # a corner row holds a relabelled key
    assert max(socles) >= 2 and any(reaching)


@pytest.mark.parametrize("field", ["Q", "Fp(32003)", "Fp(7)"])
def test_socle_elements_are_led_by_corners(field):
    # the socle is the left kernel of the rows; put in echelon form by the
    # degrevlex largest monomial, every basis element is led by a corner
    for ideal, _ in _socle_cases(field):
        ctx = ideal.context
        std, rows = _reference_rows(ideal)
        socle = kernel_vectors(_stacked_matrix(rows), std, ctx.one)
        leads = rref_rows(socle, ctx.one, lead=max)[1]
        corners = _lemma_rows(ideal)[0]
        assert set(leads) <= set(corners)
        assert len(leads) == socle_dim(ideal) <= len(corners)


@pytest.mark.parametrize(
    "decl, form, counts",
    [
        ("ring Q[x,y,z,t]", "X*Y*Z+Z*T^[2]-2X^[3]+Y^[2]*T", (3, 0, 9)),
        ("ring Q[x,y,z,t,u,w]", "X^[2]*Y*Z+Y*Z*T*U-X*U^[2]*W+3Y^[2]*T^[2]+2Z*W^[3]-T*U^[2]*W", (10, 2, 29)),
    ],
    ids=["cubic-4", "quartic-6"],
)
def test_socle_ranks_only_the_corner_rows_and_the_rows_they_reach(monkeypatch, decl, form, counts):
    # (nonzero corner rows, rows they reach, standard monomials with a nonzero
    # row): a return to the whole matrix ranks the last number of rows
    passed = []

    def recording(rows, one):
        passed.append(sorted(sorted(row.items()) for row in rows))
        return rank_of(rows, one)

    monkeypatch.setattr(groebner, "rank_of", recording)
    ideal = ann_cyclic(dual(ctx_of(decl), form))
    assert socle_dim(ideal) == 1
    _, corner_rows, reached_rows, nonzero = _lemma_rows(ideal)
    assert passed == [sorted(sorted(row.items()) for row in corner_rows + reached_rows)]
    assert len(passed[0]) < nonzero
    assert (len(corner_rows), len(reached_rows), nonzero) == counts


# -- Hilbert data read off the annihilator kernel -----------------------------------------


@pytest.mark.parametrize("field", ["Q", "Fp(32003)", "Fp(7)"])
def test_annihilator_hilbert_data_matches_groebner(field):
    rng = rng_for(f"annihilator-hilbert-{field}")
    for _ in range(12):
        n = rng.randint(2, 5)
        ctx = ctx_of(f"ring {field}[{','.join(f'v{i}' for i in range(n))}]")
        gens = [random_poly(rng, ctx, "dual", 4, homogeneous=True) for _ in range(rng.randint(1, 2))]
        top = max(int(g.degree()) for g in gens)
        for bound in (top + 1, top + 2):
            ideal = ann_module(gens, bound)
            fresh = Ideal(list(ideal.gens), ctx)
            assert ideal.cached_hilbert == hilbert_series(buchberger(fresh))
        for bound in (top - 1, top):
            assert ann_module(gens, bound).cached_hilbert is None
        local = ctx_of(f"ring {field}[{','.join(f'v{i}' for i in range(n))}] mode local")
        local_gens = [parse_polynomial(str(g), local, "dual") for g in gens]
        assert ann_module(local_gens, top + 1).cached_hilbert is None


def test_annihilator_certification_computes_no_normal_form(monkeypatch):
    calls = {"normal_form": 0, "_numerator": 0}
    for name in calls:
        original = getattr(groebner, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(groebner, name, counting)
    walked, walk = [], groebner._border_walk

    def recording(gb):  # a staircase read off the window comes back as it is
        out = walk(gb)
        walked.append(out is not gb.staircase)
        return out

    monkeypatch.setattr(groebner, "_border_walk", recording)
    ctx = ctx_of("ring Q[x,y,z,t]")
    F = dual(ctx, "X*Y*Z+Z*T^[2]-2X^[3]+Y^[2]*T")
    report = gorenstein_check(ann_cyclic(F), 0, [])
    assert report.is_gorenstein and report.multiplicity == len(flatten(module_span([F])))
    assert calls == {"normal_form": 0, "_numerator": 0} and walked == [False]
    # the counters see the calls and the walk of an ideal without attached data
    gorenstein_check(Ideal(list(ann_cyclic(F).gens), ctx), 0, [])
    assert calls["normal_form"] > 0 and calls["_numerator"] > 0 and walked == [False, True]


# -- minimal generators -------------------------------------------------------------------


def test_minimal_generators_refuse_a_nonhomogeneous_generator():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    with pytest.raises(PreconditionError, match="minimal_generators expects homogeneous generators"):
        minimal_generators(ideal_of(ctx, "x^2+y"))


def test_minimal_generators_drop_multiples():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    assert [str(g) for g in minimal_generators(ideal_of(ctx, "x, x^2, x*y"))] == ["x"]


def test_minimal_generator_counts_on_reconstructions(elliptic_curve, codim4_curve):
    mg5 = minimal_generators(elliptic_curve["ideal"])
    assert len(mg5) == 5 and all(g.degree() == 2 for g in mg5)
    mg9 = minimal_generators(codim4_curve["ideal"])
    assert len(mg9) == 9 and all(g.degree() == 2 for g in mg9)
