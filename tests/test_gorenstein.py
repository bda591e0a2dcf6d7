"""Reconstruction pipelines, certification, local verification."""

import hashlib
import itertools

import pytest
from conftest import ctx_of, dual, exponent_vectors, ideal_of, ring_poly, rng_for, same_ideal, window_kernel

from invsys import (
    AdmissibleFamily,
    Ideal,
    PreconditionError,
    ann_cyclic,
    build_family,
    check_condition_two,
    check_family,
    cone_family,
    dump_family,
    family_from_ideal,
    finite_lift,
    gorenstein_check,
    hilbert_function,
    invariants_from_H1,
    local_verify,
    module_span,
    perp_ideal,
    span_dim,
)
from invsys import admissible, gorenstein, groebner, linalg
from invsys.duality import flatten, ideal_contains_mod, ideal_window_span, ideals_equal_mod
from invsys.gorenstein import second_difference
from invsys.groebner import hilbert_data, is_regular_sequence
from invsys.linalg import span_reduce
from invsys.ring import DPPolynomial, contract


# -- finite reconstruction ---------------------------------------------------------


def test_finite_lift_curve_with_known_generator_bound(curve_codim2):
    ideal = finite_lift(curve_codim2["family4"], max_gen_degree=3)
    assert same_ideal(ideal, curve_codim2["ideal"])
    expected = {str(g.monic()) for g in curve_codim2["ideal"].gens}
    assert {str(g) for g in ideal.gens} == expected


def test_finite_lift_surface(elliptic_curve):
    ideal = finite_lift(elliptic_curve["family"], max_gen_degree=2)
    assert same_ideal(ideal, elliptic_curve["ideal"])
    assert len(ideal.gens) == 5


def test_finite_lift_codim4_default_bound(codim4_curve):
    ideal = finite_lift(codim4_curve["family"])
    assert same_ideal(ideal, codim4_curve["ideal"])
    assert len(ideal.gens) == 9


def test_finite_lift_needs_deep_enough_box(curve_codim2):
    with pytest.raises(PreconditionError):
        finite_lift(curve_codim2["family4"])  # default bound needs level r+2 = 5


def test_finite_lift_rejects_local_mode(semigroup_curve):
    with pytest.raises(PreconditionError):
        finite_lift(semigroup_curve["family"])


@pytest.mark.parametrize("bound", [0, -5])
def test_finite_lift_refuses_generator_degree_below_one(curve_codim2, bound):
    with pytest.raises(PreconditionError, match="at least 1"):
        finite_lift(curve_codim2["family5"], max_gen_degree=bound)


# -- invariants --------------------------------------------------------------------


def test_invariants_from_base_entry(elliptic_curve, codim4_curve, curve_codim2):
    assert invariants_from_H1(elliptic_curve["H11"]) == (5, 2)
    assert invariants_from_H1(codim4_curve["H"][0]) == (6, 2)
    assert invariants_from_H1(curve_codim2["H"][0]) == (6, 3)


def test_invariants_refuse_a_zero_base_entry(curve_codim2):
    with pytest.raises(PreconditionError, match="base dual element is zero"):
        invariants_from_H1(DPPolynomial.zero(curve_codim2["ctx"]))


# -- certification -----------------------------------------------------------------


def test_gorenstein_check_surface(elliptic_curve):
    ctx = elliptic_curve["ctx"]
    report = gorenstein_check(
        elliptic_curve["ideal"], 2, [ctx.variable(3), ctx.variable(4)]
    )
    assert report.is_gorenstein
    assert report.dimension == 2
    assert report.multiplicity == 5
    assert report.regularity == 2
    assert report.artinian_reduction_hf == [1, 3, 1]


def test_gorenstein_check_codim4(codim4_curve):
    ctx = codim4_curve["ctx"]
    report = gorenstein_check(codim4_curve["ideal"], 1, [ctx.variable(4)])
    assert report.is_gorenstein
    assert report.dimension == 1
    assert report.multiplicity == 6
    assert report.artinian_reduction_hf == [1, 4, 1]


def test_gorenstein_check_negative():
    # y is a zerodivisor on R/(x^2, xy) (it kills the socle element x), so
    # the Hilbert-series regularity step already refuses the sequence
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    report = gorenstein_check(ideal_of(ctx, "x^2, x*y"), 1, [ctx.variable(1)])
    assert not report.is_gorenstein
    assert any("fails the Hilbert-series regularity test" in c for c in report.certificate)


@pytest.mark.parametrize("zs", [[], ["x"]])
def test_gorenstein_check_names_a_unit_reduction(zs):
    # R/(1) = 0 has dimension -1: its socle is not computed, and the verdict is no
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    report = gorenstein_check(ideal_of(ctx, "x, 1"), 0, [ring_poly(ctx, z) for z in zs])
    assert not report.is_gorenstein and report.dimension == -1
    assert report.certificate[-1] == "reduction is the unit ideal; socle not computed"


def test_gorenstein_check_negative_socle():
    # an Artinian reduction with two socle generators: R/(x^2, xy, y^3, z)
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    from invsys import socle_dim

    reduction = ideal_of(ctx, "x^2, x*y, y^3, z")
    assert socle_dim(reduction) == 2
    report = gorenstein_check(ideal_of(ctx, "x^2, x*y, y^3"), 1, [ctx.variable(2)])
    assert not report.is_gorenstein
    assert any("socle dimension of the reduction is 2" in c for c in report.certificate)


@pytest.mark.parametrize(
    "decl, gens, d, zs",
    [
        ("Q[x,y,z]", "y*z-x^3, z^2-y^3", 1, ["x"]),
        ("Q[x,y]", "x*y, y^2-x^3", 0, []),
        ("Q[x,y,z]", "y*z+x*z, y^3+z^3-x*y^2+x^2*y-x^3", 1, ["x+y^2"]),
    ],
    ids=["semigroup-curve", "artinian", "sequence"],
)
def test_gorenstein_check_refuses_nonhomogeneous_local_ideals(decl, gens, d, zs):
    # graded Groebner bases describe the affine degree filtration of such an
    # ideal, not its local ring: the semigroup curve is Gorenstein, yet its
    # graded data said "no"
    ctx = ctx_of(f"ring {decl} mode local")
    with pytest.raises(PreconditionError, match="family-from-ideal.*local-verify"):
        gorenstein_check(ideal_of(ctx, gens), d, [ring_poly(ctx, z) for z in zs])


def test_gorenstein_check_keeps_homogeneous_local_ideals(curve_codim2):
    local = ctx_of("ring Q[x,y,z] dual [X,Y,Z] mode local")
    report = gorenstein_check(ideal_of(local, str(curve_codim2["ideal"])), 1, [local.variable(0)])
    graded = gorenstein_check(curve_codim2["ideal"], 1, [curve_codim2["ctx"].variable(0)])
    assert report.is_gorenstein and report.to_json() == graded.to_json()


def _count_computed_bases(monkeypatch):
    computed = []
    original = groebner.buchberger

    def counting(ideal):
        if ideal.cached_gb is None:
            computed.append(ideal)
        return original(ideal)

    monkeypatch.setattr(groebner, "buchberger", counting)
    return computed


def test_one_groebner_basis_per_generator_set(monkeypatch, codim4_curve, elliptic_curve):
    computed = _count_computed_bases(monkeypatch)
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    report = gorenstein_check(ann_cyclic(dual(ctx, "X^[3]+X*Y*Z+Z^[3]")), 0, [])
    assert report.is_gorenstein
    assert len(computed) == 0  # ann_cyclic attaches the basis it reads off its slices
    for example, z_indices in ((codim4_curve, [4]), (elliptic_curve, [3, 4])):
        ctx = example["ctx"]
        zs = [ctx.variable(i) for i in z_indices]
        computed.clear()
        # fresh copies: the session fixtures carry bases cached by other tests
        report = gorenstein_check(Ideal(list(example["ideal"].gens), ctx), len(zs), zs)
        assert report.is_gorenstein
        assert len(computed) == len(zs) + 1
        ideal = Ideal(list(example["ideal"].gens), ctx)
        assert is_regular_sequence(ideal, zs)
        assert ideal.cached_gb is not None


def test_report_serialization_is_deterministic(curve_codim2):
    ctx = curve_codim2["ctx"]
    a = gorenstein_check(curve_codim2["ideal"], 1, [ctx.variable(0)])
    b = gorenstein_check(
        Ideal(list(curve_codim2["ideal"].gens), ctx), 1, [ctx.variable(0)]
    )
    assert a.to_json() == b.to_json()
    assert str(a) == str(b)


# -- family from ideal ----------------------------------------------------------------


def test_family_from_ideal_reproduces_curve_data(curve_codim2):
    fam = family_from_ideal(curve_codim2["ideal"], (0,), 5)
    assert fam.entry((1,)) == curve_codim2["H"][0]
    assert fam.entry((4,)) == curve_codim2["H"][3]
    assert check_family(fam).passed


def test_family_from_ideal_matches_cone_spans():
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    cone_ideal = ideal_of(ctx, "y*z, y^3+z^3")
    fam = family_from_ideal(cone_ideal, (0,), 3)
    from invsys import cone_family

    reference = cone_family(dual(ctx, "Y^[3]-Z^[3]"), 1, 3)
    for L in fam.entries:
        a = span_reduce(flatten(module_span([fam.entry(L)])))
        b = span_reduce(flatten(module_span([reference.entry(L)])))
        assert a.vectors == b.vectors


# SHA-256 of ``dump_family`` of the elliptic surface's family at t0 = 5 over
# Q, recorded with Fraction rows in the echelon engine; the family's lifts
# and its condition-two check in intersection mode run Q eliminations.
ELLIPTIC_T0_5_DIGEST = "e856f412f972b0b68c5cf676526a7e2a677940bf67a4966586c0af2a647ef3be"


def test_elliptic_family_at_t0_5_matches_its_pinned_digest(elliptic_curve):
    fam = family_from_ideal(elliptic_curve["ideal"], (3, 4), 5)
    assert hashlib.sha256(dump_family(fam).encode()).hexdigest() == ELLIPTIC_T0_5_DIGEST
    assert check_condition_two(fam, "intersection").passed


def test_local_lifts_eliminate_only_the_free_columns(monkeypatch):
    # the semigroup ideal of the local benchmark (there with scaled
    # coefficients) at t0 = 6 and the default truncation 10: each lift reads
    # its 220 columns that x divides off the predecessor and eliminates over
    # the 66 monomials in y, z alone, not over all 286 of the window
    ctx = ctx_of("ring Fp(32003)[x,y,z] dual [X,Y,Z] mode local")
    widths = []
    solve = admissible.solve_affine

    def counting(rows, rhs, columns, one):
        widths.append(len(columns))
        return solve(rows, rhs, columns, one)

    monkeypatch.setattr(admissible, "solve_affine", counting)
    fam = family_from_ideal(ideal_of(ctx, "y*z-x^3, z^2-y^3"), (0,), 6)
    assert len(fam.entries) == 6 and widths == [66] * 5


def test_family_from_ideal_rejects_non_gorenstein():
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    with pytest.raises(PreconditionError):
        family_from_ideal(ideal_of(ctx, "x^2, x*y, y^2"), (2,), 2)


@pytest.mark.parametrize(
    "z_indices", [(), (0, 0), (0, 7), (-1,)], ids=["none", "repeated", "outside", "negative"]
)
def test_distinguished_variables_are_checked_before_any_work(z_indices):
    # one rule, in AdmissibleFamily: d >= 1 distinct variables of the ring;
    # without it these raised IndexError, lifted with the wrong variable or
    # wrote a family file that loading refuses
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    curve = ideal_of(ctx, "y*z+x*z, y^3+z^3-x*y^2+x^2*y-x^3")
    d, one = len(z_indices), dual(ctx, "1")
    message = "distinguished variables must be distinct context variables"
    with pytest.raises(PreconditionError, match=message):
        AdmissibleFamily(ctx, d, z_indices, {}, 2)
    for t0 in (1, 2):
        with pytest.raises(PreconditionError, match=message):
            family_from_ideal(curve, z_indices, t0)
    with pytest.raises(PreconditionError, match=message):
        cone_family(one, d, 2, z_indices=z_indices)
    with pytest.raises(PreconditionError, match=message):
        build_family(ctx, z_indices, {(1,) * d: one}, 1)


def test_oversized_socle_is_refused_before_the_border_walk(monkeypatch):
    # the multiplication matrix has one column per standard monomial, so the
    # cached multiplicity sizes it; x^160 took over a minute before the limit
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")

    class Walked(Exception):
        pass

    def walk(gb):
        raise Walked

    monkeypatch.setattr(groebner, "_border_walk", walk)
    with pytest.raises(PreconditionError, match="needs 4096000 multiplication columns, more than the limit 100000"):
        groebner.socle_dim(ideal_of(ctx, "x^160, y^160, z^160"))
    with pytest.raises(Walked):  # multiplicity 64000 is accepted
        groebner.socle_dim(ideal_of(ctx, "x^40, y^40, z^40"))
    monkeypatch.undo()
    monkeypatch.setattr(linalg, "MAX_ANN_COLUMNS", 64)
    assert groebner.socle_dim(ideal_of(ctx, "x^4, y^4, z^4")) == 1
    with pytest.raises(PreconditionError, match="needs 80 multiplication columns"):
        groebner.socle_dim(ideal_of(ctx, "x^4, y^4, z^5"))


def test_round_trip_on_graded_examples(curve_codim2, elliptic_curve, codim4_curve):
    cases = [
        (curve_codim2["ideal"], (0,)),
        (elliptic_curve["ideal"], (3, 4)),
        (codim4_curve["ideal"], (4,)),
    ]
    for ideal, z_indices in cases:
        reduction = Ideal(
            list(ideal.gens) + [ideal.context.variable(i) for i in z_indices],
            ideal.context,
        )
        r = hilbert_data(reduction).regularity
        t0 = r + 2
        fam = family_from_ideal(ideal, z_indices, t0)
        back = finite_lift(fam)
        assert same_ideal(back, ideal)


def test_claim_two_bounded(curve_codim2):
    # the annihilator of each entry is the ideal plus the matching pure power
    ctx = curve_codim2["ctx"]
    ideal = curve_codim2["ideal"]
    fam = family_from_ideal(ideal, (0,), 4)
    for L in fam.entries:
        H = fam.entry(L)
        s = int(H.degree())
        extended = Ideal(
            list(ideal.gens) + [ring_poly(ctx, f"x^{L[0]}")], ctx
        )
        for g in extended.gens:
            assert contract(g, H).is_zero()
        span = module_span([H])
        dims = {sl.degree: sl.dim for sl in span}
        hf = hilbert_data(extended).series_coeffs(s)
        for j in range(s + 1):
            full = len(exponent_vectors(ctx, j))
            ann_dim = full - dims.get(s - j, 0)
            assert ann_dim == full - hf[j]


def test_union_of_entry_spans_covers_inverse_system(curve_codim2):
    fam = curve_codim2["family5"]
    ideal = curve_codim2["ideal"]
    union = span_reduce(
        flatten(module_span([fam.entry((l,)) for l in range(1, 6)]))
    ).builder()
    for sl in perp_ideal(ideal, fam.t0 - 1):
        for v in sl.basis.vectors:
            assert union.contains(v)


# -- local pipelines -------------------------------------------------------------------


def test_local_verify_semigroup(semigroup_curve):
    report = local_verify(semigroup_curve["family"], semigroup_curve["ideal"], trunc=7)
    assert report.passed


def test_local_verify_flags_wrong_ideal(semigroup_curve):
    ctx = semigroup_curve["ctx"]
    wrong = ideal_of(ctx, "y*z-x^3, z^2-y^3, x^2*y")
    report = local_verify(semigroup_curve["family"], wrong, trunc=7)
    assert not report.passed


@pytest.mark.parametrize("trunc", [0, -4])
def test_local_verify_refuses_truncation_below_one(semigroup_curve, trunc):
    with pytest.raises(PreconditionError, match="at least 1"):
        local_verify(semigroup_curve["family"], semigroup_curve["ideal"], trunc=trunc)


def test_local_verify_reports_an_all_zero_family_without_truncation():
    # the default truncation has no nonzero entry to read its degree off
    ctx = ctx_of("ring Q[x,y] dual [X,Y] mode local")
    fam = build_family(ctx, (0,), {(1,): DPPolynomial.zero(ctx), (2,): DPPolynomial.zero(ctx)})
    for trunc in (None, 3):
        report = local_verify(fam, ideal_of(ctx, "x"), trunc=trunc)
        assert not report.passed
        assert [(v.index, v.condition) for v in report.violations] == [((1,), "entry"), ((2,), "entry")]


def _seeded_local_families(semigroup_curve):
    """(family, [true claim, perturbed claim]) pairs in local mode.

    Beyond the semigroup curve, cones over seeded dual elements that avoid
    X: their ideal is generated by the annihilator's generators other than
    x, and the perturbed claim multiplies the last of those by y, which
    makes it smaller.
    """
    ctx = semigroup_curve["ctx"]
    yield semigroup_curve["family"], [semigroup_curve["ideal"], ideal_of(ctx, "y*z-x^3, z^2")]
    for field in ("Q", "Fp(32003)"):
        rng = rng_for(f"local-verify-window-{field}")
        ctx = ctx_of(f"ring {field}[x,y,z,t] dual [X,Y,Z,T] mode local")
        for _ in range(2):
            terms = {}
            while len(terms) < 4:  # degrees 1 to 4 in Y, Z, T
                e = [0] * ctx.n
                for _ in range(rng.randint(1, 4)):
                    e[rng.randrange(1, ctx.n)] += 1
                terms[tuple(e)] = ctx.scalar(rng.choice([-3, -2, -1, 1, 2, 3]))
            H = DPPolynomial(ctx, terms)
            gens = [g for g in ann_cyclic(H).gens if g != ctx.variable(0)]
            perturbed = gens[:-1] + [gens[-1] * ctx.variable(1)]
            yield cone_family(H, 1, 3), [Ideal(gens, ctx), Ideal(perturbed, ctx)]


def test_local_verify_window_vectors_give_the_minimal_generators_verdicts(semigroup_curve):
    # the window kernel and the minimal generators read off it generate the
    # same ideal modulo m^trunc, so truncated containment cannot tell them apart
    verdicts = []
    for fam, claims in _seeded_local_families(semigroup_curve):
        ctx = fam.context
        top = max(int(H.degree()) for H in fam.entries.values())
        for claim, (L, H) in itertools.product(claims, sorted(fam.entries.items())):
            targets = list(claim.gens) + [fam.z_variable(0) ** L[0]]  # d = 1 throughout
            for t in range(1, top + 3):
                minimal = ideal_contains_mod(targets, ann_cyclic(H, gen_bound=t - 1).gens, t, ctx)
                window = ideal_contains_mod(targets, window_kernel([H], t - 1).vectors, t, ctx)
                assert minimal == window, (str(H), str(claim), t)
                verdicts.append(minimal)
    assert True in verdicts and False in verdicts


def test_local_verify_extends_one_claimed_span_per_call(monkeypatch, semigroup_curve):
    # the claimed ideal's window span is built once per call and each line
    # of the last index extends one copy by its pure powers, walking down
    # (d = 1 here, so one line); the verdicts are those of containment in
    # the whole target ideal
    fresh = []

    def counting(gens, bound, context, span=None):
        fresh.append(span is None)
        return ideal_window_span(gens, bound, context, span)

    monkeypatch.setattr(gorenstein, "ideal_window_span", counting)
    flagged = []
    for fam, claims in _seeded_local_families(semigroup_curve):
        ctx = fam.context
        top = max(int(H.degree()) for H in fam.entries.values())
        for claim, t in itertools.product(claims, range(1, top + 3)):
            fresh.clear()
            report = local_verify(fam, claim, trunc=t)
            assert fresh.count(True) == 1 and fresh.count(False) == len({L[:-1] for L in fam.entries})
            escaped = {v.index for v in report.violations if v.condition == "annihilator-into-ideal"}
            expected = {
                L
                for L, H in fam.entries.items()
                if not ideal_contains_mod(
                    list(claim.gens) + [fam.z_variable(0) ** L[0]], window_kernel([H], t - 1).vectors, t, ctx
                )
            }
            assert escaped == expected, (str(claim), t)
            flagged.append(bool(escaped))
    assert True in flagged and False in flagged


def test_local_verify_builds_one_annihilator_window_per_entry(monkeypatch, semigroup_curve):
    # condition two reads the windows local_verify builds at the truncation,
    # since from an entry's degree on the bound changes only the border
    built = []
    annihilate = gorenstein.annihilator_window

    def counting(H, bound):
        built.append((str(H[0]), bound))
        return annihilate(H, bound)

    monkeypatch.setattr(gorenstein, "annihilator_window", counting)
    monkeypatch.setattr(admissible, "annihilator_window", counting)
    fam = semigroup_curve["family"]
    top = max(int(H.degree()) for H in fam.entries.values())
    assert local_verify(fam, semigroup_curve["ideal"], trunc=top + 1).passed
    assert sorted(built) == sorted((str(H), top) for H in fam.entries.values())


def _local_verdicts_by_fresh_spans(fam, claim, trunc):
    """local_verify's (index, condition) list, with a fresh target span per index and the whole window kernel."""
    ctx, bound = fam.context, trunc - 1
    found = [(v.index, v.condition) for v in check_family(fam).violations]
    for L in sorted(fam.entries, key=lambda L: (sum(L), L)):
        H = fam.entry(L)
        if H.is_zero():
            found.append((L, "entry"))
            continue
        powers = [fam.z_variable(j) ** L[j] for j in range(fam.d)]
        found += [(L, "ideal-into-annihilator") for g in list(claim.gens) + powers if not contract(g, H).is_zero()]
        span = ideal_window_span(list(claim.gens) + powers, bound, ctx)
        if not all(span.contains(v.truncate(bound)) for v in window_kernel([H], bound).vectors):
            found.append((L, "annihilator-into-ideal"))
    return found


def _with_zero_entry(fam, L):
    entries = dict(fam.entries)
    entries[L] = DPPolynomial.zero(fam.context)
    return build_family(fam.context, fam.z_indices, entries, fam.t0)


def test_local_verify_walk_down_the_lines_matches_fresh_spans(semigroup_curve):
    # the walk extends one span per line of the last index; a fresh span per
    # index, over the whole window kernel, must give the same violations in
    # the same order: d = 1 and 2, zero entries that break a line, true and
    # perturbed claims, every truncation up to two past the top degree
    cases = [(fam, claims) for fam, claims in _seeded_local_families(semigroup_curve)]
    cases.append((_with_zero_entry(semigroup_curve["family"], (3,)), cases[0][1]))
    for field in ("Q", "Fp(32003)"):
        rng = rng_for(f"local-verify-walk-{field}")
        ctx = ctx_of(f"ring {field}[x,y,z,t] dual [X,Y,Z,T] mode local")
        terms = {}
        while len(terms) < 3:  # degrees 1 to 3 in Z and T
            e = [0, 0, 0, 0]
            for _ in range(rng.randint(1, 3)):
                e[rng.randrange(2, 4)] += 1
            terms[tuple(e)] = ctx.scalar(rng.choice([-3, -2, -1, 1, 2, 3]))
        H = DPPolynomial(ctx, terms)
        gens = [g for g in ann_cyclic(H).gens if g not in (ctx.variable(0), ctx.variable(1))]
        claims = [Ideal(gens, ctx), Ideal(gens[:-1] + [gens[-1] * ctx.variable(2)], ctx)]
        fam = cone_family(H, 2, 3)
        cases += [(fam, claims), (_with_zero_entry(fam, (2, 2)), claims)]
    seen = set()
    for fam, claims in cases:
        top = max(int(H.degree()) for H in fam.entries.values() if not H.is_zero())
        for claim, trunc in itertools.product(claims, range(1, top + 3)):
            expected = _local_verdicts_by_fresh_spans(fam, claim, trunc)
            report = local_verify(fam, claim, trunc=trunc)
            assert [(v.index, v.condition) for v in report.violations] == expected, (str(claim), trunc)
            seen.update(condition for _, condition in expected)
            seen.add(report.passed)
    assert {True, False, "entry", "annihilator-into-ideal"} <= seen


def test_family_from_ideal_local_semigroup(semigroup_curve):
    # the kernel-zero particular solutions reproduce the worked family exactly
    fam = family_from_ideal(semigroup_curve["ideal"], (0,), 5, trunc=8)
    assert fam.entries == semigroup_curve["family"].entries
    assert check_family(fam).passed
    assert local_verify(fam, semigroup_curve["ideal"], trunc=7).passed


@pytest.mark.parametrize("trunc", [1, 2, 3])
def test_local_reduction_window_short_of_the_whole_dual_blames_the_truncation(monkeypatch, semigroup_curve, trunc):
    # the reduction's dual has local HF 1 2 1 1, so up to degree 1, 2 or 3 the
    # window is not known to be the whole dual, cyclic or not: it is refused
    # before any lift, and it says nothing about the quotient
    def no_lift(*args):
        raise AssertionError("a lift was solved")

    monkeypatch.setattr(gorenstein, "solve_lift", no_lift)
    with pytest.raises(PreconditionError) as info:
        family_from_ideal(semigroup_curve["ideal"], (0,), 3, trunc=trunc)
    assert str(info.value) == f"truncation {trunc} is too low: the reduction's dual is nonzero in degree {trunc}"


@pytest.mark.parametrize("trunc, index", [(4, 3)])
def test_infeasible_local_lift_names_the_truncation(semigroup_curve, trunc, index):
    match = rf"lift at index \({index},\) is infeasible: the truncation {trunc} is too low"
    with pytest.raises(PreconditionError, match=match):
        family_from_ideal(semigroup_curve["ideal"], (0,), 3, trunc=trunc)


def test_local_family_from_ideal_at_the_lowest_sufficient_truncation(semigroup_curve):
    fam = family_from_ideal(semigroup_curve["ideal"], (0,), 3, trunc=5)
    assert [str(fam.entry((t,))) for t in (1, 2, 3)] == [
        "Y^[3]+Z^[2]",
        "X*Y^[3]+X*Z^[2]",
        "X^[2]*Y^[3]+X^[2]*Z^[2]",
    ]


@pytest.mark.parametrize(
    "trunc, match",
    [(1, "truncation 1 is too low")] + [(t, r"not cyclic \(quotient is not Gorenstein\)") for t in (2, 3, 6)],
)
def test_local_reduction_with_a_two_dimensional_socle_is_not_gorenstein(trunc, match):
    # the reduction by x has local HF 1 2, which the window reaches 0 after at
    # degree 2: from there on it is the whole dual, and that is not cyclic
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z] mode local")
    with pytest.raises(PreconditionError, match=match):
        family_from_ideal(ideal_of(ctx, "y^2, y*z, z^2"), (0,), 2, trunc=trunc)


def test_pipeline_over_prime_field():
    from invsys import parse_polynomial, ring_context, span_dim
    from invsys.groebner import hilbert_data as hd

    ctx = ring_context("x,y,z", char=7)
    F = parse_polynomial("Y^[3]-Z^[3]", ctx, "dual")
    ann = ann_cyclic(F)
    assert [str(g) for g in ann.gens] == ["x", "y*z", "y^3+z^3"]
    assert span_dim(module_span([F])) == 6
    lifted = Ideal(
        [
            parse_polynomial(s, ctx, "r")
            for s in ("y*z+x*z", "y^3+z^3-x*y^2+x^2*y-x^3")
        ],
        ctx,
    )
    data = hd(lifted)
    assert data.dimension == 1 and data.multiplicity == 6


def test_family_from_ideal_local_negative_case():
    ctx = ctx_of("ring Q[x,y] dual [X,Y] mode local")
    ideal = ideal_of(ctx, "y^2-x^4")
    fam = family_from_ideal(ideal, (0,), 3, trunc=6)
    assert fam.entry((1,)) == dual(ctx, "Y")
    assert fam.entry((2,)) == dual(ctx, "X*Y")
    assert fam.entry((3,)) == dual(ctx, "X^[2]*Y")
    truncated = ann_cyclic(fam.entry((3,)), gen_bound=2)
    assert [str(g) for g in truncated.gens] == ["y^2"]
    assert not ideals_equal_mod(truncated.gens, ideal.gens, 6, ctx)


def test_second_difference_of_surface_hilbert_function(surface_codim4):
    hf = hilbert_function(module_span(surface_codim4["diagonal"], degree_bound=6))
    assert hf == [1, 6, 19, 36, 54, 73, 92]
    diff2 = second_difference(hf)
    support = diff2[: max(i for i, v in enumerate(diff2) if v) + 1]
    assert support != support[::-1]


def test_surface_reduction_hilbert_function(surface_codim4):
    assert hilbert_function(module_span([surface_codim4["H"]])) == [1, 4, 8, 4, 1, 1]
