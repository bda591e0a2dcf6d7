"""Acceptance criteria.  One verdict line is printed per criterion (run with -s).

Everything here is exact arithmetic: equality means identical canonical
forms or mutual ideal membership, never a numeric tolerance.  Criterion 6's
literal nine-generator comparison cannot hold: z^2*u annihilates every entry
of that family (no term carries the second power of the third dual variable
together with the fifth), yet it has no representation in terms of the nine
generators, whose order-three initial forms never involve that monomial.  The
literal assertion is kept, marked as a strict expected failure, and the
corrected ten-generator identity is verified exactly alongside it.
"""

import pytest
from conftest import ctx_of, dual, exponent_vectors, ideal_of, ring_poly, rng_for, random_poly, same_ideal

from invsys import (
    DPPolynomial,
    Ideal,
    ann_cyclic,
    ann_module,
    buchberger,
    build_family,
    check_condition_one,
    check_condition_two,
    check_family,
    cone_family,
    diagonal_decompose,
    family_from_ideal,
    finite_lift,
    gorenstein_check,
    hilbert_function,
    invariants_from_H1,
    lift_space,
    local_verify,
    membership,
    module_span,
    normal_form,
    pairing,
    perp_ideal,
    span_dim,
    span_reduce,
)
from invsys.duality import flatten, ideals_equal_mod
from invsys.gorenstein import second_difference
from invsys.groebner import _s_polynomial, hilbert_data
from invsys.ring import Polynomial, contract, shift_mul


def verdict(num, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


def monic_strings(gens):
    return sorted(str(g.monic()) for g in gens)


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_plane_curve_inverse_system(plane_curve):
    slices = perp_ideal(plane_curve["ideal"])
    span = module_span([plane_curve["generator"]])
    same_slices = [
        (s.degree, [str(v) for v in s.basis.vectors]) for s in slices
    ] == [(s.degree, [str(v) for v in s.basis.vectors]) for s in span]
    hf = hilbert_function(slices)
    verdict(
        1,
        "inverse system of the plane-curve quotient and its Hilbert function",
        same_slices and hf == [1, 2, 1, 1],
    )


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_codim2_curve(curve_codim2):
    ctx = curve_codim2["ctx"]
    ok = monic_strings(ann_cyclic(curve_codim2["H"][0]).gens) == ["x", "y*z", "y^3+z^3"]
    fam = curve_codim2["family5"]
    ok = ok and check_condition_one(fam).passed
    ok = ok and check_condition_two(fam, "annihilator").passed
    ok = ok and check_condition_two(fam, "intersection").passed
    lift = finite_lift(curve_codim2["family4"], max_gen_degree=3)
    ok = ok and monic_strings(lift.gens) == monic_strings(curve_codim2["ideal"].gens)
    ok = ok and same_ideal(lift, curve_codim2["ideal"])
    report = gorenstein_check(lift, 1, [ctx.variable(0)])
    ok = (
        ok
        and report.is_gorenstein
        and report.dimension == 1
        and report.multiplicity == 6
    )
    verdict(2, "codimension-two curve: annihilator, family checks, reconstruction", ok)


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_elliptic_curve(elliptic_curve):
    ctx = elliptic_curve["ctx"]
    fam = elliptic_curve["family"]
    ok = check_condition_one(fam).passed
    ok = ok and check_condition_two(fam, "annihilator").passed
    ok = ok and check_condition_two(fam, "intersection").passed
    lift = finite_lift(fam, max_gen_degree=2)
    ok = ok and monic_strings(lift.gens) == monic_strings(elliptic_curve["ideal"].gens)
    ok = ok and len(lift.gens) == 5
    report = gorenstein_check(lift, 2, [ctx.variable(3), ctx.variable(4)])
    ok = (
        ok
        and report.is_gorenstein
        and report.dimension == 2
        and report.multiplicity == 5
        and report.regularity == 2
        and report.artinian_reduction_hf == [1, 3, 1]
    )
    # the five principal 4x4 Pfaffians of the skew presentation matrix
    gb = buchberger(lift)
    skew = elliptic_curve["skew"]
    for drop in range(5):
        keep = [i for i in range(5) if i != drop]
        i0, i1, i2, i3 = keep
        pf = (
            skew[i0][i1] * skew[i2][i3]
            - skew[i0][i2] * skew[i1][i3]
            + skew[i0][i3] * skew[i1][i2]
        )
        ok = ok and not pf.is_zero() and normal_form(pf, gb).is_zero()
    h = report.artinian_reduction_hf
    e0 = sum(h)
    e1 = sum(i * v for i, v in enumerate(h))
    ok = ok and e1 - e0 + 1 == 1
    verdict(3, "elliptic-curve surface: checks, 5 quadrics, Pfaffians, genus", ok)


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_codim4_curve(codim4_curve):
    ctx = codim4_curve["ctx"]
    lift = finite_lift(codim4_curve["family"])
    ok = len(lift.gens) == 9 and same_ideal(lift, codim4_curve["ideal"])
    report = gorenstein_check(lift, 1, [ctx.variable(4)])
    ok = (
        ok
        and report.is_gorenstein
        and report.dimension == 1
        and report.multiplicity == 6
        and report.artinian_reduction_hf == [1, 4, 1]
    )
    from invsys import minimal_generators

    mg = minimal_generators(lift)
    ok = ok and len(mg) == 9 and all(g.degree() == 2 for g in mg)
    verdict(4, "codimension-four curve: 9 quadrics, invariants, minimal generators", ok)


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_semigroup_curve(semigroup_curve):
    fam = semigroup_curve["family"]
    ok = check_family(fam, "annihilator").passed
    ok = ok and check_condition_two(fam, "intersection").passed
    report = local_verify(fam, semigroup_curve["ideal"], trunc=7)
    ok = ok and report.passed
    verdict(5, "semigroup curve: family checks and truncated verification", ok)


# -- criterion 6 ---------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="the nine-generator list omits z^2*u, which annihilates the whole"
    " family; the corrected identity is verified by the companion test",
)
def test_criterion_6_surface_annihilator_literal(surface_codim4):
    ctx = surface_codim4["ctx"]
    J = ann_module(surface_codim4["diagonal"], degree_bound=5)
    ok = ideals_equal_mod(J.gens, surface_codim4["ideal"].gens, 8, ctx)
    verdict(
        "6 (literal)",
        "surface annihilator equals the nine listed generators mod m^8",
        ok,
    )


def test_criterion_6_surface_annihilator_corrected(surface_codim4):
    ctx = surface_codim4["ctx"]
    J = ann_module(surface_codim4["diagonal"], degree_bound=5)
    corrected = surface_codim4["ideal"].gens + [ring_poly(ctx, "z^2*u")]
    ok = ideals_equal_mod(J.gens, corrected, 8, ctx)
    # the listed generators all lie in the computed annihilator
    ok = ok and all(
        contract(g, H).is_zero()
        for g in surface_codim4["ideal"].gens
        for H in surface_codim4["diagonal"]
    )
    verdict(
        "6 (corrected)",
        "surface annihilator equals the listed generators plus z^2*u mod m^8",
        ok,
    )


def test_criterion_6_hilbert_function_second_difference(surface_codim4):
    hf = hilbert_function(module_span(surface_codim4["diagonal"], degree_bound=6))
    diff2 = second_difference(hf)
    support = diff2[: max(i for i, v in enumerate(diff2) if v) + 1]
    ok = hf[:3] == [1, 6, 19] and support != support[::-1]
    verdict(6, "surface Hilbert function has an asymmetric second difference", ok)


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_hypersurface_negative_case():
    ctx = ctx_of("ring Q[x,y] dual [X,Y] mode local")
    ideal = ideal_of(ctx, "y^2-x^4")
    fam = family_from_ideal(ideal, (0,), 3, trunc=6)
    ok = fam.entry((1,)) == dual(ctx, "Y")
    truncated = ann_cyclic(fam.entry((3,)), gen_bound=2)
    ok = ok and not ideals_equal_mod(truncated.gens, ideal.gens, 6, ctx)
    verdict(7, "bounded reconstruction misses the local hypersurface ideal", ok)


# -- criterion 8: randomized property suites -------------------------------------


def test_criterion_8a_duality_round_trips():
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    rng = rng_for("acceptance-duality")
    done = 0
    ok = True
    while done < 50:
        F = random_poly(rng, ctx, "dual", 4, homogeneous=True)
        if F.is_zero():
            continue
        done += 1
        back = perp_ideal(ann_cyclic(F), int(F.degree()))
        span = module_span([F])
        ok = ok and {s.degree: s.basis.vectors for s in span} == {
            s.degree: s.basis.vectors for s in back if s.dim
        }
    done = 0
    while done < 50:
        powers = [rng.randint(1, 3) for _ in range(3)]
        gens = [
            Polynomial.monomial(ctx, tuple(p if i == k else 0 for i in range(3)))
            for k, p in enumerate(powers)
        ]
        extra = random_poly(rng, ctx, "r", 2, homogeneous=True)
        if not extra.is_zero() and extra.degree() >= 1:
            gens.append(extra)
        ideal = Ideal(gens, ctx)
        done += 1
        vectors = flatten(perp_ideal(ideal, sum(powers)))
        if vectors:
            recovered = ann_module(vectors, degree_bound=max(powers) + 1)
            ok = ok and same_ideal(recovered, ideal)
        else:
            ok = ok and hilbert_data(ideal).multiplicity == 0
    verdict("8a", "duality round trips in both directions (50 + 50 instances)", ok)


def test_criterion_8b_contraction_action():
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    rng = rng_for("acceptance-contraction")
    ok = True
    for _ in range(50):
        g = random_poly(rng, ctx, "r", 4)
        h = random_poly(rng, ctx, "r", 4)
        F = random_poly(rng, ctx, "dual", 4)
        G = random_poly(rng, ctx, "dual", 4)
        ok = ok and contract(g * h, F) == contract(g, contract(h, F))
        ok = ok and contract(h, F + G) == contract(h, F) + contract(h, G)
        ok = ok and contract(g + h, F) == contract(g, F) + contract(h, F)
    verdict("8b", "contraction is a bilinear module action (50 instances)", ok)


def test_criterion_8c_pairing_perfection():
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    ok = True
    for j in range(5):
        monos = exponent_vectors(ctx, j)
        for a, m in enumerate(monos):
            for b, l in enumerate(monos):
                value = pairing(
                    Polynomial.monomial(ctx, m), DPPolynomial.monomial(ctx, l)
                )
                ok = ok and value == (1 if a == b else 0)
    verdict("8c", "the monomial pairing matrix is the identity through degree 4", ok)


def _random_one_parameter_families(seed, count, allow_perturbation):
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    rng = rng_for(seed)
    out = []
    while len(out) < count:
        H1 = random_poly(rng, ctx, "dual", 3, homogeneous=True)
        if H1.is_zero() or H1.degree() < 1:
            continue
        fam1 = build_family(ctx, (0,), {(1,): H1})
        lifted = lift_space(fam1, (2,))
        if lifted is None:
            continue
        H2, kernel = lifted
        if rng.random() < 0.5 and kernel.dim:
            H2 = H2 + kernel.vectors[rng.randrange(kernel.dim)].scale(
                rng.choice([-2, -1, 1, 2])
            )
        if allow_perturbation and rng.random() < 0.4:
            noise = random_poly(rng, ctx, "dual", int(H1.degree()) + 1, homogeneous=True)
            if contract(ctx.variable(0), noise).is_zero():
                H2 = H2 + noise
        fam = build_family(ctx, (0,), {(1,): H1, (2,): H2})
        if check_condition_one(fam).passed:
            out.append(fam)
    return out


def test_criterion_8d_condition_two_mode_equivalence():
    ok = True
    for fam in _random_one_parameter_families("acceptance-modes", 50, True):
        a = check_condition_two(fam, "annihilator").passed
        b = check_condition_two(fam, "intersection").passed
        ok = ok and a == b
    verdict("8d", "both condition-two formulations agree (50 instances)", ok)


def test_criterion_8e_dimension_additivity():
    ok = True
    count = 0
    deeper = 0
    for fam in _random_one_parameter_families("acceptance-additivity", 60, False):
        if not check_condition_two(fam, "annihilator").passed:
            continue
        count += 1
        d1 = span_dim(module_span([fam.entry((1,))]))
        d2 = span_dim(module_span([fam.entry((2,))]))
        ok = ok and d2 == 2 * d1
        if deeper < 10:
            out = lift_space(fam, (3,))
            if out is not None:
                deeper += 1
                d3 = span_dim(module_span([out[0]]))
                ok = ok and d3 == d1 + d2
    ok = ok and count >= 50 and deeper >= 10
    verdict(
        "8e",
        f"cyclic-span dimensions add along lifts ({count} instances, {deeper} deep)",
        ok,
    )


def test_criterion_8f_diagonal_reassembly():
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    rng = rng_for("acceptance-reassembly")
    ok = True
    built = 0
    while built < 50:
        H1 = random_poly(rng, ctx, "dual", 3, homogeneous=True)
        if H1.is_zero() or H1.degree() < 1:
            continue
        if not contract(ctx.variable(0), H1).is_zero():
            continue  # the base entry must vanish under the distinguished variable
        entries = {(1,): H1}
        feasible = True
        for l in (2, 3):
            out = lift_space(build_family(ctx, (0,), entries), (l,))
            if out is None:
                feasible = False
                break
            particular, kernel = out
            if kernel.dim and rng.random() < 0.5:
                particular = particular + kernel.vectors[rng.randrange(kernel.dim)]
            entries[(l,)] = particular
        if not feasible:
            continue
        built += 1
        fam = build_family(ctx, (0,), entries)
        pieces = diagonal_decompose(fam)
        rebuilt = DPPolynomial.zero(ctx)
        for i in range(3):
            rebuilt = rebuilt + shift_mul((i, 0, 0), pieces[2 - i])
        ok = ok and rebuilt == fam.entry((3,))
        ok = ok and all(
            contract(ctx.variable(0), c).is_zero() for c in pieces
        )
    verdict("8f", "diagonal decomposition reassembles the family (50 instances)", ok)


def test_criterion_8g_buchberger_certificates():
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    rng = rng_for("acceptance-buchberger")
    ok = True
    done = 0
    while done < 50:
        gens = [
            random_poly(rng, ctx, "r", rng.randint(1, 3), homogeneous=True)
            for _ in range(rng.randint(1, 3))
        ]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        done += 1
        ideal = Ideal(gens, ctx)
        gb = buchberger(ideal)
        for i, f in enumerate(gb.elements):
            for g in gb.elements[:i]:
                ok = ok and normal_form(_s_polynomial(f, g), gb).is_zero()
        f = random_poly(rng, ctx, "r", 4, homogeneous=True)
        if f.is_zero():
            continue
        j = int(f.degree())
        window = span_reduce(
            [
                Polynomial.monomial(ctx, m) * g
                for g in gens
                for m in exponent_vectors(ctx, j - int(g.degree()))
                if g.degree() <= j
            ]
        )
        ok = ok and normal_form(f, gb).is_zero() == window.contains(f)
    verdict("8g", "S-polynomial certificates and membership agreement (50 instances)", ok)


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_9_round_trips(curve_codim2, elliptic_curve, codim4_curve):
    ok = True
    cases = [
        (curve_codim2["ideal"], (0,)),
        (elliptic_curve["ideal"], (3, 4)),
        (codim4_curve["ideal"], (4,)),
    ]
    for ideal, z_indices in cases:
        ctx = ideal.context
        reduction = Ideal(
            list(ideal.gens) + [ctx.variable(i) for i in z_indices], ctx
        )
        r = hilbert_data(reduction).regularity
        fam = family_from_ideal(ideal, z_indices, r + 2)
        back = finite_lift(fam)
        ok = ok and same_ideal(back, ideal)
        for L in fam.entries:
            H = fam.entry(L)
            s = int(H.degree())
            zgens = [
                Polynomial.monomial(ctx, fam.embed(tuple(L[k] if k == j else 0 for k in range(fam.d))))
                for j in range(fam.d)
            ]
            ext = Ideal(list(ideal.gens) + zgens, ctx)
            ok = ok and all(contract(g, H).is_zero() for g in ext.gens)
            dims = {sl.degree: sl.dim for sl in module_span([H])}
            hf = hilbert_data(ext).series_coeffs(s)
            ok = ok and all(dims.get(s - j, 0) == hf[j] for j in range(s + 1))
    verdict(9, "ideal <-> family round trips with matching bounded annihilators", ok)
