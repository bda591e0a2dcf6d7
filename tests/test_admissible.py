"""Family construction, both verification modes, cones, lifts, decomposition."""

import time

import pytest
from conftest import ctx_of, dual, ring_poly, rng_for, random_poly

from invsys import (
    DPPolynomial,
    PreconditionError,
    ann_module,
    build_family,
    check_condition_one,
    check_condition_two,
    check_family,
    cone_family,
    contract,
    diagonal_decompose,
    dump_family,
    is_zero_family,
    lift_space,
    load_family,
    membership,
    module_span,
    span_dim,
    span_reduce,
    shift_mul,
)
from invsys import admissible
from invsys.duality import contraction_rows, flatten, ideals_equal_mod
from invsys.linalg import monomial_columns, solve_affine


# -- construction and auto-fill -------------------------------------------------


def test_auto_fill_from_diagonal(elliptic_curve):
    fam = elliptic_curve["family"]
    assert set(fam.entries) == {(i, j) for i in range(1, 4) for j in range(1, 4)}
    from invsys.ring import contract

    tw = contract(
        fam.context.variable(3), contract(fam.context.variable(4), fam.entry((2, 2)))
    )
    assert tw == fam.entry((1, 1))


def test_incomplete_box_is_rejected():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    with pytest.raises(PreconditionError):
        build_family(ctx, (0,), {(2,): dual(ctx, "X*Y")}, t0=3)


def test_given_entries_are_kept_verbatim():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    fam = build_family(ctx, (0,), {(1,): dual(ctx, "Y"), (2,): dual(ctx, "X*Y+Y^[2]")})
    assert fam.entry((2,)) == dual(ctx, "X*Y+Y^[2]")


# -- condition one ------------------------------------------------------------------


def test_condition_one_passes_on_worked_families(curve_codim2, codim4_curve, semigroup_curve):
    for fam in (curve_codim2["family5"], codim4_curve["family"], semigroup_curve["family"]):
        assert check_condition_one(fam).passed


def test_condition_one_detects_bad_step():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    H1 = dual(ctx, "Y^[2]")
    fam = build_family(ctx, (0,), {(1,): H1, (2,): H1})
    report = check_condition_one(fam)
    assert not report.passed
    assert any(v.index == (2,) for v in report.violations)


def test_zero_family_passes_vacuously():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    zero = DPPolynomial.zero(ctx)
    fam = build_family(ctx, (0,), {(1,): zero, (2,): zero})
    assert check_family(fam).passed
    assert is_zero_family(fam)


def test_zero_base_entry_with_nonzero_tail_is_rejected():
    # a vanishing base entry forces the whole family to vanish; a nonzero
    # later entry slips past condition one (x kills it) but not condition two
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    fam = build_family(
        ctx, (0,), {(1,): DPPolynomial.zero(ctx), (2,): dual(ctx, "Y^[3]")}
    )
    assert check_condition_one(fam).passed
    assert not check_condition_two(fam, "annihilator").passed


# -- condition two ------------------------------------------------------------------


def test_condition_two_passes_on_worked_families(curve_codim2, semigroup_curve):
    for fam in (curve_codim2["family5"], semigroup_curve["family"]):
        assert check_condition_two(fam, "annihilator").passed
        assert check_condition_two(fam, "intersection").passed


def test_condition_two_spans_each_entry_once(monkeypatch, semigroup_curve):
    # every step of the one-parameter family resets back to H_1: annihilator
    # mode needs only its span, intersection mode the spans of H_1, ..., H_5
    spanned = []

    def counting(gens, *args):
        spanned.append(gens[0])
        return module_span(gens, *args)

    monkeypatch.setattr(admissible, "module_span", counting)
    fam = semigroup_curve["family"]
    for mode, calls in (("annihilator", 1), ("intersection", 5)):
        spanned.clear()
        assert check_condition_two(fam, mode).passed
        assert len(spanned) == calls
        assert len({str(H) for H in spanned}) == calls


def test_condition_two_builds_each_target_and_annihilator_once(
    monkeypatch, semigroup_curve, elliptic_curve
):
    # intersection mode needs one target builder per distinct reset entry
    # (semigroup: all four steps reset to H_1; elliptic: five distinct), and
    # annihilator mode one window per entry it steps up from, whatever the
    # step's degree bound (elliptic: 12 steps from 8 entries)
    builders, annihilators = [], []
    build, annihilate = admissible.SubspaceBasis.builder, admissible.annihilator_window

    def counting_build(basis):
        builders.append(basis)
        return build(basis)

    def counting_annihilate(H, bound):
        annihilators.append((str(H), bound))
        return annihilate(H, bound)

    monkeypatch.setattr(admissible.SubspaceBasis, "builder", counting_build)
    monkeypatch.setattr(admissible, "annihilator_window", counting_annihilate)
    for fam, targets in ((semigroup_curve["family"], 1), (elliptic_curve["family"], 5)):
        builders.clear()
        assert check_condition_two(fam, "intersection").passed
        assert len(builders) == targets
    assert check_condition_two(elliptic_curve["family"], "annihilator").passed
    assert len(annihilators) == len(set(annihilators)) == 8


def test_condition_two_reads_windows_handed_in(monkeypatch, semigroup_curve, elliptic_curve):
    # a window's divisor set and multi-term vectors are the same at every
    # bound from the entry's degree on, so windows handed in at any such
    # bound give the check's own verdicts, and it computes none of them
    ctx = elliptic_curve["ctx"]
    broken = dict(elliptic_curve["family"].entries)
    broken[(3, 3)] = broken[(3, 3)] + dual(ctx, "Y^[6]")
    families = [
        semigroup_curve["family"],
        elliptic_curve["family"],
        build_family(ctx, elliptic_curve["family"].z_indices, broken, elliptic_curve["family"].t0),
    ]
    expected = [[(v.index, v.condition, v.detail) for v in check_condition_two(fam).violations] for fam in families]
    assert expected[0] == expected[1] == [] and expected[2]
    computed = []
    annihilate = admissible.annihilator_window

    def counting(H, bound):
        computed.append(bound)
        return annihilate(H, bound)

    monkeypatch.setattr(admissible, "annihilator_window", counting)
    for fam, violations in zip(families, expected):
        for extra in (0, 1, 3):
            windows = {L: annihilate([H], int(H.degree()) + extra) for L, H in fam.entries.items()}
            report = check_condition_two(fam, "annihilator", windows=windows)
            assert [(v.index, v.condition, v.detail) for v in report.violations] == violations
    assert computed == []


def test_condition_two_contracts_only_by_monomials_that_reach_the_next_entry(monkeypatch, elliptic_curve):
    # annihilator mode contracts H_up by the multi-term window vectors and by
    # the monomials outside the divisor set of H_L that divide a term of
    # H_up; the other one-term annihilators would contract it to zero
    calls = []
    contract, contract_monomial = admissible.contract, admissible.contract_monomial

    def recording_contract(h, H):
        calls.append((list(h.terms), H))
        return contract(h, H)

    def recording_contract_monomial(m, H):
        calls.append(([m], H))
        return contract_monomial(m, H)

    monkeypatch.setattr(admissible, "contract", recording_contract)
    monkeypatch.setattr(admissible, "contract_monomial", recording_contract_monomial)
    fam = elliptic_curve["family"]
    ctx = fam.context
    assert check_condition_two(fam, "annihilator").passed
    monomials = [(h[0], H) for h, H in calls if len(h) == 1]
    assert monomials and len(monomials) < len(calls)
    assert all(any(ctx.divides(m, l) for l in H.terms) for m, H in monomials)
    # both modes still agree, on the family and on a perturbed copy
    assert check_condition_two(fam, "intersection").passed
    broken = dict(fam.entries)
    broken[(3, 3)] = broken[(3, 3)] + dual(ctx, "Y^[6]")
    perturbed = build_family(ctx, fam.z_indices, broken, fam.t0)
    verdicts = {check_condition_two(perturbed, mode).passed for mode in ("annihilator", "intersection")}
    assert verdicts == {False}


def test_condition_two_detects_perturbation():
    # x contracts X*Y^[2]+Z^[3] onto Y^[2], so the step-down condition holds,
    # but z now reaches Z^[2], which escapes the cyclic span of Y^[2]
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    H1 = dual(ctx, "Y^[2]")
    bad = dual(ctx, "X*Y^[2]+Z^[3]")
    fam = build_family(ctx, (0,), {(1,): H1, (2,): bad})
    assert check_condition_one(fam).passed
    report = check_condition_two(fam, "annihilator")
    assert not report.passed
    assert any(v.index == (1,) for v in report.violations)
    report2 = check_condition_two(fam, "intersection")
    assert not report2.passed


def test_mode_equivalence_random():
    # randomized families, some admissible (built by lifting), some perturbed
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    rng = rng_for("mode-equivalence")
    agreements = 0
    while agreements < 50:
        H1 = random_poly(rng, ctx, "dual", 3, homogeneous=True)
        if H1.is_zero() or H1.degree() < 1:
            continue
        fam1 = build_family(ctx, (0,), {(1,): H1})
        lifted = lift_space(fam1, (2,))
        if lifted is None:
            continue
        H2, kernel = lifted
        if rng.random() < 0.5 and kernel.dim:
            H2 = H2 + kernel.vectors[rng.randrange(kernel.dim)]
        if rng.random() < 0.4:
            noise = random_poly(rng, ctx, "dual", int(H1.degree()) + 1, homogeneous=True)
            from invsys.ring import contract

            if contract(ctx.variable(0), noise).is_zero():
                H2 = H2 + noise
        fam = build_family(ctx, (0,), {(1,): H1, (2,): H2})
        if not check_condition_one(fam).passed:
            continue
        a = check_condition_two(fam, "annihilator").passed
        b = check_condition_two(fam, "intersection").passed
        assert a == b
        agreements += 1


# -- koszul dimension additivity --------------------------------------------------------


def test_dimension_additivity_along_one_parameter_families(curve_codim2, semigroup_curve):
    for fam in (curve_codim2["family5"], semigroup_curve["family"]):
        dims = {
            l: span_dim(module_span([fam.entry((l,))])) for l in range(1, fam.t0 + 1)
        }
        for l in range(2, fam.t0 + 1):
            assert dims[l] == dims[1] + dims[l - 1]


# -- cones -------------------------------------------------------------------------------


def test_monomial_cone():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    fam = cone_family(dual(ctx, "Y^[2]"), 1, 5)
    assert fam.entry((3,)) == dual(ctx, "X^[2]*Y^[2]")
    assert check_family(fam).passed
    ann = ann_module([fam.entry((5,))], degree_bound=3)
    assert [str(g) for g in ann.gens] == ["y^3"]


def test_cone_over_cubic_binomial():
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    H = dual(ctx, "Y^[3]-Z^[3]")
    fam = cone_family(H, 1, 6)
    assert check_family(fam).passed
    ann = ann_module([fam.entry((6,))], degree_bound=4)
    expected = [ring_poly(ctx, "y*z"), ring_poly(ctx, "y^3+z^3")]
    assert ideals_equal_mod(ann.gens, expected, 5, ctx)


def test_cone_rejects_distinguished_variables():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    with pytest.raises(PreconditionError):
        cone_family(dual(ctx, "X*Y"), 1, 2)


def test_cone_over_codim4_base(codim4_curve):
    ctx = codim4_curve["ctx"]
    H1 = codim4_curve["H"][0]  # involves X..T only; distinguished variable is v
    fam = cone_family(H1, 1, 3, z_indices=(4,))
    assert check_condition_two(fam, "annihilator").passed


# -- lift spaces ----------------------------------------------------------------------------


def test_lift_space_particular_and_kernel():
    ctx = ctx_of("ring Q[x,y] dual [X,Y] mode local")
    fam = build_family(ctx, (0,), {(1,): dual(ctx, "Y^[2]")})
    particular, kernel = lift_space(fam, (2,), deg_bound=3)
    assert particular == dual(ctx, "X*Y^[2]")
    for text in ["Y^[3]", "Y^[2]", "Y", "1"]:
        assert membership(dual(ctx, text), kernel)


def test_lift_space_of_surface_family(elliptic_curve):
    fam = elliptic_curve["family"]
    out = lift_space(fam, (2, 2))
    assert out is not None
    particular, kernel = out
    diff = fam.entry((2, 2)) - particular
    assert membership(diff, kernel)


def test_lift_space_infeasible():
    # a degree-1 window cannot contract onto a degree-1 predecessor
    ctx = ctx_of("ring Q[x,y] dual [X,Y] mode local")
    fam = build_family(ctx, (0,), {(1,): dual(ctx, "X+Y")})
    out = lift_space(fam, (2,), deg_bound=1)
    assert out is None


def test_lift_space_two_parameter_inconsistent():
    # x o H_(2,1) = 2Z and y o H_(1,2) = Z: no G at (2,2) contracts onto both,
    # since x and y would have to agree on X*Y*Z; only that check sees it, as
    # the annihilator products vanish on either choice there
    ctx = ctx_of("ring Q[x,y,z,w] dual [X,Y,Z,W] mode graded")
    entries = {(1, 1): dual(ctx, "Z"), (1, 2): dual(ctx, "Y*Z"), (2, 1): dual(ctx, "2X*Z")}
    fam = admissible.AdmissibleFamily(ctx, 2, (0, 1), entries, 2)
    assert lift_space(fam, (2, 2)) is None
    assert admissible.solve_lift(fam, (2, 2), 3, []) is None
    entries[(2, 1)] = dual(ctx, "X*Z")
    assert lift_space(fam, (2, 2))[0] == dual(ctx, "X*Y*Z")


def test_oversized_graded_lift_is_refused_up_front(curve_codim2):
    # a graded lift solves in one degree: C(2 + 446, 2) = 100128 columns,
    # just over the limit (the window up to 446 would hold C(449, 3))
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="lifting system of degree 446 needs 100128 contraction columns"):
        lift_space(curve_codim2["family4"], (5,), deg_bound=446)
    assert time.perf_counter() - start < 5


def test_lift_extends_family_admissibly(curve_codim2):
    ctx = curve_codim2["ctx"]
    fam = curve_codim2["family5"]
    H6, _ = lift_space(fam, (6,))
    extended = build_family(
        ctx, (0,), {(l,): fam.entry((l,)) for l in range(1, 6)} | {(6,): H6}
    )
    assert check_family(extended).passed


def _full_system_lift(fam, L, degree, constraints):
    """``solve_lift`` as one elimination over every column: the step-down rows, then the constraint rows."""
    ctx = fam.context
    constraints = fam.step_down(L) + list(constraints)
    graded = ctx.mode == "graded" and all(H.is_homogeneous() for H in fam.entries.values())
    columns = monomial_columns(ctx.n, degree if graded else 0, degree, "lifting system", "of")
    rows = contraction_rows([g for g, _ in constraints], columns)
    for k, (_, T) in enumerate(constraints):
        for m in T.terms:
            rows.setdefault((k, m), {})
    rhs = [constraints[k][1].terms.get(m, 0) for k, m in rows]
    solved = solve_affine(list(rows.values()), rhs, columns, ctx.one)
    if solved is None:
        return None
    particular, kernel = solved
    return DPPolynomial._of(ctx, particular), [DPPolynomial._of(ctx, v) for v in kernel]


def _same_lift(a, b):
    if a is None or b is None:
        return a is b
    (pa, ka), (pb, kb) = a, b
    ka, kb = (getattr(k, "vectors", k) for k in (ka, kb))  # a SubspaceBasis from lift_space
    return pa == pb and [v.terms for v in ka] == [v.terms for v in kb]


def _lift_both_ways(monkeypatch, fam, L, bound=None):
    """``lift_space`` as it is and with the full-system reference in place of ``solve_lift``."""
    fast = lift_space(fam, L, bound)
    with monkeypatch.context() as m:
        m.setattr(admissible, "solve_lift", _full_system_lift)
        slow = lift_space(fam, L, bound)
    return fast, slow


def _random_dual(rng, ctx, degrees, positions, terms):
    """A sum of random dual monomials in the variables at ``positions``, their degrees drawn from ``degrees``."""
    out = {}
    for _ in range(terms):
        exps = [0] * ctx.n
        for _ in range(rng.choice(degrees)):
            exps[rng.choice(positions)] += 1
        out[tuple(exps)] = ctx.scalar(rng.choice([-3, -2, -1, 1, 2, 3]))
    return DPPolynomial(ctx, out)


def _random_lift_case(rng, field, mode, d):
    """A family at t0 = 2 from one random entry, maybe perturbed, with a target and a degree bound.

    Half the families are cones, which are admissible, and half are derived
    by contraction from a random top entry.
    """
    ctx = ctx_of(f"ring {field}[{','.join('xyzw'[: d + 2])}] mode {mode}")
    top = rng.randint(1, 4)
    degrees = [top] if mode == "graded" else range(top + 1)
    cone = rng.random() < 0.5
    F = _random_dual(rng, ctx, degrees, range(d if cone else 0, ctx.n), rng.randint(1, 5))
    fam = cone_family(F, d, 2) if cone else build_family(ctx, tuple(range(d)), {(2,) * d: F}, 2)
    L = rng.choice([(3,), (2,)] if d == 1 else [(3, 1), (1, 3), (2, 2)])
    if rng.random() < 0.4:  # perturb one predecessor by a term, of its own degree in graded mode
        idx = rng.choice([tuple(l - (j == i) for j, l in enumerate(L)) for i in range(d) if L[i] > 1])
        H = fam.entries[idx]
        degrees = [int(H.degree())] if mode == "graded" and not H.is_zero() else range(5)
        fam.entries[idx] = H + _random_dual(rng, ctx, degrees, range(ctx.n), 1)
    top = max((int(T.degree()) for _, T in fam.step_down(L) if not T.is_zero()), default=0)
    return fam, L, rng.choice([None, None, top, top + 2])


@pytest.mark.parametrize("field", ["Q", "Fp(7)", "Fp(32003)"])
def test_lift_space_matches_the_full_system(monkeypatch, field):
    # seeded draws, graded and local, d = 1 and 2; particular solutions and
    # kernels agree term for term, and so do the infeasible verdicts
    rng = rng_for(f"full-system-lift-{field}")
    verdicts = []
    for mode in ("graded", "local"):
        for d in (1, 2):
            for _ in range(10):
                fam, L, bound = _random_lift_case(rng, field, mode, d)
                fast, slow = _lift_both_ways(monkeypatch, fam, L, bound)
                assert _same_lift(fast, slow), (mode, d, L, bound, dump_family(fam))
                verdicts.append(fast is None)
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("mode", ["graded", "local"])
def test_lift_columns_are_the_window_columns_no_z_divides(monkeypatch, mode):
    # the free columns are built from the other variables alone; they are the
    # window's columns that no distinguished variable divides, in its order
    rng = rng_for(f"lift-columns-{mode}")
    seen, calls = [], 0
    solve = admissible.solve_affine

    def capturing(rows, rhs, columns, one):
        seen.append(columns)
        return solve(rows, rhs, columns, one)

    monkeypatch.setattr(admissible, "solve_affine", capturing)
    for d in (1, 2):
        for _ in range(8):
            fam, L, _ = _random_lift_case(rng, "Fp(7)", mode, d)
            ctx = fam.context
            graded = mode == "graded" and all(H.is_homogeneous() for H in fam.entries.values())
            for degree in range(6):
                seen.clear()
                admissible.solve_lift(fam, L, degree, [])
                window = monomial_columns(ctx.n, degree if graded else 0, degree, "lifting system", "of")
                free = [c for c in window if not any(ctx.unpack(c)[pos] for pos in fam.z_indices)]
                assert seen in ([], [free])
                calls += bool(seen)
    assert calls > 8


@pytest.mark.parametrize("field", ["Q", "Fp(7)", "Fp(32003)"])
@pytest.mark.parametrize("mode", ["graded", "local"])
def test_lift_mutants_agree_with_the_full_system(monkeypatch, field, mode):
    ctx = ctx_of(f"ring {field}[x,y,z,w] mode {mode}")
    # the complete intersection z^2+w^2-x*y, z*w-x^2+y*w with z = x, y
    given = {
        (1, 2): dual(ctx, "Y*Z^[2]-Z^[3]-Y*W^[2]+Z*W^[2]"),
        (2, 2): dual(ctx, "X*Y*Z^[2]-X*Z^[3]+Z^[4]-X*Y*W^[2]+X*Z*W^[2]-W^[4]"),
    }
    fam = build_family(ctx, (0, 1), given, 2)
    assert _same_lift(*_lift_both_ways(monkeypatch, fam, (2, 2)))
    assert lift_space(fam, (2, 2)) is not None
    # a predecessor perturbed by Y*Z^[2], whose shift by x is the column
    # X*Y*Z^[2] that x*y divides: the predecessors disagree at (1,1)
    bent = admissible.AdmissibleFamily(ctx, 2, (0, 1), dict(fam.entries), 2)
    bent.entries[(1, 2)] = fam.entry((1, 2)) + dual(ctx, "Y*Z^[2]")
    fast, slow = _lift_both_ways(monkeypatch, bent, (2, 2))
    assert fast is None and slow is None
    assert admissible.solve_lift(bent, (2, 2), 4, []) is None
    # a predecessor term shifted past the degree bound
    for L in ((2, 2), (3, 1)):
        top = max(int(T.degree()) for _, T in fam.step_down(L) if not T.is_zero())
        fast, slow = _lift_both_ways(monkeypatch, fam, L, top)
        assert fast is None and slow is None
    # a constraint whose residual lands on monomials that x or y divides: y o K
    # is X-divisible, so the constraint holds only for the right-hand side y o G
    G = fam.entry((2, 2))
    y = ring_poly(ctx, "y")
    zero = DPPolynomial.zero(ctx)
    for T, feasible in ((contract(y, G), True), (zero, False)):
        fast = admissible.solve_lift(fam, (2, 2), 4, [(y, T)])
        assert _same_lift(fast, _full_system_lift(fam, (2, 2), 4, [(y, T)]))
        assert (fast is not None) == feasible


# -- diagonal decomposition -------------------------------------------------------------------


def test_cone_decomposition_is_trivial():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    fam = cone_family(dual(ctx, "Y^[2]"), 1, 4)
    pieces = diagonal_decompose(fam)
    assert pieces[0] == dual(ctx, "Y^[2]")
    assert all(c.is_zero() for c in pieces[1:])


def test_curve_family_decomposition(curve_codim2):
    pieces = diagonal_decompose(curve_codim2["family5"])
    ctx = curve_codim2["ctx"]
    assert pieces[1] == dual(ctx, "Y*Z^[3]")
    assert pieces[2] == dual(ctx, "-Y^[2]*Z^[3]")
    assert pieces[3] == dual(ctx, "Y^[3]*Z^[3]-4Z^[6]")


def test_decomposition_rejects_corrupted_family():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    fam = build_family(ctx, (0,), {(1,): dual(ctx, "Y"), (2,): dual(ctx, "X*Y+X^[2]")})
    with pytest.raises(PreconditionError):
        diagonal_decompose(fam)


def test_random_lifted_family_reassembles():
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    rng = rng_for("reassembly")
    built = 0
    while built < 20:
        H1 = random_poly(rng, ctx, "dual", 3, homogeneous=True)
        if H1.is_zero() or H1.degree() < 1:
            continue
        entries = {(1,): H1}
        ok = True
        for l in range(2, 4):
            fam = build_family(ctx, (0,), entries)
            out = lift_space(fam, (l,))
            if out is None:
                ok = False
                break
            entries[(l,)] = out[0]
        if not ok:
            continue
        fam = build_family(ctx, (0,), entries)
        pieces = diagonal_decompose(fam)
        top = len(pieces)
        rebuilt = DPPolynomial.zero(ctx)
        for i in range(top):
            rebuilt = rebuilt + shift_mul((i, 0, 0), pieces[top - 1 - i])
        assert rebuilt == fam.entry((top,))
        built += 1


# -- diagonal sufficiency ------------------------------------------------------------------------


def test_diagonal_entries_span_whole_family(curve_codim2):
    fam = curve_codim2["family5"]
    all_entries = flatten(module_span([fam.entry((l,)) for l in range(1, 6)]))
    diag_only = flatten(module_span([fam.entry((5,))]))
    a = span_reduce(all_entries)
    b = span_reduce(diag_only)
    assert a.vectors == b.vectors


# -- session files ----------------------------------------------------------------------------------


def test_family_file_round_trip(curve_codim2):
    text = dump_family(curve_codim2["family5"])
    fam = load_family(text)
    assert fam.entries == curve_codim2["family5"].entries
    assert fam.z_indices == (0,)
    assert dump_family(fam) == text


def test_family_file_auto_fill(tmp_path):
    text = "\n".join(
        [
            "ring Q[x,y] dual [X,Y] mode graded",
            "d 1",
            "z x",
            "H[3] = X^[2]*Y^[2]",
        ]
    )
    fam = load_family(text)
    assert fam.t0 == 3
    assert fam.entry((1,)) == dual(fam.context, "Y^[2]")


def test_family_file_rejects_garbage():
    with pytest.raises(PreconditionError):
        load_family("nonsense line\n")


@pytest.mark.parametrize("z_line", ["z ", "z", "z ,"])
def test_family_file_without_distinguished_names_falls_under_the_rule(z_line):
    text = f"ring Q[x,y] dual [X,Y] mode graded\nd 1\n{z_line}\nH[1] = Y^[2]\n"
    with pytest.raises(PreconditionError, match="distinguished variables must be distinct context variables"):
        load_family(text)


@pytest.mark.parametrize("d", [0, 2, 3])
def test_family_file_d_line_must_match_the_z_line(d):
    text = f"ring Q[x,y,z] dual [X,Y,Z] mode graded\nd {d}\nz x\nH[1] = Y^[2]\n"
    with pytest.raises(PreconditionError, match=f"declares d {d} but its z line names 1 variables"):
        load_family(text)
    # without a d line, or with the matching one, the same file loads
    for head in ("", "d 1\n"):
        assert load_family(text.replace(f"d {d}\n", head)).d == 1


FAMILY_FILE = "ring Q[x,y] dual [X,Y] mode graded\nd 1\nz x\nt0 2\nH[1] = Y^[2]\nH[2] = X*Y^[2]\n"


@pytest.mark.parametrize(
    "repeat, lineno",
    [
        ("ring Fp(7)[x,y] dual [X,Y] mode graded", 2),
        ("ring Q[x,y] dual [X,Y] mode graded", 7),
        ("d 1", 7),
        ("z y", 7),
        ("t0 3", 7),
        ("H[1] = Y^[2]+X^[2]", 7),
        ("H[ 2 ] = X*Y^[2]", 7),
    ],
)
def test_family_file_refuses_a_repeated_line(repeat, lineno):
    # the last of a repeated line used to win silently
    assert load_family(FAMILY_FILE).t0 == 2
    lines = FAMILY_FILE.splitlines()
    lines.insert(lineno - 1, repeat)
    with pytest.raises(PreconditionError, match=f"family file line {lineno} repeats an earlier line"):
        load_family("\n".join(lines))
