"""Exact echelon forms, kernels, affine solving and span operations."""

import math
from fractions import Fraction

import pytest
from conftest import ctx_of, dual, frac, ideal_of, ring_poly, rng_for, random_poly

from invsys import (
    DPPolynomial,
    Polynomial,
    ann_cyclic,
    ann_module,
    contract,
    membership,
    module_span,
    pairing,
    perp_ideal,
    span_intersect,
    span_reduce,
)
from invsys import linalg
from invsys.linalg import kernel_vectors, monomial_columns, rank_of, rref_rows, solve_affine
from invsys.ring import ContextMismatchError, PrimeFieldElement


def _dense_to_rows(grid):
    return [
        {j: frac(v) for j, v in enumerate(row) if v} for row in grid
    ]


def _random_rows(rng, nrows, ncols):
    rows = [
        {j: frac(rng.randint(-4, 4)) for j in range(ncols) if rng.random() < 0.6}
        for _ in range(nrows)
    ]
    return [{j: v for j, v in row.items() if v} for row in rows]  # rows carry no zero entries


def _apply(rows, vec):
    out = []
    for row in rows:
        s = frac(0)
        for j, c in row.items():
            s += c * vec.get(j, frac(0))
        out.append(s)
    return out


# -- rref ---------------------------------------------------------------------


def test_rref_identity_is_fixed():
    rows = _dense_to_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    reduced, pivots = rref_rows(rows, frac(1))
    assert pivots == [0, 1, 2]
    assert reduced == rows


def test_rref_zero_matrix():
    reduced, pivots = rref_rows([{}, {}, {}], frac(1))
    assert reduced == [] and pivots == []


def test_rref_idempotent_random():
    rng = rng_for("rref-idempotent")
    for _ in range(30):
        rows = _random_rows(rng, 5, 7)
        once, piv1 = rref_rows(rows, frac(1))
        twice, piv2 = rref_rows(once, frac(1))
        assert once == twice and piv1 == piv2


def test_rref_kernel_annihilation_random():
    rng = rng_for("rref-kernel")
    for _ in range(50):
        rows = _random_rows(rng, 6, 8)
        kernel = kernel_vectors(rows, range(8), frac(1))
        for vec in kernel:
            assert all(v == 0 for v in _apply(rows, vec))
        reduced, _ = rref_rows(rows, frac(1))
        for vec in kernel:
            assert all(v == 0 for v in _apply(reduced, vec))


@pytest.mark.parametrize("field", ["Q", "Fp(32003)"])
def test_kernel_vectors_come_out_in_reduced_echelon_form(field):
    # monic at the leftmost entry, distinct leads, zero at the other leads:
    # the basis equals its own span_reduce over degrevlex-ordered columns
    ctx = ctx_of(f"ring {field}[x,y,z]")
    columns = monomial_columns(3, 4, 4, "test system", "of")
    ncols = len(columns)
    rng = rng_for(f"kernel-echelon-{field}")
    for _ in range(40):
        rows = [
            {j: ctx.to_term(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
             for j in range(ncols) if rng.random() < 0.3}
            for _ in range(rng.randint(1, 12))
        ]
        kernel = kernel_vectors(rows, range(ncols), ctx.scalar(1))
        assert rank_of(rows, ctx.one) + len(kernel) == ncols
        leads = [min(vec) for vec in kernel]
        assert len(set(leads)) == len(leads)
        for vec, lead in zip(kernel, leads):
            assert vec[lead] == 1
            assert not any(other in vec for other in leads if other != lead)
            assert all(v == 0 for v in _apply_over(ctx, rows, vec))
        polys = [Polynomial._of(ctx, {columns[j]: c for j, c in vec.items()}) for vec in kernel]
        assert span_reduce(polys).vectors == polys


def test_graded_perp_runs_one_elimination_per_degree(monkeypatch, curve_codim2):
    eliminations = []
    original = linalg._Echelon.__init__

    def counted(self, *args, **kwargs):
        eliminations.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(linalg._Echelon, "__init__", counted)
    bound = 6
    perp_ideal(curve_codim2["ideal"], bound)
    assert len(eliminations) == bound + 1
    eliminations.clear()
    local = ctx_of("ring Q[x,y] dual [X,Y] mode local")
    perp_ideal(ideal_of(local, "x*y, y^2-x^3"), 5)
    assert len(eliminations) == 1
    # a graded annihilator is one window kernel and one minimalizing span
    F = curve_codim2["H"][2]
    for b in range(1, int(F.degree()) + 2):
        eliminations.clear()
        ann_module([F], b)
        assert len(eliminations) == 2, b


def test_rank_nullity_random():
    rng = rng_for("rank-nullity")
    for _ in range(50):
        rows = _random_rows(rng, rng.randint(1, 7), rng.randint(1, 7))
        ncols = max((max(r) for r in rows if r), default=-1) + 1
        assert rank_of(rows, frac(1)) + len(kernel_vectors(rows, range(ncols), frac(1))) == ncols


def test_full_rank_square_kernel_empty():
    rows = _dense_to_rows([[2, 1], [1, 1]])
    assert kernel_vectors(rows, range(2), frac(1)) == []


# -- affine solving ------------------------------------------------------------


def test_affine_solve_zero_target_gives_full_kernel():
    rng = rng_for("affine-zero")
    rows = _random_rows(rng, 4, 6)
    out = solve_affine(rows, [frac(0)] * 4, range(6), frac(1))
    assert out is not None
    particular, kernel = out
    assert particular == {}
    assert len(kernel) == len(kernel_vectors(rows, range(6), frac(1)))


def test_affine_solve_consistency_random():
    rng = rng_for("affine-random")
    for _ in range(40):
        rows = _random_rows(rng, 5, 6)
        secret = {j: frac(rng.randint(-3, 3)) for j in range(6)}
        rhs = _apply(rows, secret)
        out = solve_affine(rows, rhs, range(6), frac(1))
        assert out is not None
        particular, kernel = out
        assert _apply(rows, particular) == rhs
        for vec in kernel:
            assert all(v == 0 for v in _apply(rows, vec))


def test_affine_solve_detects_infeasible():
    rows = _dense_to_rows([[1, 0], [1, 0]])
    assert solve_affine(rows, [frac(1), frac(2)], range(2), frac(1)) is None


def test_affine_solve_contraction_system():
    # unknown dual element G of degree <= 3 in two variables with x o G = Y^[2]
    ctx = ctx_of("ring Q[x,y] dual [X,Y] mode local")
    columns = monomial_columns(2, 0, 3, "test system")
    rows, rhs = [], []
    target = dual(ctx, "Y^[2]")
    for col, m in enumerate(columns):
        e = ctx.unpack(m)
        down = (e[0] - 1, e[1])
        if down[0] < 0:
            continue
        rows.append({col: frac(1)})
        rhs.append(target.coeff(down))
    out = solve_affine(rows, rhs, columns, frac(1))
    assert out is not None
    particular, kernel = out
    assert DPPolynomial._of(ctx, particular) == dual(ctx, "X*Y^[2]")
    kernel_polys = [DPPolynomial._of(ctx, v) for v in kernel]
    for text in ["Y^[3]", "Y^[2]", "Y", "1"]:
        assert any(p == dual(ctx, text) for p in kernel_polys)


# -- catalecticant kernels ------------------------------------------------------


def test_catalecticant_kernel_of_quadric_cubic_generator():
    # contraction of X^[3]+Y^[2] by the three degree-2 monomials:
    #   x^2 -> X, x*y -> 0, y^2 -> 1, so the kernel is spanned by x*y
    ctx = ctx_of("ring Q[x,y] dual [X,Y] mode local")
    F = dual(ctx, "X^[3]+Y^[2]")
    cols = monomial_columns(2, 2, 2, "test system", "of")
    from invsys.ring import contract

    images = [contract(Polynomial.monomial(ctx, ctx.unpack(m)), F) for m in cols]
    support = sorted({m for im in images for m in im.terms})
    rows = []
    for target in support:
        rows.append(
            {j: im.terms[target] for j, im in enumerate(images) if target in im.terms}
        )
    kernel = kernel_vectors(rows, cols, frac(1))
    polys = [Polynomial._of(ctx, v) for v in kernel]
    assert polys == [ring_poly(ctx, "x*y")]


# -- span operations -------------------------------------------------------------


def test_span_reduce_is_canonical():
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    a = span_reduce([dual(ctx, "X+Y"), dual(ctx, "Y+Z"), dual(ctx, "X+2Y+Z")])
    b = span_reduce([dual(ctx, "X+2Y+Z"), dual(ctx, "X+Y")])
    assert a.vectors == b.vectors
    assert a.dim == 2


def test_membership():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    basis = span_reduce([dual(ctx, "X^[2]+Y^[2]")])
    assert membership(dual(ctx, "2X^[2]+2Y^[2]"), basis)
    assert not membership(dual(ctx, "X^[2]"), basis)


def test_span_intersect_self_and_zero():
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    a = span_reduce([dual(ctx, "X+Y"), dual(ctx, "Z")])
    assert span_intersect(a, a).vectors == a.vectors
    empty = span_reduce([])
    assert span_intersect(a, empty).dim == 0


def test_span_intersect_refuses_spans_from_different_sides():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    ring_side, dual_side = span_reduce([ring_poly(ctx, "x+y")]), span_reduce([dual(ctx, "X+Y")])
    for a, b, sides in (
        (ring_side, dual_side, "Polynomial and DPPolynomial"),
        (dual_side, ring_side, "DPPolynomial and Polynomial"),
    ):
        with pytest.raises(ContextMismatchError, match=f"^mixed sides: {sides}$"):
            span_intersect(a, b)


def test_span_intersect_dimension_formula_random():
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z]")
    rng = rng_for("intersect-dim")
    for _ in range(30):
        a = span_reduce([random_poly(rng, ctx, "dual", 2) for _ in range(rng.randint(1, 4))])
        b = span_reduce([random_poly(rng, ctx, "dual", 2) for _ in range(rng.randint(1, 4))])
        joint = span_reduce(list(a.vectors) + list(b.vectors))
        meet = span_intersect(a, b)
        assert meet.dim == a.dim + b.dim - joint.dim
        for v in meet.vectors:
            assert membership(v, a) and membership(v, b)


def test_span_intersect_commutative_associative_monotone():
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    rng = rng_for("intersect-comm")
    for _ in range(20):
        a = span_reduce([random_poly(rng, ctx, "dual", 3) for _ in range(2)])
        b = span_reduce([random_poly(rng, ctx, "dual", 3) for _ in range(2)])
        c = span_reduce([random_poly(rng, ctx, "dual", 3) for _ in range(2)])
        ab = span_intersect(a, b)
        ba = span_intersect(b, a)
        assert ab.vectors == ba.vectors
        left = span_intersect(ab, c)
        right = span_intersect(a, span_intersect(b, c))
        assert left.vectors == right.vectors
        for v in ab.vectors:
            assert membership(v, a) and membership(v, b)
        # monotone: intersecting with a superspace changes nothing
        sup = span_reduce(list(a.vectors) + list(c.vectors))
        assert span_intersect(a, sup).vectors == a.vectors


# -- the echelon engine against a scan-all reference ----------------------------


class _ScanAllEchelon:
    """The engine without an index: iterated reduction by the lead pivot key,
    back substitution scanning every pivot row."""

    def __init__(self, lead):
        self.lead = lead
        self.pivots = {}

    @staticmethod
    def _subtract(row, factor, prow):
        for c, v in prow.items():
            s = row.get(c)
            s = -factor * v if s is None else s - factor * v
            if s:
                row[c] = s
            else:
                row.pop(c, None)

    def reduce_row(self, row):
        row = dict(row)
        while True:
            hit = [c for c in row if c in self.pivots]
            if not hit:
                return row
            c = self.lead(hit)
            self._subtract(row, row[c], self.pivots[c])

    def insert_row(self, row):
        row = self.reduce_row(row)
        if not row:
            return None
        key = self.lead(row)
        lc = row[key]
        row = {c: v / lc for c, v in row.items()}
        for other in self.pivots.values():
            if key in other:
                self._subtract(other, other[key], row)
        self.pivots[key] = row
        return key


def _holders_of(pivots):
    """Non-pivot column -> pivot keys whose row is nonzero there."""
    held = {}
    for key, row in pivots.items():
        for c in row:
            if c not in pivots:
                held.setdefault(c, set()).add(key)
    return held


# Fp(7) cancels often with small entries; 2^64 + 13 is the least prime above
# 2^64, which the ring context certifies
ENGINE_FIELDS = ["Q", "Fp(2)", "Fp(7)", "Fp(32003)", f"Fp({2**64 + 13})"]


def _field_conversion(ctx):
    """Engine rows and polynomial terms to field scalars; over Fp(p) they must hold ints in [1, p)."""
    p = ctx.char

    def to_field(row):
        if p:
            assert all(type(v) is int and 0 < v < p for v in row.values())
        return {c: ctx.scalar(v) for c, v in row.items()}

    return to_field


def _assert_same_state(engine, reference, to_field):
    # over Q the engine holds each pivot row as a primitive int row with a
    # positive pivot entry; its monic view is the reference's monic row
    if engine.modulus == 0:
        for key, row in engine.pivots.items():
            assert all(type(v) is int for v in row.values())
            assert row[key] > 0 and math.gcd(*row.values()) == 1
    assert {key: to_field(engine.monic_row(key)) for key in engine.pivots} == reference.pivots
    assert engine.holders == _holders_of(reference.pivots)


def _engine_remainder(engine, row):
    """The exact remainder of a row; over Q the engine's int row r comes with the d of r / d."""
    if engine.modulus:
        return engine.reduce_row(row)
    out, d = engine._reduce_integral(row)
    assert out == engine.reduce_row(row)
    return {c: Fraction(v, d) for c, v in out.items()}


def _sparse_int_rows(rng, ctx, count, ncols):
    """Random engine rows: ints mod p over Fp(p), Fractions over Q, no zero entries."""
    rows = [
        {j: ctx.to_term(rng.choice([-2, -1, 1, 2])) for j in range(ncols) if rng.random() < 0.3}
        for _ in range(count)
    ]
    return [{j: v for j, v in row.items() if v} for row in rows]


@pytest.mark.parametrize("field", ENGINE_FIELDS)
@pytest.mark.parametrize("lead", [min, max])
def test_engine_matches_scan_all_reference_on_int_keys(field, lead):
    # the engine runs on its own rows (ints mod p over Fp), the reference on field scalars
    ctx = ctx_of(f"ring {field}[x,y]")
    to_field = _field_conversion(ctx)
    rng = rng_for(f"engine-reference-{field}-{lead.__name__}")
    for _ in range(30):
        ncols = rng.randint(4, 14)
        rows = _sparse_int_rows(rng, ctx, rng.randint(2, 16), ncols)
        probes = _sparse_int_rows(rng, ctx, 6, ncols)
        engine, reference = linalg._Echelon(lead, ctx.char), _ScanAllEchelon(lead)
        for row in rows:
            assert engine.insert_row(row) == reference.insert_row(to_field(row))
            _assert_same_state(engine, reference, to_field)
        for row in probes:
            assert to_field(_engine_remainder(engine, row)) == reference.reduce_row(to_field(row))


@pytest.mark.parametrize("field", ENGINE_FIELDS)
def test_span_builder_matches_scan_all_reference_on_monomial_keys(field):
    ctx = ctx_of(f"ring {field}[x,y,z]")
    to_field = _field_conversion(ctx)
    rng = rng_for(f"engine-reference-monomials-{field}")
    for _ in range(20):
        polys = [random_poly(rng, ctx, "r", 3, max_terms=6) for _ in range(rng.randint(2, 14))]
        probes = [random_poly(rng, ctx, "r", 3, max_terms=6) for _ in range(6)]
        builder = linalg.SpanBuilder()
        reference = _ScanAllEchelon(max)
        for p in polys:
            assert builder.insert(p) == (reference.insert_row(to_field(p.terms)) is not None)
            _assert_same_state(builder, reference, to_field)
        for probe in probes:
            assert to_field(builder.reduce(probe).terms) == reference.reduce_row(to_field(probe.terms))
        for p in polys:
            assert builder.reduce(p).is_zero()


def _unit_heavy_rows(rng, ctx, count, ncols):
    """Engine rows of which about half have one or two entries, over few columns."""
    rows = []
    for _ in range(count):
        size = rng.choice([1, 2]) if rng.random() < 0.5 else rng.randint(3, ncols)
        row = {j: ctx.to_term(rng.choice([-3, -2, -1, 1, 2, 3])) for j in rng.sample(range(ncols), size)}
        rows.append({j: v for j, v in row.items() if v})
    return rows


def _insert_watching_unit_pivots(engine, row, insert, seen):
    """insert(), after which every row that held the key of a one-term remainder
    has lost that entry (and over Q been divided by its new content); ``seen``
    counts such unit inserts and, over Q, the rows whose content was > 1."""
    rest = engine.reduce_row(row)
    held = {}
    if len(rest) == 1:
        (key,) = rest
        held = {pk: {c: v for c, v in engine.pivots[pk].items() if c != key} for pk in engine.holders.get(key, ())}
    result = insert()
    for pk, before in held.items():
        g = 1 if engine.modulus else math.gcd(*before.values())
        assert engine.pivots[pk] == {c: v // g for c, v in before.items()}
        seen["redivided"] += g != 1
    seen["held"] += bool(held)
    return result


@pytest.mark.parametrize("field", ENGINE_FIELDS)
@pytest.mark.parametrize("keys", ["min", "max", "monomials"])
def test_unit_pivots_match_scan_all_reference(field, keys):
    # one-term remainders become pivots {key: 1}; those arriving after rows that
    # already hold their key back-substitute by deleting it from those rows
    ctx = ctx_of(f"ring {field}[x,y,z]")
    to_field = _field_conversion(ctx)
    rng = rng_for(f"unit-pivots-{field}-{keys}")
    seen = {"held": 0, "redivided": 0}
    for _ in range(30):
        if keys == "monomials":
            polys = [random_poly(rng, ctx, "r", 2, max_terms=rng.choice([1, 2, 5])) for _ in range(rng.randint(2, 14))]
            builder, reference = linalg.SpanBuilder(), _ScanAllEchelon(max)
            for p in polys:
                terms = builder._adopt(p)
                added = _insert_watching_unit_pivots(builder, terms, lambda: builder.insert(p), seen)
                assert added == (reference.insert_row(to_field(terms)) is not None)
                _assert_same_state(builder, reference, to_field)
            continue
        lead = {"min": min, "max": max}[keys]
        ncols = rng.randint(3, 10)
        engine, reference = linalg._Echelon(lead, ctx.char), _ScanAllEchelon(lead)
        for row in _unit_heavy_rows(rng, ctx, rng.randint(2, 16), ncols):
            key = _insert_watching_unit_pivots(engine, row, lambda: engine.insert_row(row), seen)
            assert key == reference.insert_row(to_field(row))
            _assert_same_state(engine, reference, to_field)
    assert seen["held"] >= 10
    if field == "Q":
        assert seen["redivided"] >= 5


def _cascading_rows(rng, ctx, count, ncols):
    """Engine rows over few columns: many one-key rows, and chains {k0}, {k0, k1}, {k1, k2}, ... shuffled in,
    each of which the unit row of k0 strips down to one key after the other."""
    rows = _unit_heavy_rows(rng, ctx, count, ncols)
    chain = rng.sample(range(ncols), rng.randint(2, ncols))
    rows.append({chain[0]: ctx.to_term(rng.choice([-2, 1, 3]))})
    for a, b in zip(chain, chain[1:]):
        rows.append({a: ctx.to_term(rng.choice([-1, 2])), b: ctx.to_term(rng.choice([1, -3]))})
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("field", ["Q", "Fp(7)", "Fp(32003)"])
@pytest.mark.parametrize("lead", [min, max])
def test_rref_rows_peeling_unit_rows_matches_one_by_one_insertion(field, lead):
    # rref_rows takes the unit rows out to a fixpoint before any elimination;
    # the RREF is unique, so its rows and pivots are those of inserting every
    # row into the engine in turn
    ctx = ctx_of(f"ring {field}[x,y]")
    rng = rng_for(f"peel-units-{field}-{lead.__name__}")
    cascaded = 0
    for _ in range(40):
        ncols = rng.randint(3, 12)
        rows = _cascading_rows(rng, ctx, rng.randint(2, 18), ncols)
        before = [dict(row) for row in rows]
        engine = linalg._Echelon(lead, ctx.char)
        for row in rows:
            engine.insert_row(row)
        pivots = sorted(engine.pivots)
        assert rref_rows(rows, ctx.one, lead) == ([engine.pivots[c] for c in pivots], pivots)
        assert rows == before
        units, rest = linalg.peel_units(rows)
        assert all(engine.pivots[key] == {key: 1} for key in units)
        assert all(len(row) > 1 and units.isdisjoint(row) for row in rest)
        cascaded += len(units - {key for row in rows if len(row) == 1 for key in row})
    assert cascaded >= 40


def test_unit_pivots_take_no_inverse(monkeypatch, surface_codim4):
    # only a pivot row of two or more terms is normalised by an inverse: 896 of
    # the diagonal span's 1216 pivots and every pivot of a monomial ideal's
    # perp are unit pivots
    calls = []

    def counting(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(linalg, "pow", counting, raising=False)  # a module global shadows the builtin
    ctx = ctx_of(surface_codim4["ctx"].decl().replace("ring Q", "ring Fp(32003)", 1))
    diagonal = [dual(ctx, str(g)) for g in surface_codim4["diagonal"]]
    assert sum(s.dim for s in module_span(diagonal)) == 1216
    assert len(calls) == 320
    for mode in ("graded", "local"):
        calls.clear()
        ctx = ctx_of(f"ring Fp(32003)[x,y,z] dual [X,Y,Z] mode {mode}")
        slices = perp_ideal(ideal_of(ctx, "x^3, x*y^2, z^4, y^3*z"), 7)
        assert sum(s.dim for s in slices) == 33 and calls == []


@pytest.mark.parametrize("field", ["Q", "Fp(32003)"])
def test_span_builder_copy_extends_without_changing_the_original(field):
    ctx = ctx_of(f"ring {field}[x,y,z]")
    rng = rng_for(f"span-builder-copy-{field}")
    for _ in range(20):
        polys = [random_poly(rng, ctx, "r", 3, max_terms=6) for _ in range(rng.randint(2, 14))]
        cut = rng.randint(0, len(polys))
        original = linalg.SpanBuilder()
        for p in polys[:cut]:
            original.insert(p)
        before = (original.basis(), {c: set(keys) for c, keys in original.holders.items()})
        extended = original.copy()
        for p in polys[cut:]:
            extended.insert(p)
        assert (original.basis(), original.holders) == before
        assert extended.basis() == span_reduce(polys).vectors
        assert extended.holders == _holders_of(extended.pivots)


# -- Q rows of big entries against the Fraction reference -------------------------


def _big_rational(rng):
    """A nonzero rational, numerator below 2^70 and denominator below 2^35 in size."""
    return frac(rng.choice([-1, 1]) * rng.randint(1, 2**70), rng.randint(1, 2**35))


def _big_q_rows(rng, count, ncols):
    """Sparse rational rows of big entries; every third row is a combination
    of two earlier ones, so it cancels to zero in elimination."""
    rows = []
    for k in range(count):
        if k % 3 == 2:
            a, b = rng.sample(rows, 2)
            s, t = _big_rational(rng), _big_rational(rng)
            row = {j: s * a.get(j, 0) + t * b.get(j, 0) for j in a.keys() | b.keys()}
        else:
            row = {j: _big_rational(rng) for j in range(ncols) if rng.random() < 0.5}
        rows.append({j: v for j, v in row.items() if v})
    return rows


def _reference_echelon(rows, lead):
    reference = _ScanAllEchelon(lead)
    for row in rows:
        reference.insert_row(row)
    return reference


def _reference_kernel(reference, ncols):
    """The free-column kernel basis of a reference RREF over columns 0..ncols-1."""
    kernel = {c: {c: frac(1)} for c in range(ncols) if c not in reference.pivots}
    for lead, prow in reference.pivots.items():
        for c, v in prow.items():
            if c in kernel:
                kernel[c][lead] = -v
    return list(kernel.values())


def test_q_elimination_of_big_entries_matches_the_fraction_reference():
    rng = rng_for("big-q-engine")
    for _ in range(12):
        ncols = rng.randint(3, 10)
        rows = _big_q_rows(rng, rng.randint(2, 12), ncols)
        for lead in (min, max):
            reference = _reference_echelon(rows, lead)
            reduced, pivots = rref_rows(rows, frac(1), lead)
            assert pivots == sorted(reference.pivots)
            assert [{k: Fraction(v, row[c]) for k, v in row.items()} for c, row in zip(pivots, reduced)] == [
                reference.pivots[c] for c in pivots
            ]
            assert all(type(v) is int for row in reduced for v in row.values())
            assert all(row[c] > 0 and math.gcd(*row.values()) == 1 for c, row in zip(pivots, reduced))
        assert rank_of(rows, frac(1)) == len(pivots)
        kernel = kernel_vectors(rows, range(ncols), frac(1))
        assert kernel == _reference_kernel(_reference_echelon(rows, max), ncols)
        for vec in kernel:
            assert all(v == 0 for v in _apply(rows, vec))
        # consistent: the right-hand side of a known solution
        secret = {j: _big_rational(rng) for j in range(ncols) if rng.random() < 0.7}
        rhs = _apply(rows, secret)
        aug = [{**row, ncols: b} if b else row for row, b in zip(rows, rhs)]
        reference = _reference_echelon(aug, min)
        particular, free = solve_affine(rows, rhs, range(ncols), frac(1))
        assert particular == {lead: prow[ncols] for lead, prow in reference.pivots.items() if ncols in prow}
        assert free == _reference_kernel(reference, ncols)
        assert _apply(rows, particular) == rhs
        # inconsistent: a combination of two rows with its right-hand side off by one
        i, j = rng.sample(range(len(rows)), 2)
        s, t = _big_rational(rng), _big_rational(rng)
        combo = {c: s * rows[i].get(c, 0) + t * rows[j].get(c, 0) for c in rows[i].keys() | rows[j].keys()}
        bad_rows = rows + [{c: v for c, v in combo.items() if v}]
        bad_rhs = rhs + [s * rhs[i] + t * rhs[j] + 1]
        assert solve_affine(bad_rows, bad_rhs, range(ncols), frac(1)) is None


def _big_q_polys(rng, ctx, count):
    """Polynomials of degree at most 3 with big rational coefficients; every
    third is a combination of two earlier ones."""
    polys = []
    for k in range(count):
        if k % 3 == 2:
            a, b = rng.sample(polys, 2)
            polys.append(a.scale(_big_rational(rng)) + b.scale(_big_rational(rng)))
            continue
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = [0] * ctx.n
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(ctx.n)] += 1
            terms[tuple(exps)] = _big_rational(rng)
        polys.append(Polynomial(ctx, terms))
    return polys


def test_q_span_builder_of_big_entries_matches_the_fraction_reference():
    ctx = ctx_of("ring Q[x,y,z]")
    rng = rng_for("big-q-span")
    for _ in range(12):
        polys = _big_q_polys(rng, ctx, rng.randint(2, 14))
        probes = _big_q_polys(rng, ctx, 6)
        cut = rng.randint(0, len(polys))
        builder, reference = linalg.SpanBuilder(), _ScanAllEchelon(max)
        for p in polys[:cut]:
            assert builder.insert(p) == (reference.insert_row(p.terms) is not None)
        before = builder.basis()
        extended = builder.copy()
        for p in polys[cut:]:
            assert extended.insert(p) == (reference.insert_row(p.terms) is not None)
        assert builder.basis() == before
        assert [v.terms for v in extended.basis()] == [
            reference.pivots[key] for key in sorted(reference.pivots, reverse=True)
        ]
        for probe in probes + polys:
            remainder = reference.reduce_row(probe.terms)
            assert extended.reduce(probe).terms == remainder
            assert extended.contains(probe) == (not remainder)


def test_span_builder_refuses_a_polynomial_from_the_other_side():
    # a dual vector would be read as a ring element, or the reverse: the
    # first polynomial fixes the side as well as the context
    ctx = ctx_of("ring Q[x,y] dual [X,Y]")
    f, F = ring_poly(ctx, "x+y"), dual(ctx, "X^[2]")
    for first, second in ((f, F), (F, f)):
        builder = linalg.SpanBuilder()
        builder.insert(first)
        for use in (builder.insert, builder.reduce, builder.contains):
            with pytest.raises(ContextMismatchError, match="mixed sides"):
                use(second)
        assert builder.basis() == [first]
        with pytest.raises(ContextMismatchError, match="mixed sides"):
            span_reduce([first, second])


def test_span_intersect_refuses_spans_from_another_context():
    # unchecked, [x+y] over Q[x,y] met [x+8*y] over Fp(7)[x,y] in [x+y], and
    # met a Q[x,y,z] span in [], its packed monomials read as those of Q[x,y]
    q = ctx_of("ring Q[x,y]")
    held = span_reduce([ring_poly(q, "x+y")])
    for other, cause in (("Fp(7)[x,y]", "mixed fields"), ("Q[x,y,z]", "mixed ring contexts")):
        stranger = span_reduce([ring_poly(ctx_of(f"ring {other}"), "x+8*y")])
        for a, b in ((held, stranger), (stranger, held)):
            with pytest.raises(ContextMismatchError, match=cause):
                span_intersect(a, b)


# -- the boundary: ints mod p in terms and rows, field scalars at the scalar API --


def test_span_builder_refuses_a_polynomial_over_another_field():
    # a PrimeFieldElement product of Fp(7) and Fp(11) scalars raises; the
    # engine's ints would mix them silently, so the builder refuses first
    f7, f11, q = (ctx_of(f"ring {k}[x,y]") for k in ("Fp(7)", "Fp(11)", "Q"))
    for held, other in [(f7, f11), (f7, q), (q, f7)]:
        builder = linalg.SpanBuilder()
        builder.insert(ring_poly(held, "x+y"))
        stranger = ring_poly(other, "x+2*y")
        for use in (builder.insert, builder.reduce, builder.contains):
            with pytest.raises(ValueError, match="mixed fields"):
                use(stranger)
        assert builder.basis() == [ring_poly(held, "x+y")]
    # the first polynomial fixes the field, reduced or inserted
    builder = linalg.SpanBuilder()
    assert builder.contains(ring_poly(f11, "0"))
    with pytest.raises(ValueError, match="mixed fields"):
        builder.insert(ring_poly(f7, "x"))


@pytest.mark.parametrize("p", [7, 32003, 2**64 + 13], ids=lambda p: f"Fp({p})")
def test_prime_field_terms_are_ints_and_the_scalar_api_hands_out_field_elements(p):
    ctx = ctx_of(f"ring Fp({p})[x,y,z]")

    def ints_mod_p(*vectors):
        for vec in vectors:
            vec = getattr(vec, "terms", vec)
            assert vec and all(type(c) is int and 0 < c < p for c in vec.values())

    def field_scalars(*values):
        assert all(type(v) is PrimeFieldElement and v.p == p for v in values)

    rng = rng_for(f"fp-terms-{p}")
    for _ in range(6):
        f, g = (random_poly(rng, ctx, "r", 3, max_terms=6) for _ in range(2))
        F = random_poly(rng, ctx, "dual", 4, max_terms=6)
        a, b = rng.randint(-p, p), rng.randint(1, 5)
        parsed = ring_poly(ctx, f"{a}*x^2-{b}/{b + 1}*y*z+x-{p - 1}")
        assert parsed.terms == {
            ctx.pack(m): c for m, c in {(2, 0, 0): a % p, (0, 1, 1): -b * pow(b + 1, -1, p) % p,
                                        (1, 0, 0): 1, (0, 0, 0): 1}.items() if c
        }
        ints_mod_p(f, g, F, parsed, ring_poly(ctx, str(f)), dual(ctx, str(F)), f + g, f - g, -f, f * g, f.monic())
        ints_mod_p(f.scale(b), f.scale(ctx.scalar(-b)), contract(f, F) or F, contract(g, F) or F)
        ints_mod_p(*(v for s in module_span([F]) for v in s.basis), *ann_cyclic(F).gens)
        rows = _sparse_int_rows(rng, ctx, 6, 9)
        ints_mod_p(*rref_rows(rows, ctx.one)[0], *kernel_vectors(rows, range(9), ctx.one))
        secret = {j: ctx.to_term(rng.randint(-3, 3)) for j in range(9)}
        rhs = [ctx.to_term(v) for v in _apply_over(ctx, rows, secret)]
        particular, kernel = solve_affine(rows, rhs, range(9), ctx.one)
        ints_mod_p(*(vec for vec in [particular, *kernel] if vec))
        lm = ctx.unpack(f.leading_monomial())
        field_scalars(f.coeff(lm), f.coeff((5, 5, 5)), f.leading_coeff(), pairing(f, F), ctx.scalar(a, b), ctx.one)
        assert f.coeff(lm) == f.leading_coeff() == f.terms[f.leading_monomial()]


def _apply_over(ctx, rows, vec):
    """Rows times a vector, both of engine entries, as field scalars."""
    return [sum((c * vec.get(j, 0) for j, c in row.items()), ctx.zero) for row in rows]


@pytest.mark.parametrize("p", [7, 32003])
def test_q_kernel_reduces_mod_p_to_the_fp_kernel_when_the_pivots_agree(p):
    # Rational mode and prime-field mode agree wherever reduction mod p
    # makes sense: when elimination mod p keeps the pivot columns found
    # over Q, the reduced echelon kernel over Q is p-integral and reduces
    # to the one over Fp(p).  Equal ranks alone do not do: the row (1, p)
    # has rank 1 in both, its kernel over Q is (1, -1/p), over Fp(p) it is
    # (0, 1).
    q, fp = ctx_of("ring Q[x]"), ctx_of(f"ring Fp({p})[x]")
    rng = rng_for(f"q-fp-kernels-{p}")
    agreeing = 0
    for _ in range(60):
        ncols = rng.randint(2, 9)
        nrows = rng.randint(1, 8)
        grid = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(ncols)] for _ in range(nrows)]
        over_q = [{j: q.scalar(a) for j, a in enumerate(row) if a} for row in grid]
        over_fp = [{j: fp.to_term(a) for j, a in enumerate(row) if a % p} for row in grid]
        pivots_q = rref_rows(over_q, q.one, lead=max)[1]
        pivots_fp = rref_rows(over_fp, fp.one, lead=max)[1]
        if pivots_q != pivots_fp:
            continue
        agreeing += 1
        reduced = [
            {j: fp.to_term(c) for j, c in vec.items() if c.numerator % p}
            for vec in kernel_vectors(over_q, range(ncols), q.one)
        ]
        assert reduced == kernel_vectors(over_fp, range(ncols), fp.one)
    assert agreeing >= 30
    one_p = [{0: q.scalar(1), 1: q.scalar(p)}]
    assert rank_of(one_p, q.one) == rank_of([{0: fp.unit}], fp.one) == 1
    assert kernel_vectors(one_p, range(2), q.one) == [{0: q.one, 1: q.scalar(-1, p)}]
    assert kernel_vectors([{0: fp.unit}], range(2), fp.one) == [{1: fp.unit}]
