"""Exact echelon forms, kernels, affine solving and span operations."""

import pytest
from conftest import ctx_of, dual, frac, ideal_of, ring_poly, rng_for, random_poly

from invsys import MonomialIndex, membership, perp_ideal, span_intersect, span_reduce
from invsys import linalg
from invsys.linalg import kernel_vectors, rank_of, rref_rows, solve_affine


def _dense_to_rows(grid):
    return [
        {j: frac(v) for j, v in enumerate(row) if v} for row in grid
    ]


def _random_rows(rng, nrows, ncols):
    return [
        {j: frac(rng.randint(-4, 4)) for j in range(ncols) if rng.random() < 0.6}
        for _ in range(nrows)
    ]


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
    reduced, pivots = rref_rows(rows)
    assert pivots == [0, 1, 2]
    assert reduced == rows


def test_rref_zero_matrix():
    reduced, pivots = rref_rows([{}, {}, {}])
    assert reduced == [] and pivots == []


def test_rref_idempotent_random():
    rng = rng_for("rref-idempotent")
    for _ in range(30):
        rows = _random_rows(rng, 5, 7)
        once, piv1 = rref_rows(rows)
        twice, piv2 = rref_rows(once)
        assert once == twice and piv1 == piv2


def test_rref_kernel_annihilation_random():
    rng = rng_for("rref-kernel")
    for _ in range(50):
        rows = _random_rows(rng, 6, 8)
        kernel = kernel_vectors(rows, 8, frac(1))
        for vec in kernel:
            assert all(v == 0 for v in _apply(rows, vec))
        reduced, _ = rref_rows(rows)
        for vec in kernel:
            assert all(v == 0 for v in _apply(reduced, vec))


@pytest.mark.parametrize("field", ["Q", "Fp(32003)"])
def test_kernel_vectors_come_out_in_reduced_echelon_form(field):
    # monic at the leftmost entry, distinct leads, zero at the other leads:
    # the basis equals its own span_reduce over degrevlex-ordered columns
    ctx = ctx_of(f"ring {field}[x,y,z]")
    index = MonomialIndex.of_degree(3, 4)
    ncols = len(index)
    rng = rng_for(f"kernel-echelon-{field}")
    for _ in range(40):
        rows = [
            {j: ctx.scalar(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
             for j in range(ncols) if rng.random() < 0.3}
            for _ in range(rng.randint(1, 12))
        ]
        kernel = kernel_vectors(rows, ncols, ctx.scalar(1))
        assert rank_of(rows) + len(kernel) == ncols
        leads = [min(vec) for vec in kernel]
        assert len(set(leads)) == len(leads)
        for vec, lead in zip(kernel, leads):
            assert vec[lead] == 1
            assert not any(other in vec for other in leads if other != lead)
            assert all(v == 0 for v in _apply(rows, vec))
        polys = [index.poly(vec, ctx, "r") for vec in kernel]
        assert span_reduce(polys).vectors == polys


def test_graded_perp_runs_one_elimination_per_degree(monkeypatch, curve_codim2):
    eliminations = []
    original = linalg._Echelon.__init__

    def counted(self, lead):
        eliminations.append(lead)
        original(self, lead)

    monkeypatch.setattr(linalg._Echelon, "__init__", counted)
    bound = 6
    perp_ideal(curve_codim2["ideal"], bound)
    assert len(eliminations) == bound + 1
    eliminations.clear()
    local = ctx_of("ring Q[x,y] dual [X,Y] mode local")
    perp_ideal(ideal_of(local, "x*y, y^2-x^3"), 5)
    assert len(eliminations) == 1


def test_rank_nullity_random():
    rng = rng_for("rank-nullity")
    for _ in range(50):
        rows = _random_rows(rng, rng.randint(1, 7), rng.randint(1, 7))
        ncols = max((max(r) for r in rows if r), default=-1) + 1
        assert rank_of(rows) + len(kernel_vectors(rows, ncols, frac(1))) == ncols


def test_full_rank_square_kernel_empty():
    rows = _dense_to_rows([[2, 1], [1, 1]])
    assert kernel_vectors(rows, 2, frac(1)) == []


# -- affine solving ------------------------------------------------------------


def test_affine_solve_zero_target_gives_full_kernel():
    rng = rng_for("affine-zero")
    rows = _random_rows(rng, 4, 6)
    out = solve_affine(rows, [frac(0)] * 4, 6, frac(1))
    assert out is not None
    particular, kernel = out
    assert particular == {}
    assert len(kernel) == len(kernel_vectors(rows, 6, frac(1)))


def test_affine_solve_consistency_random():
    rng = rng_for("affine-random")
    for _ in range(40):
        rows = _random_rows(rng, 5, 6)
        secret = {j: frac(rng.randint(-3, 3)) for j in range(6)}
        rhs = _apply(rows, secret)
        out = solve_affine(rows, rhs, 6, frac(1))
        assert out is not None
        particular, kernel = out
        assert _apply(rows, particular) == rhs
        for vec in kernel:
            assert all(v == 0 for v in _apply(rows, vec))


def test_affine_solve_detects_infeasible():
    rows = _dense_to_rows([[1, 0], [1, 0]])
    assert solve_affine(rows, [frac(1), frac(2)], 2, frac(1)) is None


def test_affine_solve_contraction_system():
    # unknown dual element G of degree <= 3 in two variables with x o G = Y^[2]
    ctx = ctx_of("ring Q[x,y] dual [X,Y] mode local")
    index = MonomialIndex.window(2, 3)
    rows, rhs = [], []
    target = dual(ctx, "Y^[2]")
    for m in index.monomials:
        e = ctx.unpack(m)
        down = (e[0] - 1, e[1])
        if down[0] < 0:
            continue
        rows.append({index.position[m]: frac(1)})
        rhs.append(target.coeff(down))
    out = solve_affine(rows, rhs, len(index), frac(1))
    assert out is not None
    particular, kernel = out
    assert index.poly(particular, ctx, "dual") == dual(ctx, "X*Y^[2]")
    kernel_polys = [index.poly(v, ctx, "dual") for v in kernel]
    for text in ["Y^[3]", "Y^[2]", "Y", "1"]:
        assert any(p == dual(ctx, text) for p in kernel_polys)


# -- catalecticant kernels ------------------------------------------------------


def test_catalecticant_kernel_of_quadric_cubic_generator():
    # contraction of X^[3]+Y^[2] by the three degree-2 monomials:
    #   x^2 -> X, x*y -> 0, y^2 -> 1, so the kernel is spanned by x*y
    ctx = ctx_of("ring Q[x,y] dual [X,Y] mode local")
    F = dual(ctx, "X^[3]+Y^[2]")
    cols = MonomialIndex.of_degree(2, 2)
    from invsys.ring import contract, Polynomial

    images = [contract(Polynomial.monomial(ctx, ctx.unpack(m)), F) for m in cols.monomials]
    support = sorted({m for im in images for m in im.terms})
    rows = []
    for target in support:
        rows.append(
            {j: im.terms[target] for j, im in enumerate(images) if target in im.terms}
        )
    kernel = kernel_vectors(rows, len(cols), frac(1))
    polys = [cols.poly(v, ctx, "r") for v in kernel]
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


def _check_engine_against_reference(engine, reference, rows, probes):
    for row in rows:
        assert engine.insert_row(row) == reference.insert_row(row)
        assert engine.pivots == reference.pivots
        assert engine.holders == _holders_of(engine.pivots)
    for row in probes:
        assert engine.reduce_row(row) == reference.reduce_row(row)


def _sparse_int_rows(rng, ctx, count, ncols):
    return [
        {j: ctx.scalar(rng.choice([-2, -1, 1, 2])) for j in range(ncols) if rng.random() < 0.3}
        for _ in range(count)
    ]


@pytest.mark.parametrize("field", ["Q", "Fp(32003)"])
@pytest.mark.parametrize("lead", [min, max])
def test_engine_matches_scan_all_reference_on_int_keys(field, lead):
    ctx = ctx_of(f"ring {field}[x,y]")
    rng = rng_for(f"engine-reference-{field}-{lead.__name__}")
    for _ in range(30):
        ncols = rng.randint(4, 14)
        rows = _sparse_int_rows(rng, ctx, rng.randint(2, 16), ncols)
        probes = _sparse_int_rows(rng, ctx, 6, ncols)
        _check_engine_against_reference(linalg._Echelon(lead), _ScanAllEchelon(lead), rows, probes)


@pytest.mark.parametrize("field", ["Q", "Fp(32003)"])
def test_span_builder_matches_scan_all_reference_on_monomial_keys(field):
    ctx = ctx_of(f"ring {field}[x,y,z]")
    rng = rng_for(f"engine-reference-monomials-{field}")
    for _ in range(20):
        polys = [random_poly(rng, ctx, "r", 3, max_terms=6) for _ in range(rng.randint(2, 14))]
        probes = [random_poly(rng, ctx, "r", 3, max_terms=6).terms for _ in range(6)]
        builder = linalg.SpanBuilder()
        reference = _ScanAllEchelon(max)
        _check_engine_against_reference(builder, reference, [p.terms for p in polys], probes)
        for p in polys:
            assert builder.reduce(p).is_zero()
