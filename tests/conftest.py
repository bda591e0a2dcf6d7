"""Shared contexts, worked-example data and random generators for the suite."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from invsys import (  # noqa: E402
    DPPolynomial,
    Ideal,
    Polynomial,
    build_family,
    buchberger,
    lift_space,
    normal_form,
    parse_ideal_gens,
    parse_polynomial,
    parse_ring_decl,
    shift_mul,
)
from invsys.duality import annihilator_window  # noqa: E402
from invsys.linalg import SubspaceBasis  # noqa: E402
from invsys.ring import _packed_monomials  # noqa: E402


def ctx_of(decl):
    return parse_ring_decl(decl)


def dual(ctx, text):
    return parse_polynomial(text, ctx, "dual")


def ring_poly(ctx, text):
    return parse_polynomial(text, ctx, "r")


def ideal_of(ctx, text):
    return Ideal(parse_ideal_gens(text, ctx), ctx)


def exponent_vectors(ctx, d):
    """Exponent vectors of the monomials of degree d, none when d < 0."""
    return [ctx.unpack(m) for m in _packed_monomials(ctx.n, d, d)] if d >= 0 else []


def window_kernel(gens, bound):
    """The whole reduced echelon kernel of ``annihilator_window(gens, bound)``.

    The window monomials outside ``divisors`` as one-term vectors, plus the
    multi-term vectors, by descending leading monomial.
    """
    window = annihilator_window(gens, bound)
    ctx = window.context
    one_term = [
        Polynomial._of(ctx, {m: ctx.unit}) for m in _packed_monomials(ctx.n, 0, bound) if m not in window.divisors
    ]
    vectors = sorted(one_term + window.multi_term, key=lambda v: v.leading_monomial(), reverse=True)
    return SubspaceBasis(vectors)


def same_ideal(a, b):
    """Mutual Groebner membership of two homogeneous ideals."""
    gba, gbb = buchberger(a), buchberger(b)
    return all(normal_form(g, gbb).is_zero() for g in a.gens) and all(
        normal_form(g, gba).is_zero() for g in b.gens
    )


def random_poly(rng, ctx, side, max_degree, max_terms=4, homogeneous=False):
    cls = Polynomial if side == "r" else DPPolynomial
    degree = rng.randint(0 if not homogeneous else 1, max_degree)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        if homogeneous:
            d = degree
        else:
            d = rng.randint(0, max_degree)
        exps = [0] * ctx.n
        for _ in range(d):
            exps[rng.randrange(ctx.n)] += 1
        terms[tuple(exps)] = ctx.scalar(rng.choice([-3, -2, -1, 1, 2, 3]))
    return cls(ctx, terms)


# ---------------------------------------------------------------------------
# worked examples


@pytest.fixture(scope="session")
def plane_curve():
    """Intersection-of-a-conic-and-cubic Artinian quotient in two variables."""
    ctx = ctx_of("ring Q[x,y] dual [X,Y] mode local")
    return {
        "ctx": ctx,
        "ideal": ideal_of(ctx, "x*y, y^2-x^3"),
        "generator": dual(ctx, "X^[3]+Y^[2]"),
    }


@pytest.fixture(scope="session")
def curve_codim2():
    """One-dimensional codimension-two reconstruction data in three variables."""
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z] mode graded")
    H1 = dual(ctx, "Y^[3]-Z^[3]")
    H2 = shift_mul((1, 0, 0), H1) + dual(ctx, "Y*Z^[3]")
    H3 = shift_mul((1, 0, 0), H2) - dual(ctx, "Y^[2]*Z^[3]")
    H4 = shift_mul((1, 0, 0), H3) + dual(ctx, "Y^[3]*Z^[3]-4Z^[6]")
    fam4 = build_family(ctx, (0,), {(1,): H1, (2,): H2, (3,): H3, (4,): H4})
    H5, _ = lift_space(fam4, (5,))
    fam5 = build_family(
        ctx, (0,), {(1,): H1, (2,): H2, (3,): H3, (4,): H4, (5,): H5}
    )
    return {
        "ctx": ctx,
        "H": [H1, H2, H3, H4, H5],
        "family4": fam4,
        "family5": fam5,
        "ideal": ideal_of(ctx, "y*z+x*z, y^3+z^3-x*y^2+x^2*y-x^3"),
    }


@pytest.fixture(scope="session")
def elliptic_curve():
    """Two-dimensional codimension-three example in five variables.

    The degree-four and degree-six entries carry a shifted copy of the
    previous diagonal entry; the sign of that copy is forced by the
    contraction compatibility (step-down) condition.
    """
    ctx = ctx_of("ring Q[x,y,z,t,w] dual [X,Y,Z,T,W] mode graded")
    H11 = dual(ctx, "X^[2]+Y^[2]+X*Z")
    body22 = dual(
        ctx,
        "2X^[4]+X*Y^[3]+X^[2]*Y*Z+2Z^[4]-X^[3]*T+Y^[2]*Z*T+X*Z^[2]*T"
        "+X^[3]*W-X^[2]*Y*W-Z^[3]*W",
    )
    body33 = dual(
        ctx,
        "X^[5]*Y+X^[2]*Y^[4]-X^[5]*Z+X^[3]*Y^[2]*Z+Y^[5]*Z+X^[4]*Z^[2]"
        "+X*Y^[3]*Z^[2]+Y^[4]*Z^[2]+X^[2]*Y*Z^[3]+3Y^[3]*Z^[3]-X^[2]*Z^[4]"
        "+3X*Y*Z^[4]-3Z^[6]"
        "-3X^[5]*T+Y^[5]*T+X*Y^[3]*Z*T+X^[2]*Y*Z^[2]*T+3Z^[5]*T"
        "+X^[4]*T^[2]+Y^[2]*Z^[2]*T^[2]+X*Z^[3]*T^[2]"
        "-X^[5]*W+X^[4]*Y*W-X^[3]*Y^[2]*W-Y^[5]*W-2X^[4]*Z*W-X*Y^[3]*Z*W"
        "-Y^[4]*Z*W-X^[2]*Y*Z^[2]*W-2Y^[3]*Z^[2]*W+X^[2]*Z^[3]*W-2X*Y*Z^[3]*W"
        "+2Z^[5]*W"
        "+X^[3]*Y*W^[2]+X*Y^[3]*W^[2]+Y^[4]*W^[2]-X^[3]*Z*W^[2]"
        "+X^[2]*Y*Z*W^[2]+Y^[3]*Z*W^[2]-X^[2]*Z^[2]*W^[2]+X*Y*Z^[2]*W^[2]"
        "-Z^[4]*W^[2]",
    )
    tw = (0, 0, 0, 1, 1)
    H22 = -body22 + shift_mul(tw, H11)
    H33 = body33 + shift_mul(tw, H22)
    family = build_family(ctx, (3, 4), {(1, 1): H11, (2, 2): H22, (3, 3): H33})
    ideal = ideal_of(
        ctx,
        "z^2-x*t+z*t+z*w+t*w, y*z-t^2+y*w, -y^2+x*z+t^2, -x*y+z*t+t^2,"
        "x^2-x*z-y*t+z*t-x*w+t*w",
    )
    skew = [
        ["0", "-x+t", "-t", "x", "-y"],
        ["x-t", "0", "x", "-y", "z+t"],
        ["t", "-x", "0", "z+w", "0"],
        ["-x", "y", "-z-w", "0", "-t"],
        ["y", "-z-t", "0", "t", "0"],
    ]
    return {
        "ctx": ctx,
        "H11": H11,
        "H22": H22,
        "H33": H33,
        "family": family,
        "ideal": ideal,
        "skew": [[ring_poly(ctx, e) if e != "0" else Polynomial.zero(ctx) for e in row] for row in skew],
    }


@pytest.fixture(scope="session")
def codim4_curve():
    """One-dimensional codimension-four example in five variables."""
    ctx = ctx_of("ring Q[x,y,z,t,v] dual [X,Y,Z,T,V] mode graded")
    v = (0, 0, 0, 0, 1)
    H1 = dual(ctx, "X^[2]+Y^[2]+Z^[2]+T^[2]")
    H2 = shift_mul(v, H1) + dual(ctx, "X^[3]+Z^[3]")
    H3 = shift_mul(v, H2) + dual(ctx, "X^[4]+Z^[4]")
    H4 = shift_mul(v, H3) + dual(ctx, "X^[5]+Z^[5]")
    family = build_family(ctx, (4,), {(1,): H1, (2,): H2, (3,): H3, (4,): H4})
    ideal = ideal_of(
        ctx,
        "x^2-z^2-x*v+z*v, x*y, y^2-z^2+z*v, x*z, y*z, z^2-t^2-z*v, x*t, y*t, z*t",
    )
    return {"ctx": ctx, "H": [H1, H2, H3, H4], "family": family, "ideal": ideal}


@pytest.fixture(scope="session")
def semigroup_curve():
    """The monomial-curve quotient carrying a non-homogeneous dual family."""
    ctx = ctx_of("ring Q[x,y,z] dual [X,Y,Z] mode local")
    H1 = dual(ctx, "Z^[2]+Y^[3]")
    H2 = shift_mul((1, 0, 0), H1)
    H3 = shift_mul((2, 0, 0), H1)
    H4 = shift_mul((3, 0, 0), H1) + dual(ctx, "Y^[4]*Z+Y*Z^[3]")
    H5 = shift_mul((1, 0, 0), H4)
    family = build_family(
        ctx, (0,), {(1,): H1, (2,): H2, (3,): H3, (4,): H4, (5,): H5}
    )
    return {
        "ctx": ctx,
        "H": [H1, H2, H3, H4, H5],
        "family": family,
        "ideal": ideal_of(ctx, "y*z-x^3, z^2-y^3"),
    }


@pytest.fixture(scope="session")
def surface_codim4():
    """Two-dimensional local example whose associated graded ring degenerates."""
    ctx = ctx_of("ring Q[x,y,z,t,u,w] dual [X,Y,Z,T,U,W] mode local")
    H = dual(ctx, "Z^[5]+T^[4]+U^[3]+W^[3]+Z*T*U*W")
    F = shift_mul((1, 1, 0, 0, 0, 0), H) + dual(ctx, "U^[2]*T-W*T*Z")
    diagonal = [H, F] + [
        shift_mul((t - 2, t - 2, 0, 0, 0, 0), F) for t in range(3, 9)
    ]
    listed = ideal_of(
        ctx,
        "z^4-t*u*w, t^2*w, z^2*w, t^2*u, t^3-z*u*w, z*t^2, z^2*t, w^2-z*t*u,"
        "u^2-t*u^2-z*t*w-x*y*z*u*w",
    )
    return {"ctx": ctx, "H": H, "F": F, "diagonal": diagonal, "ideal": listed}


def rng_for(name):
    return random.Random(f"invsys-{name}")


def frac(a, b=1):
    return Fraction(a, b)
