"""End-to-end pipelines between ideals and admissible families.

Forward direction: from a Gorenstein quotient, produce the compatible family
of dual elements (one per bounded multi-index) by solving the lifting systems
degree by degree.  Backward direction: reconstruct the ideal from a single
deep-enough diagonal entry by a bounded annihilator computation.  Both
directions come with certification helpers: regular-sequence and socle
checks in graded mode, truncated ideal comparison in local mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .admissible import (
    AdmissibleFamily,
    CheckReport,
    CheckViolation,
    check_condition_one,
    check_condition_two,
    solve_lift,
)
from .duality import (
    Ideal,
    ann_cyclic,
    annihilator_window,
    flatten,
    ideal_window_span,
    module_span,
    perp_ideal,
    span_dim,
)
from .groebner import _regular_chain, hilbert_data, socle_dim
from .linalg import SpanBuilder, column_count, refuse_oversized
from .ring import (
    DPPolynomial,
    Polynomial,
    PreconditionError,
    _packed_monomials,
    contract,
    contract_monomial,
)


@dataclass
class GorensteinReport:
    """Verdict and invariants of a Gorenstein certification run."""

    ideal: Ideal
    dimension: int
    multiplicity: int
    regularity: int
    is_gorenstein: bool
    artinian_reduction_hf: list
    certificate: list

    def to_json(self):
        return json.dumps(
            {
                "ideal": [str(g) for g in self.ideal.gens],
                "dimension": self.dimension,
                "multiplicity": self.multiplicity,
                "regularity": self.regularity,
                "is_gorenstein": self.is_gorenstein,
                "artinian_reduction_hf": list(self.artinian_reduction_hf),
                "certificate": list(self.certificate),
            }
        )

    def __str__(self):
        lines = [
            f"ideal: {self.ideal}",
            f"dimension: {self.dimension}",
            f"multiplicity: {self.multiplicity}",
            f"regularity: {self.regularity}",
            f"gorenstein: {'yes' if self.is_gorenstein else 'no'}",
            "reduction HF: " + " ".join(str(v) for v in self.artinian_reduction_hf),
        ]
        lines.extend(f"checked: {c}" for c in self.certificate)
        return "\n".join(lines)


def invariants_from_H1(H):
    """Multiplicity and regularity read off the base dual element.

    For a graded Gorenstein quotient these are the dimension of its cyclic
    span and its degree.
    """
    if H.is_zero():
        raise PreconditionError("base dual element is zero")
    return span_dim(module_span([H])), int(H.degree())


def finite_lift(fam, max_gen_degree=None):
    """Reconstruct the ideal from one diagonal entry of an admissible family.

    With a known bound b on the generator degrees, the entry at diagonal
    level b+1 suffices and generators of degree <= b are kept.  Without it,
    the level is r+2 for r the degree of the base entry, keeping generators
    of degree <= r+1 (the regularity bound).
    """
    ctx = fam.context
    if ctx.mode != "graded":
        raise PreconditionError("finite reconstruction applies to graded families")
    if max_gen_degree is not None and max_gen_degree < 1:
        raise PreconditionError(f"generator degree bound must be at least 1, got {max_gen_degree}")
    r = int(fam.base_entry.degree())
    if max_gen_degree is None:
        level, bound = r + 2, r + 1
    else:
        level, bound = max_gen_degree + 1, max_gen_degree
    if fam.t0 < level:
        raise PreconditionError(
            f"family box too small: diagonal level {level} needed, box holds {fam.t0}"
        )
    return ann_cyclic(fam.entry(fam.diagonal_index(level)), gen_bound=bound)


# ---------------------------------------------------------------------------
# forward direction: family from an ideal


def _reduction_generator(reduction, window):
    """Generator of the dual of the Artinian reduction; errors when not cyclic.

    A local window, the dual of reduction + m^(window+1), is the whole dual
    once its Hilbert function is 0 at some degree <= window (by Nakayama).
    A window whose dual reaches degree ``window`` is not known to be whole,
    cyclic or not, so it is refused here, before any lift is solved.
    """
    slices = perp_ideal(reduction, window)
    basis = flatten(slices)
    if not basis:
        raise PreconditionError("Artinian reduction has empty dual; unit ideal?")
    if reduction.context.mode == "local" and (top := max(s.degree for s in slices)) >= window:
        raise PreconditionError(
            f"truncation {window} is too low: the reduction's dual is nonzero in degree {top}"
        )
    mw = SpanBuilder()
    for v in basis:
        for x in reduction.context.var_monomials:
            mw.insert(contract_monomial(x, v))
    if len(basis) - mw.dim() != 1:
        raise PreconditionError(
            "dual of the Artinian reduction is not cyclic (quotient is not Gorenstein)"
        )
    # canonical: the first basis vector outside m o (dual), which has codimension 1
    return next(v for v in basis if not mw.contains(v))


def family_from_ideal(I, z_indices, t0, trunc=None):
    """Compatible family of dual elements for a Gorenstein quotient.

    The base entry generates the dual of the Artinian reduction by the
    distinguished variables; every further entry is the particular solution
    (kernel coordinates zero) of the affine system that contracts correctly
    onto its predecessors and is annihilated by the ideal: in degree
    r + |L| - d (r the base degree) when graded, up to degree trunc
    otherwise.  ``solve_lift`` reads the entry off the predecessors where a
    distinguished variable divides and eliminates only the other columns.
    The distinguished variables and t0 are checked first, by
    ``AdmissibleFamily``; a box whose lifting systems need more than
    ``MAX_ANN_COLUMNS`` columns in all, every column counted, is refused
    before the first lift.
    """
    ctx = I.context
    z_indices = tuple(z_indices)
    d = len(z_indices)
    entries = {}
    shell = AdmissibleFamily(ctx, d, z_indices, entries, t0)
    reduction = Ideal(list(I.gens) + [ctx.variable(i) for i in z_indices], ctx)
    graded = ctx.mode == "graded" and I.is_homogeneous()
    if graded:
        red_data = hilbert_data(reduction)
        if red_data.dimension != 0:
            raise PreconditionError("distinguished variables do not cut down to Artinian")
        window = red_data.regularity
    else:
        if trunc is None:
            trunc = I.max_degree() + (t0 - 1) * d + 2
        window = trunc
    base = _reduction_generator(reduction, window)
    r = int(base.degree())
    entries[(1,) * d] = base
    order = [L for L in sorted(shell.index_box(), key=lambda L: (sum(L), L)) if L not in entries]
    degrees = [r + sum(L) - d if graded else trunc for L in order]
    columns = sum(column_count(ctx.n, D if graded else 0, D) for D in degrees)
    refuse_oversized(columns, f"lifting the family box to t0 = {t0}")
    zero = DPPolynomial.zero(ctx)
    annihilated = [(g, zero) for g in I.gens]
    for L, D in zip(order, degrees):
        lifted = solve_lift(shell, L, D, annihilated)
        if lifted is None:
            cause = "" if graded else f"the truncation {trunc} is too low, "
            raise PreconditionError(
                f"lift at index {L} is infeasible: {cause}the sequence is not regular "
                "or the quotient is not Gorenstein"
            )
        entries[L] = lifted[0]
    return shell


# ---------------------------------------------------------------------------
# certification


def gorenstein_check(I, d, zs):
    """Certify dimension, regular sequence and one-dimensional socle.

    Negative findings are reported in the certificate rather than raised; the
    multiplicity, regularity and reduction Hilbert function come from the
    Hilbert data of the ideal and its Artinian reduction.  Those come from
    graded Groebner bases, which certify a local ring only for homogeneous
    generators, so local mode refuses any other ideal or sequence.
    """
    if I.context.mode == "local" and not all(g.is_homogeneous() for g in [*I.gens, *zs]):
        raise PreconditionError(
            "local gorenstein-check needs homogeneous generators; "
            "certify others with family-from-ideal + local-verify"
        )
    data = hilbert_data(I)
    certificate = []
    dim_ok = data.dimension == d
    certificate.append(
        f"hilbert-series dimension {data.dimension} "
        + ("matches" if dim_ok else f"differs from requested {d}")
    )
    regular, reduction = _regular_chain(I, zs)
    certificate.append(
        "regular sequence verified through Hilbert series"
        if regular
        else "sequence fails the Hilbert-series regularity test"
    )
    red_data = hilbert_data(reduction)
    socle = None
    if red_data.dimension == 0:
        socle = socle_dim(reduction)
        certificate.append(f"socle dimension of the reduction is {socle}")
    elif red_data.dimension < 0:
        certificate.append("reduction is the unit ideal; socle not computed")
    else:
        certificate.append("reduction is not Artinian; socle not computed")
    ok = dim_ok and regular and socle == 1
    return GorensteinReport(
        ideal=I,
        dimension=data.dimension,
        multiplicity=data.multiplicity,
        regularity=red_data.regularity,
        is_gorenstein=ok,
        artinian_reduction_hf=list(red_data.numerator),
        certificate=certificate,
    )


def local_verify(fam, I_claim, trunc=None):
    """Truncated verification that a family is the dual datum of an ideal.

    Checks admissibility of the family and, for every boxed index L, the
    two inclusions between the annihilator of the entry and the claimed
    ideal plus the pure powers of the distinguished variables, all modulo
    the trunc-th power of the maximal ideal.  The annihilator side is the
    window kernel over R_{<trunc}, which spans the same ideal modulo
    m^trunc as its minimal generators, so none are computed.  Only its
    multi-term vectors and border monomials are tested: the claimed side is
    an ideal modulo m^trunc, and every other one-term vector is a monomial
    multiple of a border monomial.  The window span of the claimed ideal is
    built once.  The target span only grows as an index falls, so each line
    of the last index is walked downward on one copy of it: the top index
    adds the multiples of its pure powers, and each step down from L + e_d
    to L adds the window monomials whose exponent of z_d is exactly l_d.
    Violations are reported by index in (total degree, index) order.
    """
    ctx = fam.context
    if trunc is None:
        trunc = max((int(H.degree()) for H in fam.entries.values() if not H.is_zero()), default=0) + 2
    if trunc < 1:
        raise PreconditionError(f"truncation degree must be at least 1, got {trunc}")
    bound, z = trunc - 1, ctx.var_monomials[fam.z_indices[-1]]
    # condition two reads these too: from an entry's degree on, the bound changes only the border
    windows = {
        L: annihilator_window([H], bound) for L, H in fam.entries.items() if not H.is_zero() and H.degree() <= bound
    }
    violations = check_condition_one(fam).violations + check_condition_two(fam, windows=windows).violations
    found, claim_span, span, spanned = {}, None, None, None
    for L in sorted(fam.entries, key=lambda L: (L[:-1], -L[-1])):
        H = fam.entry(L)
        found[L] = []
        if H.is_zero():
            found[L].append(CheckViolation(L, "entry", "entry is zero"))
            continue
        powers = [
            Polynomial.monomial(ctx, fam.embed(tuple(0 if k != j else L[j] for k in range(fam.d))))
            for j in range(fam.d)
        ]
        for g in list(I_claim.gens) + powers:
            if not contract(g, H).is_zero():
                found[L].append(
                    CheckViolation(L, "ideal-into-annihilator", f"{g} does not annihilate the entry")
                )
        ann = (windows.get(L) or annihilator_window([H], bound)).generating_vectors()
        if claim_span is None:
            claim_span = ideal_window_span(I_claim.gens, bound, ctx)
        if spanned == L[:-1] + (L[-1] + 1,):  # one step down the line: z_d^l times a monomial free of z_d
            power = powers[-1].leading_monomial() - ctx.base
            for m in _packed_monomials(ctx.n, 0, bound - L[-1]):
                if not ctx.divides(z, m):
                    span.insert(Polynomial._of(ctx, {m + power: ctx.unit}))
        else:
            span = ideal_window_span(powers, bound, ctx, claim_span.copy())
        spanned = L
        if not all(span.contains(v.truncate(bound)) for v in ann):
            found[L].append(
                CheckViolation(
                    L,
                    "annihilator-into-ideal",
                    f"annihilator generators escape the claimed ideal modulo degree {trunc}",
                )
            )
    violations += [v for L in sorted(found, key=lambda L: (sum(L), L)) for v in found[L]]
    return CheckReport.from_violations(violations)


def second_difference(values):
    """Second finite difference of a dimension sequence."""
    ext = [0, 0] + list(values)
    return [ext[i] - 2 * ext[i - 1] + ext[i - 2] for i in range(2, len(ext))]
