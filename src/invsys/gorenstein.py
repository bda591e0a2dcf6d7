"""End-to-end pipelines between ideals and admissible families.

Forward direction: from a Gorenstein quotient, produce the compatible family
of dual elements (one per bounded multi-index) by solving the lifting systems
degree by degree.  Backward direction: reconstruct the ideal from a single
deep-enough diagonal entry by a bounded annihilator computation.  Both
directions come with certification helpers: regular-sequence and socle
checks in graded mode, truncated ideal comparison in local mode.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .admissible import (
    AdmissibleFamily,
    CheckReport,
    CheckViolation,
    check_family,
    solve_lift,
)
from .duality import (
    Ideal,
    ann_cyclic,
    flatten,
    ideal_contains_mod,
    module_span,
    perp_ideal,
    span_dim,
)
from .groebner import hilbert_data, is_regular_sequence, socle_dim
from .linalg import MonomialIndex, SpanBuilder
from .ring import (
    DPPolynomial,
    Polynomial,
    PreconditionError,
    contract,
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
    r = int(fam.base_entry.degree())
    if max_gen_degree is None:
        level, bound = r + 2, r + 1
    else:
        level, bound = max_gen_degree + 1, max_gen_degree
    if fam.t0 < level:
        raise PreconditionError(
            f"family box too small: diagonal level {level} needed, box holds {fam.t0}"
        )
    top = fam.entry(fam.diagonal_index(level))
    ann = ann_cyclic(top, gen_bound=bound)
    return Ideal([g for g in ann.gens if g.degree() <= bound], ctx)


# ---------------------------------------------------------------------------
# forward direction: family from an ideal


def _reduction_generator(I, z_polys, window):
    """Generator of the dual of the Artinian reduction; errors when not cyclic."""
    ctx = I.context
    reduction = Ideal(list(I.gens) + list(z_polys), ctx)
    slices = perp_ideal(reduction, window)
    basis = flatten(slices)
    if not basis:
        raise PreconditionError("Artinian reduction has empty dual; unit ideal?")
    mw = SpanBuilder()
    for v in basis:
        for i in range(ctx.n):
            mw.insert(contract(ctx.variable(i), v))
    if len(basis) - mw.dim() != 1:
        raise PreconditionError(
            "dual of the Artinian reduction is not cyclic (quotient is not Gorenstein)"
        )
    for v in basis:  # canonical: first vector generating modulo the radical part
        if not mw.contains(v):
            return v
    raise PreconditionError("no cyclic generator found in the computed window")


def family_from_ideal(I, z_indices, t0, trunc=None):
    """Compatible family of dual elements for a Gorenstein quotient.

    The base entry generates the dual of the Artinian reduction by the
    distinguished variables; every further entry is the particular solution
    (kernel coordinates zero) of the affine system that contracts correctly
    onto its predecessors and is annihilated by the ideal.
    """
    ctx = I.context
    z_indices = tuple(z_indices)
    d = len(z_indices)
    z_polys = [ctx.variable(i) for i in z_indices]
    graded = ctx.mode == "graded" and I.is_homogeneous()
    if graded:
        reduction = Ideal(list(I.gens) + list(z_polys), ctx)
        red_data = hilbert_data(reduction)
        if red_data.dimension != 0:
            raise PreconditionError("distinguished variables do not cut down to Artinian")
        socle_degree = red_data.regularity
        window = socle_degree
    else:
        if trunc is None:
            trunc = I.max_degree() + (t0 - 1) * d + 2
        window = trunc
    base = _reduction_generator(I, z_polys, window)
    r = int(base.degree())
    entries = {(1,) * d: base}
    order = sorted(
        itertools.product(*(range(1, t0 + 1) for _ in range(d))),
        key=lambda L: (sum(L), L),
    )
    shell = AdmissibleFamily(ctx, d, z_indices, entries, t0)
    zero = DPPolynomial.zero(ctx)
    for L in order:
        if L in entries:
            continue
        constraints = shell.step_down(L) + [(g, zero) for g in I.gens]
        if graded:
            index = MonomialIndex.of_degree(ctx.n, r + sum(L) - d)
        else:
            index = MonomialIndex.window(ctx.n, trunc)
        lifted = solve_lift(index, constraints)
        if lifted is None:
            raise PreconditionError(
                f"lift at index {L} is infeasible: the sequence is not regular "
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
    Hilbert data of the ideal and its Artinian reduction.
    """
    ctx = I.context
    data = hilbert_data(I)
    certificate = []
    dim_ok = data.dimension == d
    certificate.append(
        f"hilbert-series dimension {data.dimension} "
        + ("matches" if dim_ok else f"differs from requested {d}")
    )
    regular = is_regular_sequence(I, zs)
    certificate.append(
        "regular sequence verified through Hilbert series"
        if regular
        else "sequence fails the Hilbert-series regularity test"
    )
    reduction = Ideal(list(I.gens) + list(zs), ctx)
    red_data = hilbert_data(reduction)
    socle = None
    if red_data.dimension == 0:
        socle = socle_dim(reduction)
        certificate.append(f"socle dimension of the reduction is {socle}")
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
    the trunc-th power of the maximal ideal.
    """
    ctx = fam.context
    if trunc is None:
        trunc = max(int(H.degree()) for H in fam.entries.values() if not H.is_zero()) + 2
    violations = list(check_family(fam).violations)
    for L in sorted(fam.entries, key=lambda L: (sum(L), L)):
        H = fam.entry(L)
        if H.is_zero():
            violations.append(CheckViolation(L, "entry", "entry is zero"))
            continue
        target_gens = list(I_claim.gens) + [
            Polynomial.monomial(ctx, fam.embed(tuple(0 if k != j else L[j] for k in range(fam.d))))
            for j in range(fam.d)
        ]
        for g in target_gens:
            if not contract(g, H).is_zero():
                violations.append(
                    CheckViolation(L, "ideal-into-annihilator", f"{g} does not annihilate the entry")
                )
        ann_gens = ann_cyclic(H, gen_bound=trunc - 1).gens
        if not ideal_contains_mod(target_gens, ann_gens, trunc, ctx):
            violations.append(
                CheckViolation(
                    L,
                    "annihilator-into-ideal",
                    f"annihilator generators escape the claimed ideal modulo degree {trunc}",
                )
            )
    return CheckReport.from_violations(violations)


def second_difference(values):
    """Second finite difference of a dimension sequence."""
    ext = [0, 0] + list(values)
    return [ext[i] - 2 * ext[i - 1] + ext[i - 2] for i in range(2, len(ext))]
