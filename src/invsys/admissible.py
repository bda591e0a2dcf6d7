"""Admissible families of dual elements and their verification.

A d-dimensional Gorenstein quotient corresponds to a compatible system of
dual elements indexed by multi-indices with positive entries: contraction by
the i-th distinguished variable steps the index down (condition one), and
annihilator spans match cyclic spans (condition two, checkable either
directly or through the coordinate-subspace intersection reformulation).

Finite families are stored on the full rectangle of indices with every
coordinate between 1 and the truncation level t0; missing entries are filled
by contraction from any stored entry above them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .duality import (
    ann_cyclic,
    annihilator_slices,
    annihilator_window,
    contraction_rows,
    flatten,
    module_span,
)
from .linalg import MonomialIndex, solve_affine, span_reduce, vanishing_combinations
from .parsing import parse_polynomial, parse_ring_decl
from .ring import (
    DPPolynomial,
    Polynomial,
    PreconditionError,
    contract,
    contract_monomial,
    shift_mul,
)


@dataclass(frozen=True)
class CheckViolation:
    index: tuple
    condition: str
    detail: str


@dataclass
class CheckReport:
    """Outcome of a family verification; passed iff no violations."""

    passed: bool
    violations: list

    @classmethod
    def from_violations(cls, violations):
        return cls(not violations, violations)

    def __str__(self):
        if self.passed:
            return "ok"
        return "; ".join(
            f"violation at L={list(v.index)} ({v.condition}): {v.detail}"
            for v in self.violations
        )


@dataclass
class AdmissibleFamily:
    """A finite box of dual elements indexed over positive multi-indices.

    ``z_indices`` names the distinguished variables (positions into the ring
    context's variable list); ``entries`` maps each index in the rectangle
    {L : 1 <= l_i <= t0} to its dual element.
    """

    context: object
    d: int
    z_indices: tuple
    entries: dict
    t0: int

    def index_box(self):
        return itertools.product(*(range(1, self.t0 + 1) for _ in range(self.d)))

    def entry(self, L):
        return self.entries[tuple(L)]

    def diagonal_index(self, t):
        return (t,) * self.d

    @property
    def base_entry(self):
        return self.entries[self.diagonal_index(1)]

    def embed(self, diff):
        """Exponent vector placing the multi-index difference at the z positions."""
        e = [0] * self.context.n
        for pos, v in zip(self.z_indices, diff):
            e[pos] = v
        return tuple(e)

    def z_power(self, L):
        """The pure-power monomial z1^l1 ... zd^ld as a ring element."""
        return Polynomial.monomial(self.context, self.embed(L))

    def z_variable(self, i):
        return self.context.variable(self.z_indices[i])

    def step_down(self, L):
        """Pairs (z_i, entry at L - e_i): contraction by z_i must map H_L onto it.

        The entry is zero where L - e_i leaves the positive indices; a
        positive L - e_i without a stored entry raises PreconditionError.
        """
        pairs = []
        for i in range(self.d):
            down = tuple(l - (1 if j == i else 0) for j, l in enumerate(L))
            if not all(l >= 1 for l in down):
                pairs.append((self.z_variable(i), DPPolynomial.zero(self.context)))
            elif down in self.entries:
                pairs.append((self.z_variable(i), self.entries[down]))
            else:
                raise PreconditionError(f"missing predecessor entry at {down}")
        return pairs


def build_family(context, z_indices, given, t0=None):
    """Assemble a family from given entries, deriving the missing ones.

    A missing index is filled by contracting the closest given entry above
    it; the rectangle must be fully derivable, otherwise the box is
    incomplete and an error is raised.
    """
    z_indices = tuple(z_indices)
    d = len(z_indices)
    if d < 1 or len(set(z_indices)) != d or any(not 0 <= i < context.n for i in z_indices):
        raise PreconditionError("distinguished variables must be distinct context variables")
    given = {tuple(L): H for L, H in given.items()}
    for L in given:
        if len(L) != d or any(l < 1 for l in L):
            raise PreconditionError(f"index {L} is not a positive multi-index of length {d}")
    if t0 is None:
        t0 = max(max(L) for L in given)
    sources = sorted(given, key=lambda L: (sum(L), L))
    entries = {}
    fam = AdmissibleFamily(context, d, z_indices, entries, t0)
    for L in fam.index_box():
        if L in given:
            entries[L] = given[L]
            continue
        src = next((M for M in sources if all(a <= b for a, b in zip(L, M))), None)
        if src is None:
            raise PreconditionError(
                f"family box is incomplete: no stored entry above index {L}"
            )
        diff = tuple(b - a for a, b in zip(L, src))
        entries[L] = contract_monomial(fam.embed(diff), given[src])
    return fam


def is_zero_family(fam):
    """A checked family vanishes entirely iff its base entry is zero."""
    return fam.base_entry.is_zero()


# ---------------------------------------------------------------------------
# condition one: contraction steps the index down


def check_condition_one(fam):
    violations = []
    for L in fam.index_box():
        H = fam.entry(L)
        for i, (z, expected) in enumerate(fam.step_down(L)):
            actual = contract(z, H)
            if actual != expected:
                violations.append(
                    CheckViolation(L, f"condition-1 (z_{i + 1})", f"got {actual}, want {expected}")
                )
    return CheckReport.from_violations(violations)


# ---------------------------------------------------------------------------
# condition two, in both formulations


def _annihilator_basis(H, bound):
    """Spanning set of the annihilator of H up to degree bound (no minimality)."""
    ctx = H.context
    if ctx.mode == "graded" and H.is_homogeneous():
        return [v for basis in annihilator_slices([H], bound).values() for v in basis]
    return [v for v in annihilator_window([H], bound).vectors if v.order() >= 1]


def check_condition_two(fam, mode="annihilator"):
    """Verify the annihilator condition over the stored box.

    ``annihilator`` mode checks, for every in-box step from L to L+e_i, that
    contracting the next entry by the annihilator of the current one spans
    exactly the cyclic span of the entry with i-th coordinate reset to 1.
    ``intersection`` mode checks the equivalent containment of the cyclic
    span's coordinate-subspace part; both modes return identical verdicts on
    families satisfying condition one.
    """
    if mode not in ("annihilator", "intersection"):
        raise ValueError("mode must be 'annihilator' or 'intersection'")
    violations = []
    if mode == "annihilator":
        for L in fam.index_box():
            H_L = fam.entry(L)
            for i in range(fam.d):
                up = tuple(l + (1 if j == i else 0) for j, l in enumerate(L))
                if max(up) > fam.t0:
                    continue
                back = tuple(1 if j == i else l for j, l in enumerate(L))
                H_up, H_back = fam.entry(up), fam.entry(back)
                rhs = span_reduce(flatten(module_span([H_back])))
                if H_L.is_zero():
                    lhs = span_reduce(flatten(module_span([H_up])))
                else:
                    bound = int(max(H_up.degree(), H_L.degree()))
                    ann = _annihilator_basis(H_L, bound)
                    lhs = span_reduce([contract(h, H_up) for h in ann])
                if lhs.vectors != rhs.vectors:
                    violations.append(
                        CheckViolation(
                            L,
                            f"condition-2 (z_{i + 1})",
                            f"annihilator span has dimension {lhs.dim}, "
                            f"cyclic span has dimension {rhs.dim}",
                        )
                    )
        return CheckReport.from_violations(violations)
    for L in fam.index_box():
        for i in range(fam.d):
            if L[i] < 2:
                continue
            back = tuple(1 if j == i else l for j, l in enumerate(L))
            H_L, H_back = fam.entry(L), fam.entry(back)
            span_L = flatten(module_span([H_L]))
            cut = _coordinate_subspace_part(span_L, fam.z_indices[i])
            target = span_reduce(flatten(module_span([H_back])))
            for v in cut:
                if not target.contains(v):
                    violations.append(
                        CheckViolation(
                            L,
                            f"condition-2-intersection (z_{i + 1})",
                            f"{v} escapes the reduced cyclic span",
                        )
                    )
    return CheckReport.from_violations(violations)


def _coordinate_subspace_part(vectors, var_pos):
    """Basis of the part of a span supported away from one dual variable."""
    if not any(m[var_pos] for v in vectors for m in v.terms):
        return list(vectors)
    part = vanishing_combinations(vectors, lambda m: m[var_pos] > 0, len(vectors))
    return span_reduce(part).vectors


def check_family(fam, mode="annihilator"):
    """Condition one, then condition two; violations from both are merged."""
    first = check_condition_one(fam)
    second = check_condition_two(fam, mode)
    return CheckReport.from_violations(first.violations + second.violations)


# ---------------------------------------------------------------------------
# constructions


def cone_family(H, d, t0, context=None, z_indices=None):
    """The family obtained by pure shifts of one dual element.

    The element may only involve dual variables away from the distinguished
    ones; its annihilator then extends the smaller ring's annihilator, so the
    reconstructed ideal is the cone over it.
    """
    ctx = context or H.context
    z_indices = tuple(z_indices) if z_indices is not None else tuple(range(d))
    for m in H.terms:
        if any(m[pos] for pos in z_indices):
            raise PreconditionError(
                "cone generator must avoid the distinguished dual variables"
            )
    given = {}
    for L in itertools.product(*(range(1, t0 + 1) for _ in range(d))):
        shift = [0] * ctx.n
        for pos, l in zip(z_indices, L):
            shift[pos] = l - 1
        given[L] = shift_mul(tuple(shift), H)
    return build_family(ctx, z_indices, given, t0)


def diagonal_decompose(fam):
    """Differences of consecutive diagonal entries along the full shift.

    Returns the list C_1..C_t0 with H_(t) = sum of shifted C's; each C is
    annihilated by the product of the distinguished variables, otherwise the
    family is corrupted and an error is raised.
    """
    ctx = fam.context
    ones = fam.embed((1,) * fam.d)
    zprod = Polynomial.monomial(ctx, ones)
    cs = [fam.entry(fam.diagonal_index(1))]
    for t in range(2, fam.t0 + 1):
        c = fam.entry(fam.diagonal_index(t)) - shift_mul(ones, fam.entry(fam.diagonal_index(t - 1)))
        if not contract(zprod, c).is_zero():
            raise PreconditionError(
                f"decomposition residual at diagonal level {t} is not annihilated"
            )
        cs.append(c)
    # reassembly identity: the diagonal entry is the sum of its shifted pieces
    for t in range(1, fam.t0 + 1):
        acc = DPPolynomial.zero(ctx)
        for i in range(t):
            shift = tuple(v * i for v in ones)
            acc = acc + shift_mul(shift, cs[t - 1 - i])
        if acc != fam.entry(fam.diagonal_index(t)):
            raise PreconditionError(f"diagonal reassembly fails at level {t}")
    return cs


def lift_space(fam, L_target, deg_bound=None):
    """The affine space of next entries at one index above the stored box.

    Solves for G with contraction by each distinguished variable matching the
    predecessor entry (or vanishing where the target coordinate is 1), and
    with G orthogonal to the annihilator products required by the admissible
    condition.  Returns (particular solution, kernel basis) with the
    particular solution taken at kernel coordinates zero, or None when the
    system is infeasible at this degree bound.
    """
    ctx = fam.context
    L_target = tuple(L_target)
    if len(L_target) != fam.d or any(l < 1 for l in L_target):
        raise PreconditionError("target must be a positive multi-index")
    constraints = fam.step_down(L_target)
    graded = ctx.mode == "graded" and all(H.is_homogeneous() for H in fam.entries.values())
    max_pred = max((int(T.degree()) for _, T in constraints if not T.is_zero()), default=0)
    bound = deg_bound if deg_bound is not None else max_pred + 1
    if graded:
        index = MonomialIndex.of_degree(ctx.n, bound)
    else:
        index = MonomialIndex.window(ctx.n, bound)
    ann_cache = {}

    def ann_gens(idx):
        if idx not in ann_cache:
            H = fam.entry(idx)
            ann_cache[idx] = [] if H.is_zero() else ann_cyclic(H).gens
        return ann_cache[idx]

    zero = DPPolynomial.zero(ctx)
    for i in range(fam.d):
        L = tuple(l - (1 if k == i else 0) for k, l in enumerate(L_target))
        if not all(l >= 1 for l in L):
            continue
        back = tuple(1 if k == i else l for k, l in enumerate(L))
        for p in ann_gens(back):
            for q in ann_gens(L):
                constraints.append((p * q, zero))
    solved = solve_lift(index, constraints)
    if solved is None:
        return None
    particular, kernel = solved
    return particular, span_reduce(kernel)


def solve_lift(index, constraints):
    """Dual elements G over the index with g o G = T for every pair (g, T).

    Returns (particular solution, kernel vectors) with the particular
    solution taken at kernel coordinates zero, or None when the system is
    infeasible.  The result does not depend on the order of the pairs, but
    the cost does: contraction by a variable gives unit rows on distinct
    columns, and listing those pairs first keeps the elimination sparse.
    """
    ctx = constraints[0][0].context
    rows = contraction_rows([g for g, _ in constraints], index)
    for k, (_, T) in enumerate(constraints):
        for m in T.terms:
            rows.setdefault((k, m), {})  # unreached target term: 0 = T_m, infeasible
    rhs = [constraints[k][1].coeff(d) for k, d in rows]
    solved = solve_affine(list(rows.values()), rhs, len(index), ctx.scalar(1))
    if solved is None:
        return None
    particular, kernel = solved
    return index.poly(particular, ctx, "dual"), [index.poly(v, ctx, "dual") for v in kernel]


# ---------------------------------------------------------------------------
# family session files


def dump_family(fam):
    """Deterministic text serialization of a family."""
    lines = [fam.context.decl()]
    lines.append(f"d {fam.d}")
    lines.append("z " + " ".join(fam.context.var_names[i] for i in fam.z_indices))
    lines.append(f"t0 {fam.t0}")
    for L in sorted(fam.entries, key=lambda L: (sum(L), L)):
        lines.append(f"H[{','.join(str(l) for l in L)}] = {fam.entry(L)}")
    return "\n".join(lines) + "\n"


def load_family(text):
    """Parse a family session file; omitted entries are filled by contraction."""
    context = None
    z_names = None
    t0 = None
    given = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("ring "):
            context = parse_ring_decl(line)
        elif line.startswith("d "):
            pass  # redundant with the z line; kept for readability
        elif line.startswith("z "):
            z_names = line[2:].replace(",", " ").split()
        elif line.startswith("t0 "):
            t0 = int(line[3:].strip())
        elif line.startswith("H[") and "=" in line:
            head, _, body = line.partition("=")
            idx = tuple(int(tok) for tok in head.strip()[2:-1].split(","))
            if context is None:
                raise PreconditionError("family file must declare the ring first")
            given[idx] = parse_polynomial(body.strip(), context, "dual")
        else:
            raise PreconditionError(f"unrecognized family file line {lineno}: {raw!r}")
    if context is None or z_names is None or not given:
        raise PreconditionError("family file needs a ring, a z line and at least one entry")
    z_indices = tuple(context.var_index(nm) for nm in z_names)
    return build_family(context, z_indices, given, t0)
