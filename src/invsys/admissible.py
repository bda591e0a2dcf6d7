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

import functools
from dataclasses import dataclass

from .duality import (
    _slices_from_vectors,
    _term_divisors,
    ann_cyclic,
    annihilator_window,
    contraction_rows,
    flatten,
    module_span,
    span_dim,
)
from .linalg import SubspaceBasis, monomial_columns, solve_affine, span_reduce, vanishing_combinations
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
    {L : 1 <= l_i <= t0} to its dual element.  There are d >= 1 of them,
    distinct variables of the ring, and the box holds at least the base
    index, so t0 < 1 is refused.  Both rules run before any other work.
    """

    context: object
    d: int
    z_indices: tuple
    entries: dict
    t0: int

    def __post_init__(self):
        z = self.z_indices
        if self.d < 1 or len(set(z)) != self.d or any(not 0 <= i < self.context.n for i in z):
            raise PreconditionError("distinguished variables must be distinct context variables")
        if self.t0 < 1:
            raise PreconditionError(f"truncation level t0 must be at least 1, got {self.t0}")

    def index_box(self):
        box = [()]
        for _ in range(self.d):
            box = [L + (l,) for L in box for l in range(1, self.t0 + 1)]
        return box

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
    incomplete and an error is raised.  The rules of ``AdmissibleFamily``
    (distinguished variables, t0) run before the indices are checked.
    """
    z_indices = tuple(z_indices)
    d = len(z_indices)
    given = {tuple(L): H for L, H in given.items()}
    if t0 is None:
        t0 = max([1] + [l for L in given for l in L])
    entries = {}
    fam = AdmissibleFamily(context, d, z_indices, entries, t0)  # its rules run first
    for L in given:
        if len(L) != d or any(l < 1 for l in L):
            raise PreconditionError(f"index {L} is not a positive multi-index of length {d}")
    sources = sorted(given, key=lambda L: (sum(L), L))
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
        entries[L] = contract_monomial(context.pack(fam.embed(diff)), given[src])
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


def check_condition_two(fam, mode="annihilator", windows=None):
    """Verify the annihilator condition over the stored box.

    ``annihilator`` mode checks, for every in-box step from L to L+e_i, that
    contracting the next entry by the annihilator of the current one spans
    exactly the cyclic span of the entry with i-th coordinate reset to 1.
    The annihilator is the window kernel of ``annihilator_window``: its
    multi-term vectors, and the monomials outside the current entry's
    divisor set, of which only those dividing a term of the next entry
    contract it to something nonzero.  Its divisor set and multi-term
    vectors are the same at every bound from the entry's degree on, so one
    window per entry serves every step; ``windows`` may hand in such windows
    by index, and the check computes only the ones it lacks.
    ``intersection`` mode checks the equivalent containment of the cyclic
    span's coordinate-subspace part; both modes return identical verdicts on
    families satisfying condition one.
    """
    if mode not in ("annihilator", "intersection"):
        raise ValueError("mode must be 'annihilator' or 'intersection'")
    violations = []

    @functools.cache
    def span_at(K):
        return module_span([fam.entry(K)])

    @functools.cache
    def annihilator_at(L):
        if windows and L in windows:
            return windows[L]
        return annihilator_window([fam.entry(L)], int(fam.entry(L).degree()))

    @functools.cache
    def target_at(K):
        return SubspaceBasis(flatten(span_at(K))).builder()

    if mode == "annihilator":
        for L in fam.index_box():
            H_L = fam.entry(L)
            for i in range(fam.d):
                up = tuple(l + (1 if j == i else 0) for j, l in enumerate(L))
                if max(up) > fam.t0:
                    continue
                back = tuple(1 if j == i else l for j, l in enumerate(L))
                H_up = fam.entry(up)
                rhs = span_at(back)
                if H_L.is_zero():
                    lhs = span_at(up)
                else:
                    bound = int(max(H_up.degree(), H_L.degree()))
                    window = annihilator_at(L)
                    reaching = {u for *_, us in _term_divisors([H_up], bound) for u in us} - window.divisors
                    images = [contract(h, H_up) for h in window.multi_term]
                    images += [contract_monomial(u, H_up) for u in sorted(reaching, reverse=True)]
                    span = span_reduce(images)
                    lhs = _slices_from_vectors(span.vectors)
                if lhs != rhs:
                    violations.append(
                        CheckViolation(
                            L,
                            f"condition-2 (z_{i + 1})",
                            f"annihilator span has dimension {span_dim(lhs)}, "
                            f"cyclic span has dimension {span_dim(rhs)}",
                        )
                    )
        return CheckReport.from_violations(violations)
    for L in fam.index_box():
        for i in range(fam.d):
            if L[i] < 2:
                continue
            back = tuple(1 if j == i else l for j, l in enumerate(L))
            involves = functools.partial(fam.context.divides, fam.context.var_monomials[fam.z_indices[i]])
            cut = _coordinate_subspace_part(flatten(span_at(L)), involves)
            for v in cut:
                if not target_at(back).contains(v):
                    violations.append(
                        CheckViolation(
                            L,
                            f"condition-2-intersection (z_{i + 1})",
                            f"{v} escapes the reduced cyclic span",
                        )
                    )
    return CheckReport.from_violations(violations)


def _coordinate_subspace_part(vectors, involves):
    """Basis of the part of a span supported away from the monomials ``involves`` selects."""
    if not any(involves(m) for v in vectors for m in v.terms):
        return list(vectors)
    part = vanishing_combinations(vectors, involves, len(vectors))
    return span_reduce(part).vectors


def check_family(fam, mode="annihilator"):
    """Condition one, then condition two; violations from both are merged."""
    first = check_condition_one(fam)
    second = check_condition_two(fam, mode)
    return CheckReport.from_violations(first.violations + second.violations)


# ---------------------------------------------------------------------------
# constructions


def cone_family(H, d, t0, z_indices=None):
    """The family obtained by pure shifts of one dual element.

    The element may only involve dual variables away from the distinguished
    ones; its annihilator then extends the smaller ring's annihilator, so the
    reconstructed ideal is the cone over it.
    """
    ctx = H.context
    z_indices = tuple(z_indices) if z_indices is not None else tuple(range(d))
    given = {}
    box = AdmissibleFamily(ctx, d, z_indices, given, t0).index_box()
    for m in H.terms:
        if any(ctx.unpack(m)[pos] for pos in z_indices):
            raise PreconditionError(
                "cone generator must avoid the distinguished dual variables"
            )
    for L in box:
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
    condition, in degree ``deg_bound`` (default: one above the largest
    predecessor degree) for a graded family, up to it otherwise: G is read off
    the predecessors where a z_i divides, and only the rest is eliminated.
    Returns (particular solution, kernel basis) with the particular solution
    taken at kernel coordinates zero, or None when the system is infeasible at
    this degree bound; ``solve_lift`` refuses a negative or oversized bound.
    """
    L_target = tuple(L_target)
    if len(L_target) != fam.d or any(l < 1 for l in L_target):
        raise PreconditionError("target must be a positive multi-index")
    max_pred = max((int(T.degree()) for _, T in fam.step_down(L_target) if not T.is_zero()), default=0)
    bound = deg_bound if deg_bound is not None else max_pred + 1

    @functools.cache
    def ann_gens(idx):
        H = fam.entry(idx)
        return [] if H.is_zero() else ann_cyclic(H).gens

    zero, constraints = DPPolynomial.zero(fam.context), []
    for i in range(fam.d):
        L = tuple(l - (1 if k == i else 0) for k, l in enumerate(L_target))
        if not all(l >= 1 for l in L):
            continue
        back = tuple(1 if k == i else l for k, l in enumerate(L))
        for p in ann_gens(back):
            for q in ann_gens(L):
                constraints.append((p * q, zero))
    solved = solve_lift(fam, L_target, bound, constraints)
    if solved is None:
        return None
    particular, kernel = solved
    return particular, span_reduce(kernel)


def solve_lift(fam, L, degree, constraints):
    """Entries G at index L with z_i o G = H_{L-e_i} (``fam.step_down(L)``) and g o G = T for every pair (g, T).

    The columns are the monomials of the given degree for a graded family
    (graded ring, every entry homogeneous), of degree up to it otherwise; a
    negative degree or more than ``MAX_ANN_COLUMNS`` columns, all counted, is
    refused before they are built.  G = K + G_free: K[z_i*m] = H_{L-e_i}[m]
    fixes every column a z_i divides, which holds iff the shifts are columns
    and z_i o K = H_{L-e_i} for each i (the predecessors agree).  Only the
    free columns, the monomials in the other variables, which every z_i
    kills, are built and eliminated, against T - g o K; the whole system's
    RREF holds K as unit rows, so the particular solution (kernel
    coordinates zero) and the kernel vectors are its own, term for term.
    Returns them, or None when the system is infeasible.
    """
    ctx = fam.context
    graded = ctx.mode == "graded" and all(H.is_homogeneous() for H in fam.entries.values())
    others = [i for i in range(ctx.n) if i not in fam.z_indices]
    free = monomial_columns(ctx.n, degree if graded else 0, degree, "lifting system", "of", others)
    # a predecessor term m shifts onto a column iff low <= m < high
    low, high = (degree - 1 if graded else -1) << ctx.shift, degree << ctx.shift
    fixed, step_down = {}, fam.step_down(L)
    for (z, H), pos in zip(step_down, fam.z_indices):
        if any(not low <= m < high for m in H.terms):
            return None
        fixed.update((m + ctx.var_monomials[pos] - ctx.base, a) for m, a in H.terms.items())
    K = DPPolynomial._of(ctx, fixed)
    if any(contract(z, K) != H for z, H in step_down):
        return None
    rows = contraction_rows([g for g, _ in constraints], free)
    residuals = [T - contract(g, K) for g, T in constraints]
    for k, R in enumerate(residuals):
        for m in R.terms:
            rows.setdefault((k, m), {})  # unreached residual term: 0 = R_m, infeasible
    rhs = [residuals[k].terms.get(m, 0) for k, m in rows]
    solved = solve_affine(list(rows.values()), rhs, free, ctx.one)
    if solved is None:
        return None
    particular, kernel = solved
    return DPPolynomial._of(ctx, fixed | particular), [DPPolynomial._of(ctx, v) for v in kernel]


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


def _refuse_repeat(previous, lineno, raw):
    if previous is not None:
        raise PreconditionError(f"family file line {lineno} repeats an earlier line: {raw!r}")


def load_family(text):
    """Parse a family session file; omitted entries are filled by contraction.

    The ``d`` line is optional; when present it must equal the number of
    names on the ``z`` line.  A ``z`` line naming nothing is refused by the
    distinguished-variable rule of ``AdmissibleFamily``.  A second ``ring``,
    ``d``, ``z`` or ``t0`` line, or a second entry at one index, is refused.
    """
    context = None
    d = None
    z_names = None
    t0 = None
    given = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("ring "):
            _refuse_repeat(context, lineno, raw)
            context = parse_ring_decl(line)
        elif line.startswith("d "):
            _refuse_repeat(d, lineno, raw)
            d = int(line[2:].strip())
        elif line == "z" or line.startswith("z "):  # "z " loses its space to strip()
            _refuse_repeat(z_names, lineno, raw)
            z_names = line[2:].replace(",", " ").split()
        elif line.startswith("t0 "):
            _refuse_repeat(t0, lineno, raw)
            t0 = int(line[3:].strip())
        elif line.startswith("H[") and "=" in line:
            head, _, body = line.partition("=")
            idx = tuple(int(tok) for tok in head.strip()[2:-1].split(","))
            if context is None:
                raise PreconditionError("family file must declare the ring first")
            _refuse_repeat(given.get(idx), lineno, raw)
            given[idx] = parse_polynomial(body.strip(), context, "dual")
        else:
            raise PreconditionError(f"unrecognized family file line {lineno}: {raw!r}")
    if context is None or z_names is None or not given:
        raise PreconditionError("family file needs a ring, a z line and at least one entry")
    z_indices = tuple(context.var_index(nm) for nm in z_names)
    # a z line naming nothing falls under the family's own distinguished-variable rule
    if z_indices and d is not None and d != len(z_indices):
        raise PreconditionError(f"family file declares d {d} but its z line names {len(z_indices)} variables")
    return build_family(context, z_indices, given, t0)
