"""Seeded inputs, job lists and correctness checks of the two workloads.

Input generation is plain Python and never imports ``invsys``: the library
only sees the generated text, which the worker parses with
``invsys.parsing`` during set-up.  ``generate`` runs in ``run.py``;
``prepare`` runs in a worker process and turns the text into jobs.

Each job is one library call a user would make (one CLI subcommand).  Its
check tests an exact mathematical invariant of the returned object -- ideals
and spans are compared as subspaces, never generator lists as text -- and
runs after every job of the pass has been timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("artinian_gb", "local_window")

LETTERS = "xyztuw"
PRIME = 32003

# ---------------------------------------------------------------------------
# a small term-list form of polynomials: {exponent tuple: int coefficient}


def parse_terms(text, names):
    """Read ``2X^[4]-X*Y^[3]`` or ``x^2-z*t`` with single-letter names."""
    text = text.replace(" ", "")
    out, pos = {}, 0
    while pos < len(text):
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos += 1
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        coeff = int(text[start:pos]) if pos > start else 1
        exps = [0] * len(names)
        while pos < len(text) and text[pos] not in "+-":
            if text[pos] == "*":
                pos += 1
                continue
            var = names.index(text[pos])
            pos += 1
            power = 1
            if pos < len(text) and text[pos] == "^":
                pos += 1
                bracket = text[pos] == "["
                pos += bracket
                start = pos
                while pos < len(text) and text[pos].isdigit():
                    pos += 1
                power = int(text[start:pos])
                pos += bracket
            exps[var] += power
        key = tuple(exps)
        out[key] = out.get(key, 0) + sign * coeff
    return {m: c for m, c in out.items() if c}


def format_terms(terms, names, dual):
    """Inverse of ``parse_terms`` in the grammar of ``invsys.parsing``."""
    parts = []
    for m in sorted(terms, key=lambda m: (-sum(m), m)):
        c = terms[m]
        factors = "*".join(
            (f"{v}^[{e}]" if dual else f"{v}^{e}") for v, e in zip(names, m) if e
        )
        body = f"{abs(c)}*{factors}" if factors else str(abs(c))
        parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts) if parts else "0"


def shift(terms, exps):
    return {tuple(a + b for a, b in zip(m, exps)): c for m, c in terms.items()}


def add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def torus(terms, scales, dual):
    """Apply x_i -> scales[i] * x_i over Fp (dual side: the contragredient action).

    Annihilators, spans, families and Hilbert functions are carried along
    exactly, so the seed varies the inputs without changing their structure.
    """
    out = {}
    for m, c in terms.items():
        for s, e in zip(scales, m):
            c *= pow(s, -e if dual else e, PRIME)
        out[m] = c % PRIME
    return out


def decl(n, field, mode):
    names = LETTERS[:n]
    return f"ring {field}[{','.join(names)}] dual [{','.join(names.upper())}] mode {mode}"


def random_support(rng, n, degree, count, homogeneous):
    """``count`` distinct exponent vectors of degree ``degree`` (or at most it)."""
    support = set()
    while len(support) < count:
        d = degree if homogeneous or not support else rng.randint(2, degree)
        e = [0] * n
        for _ in range(d):
            e[rng.randrange(n)] += 1
        support.add(tuple(e))
    return sorted(support)


# ---------------------------------------------------------------------------
# the worked examples of the paper, as text

SURFACE_H = "Z^[5]+T^[4]+U^[3]+W^[3]+Z*T*U*W"
SURFACE_F_EXTRA = "U^[2]*T-W*T*Z"
# The nine listed generators of the surface example plus z^2*u, which the
# listed nine omit (see the acceptance suite); together they generate the
# annihilator of the diagonal modulo m^8.
SURFACE_IDEAL = (
    "z^4-t*u*w, t^2*w, z^2*w, t^2*u, t^3-z*u*w, z*t^2, z^2*t, w^2-z*t*u,"
    "u^2-t*u^2-z*t*w-x*y*z*u*w, z^2*u"
)
SEMIGROUP = ("xyz", "y*z-x^3, z^2-y^3")


def _ring_gens(text, names, scales):
    return ", ".join(
        format_terms(torus(parse_terms(g, names), scales, False), names, False)
        for g in text.split(",")
    )


# ---------------------------------------------------------------------------
# generation (run.py side)

# (variables, degree, forms) per class; every form has ARTINIAN_TERMS terms.
ARTINIAN_CLASSES = ((4, 3, 3), (4, 4, 3), (5, 3, 3), (5, 4, 3), (6, 3, 3), (6, 4, 1))
ARTINIAN_TERMS = 6
# (variables, degree, polynomials) per class; five terms each
LOCAL_CLASSES = ((4, 5, 2), (4, 6, 2), (5, 5, 2), (5, 6, 2), (6, 5, 1), (6, 6, 1))
LOCAL_TERMS = 5

SMOKE = {
    "artinian_gb": ((4, 3, 1), (4, 4, 1)),
    "local_window": ((4, 5, 1),),
}


def generate(workload, seed, smoke=False):
    """The workload's inputs as JSON-ready text, a pure function of the seed."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    if workload == "artinian_gb":
        return _gen_artinian(rng, SMOKE[workload] if smoke else ARTINIAN_CLASSES)
    if workload == "local_window":
        return _gen_local(rng, SMOKE[workload] if smoke else LOCAL_CLASSES, smoke)
    raise ValueError(f"unknown workload {workload!r}")


def _gen_artinian(rng, classes):
    # The monomial supports come from a fixed stream and the seed draws the
    # coefficients: Groebner cost depends mostly on the support, so runs with
    # different seeds measure comparable work.
    shapes = random.Random("perfbench/artinian_gb/supports")
    forms = []
    for n, degree, count in classes:
        for _ in range(count):
            support = random_support(shapes, n, degree, ARTINIAN_TERMS, True)
            terms = {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in support}
            forms.append(
                {"ring": decl(n, "Q", "graded"), "F": format_terms(terms, LETTERS[:n].upper(), True)}
            )
    return {"forms": forms}


def _gen_local(rng, classes, smoke):
    field = f"Fp({PRIME})"
    polys = []
    supports = random.Random("perfbench/local_window/supports")  # as for artinian_gb
    for n, degree, count in classes:
        for _ in range(count):
            support = random_support(supports, n, degree, LOCAL_TERMS, False)
            terms = {m: rng.randrange(1, PRIME) for m in support}
            polys.append({"ring": decl(n, field, "local"), "F": format_terms(terms, LETTERS[:n].upper(), True)})
    names, duals = LETTERS, LETTERS.upper()
    scales = [rng.randrange(1, PRIME) for _ in names]
    H = parse_terms(SURFACE_H, duals)
    F = add(shift(H, (1, 1, 0, 0, 0, 0)), parse_terms(SURFACE_F_EXTRA, duals))
    diagonal = [H, F] + [shift(F, (t - 2, t - 2, 0, 0, 0, 0)) for t in range(3, 9)]
    diagonal = [format_terms(torus(D, scales, True), duals, True) for D in diagonal]
    semi_names, semi_gens = SEMIGROUP
    semi_scales = [rng.randrange(1, PRIME) for _ in semi_names]
    return {
        "random": polys,
        "surface": {
            "ring": decl(6, field, "local"),
            "cyclic": 1 if smoke else 2,
            "diagonal": diagonal,
            "ideal": _ring_gens(SURFACE_IDEAL, names, scales),
            "ann_bound": 5,
            "trunc": 8,
        },
        "semigroup": {
            "ring": decl(3, field, "local"),
            "ideal": _ring_gens(semi_gens, semi_names, semi_scales),
            "z": [0],
            "t0": 4 if smoke else 6,
            "trunc": 7 if smoke else 9,
        },
    }


# ---------------------------------------------------------------------------
# jobs (worker side)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    # A job whose check is costly may be marked ``reusable``: a result whose
    # repr equals that of a result which passed the check in an earlier pass
    # of the same run is the same mathematical object and counts as checked.
    reusable: bool = False


def prepare(workload, inv, inputs):
    """Parse the inputs with ``invsys.parsing`` and return the job list."""
    if workload == "artinian_gb":
        return _artinian_jobs(inv, inputs)
    if workload == "local_window":
        return _local_jobs(inv, inputs)
    raise ValueError(f"unknown workload {workload!r}")


def _contexts(inv, decls):
    cache = {}
    for d in decls:
        if d not in cache:
            cache[d] = inv.parse_ring_decl(d)
    return cache


def _annihilates(inv, gens, duals):
    return all(inv.contract(g, H).is_zero() for g in gens for H in duals)


def _artinian_jobs(inv, inputs):
    ctxs = _contexts(inv, [f["ring"] for f in inputs["forms"]])
    jobs = []
    for k, form in enumerate(inputs["forms"]):
        F = inv.parse_polynomial(form["F"], ctxs[form["ring"]], "dual")

        def run(F=F):
            ideal = inv.ann_cyclic(F)
            return ideal, inv.gorenstein_check(ideal, 0, [])

        def check(result, F=F):
            ideal, report = result
            return (
                report.is_gorenstein
                and report.multiplicity == inv.span_dim(inv.module_span([F]))
                and report.regularity == int(F.degree())
                and _annihilates(inv, ideal.gens, [F])
            )

        jobs.append(Job(f"ann+gorenstein_check[{k}] n={ctxs[form['ring']].n} deg={int(F.degree())}", run, check))
    return jobs


def _slices_key(slices):
    return [(s.degree, s.basis.vectors) for s in slices]


def _matlis_ok(inv, F, ideal):
    """Every generator kills F, and the inverse system of the ideal is R o F."""
    bound = int(F.degree()) + 1
    return _annihilates(inv, ideal.gens, [F]) and _slices_key(
        inv.perp_ideal(ideal, bound)
    ) == _slices_key(inv.module_span([F], bound))


def _local_jobs(inv, inputs):
    ctxs = _contexts(inv, [p["ring"] for p in inputs["random"]])
    jobs = []
    for k, item in enumerate(inputs["random"]):
        F = inv.parse_polynomial(item["F"], ctxs[item["ring"]], "dual")
        jobs.append(
            Job(
                f"ann_cyclic random[{k}] n={F.context.n} deg={int(F.degree())}",
                lambda F=F: inv.ann_cyclic(F),
                lambda ideal, F=F: _matlis_ok(inv, F, ideal),
                reusable=True,
            )
        )
    surf = inputs["surface"]
    ctx = inv.parse_ring_decl(surf["ring"])
    diagonal = [inv.parse_polynomial(t, ctx, "dual") for t in surf["diagonal"]]
    listed = inv.parse_ideal_gens(surf["ideal"], ctx)
    for k in range(surf["cyclic"]):
        F = diagonal[k]
        jobs.append(
            Job(
                f"ann_cyclic surface[{k}]",
                lambda F=F: inv.ann_cyclic(F),
                lambda ideal, F=F: _matlis_ok(inv, F, ideal),
                reusable=True,
            )
        )
    bound, trunc = surf["ann_bound"], surf["trunc"]

    def ann_module_ok(J):
        return _annihilates(inv, J.gens, diagonal) and inv.ideals_equal_mod(J.gens, listed, trunc, ctx)

    def span_ok(slices):
        # a submodule (closed under contraction by the variables) that holds
        # every generator, and no larger than the sum of their cyclic spans
        basis = inv.SubspaceBasis([v for s in slices for v in s.basis.vectors]).builder()
        variables = [ctx.variable(i) for i in range(ctx.n)]
        return all(basis.contains(D) for D in diagonal) and all(
            basis.contains(inv.contract(x, v)) for x in variables for v in basis.basis()
        )

    jobs += [
        Job(
            f"ann_module surface diagonal bound={bound}",
            lambda: inv.ann_module(diagonal, degree_bound=bound),
            ann_module_ok,
            reusable=True,
        ),
        Job("module_span surface diagonal", lambda: inv.module_span(diagonal), span_ok, reusable=True),
    ]
    semi = inputs["semigroup"]
    sctx = inv.parse_ring_decl(semi["ring"])
    sideal = inv.Ideal(inv.parse_ideal_gens(semi["ideal"], sctx), sctx)
    state = {}
    t0, strunc = semi["t0"], semi["trunc"]

    def build():
        state["family"] = inv.family_from_ideal(sideal, tuple(semi["z"]), t0)
        return state["family"]

    jobs += [
        Job(f"family_from_ideal semigroup t0={t0}", build, lambda fam: len(fam.entries) == t0 and not fam.base_entry.is_zero()),
        Job(
            f"local_verify semigroup trunc={strunc}",
            lambda: inv.local_verify(state["family"], sideal, trunc=strunc),
            lambda report: report.passed,
        ),
    ]
    return jobs

