"""Byte-for-byte snapshot of every CLI subcommand: stdout and exit code.

The expected bytes live in ``cli_golden.json`` next to this file.  Cases are
added by hand to ``CASES``; ``python tests/test_cli_golden.py`` then writes
the expected bytes of the cases missing from the file.  It never rewrites an
existing entry: it lists the cases whose output now differs, and each of
those is mended in the program or changed by hand with a reason.
"""

import contextlib
import functools
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

# the module also runs as a script, without conftest.py
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from invsys.cli import main  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

FAMILIES = {
    "curve5": """\
ring Q[x,y,z] dual [X,Y,Z] mode graded
d 1
z x
t0 5
H[1] = Y^[3]-Z^[3]
H[2] = X*Y^[3]-X*Z^[3]+Y*Z^[3]
H[3] = X^[2]*Y^[3]-X^[2]*Z^[3]+X*Y*Z^[3]-Y^[2]*Z^[3]
H[4] = X^[3]*Y^[3]-X^[3]*Z^[3]+X^[2]*Y*Z^[3]-X*Y^[2]*Z^[3]+Y^[3]*Z^[3]-4*Z^[6]
H[5] = X^[4]*Y^[3]+Y^[7]-X^[4]*Z^[3]+X^[3]*Y*Z^[3]-X^[2]*Y^[2]*Z^[3]+X*Y^[3]*Z^[3]-Y^[4]*Z^[3]-4*X*Z^[6]+4*Y*Z^[6]
""",
    "curve4": """\
ring Q[x,y,z] dual [X,Y,Z] mode graded
d 1
z x
t0 4
H[1] = Y^[3]-Z^[3]
H[2] = X*Y^[3]-X*Z^[3]+Y*Z^[3]
H[3] = X^[2]*Y^[3]-X^[2]*Z^[3]+X*Y*Z^[3]-Y^[2]*Z^[3]
H[4] = X^[3]*Y^[3]-X^[3]*Z^[3]+X^[2]*Y*Z^[3]-X*Y^[2]*Z^[3]+Y^[3]*Z^[3]-4*Z^[6]
""",
    "semigroup5": """\
ring Q[x,y,z] dual [X,Y,Z] mode local
d 1
z x
t0 5
H[1] = Y^[3]+Z^[2]
H[2] = X*Y^[3]+X*Z^[2]
H[3] = X^[2]*Y^[3]+X^[2]*Z^[2]
H[4] = X^[3]*Y^[3]+Y^[4]*Z+X^[3]*Z^[2]+Y*Z^[3]
H[5] = X^[4]*Y^[3]+X*Y^[4]*Z+X^[4]*Z^[2]+X*Y*Z^[3]
""",
    "semigroup4": """\
ring Q[x,y,z] dual [X,Y,Z] mode local
d 1
z x
t0 4
H[1] = Y^[3]+Z^[2]
H[2] = X*Y^[3]+X*Z^[2]
H[3] = X^[2]*Y^[3]+X^[2]*Z^[2]
H[4] = X^[3]*Y^[3]+Y^[4]*Z+X^[3]*Z^[2]+Y*Z^[3]
""",
    "codim4": """\
ring Q[x,y,z,t,v] dual [X,Y,Z,T,V] mode graded
d 1
z v
t0 4
H[1] = X^[2]+Y^[2]+Z^[2]+T^[2]
H[2] = X^[3]+Z^[3]+X^[2]*V+Y^[2]*V+Z^[2]*V+T^[2]*V
H[3] = X^[4]+Z^[4]+X^[3]*V+Z^[3]*V+X^[2]*V^[2]+Y^[2]*V^[2]+Z^[2]*V^[2]+T^[2]*V^[2]
H[4] = X^[5]+Z^[5]+X^[4]*V+Z^[4]*V+X^[3]*V^[2]+Z^[3]*V^[2]+X^[2]*V^[3]+Y^[2]*V^[3]+Z^[2]*V^[3]+T^[2]*V^[3]
""",
    "ci2": """\
ring Q[x,y,z,w] dual [X,Y,Z,W] mode graded
d 2
z x y
t0 2
H[1,1] = Z^[2]-W^[2]
H[1,2] = Y*Z^[2]-Z^[3]-Y*W^[2]+Z*W^[2]
H[2,1] = X*Z^[2]-X*W^[2]
H[2,2] = X*Y*Z^[2]-X*Z^[3]+Z^[4]-X*Y*W^[2]+X*Z*W^[2]-W^[4]
""",
    "ci2-inconsistent": """\
ring Q[x,y,z,w] dual [X,Y,Z,W] mode graded
d 2
z x y
t0 2
# x o H[2,1] = 2*Z but y o H[1,2] = Z
H[1,2] = Y*Z
H[2,1] = 2*X*Z
H[2,2] = X*Y*Z
""",
    "curve-fp": """\
ring Fp(7)[x,y,z] dual [X,Y,Z] mode graded
d 1
z x
t0 3
H[1] = Y^[3]+6*Z^[3]
H[2] = X*Y^[3]+6*X*Z^[3]+Y*Z^[3]
H[3] = X^[2]*Y^[3]+6*X^[2]*Z^[3]+X*Y*Z^[3]+6*Y^[2]*Z^[3]
""",
    "broken": """\
ring Q[x,y] dual [X,Y] mode graded
d 1
z x
H[1] = Y^[2]
H[2] = X*Y^[2]+X^[3]
""",
    "perturbed": """\
ring Q[x,y,z] dual [X,Y,Z] mode graded
d 1
z x
H[1] = Y^[2]
H[2] = X*Y^[2]+Z^[3]
""",
    "zero-local": """\
ring Q[x,y] dual [X,Y] mode local
d 1
z x
t0 2
H[1] = 0
H[2] = 0
""",
    "empty-z": "ring Q[x,y] dual [X,Y] mode graded\nd 1\nz \nH[1] = Y^[2]\n",
    "d-mismatch": """\
ring Q[x,y] dual [X,Y] mode graded
d 2
z x
H[1] = Y^[2]
""",
    "perturbed-local": """\
ring Q[x,y,z] dual [X,Y,Z] mode local
d 1
z x
H[1] = Y^[2]+Z
H[2] = X*Y^[2]+X*Z+Z^[3]+Y^[4]
""",
    "entry-before-ring": "H[1] = Y^[2]\nring Q[x,y] dual [X,Y] mode graded\nz x\n",
    "no-z": "ring Q[x,y] dual [X,Y] mode graded\nd 1\nH[1] = Y^[2]\n",
    "two-index-entry": "ring Q[x,y] dual [X,Y] mode graded\nd 1\nz x\nH[1,2] = Y^[2]\n",
    "repeated-t0": "ring Q[x,y] dual [X,Y] mode graded\nd 1\nz x\nt0 2\nH[1] = Y^[2]\nt0 3\n",
    "missing": None,  # no file is written
}

CURVE = "y*z+x*z, y^3+z^3-x*y^2+x^2*y-x^3"
CODIM4 = "x^2-z^2-x*v+z*v, x*y, y^2-z^2+z*v, x*z, y*z, z^2-t^2-z*v, x*t, y*t, z*t"

# name -> argv; "@name" stands for the path of the family file FAMILIES[name]
# (a path where no file is, when that is None)
CASES = {
    "contract": ["contract", "--ring", "Q[x,y]", "--h", "x+2*y", "--F", "X^[2]*Y+Y^[3]"],
    "pair-json": ["pair", "--json", "--ring", "Q[x,y]", "--f", "x*y+y^2", "--F", "X*Y-3Y^[2]"],
    "ann-q-graded": ["ann", "--ring", "Q[x,y,z] dual [X,Y,Z]", "--poly", "Y^[3]-Z^[3]"],
    "ann-q-graded-bound": ["ann", "--ring", "Q[x,y,z]", "--poly", "X^[2]*Y+Z^[3]", "--bound", "2"],
    "ann-q-graded-json": ["ann", "--json", "--ring", "Q[x,y,z]", "--poly", "X*Y*Z+1/2*Y^[3]"],
    "ann-q-local": ["ann", "--ring", "Q[x,y] mode local", "--poly", "X^[3]+Y^[2]"],
    "ann-q-local-mixed": ["ann", "--ring", "Q[x,y] mode local", "--poly", "X^[4]+Y^[3]+X*Y"],
    "ann-q-nonhomogeneous-graded": ["ann", "--ring", "Q[x,y]", "--poly", "X^[3]+Y"],
    "ann-fp-graded": ["ann", "--ring", "Fp(7)[x,y,z]", "--poly", "X^[2]*Y+3Z^[3]"],
    "ann-fp-graded-constant": ["ann", "--ring", "Fp(7)[x,y]", "--poly", "3"],
    "ann-fp-local": ["ann", "--ring", "Fp(101)[x,y] mode local", "--poly", "X^[4]+Y^[3]+5X*Y"],
    "ann-mode-override": ["ann", "--ring", "Q[x,y]", "--mode", "local", "--poly", "X^[3]+Y^[2]"],
    "ann-empty-window": ["ann", "--ring", "Q[x,y]", "--poly", "X^[3]", "--bound", "0"],
    "span-graded": ["span", "--ring", "Q[x,y,z]", "--F", "X^[2]*Y+Z^[3]; Y^[2]"],
    "span-local": ["span", "--ring", "Q[x,y] mode local", "--F", "X^[3]+Y^[2]"],
    "span-local-bound-json": ["span", "--json", "--ring", "Fp(5)[x,y] mode local", "--F", "X^[4]+2X*Y", "--bound", "2"],
    "span-zero": ["span", "--ring", "Q[x,y]", "--F", "0"],
    "perp-graded": ["perp", "--ring", "Q[x,y,z]", "--ideal", CURVE, "--bound", "4"],
    "perp-graded-default": ["perp", "--ring", "Q[x,y]", "--ideal", "x^2, y^2"],
    "perp-fp-graded-empty": ["perp", "--ring", "Fp(7)[x,y]", "--ideal", "", "--bound", "1"],
    "perp-local": ["perp", "--ring", "Q[x,y] mode local", "--ideal", "x*y, y^2-x^3"],
    "perp-local-json": ["perp", "--json", "--ring", "Fp(3)[x,y] mode local", "--ideal", "x*y+x^2, y^2-x^3", "--bound", "4"],
    "perp-graded-nonhomogeneous": ["perp", "--ring", "Q[x,y]", "--ideal", "x*y-x"],
    "perp-local-unit": ["perp", "--ring", "Q[x,y] mode local", "--ideal", "1+x", "--bound", "2"],
    "hilbert-graded": ["hilbert", "--ring", "Q[x,y,z]", "--ideal", CURVE],
    "hilbert-graded-json": ["hilbert", "--json", "--ring", "Q[x,y,z,t,v]", "--ideal", CODIM4],
    "hilbert-local": ["hilbert", "--ring", "Q[x,y] mode local", "--ideal", "x*y, y^2-x^3"],
    "hilbert-local-bound": ["hilbert", "--ring", "Q[x,y,z] mode local", "--ideal", "y*z-x^3, z^2-y^3, x^4", "--bound", "6"],
    "hilbert-local-unit": ["hilbert", "--ring", "Q[x,y] mode local", "--ideal", "1"],
    "lift-graded": ["lift", "--family", "@curve4", "--target", "5"],
    "lift-graded-bound-infeasible": ["lift", "--family", "@curve4", "--target", "5", "--bound", "5"],
    "lift-fp": ["lift", "--family", "@curve-fp", "--target", "4"],
    "lift-fp-bound": ["lift", "--family", "@curve-fp", "--target", "4", "--bound", "6"],
    "check-admissible-fp": ["check-admissible", "--family", "@curve-fp", "--check-mode", "intersection"],
    "lift-local": ["lift", "--family", "@semigroup4", "--target", "5"],
    "lift-local-bound": ["lift", "--family", "@semigroup4", "--target", "5", "--bound", "5"],
    "lift-bound-negative": ["lift", "--family", "@semigroup4", "--target", "5", "--bound", "-3"],
    "lift-bound-oversized": ["lift", "--family", "@semigroup4", "--target", "5", "--bound", "120"],
    "lift-two-parameter": ["lift", "--family", "@ci2", "--target", "3,1"],
    "lift-two-parameter-json": ["lift", "--json", "--family", "@ci2", "--target", "1,3"],
    "lift-missing-predecessor": ["lift", "--family", "@ci2", "--target", "3,2"],
    "lift-two-parameter-inconsistent": ["lift", "--family", "@ci2-inconsistent", "--target", "2,2"],
    "family-from-ideal-graded": ["family-from-ideal", "--ring", "Q[x,y,z]", "--ideal", CURVE, "--z", "x", "--t0", "4"],
    "family-from-ideal-fp": ["family-from-ideal", "--ring", "Fp(7)[x,y,z]", "--ideal", CURVE, "--z", "x", "--t0", "3"],
    "family-from-ideal-two-parameter": ["family-from-ideal", "--ring", "Q[x,y,z,w]", "--ideal", "z^2+w^2-x*y, z*w-x^2+y*w", "--z", "x,y", "--t0", "2"],
    "family-from-ideal-local": ["family-from-ideal", "--ring", "Q[x,y,z] mode local", "--ideal", "y*z-x^3, z^2-y^3", "--z", "x", "--t0", "3"],
    "family-from-ideal-not-regular": ["family-from-ideal", "--ring", "Q[x,y,z]", "--ideal", "x*y, x*z", "--z", "x", "--t0", "2"],
    "check-admissible-annihilator": ["check-admissible", "--family", "@curve5"],
    "check-admissible-intersection": ["check-admissible", "--family", "@curve5", "--check-mode", "intersection"],
    "check-admissible-local": ["check-admissible", "--family", "@semigroup5", "--check-mode", "intersection"],
    "check-admissible-two-parameter": ["check-admissible", "--family", "@ci2"],
    "check-admissible-broken": ["check-admissible", "--family", "@broken"],
    "check-admissible-empty-z": ["check-admissible", "--family", "@empty-z"],
    "check-admissible-d-mismatch": ["check-admissible", "--family", "@d-mismatch"],
    "check-admissible-broken-json": ["check-admissible", "--json", "--family", "@broken", "--check-mode", "intersection"],
    "check-admissible-perturbed-annihilator": ["check-admissible", "--family", "@perturbed"],
    "check-admissible-perturbed-intersection": ["check-admissible", "--family", "@perturbed", "--check-mode", "intersection"],
    "check-admissible-perturbed-local": ["check-admissible", "--family", "@perturbed-local"],
    "check-admissible-perturbed-local-intersection": ["check-admissible", "--family", "@perturbed-local", "--check-mode", "intersection"],
    "lift-perturbed-local": ["lift", "--family", "@perturbed-local", "--target", "3"],
    "local-verify-perturbed": ["local-verify", "--family", "@perturbed-local", "--ideal", "x^2, y^3, z^2"],
    "finite-lift": ["finite-lift", "--family", "@curve5"],
    "finite-lift-bound": ["finite-lift", "--family", "@curve5", "--max-gen-degree", "3"],
    "finite-lift-codim4": ["finite-lift", "--json", "--family", "@codim4", "--max-gen-degree", "2"],
    "finite-lift-box-too-small": ["finite-lift", "--family", "@curve4"],
    "finite-lift-negative-bound": ["finite-lift", "--family", "@curve5", "--max-gen-degree", "-5"],
    "local-verify-pass": ["local-verify", "--family", "@semigroup5", "--ideal", "y*z-x^3, z^2-y^3", "--trunc", "7"],
    "local-verify-fail": ["local-verify", "--family", "@semigroup5", "--ideal", "y*z-x^3, z^2", "--trunc", "7"],
    "local-verify-fail-json": ["local-verify", "--json", "--family", "@semigroup4", "--ideal", "y*z, z^2-y^3"],
    "local-verify-trunc-zero": ["local-verify", "--family", "@semigroup5", "--ideal", "y*z-x^3, z^2-y^3", "--trunc", "0"],
    "local-verify-zero-entries": ["local-verify", "--family", "@zero-local", "--ideal", "x"],
    "decompose": ["decompose", "--family", "@curve5"],
    "decompose-json": ["decompose", "--json", "--family", "@codim4"],
    "decompose-corrupted": ["decompose", "--family", "@broken"],
    "cone": ["cone", "--ring", "Q[x,y,z]", "--H", "Y^[2]+Z^[3]", "--d", "1", "--t0", "3"],
    "cone-two-parameter": ["cone", "--ring", "Q[x,y,z,w]", "--H", "Z^[2]*W-W^[3]", "--d", "2", "--t0", "2"],
    "cone-rejected": ["cone", "--ring", "Q[x,y]", "--H", "X*Y", "--d", "1", "--t0", "2"],
    "cone-distinguished-outside-ring": ["cone", "--ring", "Q[x,y,z]", "--H", "1", "--d", "4", "--t0", "2"],
    "family-from-ideal-repeated-z": ["family-from-ideal", "--ring", "Q[x,y,z]", "--ideal", CURVE, "--z", "x,x", "--t0", "1"],
    "family-from-ideal-empty-z": ["family-from-ideal", "--ring", "Q[x,y]", "--ideal", "x^2, y^2", "--z", "", "--t0", "1"],
    "gorenstein-check": ["gorenstein-check", "--ring", "Q[x,y,z]", "--ideal", CURVE, "--d", "1", "--z", "x"],
    "gorenstein-check-json": ["gorenstein-check", "--json", "--ring", "Q[x,y,z,t,v]", "--ideal", CODIM4, "--d", "1", "--z", "v"],
    "gorenstein-check-local-refused": ["gorenstein-check", "--ring", "Q[x,y,z] mode local", "--ideal", "y*z-x^3, z^2-y^3", "--d", "1", "--z", "x"],
    "gorenstein-check-negative": ["gorenstein-check", "--ring", "Q[x,y,z]", "--ideal", "x*y, x*z, y*z", "--d", "1", "--z", "x+y+z"],
    "gorenstein-check-unit-ideal": ["gorenstein-check", "--ring", "Q[x,y]", "--ideal", "x, 1", "--d", "0", "--z", ""],
    "gorenstein-check-artinian-without-z": ["gorenstein-check", "--ring", "Q[x,y]", "--ideal", "x^2, y^3", "--d", "0"],
    "gorenstein-check-oversized-socle": ["gorenstein-check", "--ring", "Q[x,y,z]", "--ideal", "x^160, y^160, z^160", "--d", "0", "--z", ""],
    "ann-negative-bound": ["ann", "--ring", "Q[x,y,z]", "--poly", "X^[2]*Y+Z^[3]", "--bound", "-3"],
    "perp-negative-bound": ["perp", "--ring", "Q[x,y]", "--ideal", "x^2, y^2", "--bound", "-2"],
    "span-negative-bound": ["span", "--ring", "Q[x,y]", "--F", "X^[2]*Y", "--bound", "-2"],
    "hilbert-local-negative-bound": ["hilbert", "--ring", "Q[x,y] mode local", "--ideal", "x*y, y^2-x^3", "--bound", "-2"],
    "parse-error": ["ann", "--ring", "Q[x,y]", "--poly", "Y^["],
    "parse-error-ring": ["ann", "--ring", "Q[x,y", "--poly", "X"],
    "precondition-zero": ["ann", "--ring", "Q[x,y]", "--poly", "0X"],
    "ann-no-ring": ["ann", "--poly", "X"],
    "check-admissible-missing-file": ["check-admissible", "--family", "@missing"],
    "check-admissible-entry-before-ring": ["check-admissible", "--family", "@entry-before-ring"],
    "check-admissible-no-z-line": ["check-admissible", "--family", "@no-z"],
    "check-admissible-two-index-entry": ["check-admissible", "--family", "@two-index-entry"],
    "check-admissible-repeated-line": ["check-admissible", "--family", "@repeated-t0"],
    "lift-target-too-long": ["lift", "--family", "@curve4", "--target", "4,1"],
    "gorenstein-check-nonlinear-z": ["gorenstein-check", "--ring", "Q[x,y,z]", "--ideal", CURVE, "--d", "1", "--z", "x^2"],
    "gorenstein-check-not-artinian": ["gorenstein-check", "--ring", "Q[x,y]", "--ideal", "x^2", "--d", "0"],
    "family-from-ideal-local-trunc-too-low": ["family-from-ideal", "--ring", "Q[x,y,z] mode local", "--ideal", "y*z-x^3, z^2-y^3", "--z", "x", "--t0", "3", "--trunc", "2"],
    "parse-error-unclosed-exponent": ["ann", "--ring", "Q[x,y]", "--poly", "X^[3"],
    "parse-error-ring-exponent-on-dual": ["ann", "--ring", "Q[x,y]", "--poly", "X^3"],
    "parse-error-coefficient-after-name": ["ann", "--ring", "Q[x,y]", "--poly", "X2"],
    "parse-error-ring-without-variables": ["ann", "--ring", "Q[]", "--poly", "X"],
    "parse-error-division": ["pair", "--ring", "Q[x,y]", "--f", "x/7", "--F", "X"],
}


def run_case(argv, tmp_dir):
    """Run one invocation; family references become files under tmp_dir.

    Returns the golden record (exit code and stdout) and the stderr text.
    """
    args = []
    for a in argv:
        if a.startswith("@"):
            path = Path(tmp_dir) / f"{a[1:]}.fam"
            if FAMILIES[a[1:]] is not None:
                path.write_text(FAMILIES[a[1:]], encoding="utf-8")
            a = str(path)
        args.append(a)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return {"exit": code, "stdout": out.getvalue()}, err.getvalue()


@functools.cache
def _outcome(name):
    with tempfile.TemporaryDirectory() as tmp:
        return run_case(CASES[name], tmp)


def _expected():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert _outcome(name)[0] == _expected()[name]


STDERR_PREFIXES = ("parse error: ", "precondition violated: ", "error: ", "i/o error: ")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stderr_is_empty_or_one_classified_line(name):
    record, err = _outcome(name)
    if err:
        assert err.startswith(STDERR_PREFIXES) and err.count("\n") == 1 and err.endswith("\n"), err
    elif record["exit"] in (2, 3):  # a refusal without a message carries its verdict on stdout
        assert record["stdout"] == "infeasible\n" and CASES[name][0] == "lift"


# the refusals whose stdout is empty, with the start of their stderr line
REFUSALS = {
    "ann-no-ring": "parse error: a --ring declaration is required",
    "check-admissible-missing-file": "i/o error: ",
    "check-admissible-entry-before-ring": "precondition violated: family file must declare the ring first",
    "check-admissible-no-z-line": "precondition violated: family file needs a ring, a z line",
    "check-admissible-two-index-entry": "precondition violated: index (1, 2) is not a positive multi-index of length 1",
    "check-admissible-repeated-line": "precondition violated: family file line 6 repeats an earlier line",
    "lift-target-too-long": "precondition violated: target must be a positive multi-index",
    "gorenstein-check-nonlinear-z": "precondition violated: regular sequence test expects linear forms",
    "family-from-ideal-local-trunc-too-low": "precondition violated: truncation 2 is too low",
    "parse-error-unclosed-exponent": "parse error: expected ']'",
    "parse-error-ring-exponent-on-dual": "parse error: dual exponents are written ^[k]",
    "parse-error-coefficient-after-name": "parse error: coefficient must precede the variables",
    "parse-error-ring-without-variables": "parse error: ring declaration lists no variables",
    "parse-error-division": "parse error: expected '+' or '-' between terms",
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_names_its_cause(name):
    assert _outcome(name)[1].startswith(REFUSALS[name])


def write_missing_cases():
    """Add the expected bytes of the cases missing from the golden file; rewrite none.

    Returns the names added and the names of existing cases whose output
    differs from their entry.
    """
    golden = _expected() if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        fresh = {name: run_case(argv, tmp)[0] for name, argv in CASES.items()}
    added = sorted(set(fresh) - set(golden))
    differing = sorted(name for name in golden if name in fresh and fresh[name] != golden[name])
    golden.update((name, fresh[name]) for name in added)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return added, differing


if __name__ == "__main__":
    added, differing = write_missing_cases()
    print(f"added {len(added)} case(s): {' '.join(added) or '-'}")
    if differing:
        print(f"{len(differing)} existing case(s) differ and were left as they are: {' '.join(differing)}")
        sys.exit(1)
