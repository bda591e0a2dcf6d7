"""Byte-for-byte snapshot of every CLI subcommand: stdout and exit code.

The expected bytes live in ``cli_golden.json`` next to this file.  After an
intended change of output, rewrite it with ``python tests/test_cli_golden.py``
and review the diff.
"""

import contextlib
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
    "perturbed-local": """\
ring Q[x,y,z] dual [X,Y,Z] mode local
d 1
z x
H[1] = Y^[2]+Z
H[2] = X*Y^[2]+X*Z+Z^[3]+Y^[4]
""",
}

CURVE = "y*z+x*z, y^3+z^3-x*y^2+x^2*y-x^3"
CODIM4 = "x^2-z^2-x*v+z*v, x*y, y^2-z^2+z*v, x*z, y*z, z^2-t^2-z*v, x*t, y*t, z*t"

# name -> argv; "@name" stands for the path of the family file FAMILIES[name]
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
    "span-graded": ["span", "--ring", "Q[x,y,z]", "--F", "X^[2]*Y+Z^[3]; Y^[2]"],
    "span-local": ["span", "--ring", "Q[x,y] mode local", "--F", "X^[3]+Y^[2]"],
    "span-local-bound-json": ["span", "--json", "--ring", "Fp(5)[x,y] mode local", "--F", "X^[4]+2X*Y", "--bound", "2"],
    "perp-graded": ["perp", "--ring", "Q[x,y,z]", "--ideal", CURVE, "--bound", "4"],
    "perp-graded-default": ["perp", "--ring", "Q[x,y]", "--ideal", "x^2, y^2"],
    "perp-fp-graded-empty": ["perp", "--ring", "Fp(7)[x,y]", "--ideal", "", "--bound", "1"],
    "perp-local": ["perp", "--ring", "Q[x,y] mode local", "--ideal", "x*y, y^2-x^3"],
    "perp-local-json": ["perp", "--json", "--ring", "Fp(3)[x,y] mode local", "--ideal", "x*y+x^2, y^2-x^3", "--bound", "4"],
    "perp-graded-nonhomogeneous": ["perp", "--ring", "Q[x,y]", "--ideal", "x*y-x"],
    "hilbert-graded": ["hilbert", "--ring", "Q[x,y,z]", "--ideal", CURVE],
    "hilbert-graded-json": ["hilbert", "--json", "--ring", "Q[x,y,z,t,v]", "--ideal", CODIM4],
    "hilbert-local": ["hilbert", "--ring", "Q[x,y] mode local", "--ideal", "x*y, y^2-x^3"],
    "hilbert-local-bound": ["hilbert", "--ring", "Q[x,y,z] mode local", "--ideal", "y*z-x^3, z^2-y^3, x^4", "--bound", "6"],
    "lift-graded": ["lift", "--family", "@curve4", "--target", "5"],
    "lift-graded-bound-infeasible": ["lift", "--family", "@curve4", "--target", "5", "--bound", "5"],
    "lift-fp": ["lift", "--family", "@curve-fp", "--target", "4"],
    "lift-fp-bound": ["lift", "--family", "@curve-fp", "--target", "4", "--bound", "6"],
    "check-admissible-fp": ["check-admissible", "--family", "@curve-fp", "--check-mode", "intersection"],
    "lift-local": ["lift", "--family", "@semigroup4", "--target", "5"],
    "lift-local-bound": ["lift", "--family", "@semigroup4", "--target", "5", "--bound", "5"],
    "lift-two-parameter": ["lift", "--family", "@ci2", "--target", "3,1"],
    "lift-two-parameter-json": ["lift", "--json", "--family", "@ci2", "--target", "1,3"],
    "lift-missing-predecessor": ["lift", "--family", "@ci2", "--target", "3,2"],
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
    "local-verify-pass": ["local-verify", "--family", "@semigroup5", "--ideal", "y*z-x^3, z^2-y^3", "--trunc", "7"],
    "local-verify-fail": ["local-verify", "--family", "@semigroup5", "--ideal", "y*z-x^3, z^2", "--trunc", "7"],
    "local-verify-fail-json": ["local-verify", "--json", "--family", "@semigroup4", "--ideal", "y*z, z^2-y^3"],
    "decompose": ["decompose", "--family", "@curve5"],
    "decompose-json": ["decompose", "--json", "--family", "@codim4"],
    "decompose-corrupted": ["decompose", "--family", "@broken"],
    "cone": ["cone", "--ring", "Q[x,y,z]", "--H", "Y^[2]+Z^[3]", "--d", "1", "--t0", "3"],
    "cone-two-parameter": ["cone", "--ring", "Q[x,y,z,w]", "--H", "Z^[2]*W-W^[3]", "--d", "2", "--t0", "2"],
    "cone-rejected": ["cone", "--ring", "Q[x,y]", "--H", "X*Y", "--d", "1", "--t0", "2"],
    "gorenstein-check": ["gorenstein-check", "--ring", "Q[x,y,z]", "--ideal", CURVE, "--d", "1", "--z", "x"],
    "gorenstein-check-json": ["gorenstein-check", "--json", "--ring", "Q[x,y,z,t,v]", "--ideal", CODIM4, "--d", "1", "--z", "v"],
    "gorenstein-check-negative": ["gorenstein-check", "--ring", "Q[x,y,z]", "--ideal", "x*y, x*z, y*z", "--d", "1", "--z", "x+y+z"],
    "parse-error": ["ann", "--ring", "Q[x,y]", "--poly", "Y^["],
    "parse-error-ring": ["ann", "--ring", "Q[x,y", "--poly", "X"],
    "precondition-zero": ["ann", "--ring", "Q[x,y]", "--poly", "0X"],
}


def run_case(argv, tmp_dir):
    """Run one invocation; family references become files under tmp_dir."""
    args = []
    for a in argv:
        if a.startswith("@"):
            path = Path(tmp_dir) / f"{a[1:]}.fam"
            path.write_text(FAMILIES[a[1:]], encoding="utf-8")
            a = str(path)
        args.append(a)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return {"exit": code, "stdout": out.getvalue()}


def _expected():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert run_case(CASES[name], tmp_path) == _expected()[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: run_case(argv, tmp) for name, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
