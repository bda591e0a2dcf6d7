"""The command-line adapters: canonical output, exit codes, determinism."""

import json
import time

import pytest
from conftest import dual

from invsys import build_family, dump_family
from invsys.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ann_command(capsys):
    code, out, _ = run(
        capsys, "ann", "--ring", "Q[x,y,z] dual [X,Y,Z]", "--poly", "Y^[3]-Z^[3]"
    )
    assert code == 0
    assert out.strip() == "x, y*z, y^3+z^3"


def test_hilbert_local_command(capsys):
    code, out, _ = run(
        capsys, "hilbert", "--ring", "Q[x,y] mode local", "--ideal", "x*y, y^2-x^3"
    )
    assert code == 0
    assert out.strip() == "1 2 1 1"


def test_contract_command(capsys):
    code, out, _ = run(capsys, "contract", "--ring", "Q[x,y]", "--h", "1", "--F", "X")
    assert code == 0
    assert out.strip() == "X"


def test_pair_command_json(capsys):
    code, out, _ = run(
        capsys,
        "pair",
        "--json",
        "--ring",
        "Q[x,y,z] dual [X,Y,Z]",
        "--f",
        "y^3+z^3",
        "--F",
        "Y^[3]-Z^[3]",
    )
    assert code == 0
    assert json.loads(out) == {"result": "0"}


def test_hilbert_graded_command(capsys):
    code, out, _ = run(
        capsys,
        "hilbert",
        "--ring",
        "Q[x,y,z] dual [X,Y,Z]",
        "--ideal",
        "y*z+x*z, y^3+z^3-x*y^2+x^2*y-x^3",
    )
    assert code == 0
    assert out.splitlines() == [
        "numerator 1 2 2 1",
        "dimension 1",
        "multiplicity 6",
        "regularity 3",
    ]


def test_mode_override_flag(capsys):
    code, out, _ = run(
        capsys,
        "hilbert",
        "--ring",
        "Q[x,y]",
        "--mode",
        "local",
        "--ideal",
        "x*y, y^2-x^3",
    )
    assert code == 0
    assert out.strip() == "1 2 1 1"


def test_parse_error_exit_code(capsys):
    for ring, poly in [
        ("Q[x,y]", "Y^["),
        ("Q[x,y]", "1/0*X^[2]"),
        ("Fp(7)[x,y]", "1/7*X"),
    ]:
        code, _, err = run(capsys, "ann", "--ring", ring, "--poly", poly)
        assert code == 2
        assert "parse error" in err


def test_unusable_prime_field_exit_code(capsys):
    for field in ("Fp(0)", "Fp(1)", "Fp(561)", "Fp(618970019642690137449562111)"):
        code, _, err = run(capsys, "ann", "--ring", f"{field}[x,y]", "--poly", "X")
        assert code == 2
        assert "error" in err


def test_precondition_exit_code(capsys):
    code, _, err = run(capsys, "ann", "--ring", "Q[x,y]", "--poly", "0X")
    assert code == 3
    assert "precondition" in err


def test_oversized_annihilator_is_refused_up_front(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "ann", "--ring", "Q[x,y]", "--poly", "X^[3000]*Y^[3000]")
    assert code == 3
    assert "contraction columns" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "argv, columns",
    [
        # one contraction per divisor of X^[3000]*Y^[3000]: 3001^2
        (["span", "--ring", "Q[x,y]", "--F", "X^[3000]*Y^[3000]"], 9006001),
        # the default bound 3002 needs C(3004, 2) columns over all degrees
        (["perp", "--ring", "Q[x,y]", "--ideal", "x^3000, y"], 4510506),
    ],
    ids=["span", "perp"],
)
def test_oversized_span_and_inverse_system_are_refused_up_front(capsys, argv, columns):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert f"{columns} contraction columns" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "bound, message",
    [
        # a local lift solves over the window R_{<=120}: C(123, 3) columns
        ("120", "lifting system of degree 120 needs 302621 contraction columns"),
        ("-3", "lifting system degree bound must be at least 0, got -3"),
    ],
    ids=["oversized", "negative"],
)
def test_lift_bounds_are_refused_up_front(tmp_path, capsys, semigroup_curve, bound, message):
    fam = semigroup_curve["family"]
    fam_file = tmp_path / "partial.fam"
    partial = build_family(fam.context, (0,), {(l,): fam.entry((l,)) for l in range(1, 5)})
    fam_file.write_text(dump_family(partial), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "lift", "--family", str(fam_file), "--target", "5", "--bound", bound)
    assert code == 3 and out == ""
    assert message in err and "infeasible" not in err
    assert time.perf_counter() - start < 5


def test_oversized_family_box_is_refused_up_front(capsys):
    # every graded lift of this curve stays below the limit (the last,
    # in degree 302, needs C(304, 2) = 46056 columns), the box does not
    start = time.perf_counter()
    ideal = "y*z+x*z, y^3+z^3-x*y^2+x^2*y-x^3"
    argv = ["--ring", "Q[x,y,z] dual [X,Y,Z]", "--ideal", ideal, "--z", "x", "--t0", "300"]
    code, out, err = run(capsys, "family-from-ideal", *argv)
    assert code == 3 and out == ""
    assert "lifting the family box to t0 = 300 needs 4682340 contraction columns" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "argv",
    [
        ["cone", "--ring", "ring Q[x,y,z] dual [X,Y,Z]", "--H", "1", "--d", "4", "--t0", "2"],
        ["family-from-ideal", "--ring", "Q[x,y,z]", "--ideal", "y*z+x*z, y^3+z^3-x*y^2+x^2*y-x^3", "--z", "x,x", "--t0", "1"],
        ["family-from-ideal", "--ring", "Q[x,y,z]", "--ideal", "y*z+x*z, y^3+z^3-x*y^2+x^2*y-x^3", "--z", "x,x", "--t0", "2"],
        ["family-from-ideal", "--ring", "Q[x,y]", "--ideal", "x^2, y^2", "--z", "", "--t0", "1"],
    ],
    ids=["cone-outside", "repeated-t0-1", "repeated-t0-2", "empty"],
)
def test_distinguished_variables_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "distinguished variables must be distinct context variables" in err


@pytest.mark.parametrize(
    "lines, message",
    [
        (["d 1", "z "], "distinguished variables must be distinct context variables"),
        (["d 2", "z x"], "family file declares d 2 but its z line names 1 variables"),
    ],
    ids=["empty-z", "d-mismatch"],
)
def test_family_file_distinguished_lines_are_checked(tmp_path, capsys, lines, message):
    path = tmp_path / "family.fam"
    path.write_text("\n".join(["ring Q[x,y] dual [X,Y] mode graded", *lines, "H[1] = Y^[2]"]) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "check-admissible", "--family", str(path))
    assert code == 3 and out == ""
    assert message in err


def test_artinian_gorenstein_check_needs_no_z(capsys):
    argv = ["gorenstein-check", "--ring", "Q[x,y]", "--ideal", "x^2, y^3", "--d", "0"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "gorenstein: yes" in out.splitlines()
    assert run(capsys, *argv, "--z", "") == (code, out, "")


def test_oversized_socle_is_refused_up_front(capsys):
    start = time.perf_counter()
    argv = ["--ring", "ring Q[x,y,z] dual [X,Y,Z]", "--ideal", "x^160,y^160,z^160", "--d", "0", "--z", ""]
    code, out, err = run(capsys, "gorenstein-check", *argv)
    assert code == 3 and out == ""
    assert "socle of the Artinian quotient needs 4096000 multiplication columns" in err
    assert time.perf_counter() - start < 5


def test_check_admissible_pass_and_fail(tmp_path, capsys, curve_codim2):
    good = tmp_path / "good.fam"
    good.write_text(dump_family(curve_codim2["family5"]), encoding="utf-8")
    code, out, _ = run(capsys, "check-admissible", "--family", str(good))
    assert code == 0 and out.strip() == "admissible"

    broken = tmp_path / "broken.fam"
    broken.write_text(
        "\n".join(
            [
                "ring Q[x,y] dual [X,Y] mode graded",
                "d 1",
                "z x",
                "H[1] = Y^[2]",
                "H[2] = X*Y^[2]+X^[3]",
            ]
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "check-admissible", "--family", str(broken))
    assert code == 4
    assert "condition-1" in out and "L=[2]" in out


def test_finite_lift_command(tmp_path, capsys, elliptic_curve):
    fam_file = tmp_path / "surface.fam"
    fam_file.write_text(dump_family(elliptic_curve["family"]), encoding="utf-8")
    code, out, _ = run(
        capsys, "finite-lift", "--family", str(fam_file), "--max-gen-degree", "2"
    )
    assert code == 0
    assert (
        out.strip()
        == "z^2-x*t+z*t+z*w+t*w, y*z-t^2+y*w, y^2-x*z-t^2, x*y-z*t-t^2, "
        "x^2-x*z-y*t+z*t-x*w+t*w"
    )


def test_lift_command(tmp_path, capsys, semigroup_curve):
    fam = semigroup_curve["family"]
    partial = {(l,): fam.entry((l,)) for l in range(1, 5)}
    fam_file = tmp_path / "partial.fam"
    fam_file.write_text(
        dump_family(build_family(fam.context, (0,), partial)), encoding="utf-8"
    )
    code, out, _ = run(capsys, "lift", "--family", str(fam_file), "--target", "5")
    assert code == 0
    assert "particular:" in out
    # the family's actual fifth entry lies in the returned affine space
    first = out.splitlines()[0].split(": ", 1)[1]
    from invsys import membership, parse_polynomial, span_reduce

    particular = parse_polynomial(first, fam.context, "dual")
    kernel = [
        parse_polynomial(line.split(": ", 1)[1], fam.context, "dual")
        for line in out.splitlines()[1:]
        if line.startswith("kernel:")
    ]
    diff = fam.entry((5,)) - particular
    assert membership(diff, span_reduce(kernel))


def test_gorenstein_check_command_json(capsys, codim4_curve):
    code, out, _ = run(
        capsys,
        "gorenstein-check",
        "--json",
        "--ring",
        "Q[x,y,z,t,v] dual [X,Y,Z,T,V]",
        "--ideal",
        "x^2-z^2-x*v+z*v, x*y, y^2-z^2+z*v, x*z, y*z, z^2-t^2-z*v, x*t, y*t, z*t",
        "--d",
        "1",
        "--z",
        "v",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["is_gorenstein"] is True
    assert payload["multiplicity"] == 6
    assert payload["artinian_reduction_hf"] == [1, 4, 1]


def test_local_verify_command(tmp_path, capsys, semigroup_curve):
    fam_file = tmp_path / "semigroup.fam"
    fam_file.write_text(dump_family(semigroup_curve["family"]), encoding="utf-8")
    code, out, _ = run(
        capsys,
        "local-verify",
        "--family",
        str(fam_file),
        "--ideal",
        "y*z-x^3, z^2-y^3",
        "--trunc",
        "7",
    )
    assert code == 0 and out.strip() == "verified"


def test_family_from_ideal_command_round_trip(tmp_path, capsys, curve_codim2):
    code, out, _ = run(
        capsys,
        "family-from-ideal",
        "--ring",
        "Q[x,y,z] dual [X,Y,Z]",
        "--ideal",
        "y*z+x*z, y^3+z^3-x*y^2+x^2*y-x^3",
        "--z",
        "x",
        "--t0",
        "4",
    )
    assert code == 0
    from invsys import load_family

    fam = load_family(out)
    assert fam.entry((4,)) == curve_codim2["H"][3]


def test_cone_command(capsys):
    code, out, _ = run(
        capsys,
        "cone",
        "--ring",
        "Q[x,y] dual [X,Y]",
        "--H",
        "Y^[2]",
        "--d",
        "1",
        "--t0",
        "2",
    )
    assert code == 0
    assert "H[2] = X*Y^[2]" in out


def test_truncation_level_below_one_is_refused(tmp_path, capsys):
    # a box with t0 < 1 holds no index, not even the base entry
    built = [
        ["cone", "--ring", "Q[x,y]", "--H", "Y", "--d", "1", "--t0", "0"],
        ["family-from-ideal", "--ring", "Q[x,y]", "--ideal", "x^2", "--z", "y", "--t0", "0"],
    ]
    fam_file = tmp_path / "empty.fam"
    fam_file.write_text("ring Q[x,y] dual [X,Y] mode graded\nd 1\nz y\nt0 0\nH[1] = X\n", encoding="utf-8")
    loaded = [
        ["check-admissible", "--family", str(fam_file)],
        ["finite-lift", "--family", str(fam_file)],
        ["decompose", "--family", str(fam_file)],
        ["local-verify", "--family", str(fam_file), "--ideal", "x^2", "--trunc", "3"],
    ]
    for argv in built + loaded:
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert "t0 must be at least 1" in err


def test_local_verify_reports_zero_entries_with_or_without_truncation(tmp_path, capsys):
    fam_file = tmp_path / "zero.fam"
    fam_file.write_text("ring Q[x,y] dual [X,Y] mode local\nd 1\nz x\nt0 2\nH[1] = 0\nH[2] = 0\n", encoding="utf-8")
    for trunc in ([], ["--trunc", "3"]):
        code, out, err = run(capsys, "local-verify", "--family", str(fam_file), "--ideal", "x", *trunc)
        assert code == 4 and err == "", trunc
        assert out.count("entry is zero") == 2


@pytest.mark.parametrize(
    "ring, ideal, d, z",
    [("Q[x,y,z] mode local", "y*z-x^3, z^2-y^3", "1", "x"), ("Q[x,y] mode local", "x*y, y^2-x^3", "0", "")],
    ids=["semigroup-curve", "artinian"],
)
def test_gorenstein_check_refuses_nonhomogeneous_local_ideals(capsys, ring, ideal, d, z):
    code, out, err = run(capsys, "gorenstein-check", "--ring", ring, "--ideal", ideal, "--d", d, "--z", z)
    assert code == 3 and out == ""
    assert "family-from-ideal" in err and "local-verify" in err


def test_bounds_below_one_are_refused(tmp_path, capsys, curve_codim2, semigroup_curve):
    graded, local = tmp_path / "curve.fam", tmp_path / "semigroup.fam"
    graded.write_text(dump_family(curve_codim2["family5"]), encoding="utf-8")
    local.write_text(dump_family(semigroup_curve["family"]), encoding="utf-8")
    for value in ("0", "-5"):
        code, out, err = run(capsys, "finite-lift", "--family", str(graded), "--max-gen-degree", value)
        assert code == 3 and out == "" and "at least 1" in err, value
    for value in ("0", "-4"):
        code, out, err = run(
            capsys, "local-verify", "--family", str(local), "--ideal", "y*z-x^3, z^2-y^3", "--trunc", value
        )
        assert code == 3 and out == "" and "at least 1" in err, value


@pytest.mark.parametrize(
    "argv, what",
    [
        (["ann", "--ring", "Q[x,y,z]", "--poly", "X^[2]*Y+Z^[3]", "--bound", "-3"], "annihilator"),
        (["ann", "--ring", "Q[x,y] mode local", "--poly", "X^[3]+Y^[2]", "--bound", "-1"], "annihilator"),
        (["perp", "--ring", "Q[x,y]", "--ideal", "x^2, y^2", "--bound", "-2"], "inverse system"),
        (["span", "--ring", "Q[x,y]", "--F", "X^[2]*Y", "--bound", "-2"], "module span"),
        (["hilbert", "--ring", "Q[x,y] mode local", "--ideal", "x*y, y^2-x^3", "--bound", "-2"], "inverse system"),
    ],
    ids=["ann", "ann-local", "perp", "span", "hilbert-local"],
)
def test_negative_bounds_are_refused(capsys, argv, what):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert f"{what} degree bound must be at least 0, got {argv[-1]}" in err


def test_bound_zero_keeps_its_output(capsys):
    assert run(capsys, "ann", "--ring", "Q[x,y,z]", "--poly", "X^[2]*Y+Z^[3]", "--bound", "0") == (0, "0\n", "")
    assert run(capsys, "perp", "--ring", "Q[x,y]", "--ideal", "x^2, y^2", "--bound", "0")[:2] == (0, "degree 0: 1\n")
    assert run(capsys, "span", "--ring", "Q[x,y]", "--F", "X^[2]*Y", "--bound", "0")[:2] == (
        0,
        "degree 0: 1\ntotal dimension 1\n",
    )
    assert run(capsys, "hilbert", "--ring", "Q[x,y] mode local", "--ideal", "x*y", "--bound", "0")[:2] == (0, "1\n")


def test_output_is_deterministic(capsys, elliptic_curve, tmp_path):
    fam_file = tmp_path / "surface.fam"
    fam_file.write_text(dump_family(elliptic_curve["family"]), encoding="utf-8")
    runs = [
        run(capsys, "finite-lift", "--family", str(fam_file), "--max-gen-degree", "2")
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_span_command(capsys):
    code, out, _ = run(
        capsys,
        "span",
        "--ring",
        "Q[x,y] dual [X,Y] mode local",
        "--F",
        "X^[3]+Y^[2]",
    )
    assert code == 0
    assert "total dimension 5" in out
    assert "degree 3: X^[3]+Y^[2]" in out


def test_perp_command(capsys):
    code, out, _ = run(
        capsys,
        "perp",
        "--ring",
        "Q[x,y] dual [X,Y] mode local",
        "--ideal",
        "x*y, y^2-x^3",
    )
    assert code == 0
    assert "degree 3: X^[3]+Y^[2]" in out


def test_decompose_command(tmp_path, capsys, curve_codim2):
    fam_file = tmp_path / "curve.fam"
    fam_file.write_text(dump_family(curve_codim2["family5"]), encoding="utf-8")
    code, out, _ = run(capsys, "decompose", "--family", str(fam_file))
    assert code == 0
    assert "C[2] = Y*Z^[3]" in out
