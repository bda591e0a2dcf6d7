"""The command-line adapters: canonical output, exit codes, determinism."""

import json

from conftest import dual

from invsys import dump_family
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
    for field in ("Fp(561)", "Fp(618970019642690137449562111)"):
        code, _, err = run(capsys, "ann", "--ring", f"{field}[x,y]", "--poly", "X")
        assert code == 2
        assert "error" in err


def test_precondition_exit_code(capsys):
    code, _, err = run(capsys, "ann", "--ring", "Q[x,y]", "--poly", "0X")
    assert code == 3
    assert "precondition" in err


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
    from invsys import build_family

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
