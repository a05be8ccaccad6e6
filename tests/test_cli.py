"""End-to-end command-line checks: golden output, record mode, exit codes."""

import pytest

from skeinlab import cli
from skeinlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# verification subcommands
# ---------------------------------------------------------------------------


def test_verify_switchback_text(capsys):
    code, out = run(capsys, "verify-switchback")
    assert code == 0
    assert out == (
        "switchback (beta x 1)(1 x gamma) = 1: OK\n"
        "switchback (1 x beta)(gamma x 1) = 1: OK\n"
    )


def test_verify_switchback_records(capsys):
    code, out = run(capsys, "verify-switchback", "--output", "records")
    assert code == 0
    assert out == (
        "switchback\tcondition=1\tok=true\n"
        "switchback\tcondition=2\tok=true\n"
    )


def test_verify_switchback_fails_on_bad_pair(capsys, tmp_path):
    cfg = tmp_path / "broken.pair"
    cfg.write_text(
        "dimension = 2\nring = gauss\nbeta = 1, 0, 0, 1\ngamma = 1; 0; 0; 2\n"
    )
    code, out = run(capsys, "verify-switchback", "--pair", str(cfg))
    assert code == 1
    assert "FAIL" in out


def test_verify_ybe(capsys):
    code, out = run(capsys, "verify-ybe")
    assert code == 0
    assert out == "ybe residual zero: true\n"


def test_verify_ybe_deformed(capsys):
    code, out = run(capsys, "verify-ybe", "--cocycle", "xy", "--deformed")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("a = ")
    assert "t*(" in lines[0]
    assert lines[1].startswith("b = ")
    assert lines[2] == "ybe residual zero: true"


def test_tl_check(capsys):
    code, out = run(capsys, "tl-check", "--strands", "3")
    assert code == 0
    assert out == "delta0 = -A^-2 - A^2\ntl n=2: OK\ntl n=3: OK\n"


def test_tl_check_deformed(capsys):
    code, out = run(capsys, "tl-check", "--cocycle", "yx", "--strands", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("delta0 = -A^-2 - A^2 + t*(")
    assert lines[1:] == ["tl n=2: OK", "tl n=3: OK"]


# ---------------------------------------------------------------------------
# infiltration
# ---------------------------------------------------------------------------


def test_infiltrate_switchback_text(capsys):
    code, out = run(capsys, "infiltrate", "switchback", "--identity", "s2")
    assert code == 0
    assert out == (
        "identity s2: (beta x id)*(id x gamma) = id\n"
        "  plan lhs: (beta#1 x id)*(id x gamma#1)\n"
        "  plan rhs: id\n"
        "  differential:\n"
        "    + (beta x id)*(id x phi[gamma])\n"
        "    + (phi[beta] x id)*(id x gamma)\n"
    )


def test_infiltrate_assoc_text(capsys):
    code, out = run(capsys, "infiltrate", "assoc")
    assert code == 0
    assert out == (
        "identity assoc: mu*(mu x id) = mu*(id x mu)\n"
        "  plan lhs: mu#1*(mu#2 x id)\n"
        "  plan rhs: mu#1*(id x mu#2)\n"
        "  differential:\n"
        "    - mu*(id x phi[mu])\n"
        "    + mu*(phi[mu] x id)\n"
        "    - phi[mu]*(id x mu)\n"
        "    + phi[mu]*(mu x id)\n"
    )


def test_infiltrate_records(capsys):
    code, out = run(
        capsys, "infiltrate", "switchback", "--identity", "s1", "--output", "records"
    )
    assert code == 0
    assert out == (
        "plan\tidentity=s1\tlhs=(id x beta#1)*(gamma#1 x id)\trhs=id\n"
        "differential\tidentity=s1\t"
        "sum=(id x beta)*(phi[gamma] x id) + (id x phi[beta])*(gamma x id)\n"
    )


def test_check_d2d1_both_models(capsys):
    code, out = run(
        capsys, "check-d2d1", "assoc", "--model", "dualnumbers", "--trials", "3"
    )
    assert code == 0
    assert out == "check-d2d1 assoc: OK (3 random f)\n"
    code, out = run(
        capsys, "check-d2d1", "switchback", "--model", "bracket", "--trials", "3"
    )
    assert code == 0
    assert out == (
        "check-d2d1 s1: OK (3 random f)\n"
        "check-d2d1 s2: OK (3 random f)\n"
    )


# ---------------------------------------------------------------------------
# cohomology and cocycles
# ---------------------------------------------------------------------------

DIMS_TEXT = "z1 = 1\nb2 = 3\nz2 = 4\nb3 = 4\nz3 = 4\nb4 = 4\nh1 = 1\nh2 = 1\nh3 = 0\n"


def test_cohomology_text(capsys):
    code, out = run(capsys, "cohomology")
    assert code == 0
    assert out == DIMS_TEXT


def test_cohomology_records(capsys):
    code, out = run(capsys, "cohomology", "--output", "records")
    assert code == 0
    assert out == (
        "cohomology\tz1=1\tb2=3\tz2=4\tb3=4\tz3=4\tb4=4\th1=1\th2=1\th3=0\n"
    )


@pytest.mark.parametrize("value", ["2", "3"])
def test_cohomology_specialized(capsys, value):
    code, out = run(capsys, "cohomology", "--specialize", f"A={value}")
    assert code == 0
    assert out == DIMS_TEXT


def test_solve_cocycles(capsys):
    code, out = run(capsys, "solve-cocycles")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == (
        "cocycle 1: [( 0 )/( 1 ), ( 0 )/( 1 ), ( 0 )/( 1 ), ( -1 )/( 1 ), "
        "( 1 )/( 1 ), ( 0 )/( 1 ), ( 0 )/( 1 ), ( 0 )/( 1 )]"
    )
    assert lines[1].startswith("cocycle 2: [( 0 )/( 1 ), ( 0 )/( 1 ), ( A^-2 )/( 1 )")


def test_deform_bundled_cocycle(capsys):
    code, out = run(capsys, "deform", "--cocycle", "xy")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("beta_t = ")
    assert lines[2] == "deformed switchback: OK"


def test_deform_non_cocycle_reports_obstruction(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("phi1 = 1, 0, 0, 0\nphi2 = 0; 0; 0; 0\n")
    code, out = run(capsys, "deform", "--cocycle", str(cfg))
    assert code == 1
    lines = out.splitlines()
    assert "deformed switchback: FAIL" in lines
    assert any(line.startswith("obstruction xi1 = ") for line in lines)
    assert any(line.startswith("obstruction xi2 = ") for line in lines)
    assert lines[-1] == "FAIL: deformation does not satisfy the switchback conditions"


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_invariant_with_oracle(capsys):
    code, out = run(
        capsys, "invariant", "--braid", "s1 s1 s1", "--compare-oracle"
    )
    assert code == 0
    assert out == (
        "s1 s1 s1\t( -A^-16 + A^-12 + A^-4 )/( 1 )\n"
        "oracle s1 s1 s1: match\n"
    )


def test_invariant_records(capsys):
    code, out = run(
        capsys, "invariant", "--braid", "s1 s2^-1 s1 s2^-1", "--output", "records"
    )
    assert code == 0
    assert out == (
        "invariant\tword=s1 s2^-1 s1 s2^-1\t"
        "value=( A^-8 - A^-4 + 1 - A^4 + A^8 )/( 1 )\n"
    )


def test_jones_oracle(capsys):
    code, out = run(capsys, "jones-oracle", "--braid", "s1 s1 s1")
    assert code == 0
    assert out == "s1 s1 s1\t-A^-16 + A^-12 + A^-4\n"
    code, out = run(
        capsys, "jones-oracle", "--braid", "s1 s1 s1", "--output", "records"
    )
    assert out == "invariant\tword=s1 s1 s1\tvalue=-A^-16 + A^-12 + A^-4\n"


def test_compare_default_corpus(capsys):
    code, out = run(capsys, "compare")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all checks: OK"
    assert "ell^2 = c^4: true; delta0 = -(c + c^-1): true" in lines
    assert sum(1 for line in lines if line.startswith("skein at first letter")) == 3


def test_compare_deformed(capsys):
    code, out = run(capsys, "compare", "--cocycle", "yy")
    assert code == 0
    assert out.splitlines()[-1] == "all checks: OK"


# ---------------------------------------------------------------------------
# failure modes and determinism
# ---------------------------------------------------------------------------


def test_missing_fixture_is_an_error(capsys):
    code, out = run(capsys, "verify-switchback", "--pair", "nope")
    assert code == 2
    assert out == "FAIL: no such file or bundled fixture: nope\n"


def test_bad_braid_is_an_error(capsys):
    code, out = run(capsys, "invariant", "--braid", "z9")
    assert code == 2
    assert out.startswith("FAIL: ")


@pytest.mark.parametrize("argv", [
    ("invariant", "--braid", "s30"),
    ("compare", "--braid", "s30"),
    ("tl-check", "--strands", "30"),
])
def test_too_many_strands_fail_up_front(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    strands = 31 if "--braid" in argv else 30
    assert out == f"FAIL: {strands} strands is more than the limit of 10\n"


@pytest.mark.parametrize("argv, reason", [
    (("check-d2d1", "assoc", "--model", "dualnumbers", "--trials", "0"),
     "--trials must be at least 1, got 0"),
    (("check-d2d1", "assoc", "--model", "dualnumbers", "--trials", "-3"),
     "--trials must be at least 1, got -3"),
    (("tl-check", "--strands", "1"), "--strands must be at least 2, got 1"),
    (("tl-check", "--strands", "-4"), "--strands must be at least 2, got -4"),
])
def test_vacuous_checks_are_rejected(capsys, argv, reason):
    # a check over no trials or no relation must not report success
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == f"FAIL: {reason}\n"


@pytest.mark.parametrize("argv, reason", [
    (("check-d2d1", "assoc", "--identity", "nosuch", "--model", "dualnumbers"),
     "no identity labelled 'nosuch'"),
    (("check-d2d1", "assoc", "--model", "bracket", "--trials", "1"),
     "no assignment for symbol mu"),
])
def test_unknown_names_are_errors(capsys, argv, reason):
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == f"FAIL: {reason}\n"


def test_a_stray_key_error_is_not_reported_as_bad_input(capsys, monkeypatch):
    def broken(pair):
        raise KeyError("a programming error")

    monkeypatch.setattr(cli, "cohomology_dims", broken)
    with pytest.raises(KeyError, match="a programming error"):
        main(["cohomology"])
    assert capsys.readouterr().out == ""


def test_deform_rejects_a_pair_that_is_not_switchback(capsys, tmp_path):
    pair = tmp_path / "broken.pair"
    pair.write_text(
        "dimension = 2\nring = gauss\nbeta = 1, 0, 0, 1\ngamma = 1; 0; 0; 2\n"
    )
    cocycle = tmp_path / "zero.cfg"
    cocycle.write_text("phi1 = 0, 0, 0, 0\nphi2 = 0; 0; 0; 0\n")
    code, out = run(capsys, "deform", "--pair", str(pair), "--cocycle", str(cocycle))
    assert code == 2
    assert out.endswith("FAIL: the undeformed pair fails the switchback conditions\n")


def test_bad_specialize_is_an_error(capsys):
    code, out = run(capsys, "cohomology", "--specialize", "B=2")
    assert code == 2
    assert "expected --specialize A=<rational>" in out


def test_records_failure_mode(capsys):
    code, out = run(
        capsys, "verify-switchback", "--pair", "nope", "--output", "records"
    )
    assert code == 2
    assert out == "fail\treason=no such file or bundled fixture: nope\n"


def test_output_is_deterministic(capsys):
    _, first = run(capsys, "compare")
    _, second = run(capsys, "compare")
    assert first == second
    _, first = run(capsys, "solve-cocycles")
    _, second = run(capsys, "solve-cocycles")
    assert first == second
