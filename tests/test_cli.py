"""End-to-end command-line checks: golden output, record mode, exit codes."""

import argparse
from dataclasses import replace
from pathlib import Path

import pytest

from skeinlab import braid, cli
from skeinlab.cli import main
from skeinlab.scalars import RATFUN, A, GaussRat, ScalarError, into_ring, ring_by_name
from skeinlab.switchback import (
    deform,
    format_matrix,
    make_bracket_pair,
    parse_cocycle_config,
    parse_pair_config,
)

from reference import zigzags

FIXTURES = Path(__file__).parent.parent / "src" / "skeinlab" / "fixtures"


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


def _switchback_pairs():
    """Passing and failing pairs over gauss, laurent, ratfun and
    dual-ratfun: the bracket pair, at A = 2 over gauss, and the same pair
    with its copairing scaled or deformed by a slope that is no cocycle."""
    laurent = make_bracket_pair()
    ratfun = make_bracket_pair(RATFUN)
    gauss = laurent.specialize(GaussRat(2))
    phi = parse_cocycle_config((FIXTURES / "cocycle_yx.cfg").read_text(), ratfun)
    for pair, scale in ((gauss, GaussRat(2)), (laurent, A), (ratfun, A)):
        yield pair
        yield replace(pair, copairing=pair.copairing.scale(into_ring(scale, pair.ring)))
    yield deform(ratfun, *phi)
    yield deform(ratfun, phi[0], phi[1].scale(into_ring(A, ratfun.ring)))


def test_verify_switchback_records_are_the_two_zigzag_verdicts(capsys, tmp_path):
    rings, verdicts = set(), set()
    for k, pair in enumerate(_switchback_pairs()):
        path = tmp_path / f"{k}.pair"
        path.write_text(
            f"dimension = {pair.d}\nring = {pair.ring}\n"
            f"beta = {format_matrix(pair.pairing)}\ngamma = {format_matrix(pair.copairing)}\n"
        )
        code, out = run(capsys, "verify-switchback", "--pair", str(path), "--output", "records")
        one = pair.id1()
        expected = [z == one for z in zigzags(pair.pairing, pair.copairing)]
        assert [line for line in out.splitlines() if line.startswith("switchback\t")] == [
            f"switchback\tcondition={c}\tok={str(ok).lower()}"
            for c, ok in enumerate(expected, 1)
        ]
        assert code == (0 if all(expected) else 1)
        rings.add(str(pair.ring))
        verdicts.add(tuple(expected))
    assert rings == {"gauss", "laurent", "ratfun", "dual-ratfun"}
    assert verdicts == {(True, True), (False, False)}


def test_a_bad_ring_name_names_the_pair_file(capsys, tmp_path):
    cfg = tmp_path / "typo.pair"
    cfg.write_text("dimension = 2\nring = gaus\nbeta = 1, 0, 0, 1\ngamma = 1; 0; 0; 1\n")
    code, out = run(capsys, "verify-switchback", "--pair", str(cfg))
    assert code == 2
    assert out == f"FAIL: {cfg}: ring: unknown ring name 'gaus'\n"
    with pytest.raises(ScalarError) as refused:
        parse_pair_config(cfg.read_text(), str(cfg))
    assert type(refused.value) is ScalarError


@pytest.mark.parametrize("mode, expected", [
    ("text", "FAIL: the pair fails the switchback conditions\n"),
    ("records", "fail\treason=the pair fails the switchback conditions\n"),
])
def test_solve_cocycles_refuses_a_pair_that_is_not_switchback(capsys, mode, expected):
    broken = Path(__file__).parent / "golden" / "broken.pair"
    code, out = run(capsys, "solve-cocycles", "--pair", str(broken), "--output", mode)
    assert (code, out) == (2, expected)


@pytest.mark.parametrize("mode, expected", [
    ("text", "FAIL: the pair fails the switchback conditions\n"),
    ("records", "fail\treason=the pair fails the switchback conditions\n"),
])
def test_cohomology_refuses_a_pair_that_is_not_switchback(capsys, mode, expected):
    broken = Path(__file__).parent / "golden" / "broken.pair"
    code, out = run(capsys, "cohomology", "--pair", str(broken), "--output", mode)
    assert (code, out) == (2, expected)


def test_verify_ybe(capsys):
    code, out = run(capsys, "verify-ybe")
    assert code == 0
    assert out == "ybe residual zero: true\n"


def test_verify_ybe_deformed(capsys):
    code, out = run(capsys, "verify-ybe", "--cocycle", "xy")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("a = ")
    assert "t*(" in lines[0]
    assert lines[1].startswith("b = ")
    assert lines[2] == "ybe residual zero: true"


@pytest.mark.parametrize("cocycle", [None, "xx", "xy", "yx", "yy"])
def test_verify_ybe_builds_no_twist(capsys, monkeypatch, cocycle):
    # the Yang-Baxter equation reads R alone
    def build(*args):
        pytest.fail("the twist or the Turaev data were built")

    monkeypatch.setattr(cli, "make_turaev", build)
    monkeypatch.setattr(braid, "make_nu", build)
    code, out = run(capsys, "verify-ybe", *(("--cocycle", cocycle) if cocycle else ()))
    assert code == 0
    assert out.endswith("ybe residual zero: true\n")


def test_verify_ybe_refuses_a_pair_too_wide_for_three_strands(capsys, monkeypatch, tmp_path):
    # the equation lives on V^3, 1331 dimensions at d = 11: refused before R
    # is built
    def build(*args):
        pytest.fail("R was built")

    monkeypatch.setattr(cli, "build_R", build)
    pair = tmp_path / "wide.pair"
    pair.write_text("dimension = 11\nring = gauss\n"
                    f"beta = {', '.join(['0'] * 121)}\ngamma = {'; '.join(['0'] * 121)}\n")
    code, out = run(capsys, "verify-ybe", "--pair", str(pair), "--a=1", "--b=1")
    assert (code, out) == (2, "FAIL: 3 strands is more than the limit of 2\n")


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


def test_check_d2d1_needs_only_the_generators_an_identity_places(capsys):
    # b1 is associativity of mu alone; b2 places Delta, which dualnumbers lacks
    for mode, ok, fail in (
        ("text", "check-d2d1 b1: OK (5 random f)\n", "FAIL: no assignment for symbol Delta\n"),
        ("records", "check-d2d1\tidentity=b1\tok=true\n",
         "fail\treason=no assignment for symbol Delta\n"),
    ):
        args = ("check-d2d1", "bialgebra", "--model", "dualnumbers", "--output", mode)
        assert run(capsys, *args, "--identity", "b1") == (0, ok)
        assert run(capsys, *args, "--identity", "b2") == (2, fail)


@pytest.mark.parametrize("text, label", [
    # no generator occurrence: the 2-differential is the empty sum
    ("gen mu: 2 -> 1;\nidentity swap2: X*X = id x id;\n", "swap2"),
    # a 0 -> 0 generator induces the empty 1-differential
    ("gen mu: 2 -> 1;\ngen c: 0 -> 0;\n"
     "identity assoc: mu*(mu x id) = mu*(id x mu);\n", "assoc"),
])
def test_check_d2d1_evaluates_empty_sums_as_zero(capsys, tmp_path, text, label):
    idl = tmp_path / "empty.idl"
    idl.write_text(text)
    code, out = run(capsys, "check-d2d1", str(idl), "--model", "dualnumbers")
    assert code == 0
    assert out == f"check-d2d1 {label}: OK (5 random f)\n"


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


def test_deform_prints_the_whole_obstruction(capsys, tmp_path):
    # phi1 = e_xx, phi2 = 0: xi1 = (Phi1 G)^T and xi2 = G Phi1 with
    # G = [[0, iA], [-iA^-1, 0]], both whole 2 x 2 maps
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("phi1 = 1, 0, 0, 0\nphi2 = 0; 0; 0; 0\n")
    code, out = run(capsys, "deform", "--cocycle", str(cfg))
    assert code == 1
    lines = out.splitlines()
    assert "obstruction xi1 = 0, 0; i*A, 0" in lines
    assert "obstruction xi2 = 0, 0; -i*A^-1, 0" in lines


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


def test_consecutive_calls_share_the_parser_but_no_state(capsys):
    assert cli._parser() is cli._parser()
    code, out = run(capsys, "jones-oracle", "--braid", "s1 s1 s1", "--braid", "s1",
                    "--output", "records")
    assert code == 0
    assert out == (
        "invariant\tword=s1 s1 s1\tvalue=-A^-16 + A^-12 + A^-4\n"
        "invariant\tword=s1\tvalue=1\n"
    )
    # no call's words, output mode or flags carry over to the next
    code, out = run(capsys, "jones-oracle", "--braid", "s1^-1 s1^-1 s1^-1")
    assert code == 0
    assert out == "s1^-1 s1^-1 s1^-1\tA^4 + A^12 - A^16\n"
    code, out = run(capsys, "invariant", "--braid", "s1 s1 s1", "--compare-oracle")
    assert code == 0
    assert out == "s1 s1 s1\t( -A^-16 + A^-12 + A^-4 )/( 1 )\noracle s1 s1 s1: match\n"
    code, out = run(capsys, "invariant", "--braid", "s1 s1 s1", "--output", "records")
    assert code == 0
    assert out == "invariant\tword=s1 s1 s1\tvalue=( -A^-16 + A^-12 + A^-4 )/( 1 )\n"


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


def test_specialized_pair_checks_the_specialized_oracle(capsys):
    # the oracle is specialized at the same A as the pair: V(2) = 4111/65536
    coeffs = ("--specialize", "A=2", "--a", "2", "--b", "1/2")
    code, out = run(capsys, "invariant", *coeffs, "--braid", "s1 s1 s1", "--compare-oracle")
    assert code == 0
    assert out == "s1 s1 s1\t4111/65536\noracle s1 s1 s1: match\n"
    code, out = run(capsys, "compare", *coeffs)
    assert code == 0
    assert out.splitlines()[-1] == "all checks: OK"


def test_specialized_pair_defaults_to_the_specialized_gauge(capsys):
    # without --a/--b the gauge a = A, b = A^-1 is taken at the same A
    word = ("--braid", "s1 s1 s1", "--compare-oracle")
    code, out = run(capsys, "invariant", "--specialize", "A=2", *word)
    assert code == 0
    assert out == run(capsys, "invariant", "--specialize", "A=2", "--a", "2", "--b", "1/2", *word)[1]


def test_specialized_coefficients_may_be_written_in_A(capsys):
    # --a/--b are read in the generic A and taken at the pair's A
    argv = ("invariant", "--specialize", "A=2", "--braid", "s1")
    code, out = run(capsys, *argv, "--a", "A")
    assert code == 0
    assert out == run(capsys, *argv, "--a", "2")[1]


def test_bundled_cocycle_loads_on_a_specialized_pair(capsys):
    code, out = run(capsys, "deform", "--specialize", "A=2", "--cocycle", "xy")
    assert code == 0
    assert out.splitlines()[-1] == "deformed switchback: OK"
    code, out = run(
        capsys, "invariant", "--specialize", "A=2", "--a", "2", "--b", "1/2",
        "--cocycle", "xy", "--braid", "s1 s1 s1", "--compare-oracle",
    )
    assert code == 0
    # the generic deformed value -A^-16 + A^-12 + A^-4 + t*(-8i A^-17 + 6i A^-13
    # + 2i A^-5) at A = 2
    assert out == (
        "s1 s1 s1\t4111/65536 + t*( 1035/16384i )\n"
        "oracle s1 s1 s1: match\n"
    )


# ---------------------------------------------------------------------------
# failure modes and determinism
# ---------------------------------------------------------------------------


def test_a_dual_literal_with_zero_slope_is_its_body(capsys):
    # A + t*( 0 ) is exactly A, so it lands in the pair's ring as A does
    code, out = run(capsys, "invariant", "--a", "A + t*( 0 )", "--braid", "s1 s1 s1")
    assert code == 0
    assert out == run(capsys, "invariant", "--a", "A", "--braid", "s1 s1 s1")[1]


def test_ring_moves_the_pair_down_only_where_exact(capsys, tmp_path):
    code, out = run(capsys, "verify-switchback", "--ring", "gauss")
    assert code == 2
    assert out == "FAIL: i*A involves A; not a Gaussian rational\n"
    pair = tmp_path / "ratfun.pair"
    pair.write_text("dimension = 2\nring = ratfun\nbeta = 1, 0, 0, 1\ngamma = 1; 0; 0; 1\n")
    code, out = run(capsys, "verify-switchback", "--pair", str(pair), "--ring", "gauss")
    assert code == 0 and out.count(": OK\n") == 2


def test_missing_fixture_is_an_error(capsys):
    code, out = run(capsys, "verify-switchback", "--pair", "nope")
    assert code == 2
    assert out == "FAIL: no such file or bundled fixture: nope\n"
    # a cocycle is also looked up as a bundled cocycle_<name>, but the
    # message names the argument as given
    code, out = run(capsys, "deform", "--cocycle", "nosuch")
    assert code == 2
    assert out == "FAIL: no such file or bundled fixture: nosuch\n"


def test_bad_braid_is_an_error(capsys):
    code, out = run(capsys, "invariant", "--braid", "z9")
    assert code == 2
    assert out.startswith("FAIL: ")


@pytest.mark.parametrize("argv", [
    ("invariant", "--braid", "s30"),
    ("compare", "--braid", "s30"),
    ("tl-check", "--strands", "30"),
    ("jones-oracle", "--braid", "s11"),
])
def test_too_many_strands_fail_up_front(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    strands = int(argv[2][1:]) + 1 if "--braid" in argv else int(argv[2])
    assert out == f"FAIL: {strands} strands is more than the limit of 10\n"


def test_strand_limit_at_the_boundary_for_d2(capsys):
    # 2^10 = MAX_DIM: ten strands are built, eleven are refused; the oracle
    # keeps the limit of the invariant it is checked against
    for command in ("invariant", "jones-oracle"):
        code, out = run(capsys, command, "--braid", "s9")
        assert code == 0 and out.startswith("s9\t")
        code, out = run(capsys, command, "--braid", "s10")
        assert code == 2
        assert out == "FAIL: 11 strands is more than the limit of 10\n"


def test_strand_limit_at_the_boundary_for_d3(capsys, tmp_path):
    # 3^6 = 729 <= 2^10 < 3^7
    pair = tmp_path / "three.pair"
    pair.write_text(
        "dimension = 3\nring = gauss\n"
        "beta = 1, 0, 0, 0, 1, 0, 0, 0, 1\ngamma = 1; 0; 0; 0; 1; 0; 0; 0; 1\n"
    )
    code, out = run(capsys, "tl-check", "--pair", str(pair), "--strands", "6")
    assert code == 0 and out.splitlines()[-1] == "tl n=6: OK"
    code, out = run(capsys, "tl-check", "--pair", str(pair), "--strands", "7")
    assert code == 2
    assert out == "FAIL: 7 strands is more than the limit of 6\n"


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
    assert out.endswith("FAIL: the pair fails the switchback conditions\n")


def test_turaev_failure_names_the_first_failing_condition(capsys, tmp_path):
    # not a switchback pair, but a and b pass the quadratic condition
    pair = tmp_path / "twisted.pair"
    pair.write_text(
        "dimension = 2\nring = gauss\nbeta = -1, -1, -1, 1\ngamma = 0; 1; 1; 0\n"
    )
    code, out = run(
        capsys, "invariant", "--pair", str(pair), "--a=1", "--b=1", "--braid", "s1"
    )
    assert code == 2
    assert out == "FAIL: R does not commute with the doubled twist\n"


def test_nonpositive_dimension_is_an_error(capsys, tmp_path):
    pair = tmp_path / "minus.pair"
    pair.write_text("dimension = -1\nring = gauss\nbeta = 1\ngamma = 1\n")
    for argv in (("tl-check", "--strands", "3"), ("verify-switchback",), ("cohomology",)):
        code, out = run(capsys, *argv, "--pair", str(pair))
        assert code == 2
        assert out == f"FAIL: {pair}: dimension must be at least 1, got -1\n"


def test_config_files_refuse_keys_they_do_not_define(capsys, tmp_path):
    pair = tmp_path / "typo.pair"
    pair.write_text(
        "dimension = 2\nring = laurent\nbeta = 0, i*A, -i*A^-1, 0\n"
        "gamma = 0; i*A; -i*A^-1; 0\ngama = 1\n"
    )
    code, out = run(capsys, "verify-switchback", "--pair", str(pair))
    assert code == 2
    assert out == f"FAIL: {pair}:5: unknown key 'gama'\n"


@pytest.mark.parametrize("ring", ["laurent", "ratfun"])
def test_the_pair_printed_by_deform_reads_back_as_a_pair_file(capsys, tmp_path, ring):
    # format_matrix writes the literal that the pair parser reads
    code, out = run(capsys, "deform", "--cocycle", "yx", "--ring", ring, "--output", "records")
    assert code == 0
    printed = dict(
        line.split("\t")[1].split("=", 1)
        for line in out.splitlines() if line.startswith("deformed\t")
    )
    path = tmp_path / "deformed.pair"
    path.write_text(
        f"dimension = 2\nring = dual-{ring}\n"
        f"beta = {printed['beta']}\ngamma = {printed['gamma']}\n"
    )
    base = make_bracket_pair(ring_by_name(ring))
    phi = parse_cocycle_config((FIXTURES / "cocycle_yx.cfg").read_text(), base)
    assert parse_pair_config(path.read_text(), str(path)) == deform(base, *phi)


def test_bad_specialize_is_an_error(capsys):
    code, out = run(capsys, "cohomology", "--specialize", "B=2")
    assert code == 2
    assert "expected --specialize A=<rational>" in out


def test_specializing_a_pair_written_at_some_A_is_an_error(capsys, tmp_path):
    # the bracket pair at A = 2 is over gauss; its entries no longer involve A
    pair = tmp_path / "at2.pair"
    pair.write_text(
        "dimension = 2\nring = gauss\nbeta = 0, 2i, -1/2i, 0\ngamma = 0; 2i; -1/2i; 0\n"
    )
    code, out = run(capsys, "verify-ybe", "--pair", str(pair), "--specialize", "A=3/2",
                    "--cocycle", "xy", "--a", "2", "--b", "1/2")
    assert code == 2
    assert out == "FAIL: a pair over gauss has no A to specialize\n"


def test_a_digit_that_int_does_not_read_is_bad_input(capsys, tmp_path):
    code, out = run(capsys, "invariant", "--braid", "s1", "--a", "A^²")
    assert code == 2
    assert out == "FAIL: unexpected character '²' at column 2\n"
    idl = tmp_path / "sup.idl"
    idl.write_text("gen mu: ² -> 1;\n")
    code, out = run(capsys, "infiltrate", str(idl), "--output", "records")
    assert code == 2
    assert out == "fail\treason=line 1, column 9: unexpected '²'\n"


def test_check_d2d1_refuses_too_many_strands_at_once(capsys, tmp_path):
    ids = " x ".join(["id"] * 12)
    idl = tmp_path / "wide.idl"
    idl.write_text(f"identity wide: {ids} = {ids};\n")
    code, out = run(capsys, "check-d2d1", str(idl), "--model", "bracket")
    assert code == 2
    assert out == "FAIL: 12 strands is more than the limit of 10\n"


def test_records_failure_mode(capsys):
    code, out = run(
        capsys, "verify-switchback", "--pair", "nope", "--output", "records"
    )
    assert code == 2
    assert out == "fail\treason=no such file or bundled fixture: nope\n"
    code, out = run(capsys, "deform", "--cocycle", "nosuch", "--output", "records")
    assert code == 2
    assert out == "fail\treason=no such file or bundled fixture: nosuch\n"


def test_output_is_deterministic(capsys):
    _, first = run(capsys, "compare")
    _, second = run(capsys, "compare")
    assert first == second
    _, first = run(capsys, "solve-cocycles")
    _, second = run(capsys, "solve-cocycles")
    assert first == second


# ---------------------------------------------------------------------------
# the accepted options
# ---------------------------------------------------------------------------

_PAIR = "--pair --ring --specialize"
_TURAEV = f"{_PAIR} --cocycle --a --b"

# every option string (and positional) each subcommand accepts, besides -h;
# adding or removing one is a deliberate change of this table
OPTIONS = {
    "infiltrate": "file --identity",
    "check-d2d1": "file --identity --model --trials --seed",
    "verify-switchback": _PAIR,
    "cohomology": _PAIR,
    "solve-cocycles": _PAIR,
    "deform": f"{_PAIR} --cocycle",
    "verify-ybe": _TURAEV,
    "tl-check": f"{_PAIR} --cocycle --strands",
    "invariant": f"{_TURAEV} --braid --compare-oracle",
    "jones-oracle": "--braid",
    "compare": f"{_TURAEV} --braid",
}


def _subparsers():
    action = next(
        a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _accepted(sp):
    return sorted(
        s for a in sp._actions if not isinstance(a, argparse._HelpAction)
        for s in (a.option_strings or [a.dest])
    )


def test_the_option_table_names_every_subcommand():
    assert sorted(_subparsers()) == sorted(OPTIONS)
    assert sum(len(_accepted(sp)) for sp in _subparsers().values()) == 58


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_subcommand_accepts_exactly_its_options(command):
    assert _accepted(_subparsers()[command]) == sorted(f"{OPTIONS[command]} --output".split())


@pytest.mark.parametrize("argv", [
    ("infiltrate", "assoc", "--ring", "ratfun"),
    ("check-d2d1", "assoc", "--model", "dualnumbers", "--specialize", "A=2"),
    ("jones-oracle", "--braid", "s1", "--ring", "ratfun"),
    ("verify-ybe", "--cocycle", "xy", "--deformed"),
    ("infiltrate", "switchback", "--check-d2d1", "--model", "bracket"),
])
def test_options_that_would_do_nothing_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
