"""DSL parsing, elaboration, infiltration, and the d2d1 vanishing check."""

import random
from pathlib import Path

import pytest

from skeinlab.identities import (
    COCHAIN,
    ArityError,
    Compose,
    DslSyntaxError,
    FormalSum,
    Id,
    IdentityNotSatisfiedError,
    Sym,
    Tensor,
    UnknownNameError,
    X_SWAP,
    canonicalize,
    check_d2d1,
    elaborate,
    evaluate,
    infiltrate,
    one_differential,
    parse_identity,
    parse_identity_file,
    to_text,
)
from skeinlab.linmap import LinearMap
from skeinlab.scalars import GAUSS
from skeinlab.switchback import make_bracket_pair

FIXTURES = Path(__file__).parent.parent / "src" / "skeinlab" / "fixtures"


def _fixture(name: str):
    return parse_identity_file((FIXTURES / name).read_text())


def _differential(idf, label: str) -> FormalSum:
    return infiltrate(elaborate(idf.identity(label))).differential.canonical()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_fixture_files_parse():
    expected = {
        "assoc.idl": ({"mu": (2, 1)}, ["assoc"]),
        "bialgebra.idl": ({"mu": (2, 1), "Delta": (1, 2)}, ["b1", "b2", "b3"]),
        "switchback.idl": ({"beta": (2, 0), "gamma": (0, 2)}, ["s1", "s2"]),
        "adjoint.idl": ({"Fa": (2, 1), "mu": (2, 1), "Delta": (1, 2)}, ["a1", "a2"]),
        "selfdist.idl": ({"Fs": (2, 1), "Delta": (1, 2)}, ["sd"]),
    }
    for name, (gens, labels) in expected.items():
        idf = _fixture(name)
        assert idf.gens == gens
        assert [i.label for i in idf.identities] == labels


def test_parse_error_positions():
    with pytest.raises(DslSyntaxError) as e:
        parse_identity("gen mu: 2 -> 1;\nidentity a: mu = ;")
    assert "line 2" in str(e.value)


def test_reserved_names_rejected():
    for bad in ("id", "X", "x", "t", "phi", "gen", "identity"):
        with pytest.raises(DslSyntaxError):
            parse_identity(f"gen {bad}: 2 -> 1; identity a: {bad} = {bad};")


def test_arity_checked_at_parse():
    with pytest.raises(ArityError):
        parse_identity("gen mu: 2 -> 1; identity a: mu*mu = mu*mu;")
    with pytest.raises(ArityError):
        parse_identity("gen mu: 2 -> 1; identity a: mu = mu*(mu x id);")


def test_unknown_symbol_rejected():
    with pytest.raises(DslSyntaxError):
        parse_identity("gen mu: 2 -> 1; identity a: nu*(mu x id) = mu*(id x mu);")


def test_text_roundtrip_through_parser():
    for name in ("assoc.idl", "bialgebra.idl", "switchback.idl",
                 "adjoint.idl", "selfdist.idl"):
        idf = _fixture(name)
        decls = "".join(
            f"gen {g}: {p} -> {q};\n" for g, (p, q) in idf.gens.items()
        )
        body = "".join(
            f"identity {i.label}: {to_text(i.lhs)} = {to_text(i.rhs)};\n"
            for i in idf.identities
        )
        again = parse_identity_file(decls + body)
        for a, b in zip(idf.identities, again.identities):
            assert canonicalize(a.lhs) == canonicalize(b.lhs)
            assert canonicalize(a.rhs) == canonicalize(b.rhs)


# ---------------------------------------------------------------------------
# elaboration and infiltration
# ---------------------------------------------------------------------------


def test_elaborate_numbers_occurrences_per_side():
    idf = _fixture("bialgebra.idl")
    plan = elaborate(idf.identity("b3"))
    assert plan.lhs_counts == {"Delta": 1, "mu": 1}
    assert plan.rhs_counts == {"Delta": 2, "mu": 2}
    assert "mu#1 x mu#2" in to_text(plan.rhs)
    assert "Delta#1 x Delta#2" in to_text(plan.rhs)


def _phi(name, p, q):
    return Sym(name, p, q, role=COCHAIN)


def test_assoc_differential():
    mu, fmu, one = Sym("mu", 2, 1), _phi("mu", 2, 1), Id(1)
    expected = FormalSum((
        (1, Compose((fmu, Tensor((mu, one))))),
        (1, Compose((mu, Tensor((fmu, one))))),
        (-1, Compose((fmu, Tensor((one, mu))))),
        (-1, Compose((mu, Tensor((one, fmu))))),
    )).canonical()
    assert _differential(_fixture("assoc.idl"), "assoc") == expected


def test_switchback_differentials():
    beta, gamma = Sym("beta", 2, 0), Sym("gamma", 0, 2)
    fb, fg, one = _phi("beta", 2, 0), _phi("gamma", 0, 2), Id(1)
    d22 = FormalSum((
        (1, Compose((Tensor((one, fb)), Tensor((gamma, one))))),
        (1, Compose((Tensor((one, beta)), Tensor((fg, one))))),
    )).canonical()
    d21 = FormalSum((
        (1, Compose((Tensor((fb, one)), Tensor((one, gamma))))),
        (1, Compose((Tensor((beta, one)), Tensor((one, fg))))),
    )).canonical()
    idf = _fixture("switchback.idl")
    assert _differential(idf, "s1") == d22
    assert _differential(idf, "s2") == d21


def test_bialgebra_differentials():
    mu, de = Sym("mu", 2, 1), Sym("Delta", 1, 2)
    fmu, fde, one = _phi("mu", 2, 1), _phi("Delta", 1, 2), Id(1)
    mid = Tensor((one, X_SWAP, one))

    b2 = FormalSum((
        (1, Compose((Tensor((one, fde)), de))),
        (1, Compose((Tensor((one, de)), fde))),
        (-1, Compose((Tensor((fde, one)), de))),
        (-1, Compose((Tensor((de, one)), fde))),
    )).canonical()

    def rhs3(top_l, top_r, bot_l, bot_r):
        return Compose((Tensor((top_l, top_r)), mid, Tensor((bot_l, bot_r))))

    b3 = FormalSum((
        (1, Compose((fde, mu))),
        (1, Compose((de, fmu))),
        (-1, rhs3(fmu, mu, de, de)),
        (-1, rhs3(mu, fmu, de, de)),
        (-1, rhs3(mu, mu, fde, de)),
        (-1, rhs3(mu, mu, de, fde)),
    )).canonical()

    idf = _fixture("bialgebra.idl")
    assert _differential(idf, "b1") == _differential(_fixture("assoc.idl"), "assoc")
    assert _differential(idf, "b2") == b2
    assert _differential(idf, "b3") == b3


def _count_cochains(expr) -> int:
    if isinstance(expr, Sym):
        return 1 if expr.role == COCHAIN else 0
    if isinstance(expr, (Tensor, Compose)):
        return sum(_count_cochains(p) for p in expr.parts)
    return 0


def test_each_term_has_exactly_one_cochain():
    for name in ("assoc.idl", "bialgebra.idl", "switchback.idl",
                 "adjoint.idl", "selfdist.idl"):
        idf = _fixture(name)
        for ident in idf.identities:
            diff = _differential(idf, ident.label)
            occurrences = sum(
                counts.get(g, 0)
                for counts in (elaborate(ident).lhs_counts, elaborate(ident).rhs_counts)
                for g in ident.gens
            )
            assert len(diff.terms) == occurrences
            for coeff, term in diff.terms:
                assert abs(coeff) == 1
                assert _count_cochains(term) == 1


def test_formal_sum_algebra():
    idf = _fixture("switchback.idl")
    d1 = _differential(idf, "s1")
    d2 = _differential(idf, "s2")
    assert (d1 + d2) - d2 == d1
    assert (d1 - d1).canonical().terms == ()
    assert -(-d1) == d1


def test_one_differential_signs():
    f = Sym("f", 1, 1, role="marked")
    mu, one = Sym("mu", 2, 1), Id(1)
    expected = FormalSum((
        (1, Compose((f, mu))),
        (-1, Compose((mu, Tensor((f, one))))),
        (-1, Compose((mu, Tensor((one, f))))),
    )).canonical()
    assert one_differential("mu", 2, 1).canonical() == expected

    gamma = Sym("gamma", 0, 2)
    expected_g = FormalSum((
        (1, Compose((Tensor((f, one)), gamma))),
        (1, Compose((Tensor((one, f)), gamma))),
    )).canonical()
    assert one_differential("gamma", 0, 2).canonical() == expected_g

    beta = Sym("beta", 2, 0)
    expected_b = FormalSum((
        (-1, Compose((beta, Tensor((f, one))))),
        (-1, Compose((beta, Tensor((one, f))))),
    )).canonical()
    assert one_differential("beta", 2, 0).canonical() == expected_b


# ---------------------------------------------------------------------------
# evaluation and the vanishing check
# ---------------------------------------------------------------------------


def _dualnumbers_mu():
    rows = [[1, 0, 0, 0], [0, 1, 1, 0]]
    return LinearMap.from_rows(
        2, 2, 1, GAUSS, [[GAUSS.from_int(e) for e in r] for r in rows]
    )


def _random_f(rng, ring=GAUSS):
    rows = [[ring.from_int(rng.randint(-9, 9)) for _ in range(2)] for _ in range(2)]
    return LinearMap.from_rows(2, 1, 1, ring, rows)


def test_check_d2d1_assoc_on_dualnumbers():
    ident = _fixture("assoc.idl").identity("assoc")
    rng = random.Random(0)
    assignment = {"mu": _dualnumbers_mu()}
    for _ in range(10):
        assert check_d2d1(ident, assignment, _random_f(rng))


def test_check_d2d1_switchback_on_bracket():
    pair = make_bracket_pair()
    assignment = {"beta": pair.pairing, "gamma": pair.copairing}
    rng = random.Random(1)
    for label in ("s1", "s2"):
        ident = _fixture("switchback.idl").identity(label)
        for _ in range(10):
            assert check_d2d1(ident, assignment, _random_f(rng, pair.ring))


def test_d2d1_gates_on_the_hypothesis():
    ident = _fixture("assoc.idl").identity("assoc")
    # a generic bilinear map is not associative
    bad = LinearMap.from_rows(
        2, 2, 1, GAUSS,
        [[GAUSS.from_int(e) for e in r] for r in [[1, 2, 0, 0], [0, 0, 3, 1]]],
    )
    with pytest.raises(IdentityNotSatisfiedError):
        check_d2d1(ident, {"mu": bad}, _random_f(random.Random(2)))


def test_evaluate_infiltration_matches_identity_difference():
    # with the cochain bound to the generator itself, each side's terms sum
    # to (number of occurrences) * side, so the differential evaluates to
    # (lhs_count - rhs_count) * (lhs - rhs) ... for a satisfied identity: 0
    pair = make_bracket_pair()
    idf = _fixture("switchback.idl")
    for label in ("s1", "s2"):
        inf = infiltrate(elaborate(idf.identity(label)))
        value = evaluate(
            inf.differential,
            {"beta": pair.pairing, "gamma": pair.copairing},
            cochain={"beta": pair.pairing, "gamma": pair.copairing},
        )
        two = LinearMap.identity(2, 1, pair.ring).scale(pair.ring.from_int(2))
        assert value == two


def test_evaluate_missing_binding():
    idf = _fixture("assoc.idl")
    inf = infiltrate(elaborate(idf.identity("assoc")))
    with pytest.raises(UnknownNameError):
        evaluate(inf.differential, {"mu": _dualnumbers_mu()})


def test_evaluate_arity_mismatch():
    idf = _fixture("assoc.idl")
    inf = infiltrate(elaborate(idf.identity("assoc")))
    wrong = _random_f(random.Random(3))  # 1 -> 1, but mu is declared 2 -> 1
    with pytest.raises(ArityError):
        evaluate(inf.differential, {"mu": wrong}, cochain={"mu": wrong})
