"""DSL parsing, elaboration, infiltration, and the d2d1 vanishing check."""

import gc
import random
import weakref
from pathlib import Path

import pytest

from skeinlab import identities
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
    infiltrate,
    one_differential,
    parse_identity_file,
    to_text,
)
from skeinlab.linmap import LinearMap, swap
from skeinlab.rmatrix import RMatrixError
from skeinlab.scalars import A, GAUSS, RATFUN, into_ring
from skeinlab.switchback import make_bracket_pair

from reference import evaluate

FIXTURES = Path(__file__).parent.parent / "src" / "skeinlab" / "fixtures"
IDL = ("assoc.idl", "bialgebra.idl", "switchback.idl", "adjoint.idl", "selfdist.idl")


def _fixture(name: str):
    return parse_identity_file((FIXTURES / name).read_text())


def _differential(idf, label: str) -> FormalSum:
    return infiltrate(elaborate(idf.identity(label))).canonical()


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
        parse_identity_file("gen mu: 2 -> 1;\nidentity a: mu = ;")
    assert "line 2" in str(e.value)


@pytest.mark.parametrize("text, position", [
    ("gen mu: ² -> 1;", "line 1, column 9"),
    ("gen mu: 2 -> 1²;", "line 1, column 15"),
    ("gen mu: 2 -> 1;\n# a comment\n  identity ²a: mu = mu;", "line 3, column 12"),
])
def test_a_digit_that_int_does_not_read_is_a_syntax_error(text, position):
    # '²' is a digit to str.isdigit but not a decimal digit, so int() refuses it
    with pytest.raises(DslSyntaxError, match=f"^{position}: unexpected '²'$"):
        parse_identity_file(text)


def test_end_of_input_is_where_a_trailing_comment_starts():
    with pytest.raises(DslSyntaxError, match="^line 2, column 17: expected ';', found 'end of input'$"):
        parse_identity_file("gen mu: 2 -> 1;\ngen nu: 1 -> 1  # no semicolon")


def test_names_may_contain_digits_and_underscores():
    idf = parse_identity_file("gen _m2²: 2 -> 1; identity a_1: _m2² = _m2²;")
    assert idf.gens == {"_m2²": (2, 1)}
    assert [i.label for i in idf.identities] == ["a_1"]


def test_reserved_names_rejected():
    # f is the marked map that check_d2d1 binds beside the generators
    for bad in ("id", "X", "x", "t", "phi", "gen", "identity", "f"):
        with pytest.raises(DslSyntaxError, match=f"^line 1, column 5: '{bad}' is reserved$"):
            parse_identity_file(f"gen {bad}: 2 -> 1; identity a: {bad} = {bad};")


def test_arity_checked_at_parse():
    with pytest.raises(ArityError):
        parse_identity_file("gen mu: 2 -> 1; identity a: mu*mu = mu*mu;")
    with pytest.raises(ArityError):
        parse_identity_file("gen mu: 2 -> 1; identity a: mu = mu*(mu x id);")


@pytest.mark.parametrize("text, message", [
    # a composition: where its expression starts, innermost first
    ("gen mu: 2 -> 1;\nidentity a: mu*(mu x id) = mu*mu;",
     "line 2, column 28: composition mismatch: mu takes 2 strands but is fed 1"),
    ("gen mu: 2 -> 1;\nidentity a: mu*(id x (mu*mu)) = mu;",
     "line 2, column 23: composition mismatch: mu takes 2 strands but is fed 1"),
    # two sides that differ: at the identity's label
    ("gen mu: 2 -> 1;\nidentity a: mu = id;",
     r"line 2, column 10: identity a: sides have different signatures \(2, 1\) vs \(1, 1\)"),
], ids=["composition", "inner-composition", "sides"])
def test_arity_errors_name_their_position(text, message):
    with pytest.raises(ArityError, match=f"^{message}$"):
        parse_identity_file(text)


def test_parentheses_nest_at_most_200_deep():
    def nested(n):
        return f"gen mu: 2 -> 1;\nidentity a: {'(' * n}mu{')' * n} = mu;"

    assert parse_identity_file(nested(200)).identity("a").lhs == Sym("mu", 2, 1)
    for n in (201, 400):
        with pytest.raises(DslSyntaxError, match="^line 2, column 213: parentheses nested deeper than 200$"):
            parse_identity_file(nested(n))


def test_the_swap_is_a_symbol_that_infiltration_skips():
    assert X_SWAP == Sym("X", 2, 2, role="swap")
    ident = parse_identity_file("gen mu: 2 -> 1;\nidentity c: mu*X = mu*X*X*X;").identity("c")
    plan = elaborate(ident)
    assert plan.lhs == Compose((Sym("mu", 2, 1, occ=1), X_SWAP))
    assert plan.lhs_counts == plan.rhs_counts == {"mu": 1}
    assert infiltrate(plan).to_text() == "phi[mu]*X - phi[mu]*X*X*X"


def test_unknown_symbol_rejected():
    with pytest.raises(DslSyntaxError):
        parse_identity_file("gen mu: 2 -> 1; identity a: nu*(mu x id) = mu*(id x mu);")


@pytest.mark.parametrize("text, message", [
    ("gen mu: 2 -> 1;\ngen mu: 1 -> 1;", "line 2: generator 'mu' redeclared"),
    ("gen mu: 2 -> 1;\nidentity a: mu = mu;\nidentity b: mu = mu;\nidentity a: mu = mu;",
     "line 4: identity 'a' redeclared"),
])
def test_redeclaration_rejected(text, message):
    # a second identity under one label would be unreachable by --identity
    with pytest.raises(DslSyntaxError, match=f"^{message}$"):
        parse_identity_file(text)


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


def test_formal_sum_equality_up_to_nesting_and_identities():
    f, g, h = Sym("f", 1, 1), Sym("g", 1, 1), Sym("h", 1, 1)
    one = lambda e: FormalSum(((1, e),))  # noqa: E731
    assert one(Compose((Compose((f, g)), h))) == one(Compose((f, Compose((g, h)))))
    assert one(Compose((Id(1), f))) == one(f)
    assert one(Tensor((Tensor((f, Id(1))), Id(1)))) == one(Tensor((f, Id(2))))
    assert one(Compose((f, g))) != one(Compose((g, f)))


def test_swap_evaluates_to_the_transposition():
    x = evaluate(X_SWAP, {}, 3, GAUSS)
    assert x == swap(3, GAUSS)
    xx = evaluate(Compose((X_SWAP, X_SWAP)), {}, 3, GAUSS)
    assert xx == LinearMap.identity(3, 2, GAUSS)
    program = identities._Program(
        [{identities._placements(e): 1} for e in (X_SWAP, Compose((X_SWAP, X_SWAP)))], 2, 2
    )
    assert program.values({}, 3, GAUSS) == [x, xx]
    assert canonicalize(Compose((X_SWAP, Id(2)))) == X_SWAP
    assert to_text(Tensor((Id(1), X_SWAP))) == "id x X"


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


def test_check_d2d1_refuses_too_many_strands_before_building(monkeypatch):
    def build(*args):
        pytest.fail("a map was built")

    pair = make_bracket_pair()
    f = _random_f(random.Random(3), pair.ring)
    ids = " x ".join(["id"] * 11)
    (ident,) = parse_identity_file(f"identity wide: {ids} = {ids};").identities
    monkeypatch.setattr(identities, "apply_local", build)
    monkeypatch.setattr(LinearMap, "identity", build)
    with pytest.raises(RMatrixError, match="^11 strands is more than the limit of 10$"):
        check_d2d1(ident, {"beta": pair.pairing}, f)


def _sum(fs, env, d, ring):
    """A nonempty formal sum as a map, term by term through the reference."""
    out = None
    for coeff, expr in fs.terms:
        m = evaluate(expr, env, d, ring).scale(ring.from_int(coeff))
        out = m if out is None else out + m
    return out


def test_evaluate_infiltration_matches_identity_difference():
    # with the cochain bound to the generator itself, each side's terms sum
    # to (number of occurrences) * side, so the differential evaluates to
    # (lhs_count - rhs_count) * (lhs - rhs) ... for a satisfied identity: 0
    pair = make_bracket_pair()
    idf = _fixture("switchback.idl")
    env = {"beta": pair.pairing, "gamma": pair.copairing,
           "phi[beta]": pair.pairing, "phi[gamma]": pair.copairing}
    for label in ("s1", "s2"):
        value = _sum(infiltrate(elaborate(idf.identity(label))), env, 2, pair.ring)
        two = LinearMap.identity(2, 1, pair.ring).scale(pair.ring.from_int(2))
        assert value == two


def test_evaluate_missing_binding():
    # only the generators an identity places need an assignment: b1 is
    # associativity of mu alone, and b2 places Delta
    idf = _fixture("bialgebra.idl")
    f = _random_f(random.Random(4))
    assert check_d2d1(idf.identity("b1"), {"mu": _dualnumbers_mu()}, f)
    with pytest.raises(UnknownNameError, match="^no assignment for symbol Delta$"):
        check_d2d1(idf.identity("b2"), {"mu": _dualnumbers_mu()}, f)
    with pytest.raises(UnknownNameError, match="^no assignment for symbol mu$"):
        check_d2d1(idf.identity("b3"), {}, f)


def test_evaluate_arity_mismatch():
    ident = _fixture("assoc.idl").identity("assoc")
    wrong = _random_f(random.Random(3))  # 1 -> 1, but mu is declared 2 -> 1
    with pytest.raises(ArityError, match=r"^assignment for mu has shape \(d=2, 1->1\), declared 2->1$"):
        check_d2d1(ident, {"mu": wrong}, wrong)
    with pytest.raises(ArityError, match=r"^assignment for f has shape \(d=2, 2->1\), declared 1->1$"):
        check_d2d1(ident, {"mu": _dualnumbers_mu()}, _dualnumbers_mu())


# ---------------------------------------------------------------------------
# the compiled program against the reference
# ---------------------------------------------------------------------------


def _random_map(rng, ring, p, q, d=2):
    """A random map p -> q with small integer entries, half of them zero;
    over ratfun each entry also carries A^e for e in -1..1."""
    def entry():
        c = ring.from_int(rng.choice((0, 0, 0, 1, -1, 2, -3)))
        return c * into_ring(A, ring) ** rng.randint(-1, 1) if ring is RATFUN else c
    return LinearMap.from_rows(d, p, q, ring, [[entry() for _ in range(d**p)] for _ in range(d**q)])


def _bundled_identities():
    return [(name, ident.label) for name in IDL for ident in _fixture(name).identities]


@pytest.mark.parametrize("ring", [GAUSS, RATFUN], ids=["gauss", "ratfun"])
@pytest.mark.parametrize("name, label", _bundled_identities())
def test_program_matches_the_reference(name, label, ring):
    # the program of the 2-differential with every phi bound to a random map,
    # and check_d2d1's own program (lhs - rhs and d2 d1 f) on an assignment
    # that satisfies nothing, entry for entry against the reference
    ident = _fixture(name).identity(label)
    rng = random.Random(f"{label}/{ring.name}")
    env = {}
    for gen, (p, q) in ident.gens.items():
        env[gen] = _random_map(rng, ring, p, q)
        env[f"phi[{gen}]"] = _random_map(rng, ring, p, q)
    env["f"] = _random_f(rng, ring)
    diff = infiltrate(elaborate(ident))
    terms = {}
    for coeff, term in diff.terms:
        identities._collect(terms, identities._placements(term), coeff)
    p, q = identities.signature(ident.lhs)
    (value,) = identities._Program([terms], p, q).values(env, 2, ring)
    assert value == _sum(diff, env, 2, ring)

    gate = evaluate(ident.lhs, env, 2, ring) - evaluate(ident.rhs, env, 2, ring)
    induced = dict(env)
    for gen, (gp, gq) in ident.gens.items():
        induced[f"phi[{gen}]"] = _sum(one_differential(gen, gp, gq), env, 2, ring)
    expected = [gate, _sum(diff, induced, 2, ring)]
    assert not gate.is_zero() and not expected[1].is_zero()
    assert ident._d2d1[1].values(env, 2, ring) == expected


def _counted(monkeypatch, name):
    calls = []
    original = getattr(identities, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(identities, name, counted)
    return calls


@pytest.mark.parametrize("name, label, most", [
    ("switchback.idl", "s1", 6), ("switchback.idl", "s2", 6), ("assoc.idl", "assoc", 15),
])
def test_check_d2d1_places_each_shared_subterm_once(monkeypatch, name, label, most):
    # term by term, s1 and s2 took 14 placements and assoc 18
    ident = _fixture(name).identity(label)
    assignment, ring = _model(name)
    check_d2d1(ident, assignment, _random_f(random.Random(5), ring))
    placements = _counted(monkeypatch, "apply_local")
    assert check_d2d1(ident, assignment, _random_f(random.Random(6), ring))
    assert 0 < len(placements) <= most


def test_check_d2d1_compiles_once_per_identity(monkeypatch):
    compiles = _counted(monkeypatch, "infiltrate")
    ident = _fixture("assoc.idl").identity("assoc")
    rng = random.Random(7)
    for _ in range(10):
        assert check_d2d1(ident, {"mu": _dualnumbers_mu()}, _random_f(rng))
    assert len(compiles) == 1
    # the program lives on the identity and goes with it
    gone = weakref.ref(ident)
    del ident
    gc.collect()
    assert gone() is None


def _model(name):
    if name == "switchback.idl":
        pair = make_bracket_pair()
        return {"beta": pair.pairing, "gamma": pair.copairing}, pair.ring
    return {"mu": _dualnumbers_mu()}, GAUSS


def _mutations(terms):
    """Every single-term mutation of a formal sum's terms: each term
    dropped, then each term with its sign flipped."""
    for i in range(len(terms)):
        yield terms[:i] + terms[i + 1:]
    for i, (coeff, expr) in enumerate(terms):
        yield terms[:i] + ((-coeff, expr),) + terms[i + 1:]


@pytest.mark.parametrize("name", ["switchback.idl", "assoc.idl"])
def test_check_d2d1_catches_a_mutated_infiltration(monkeypatch, name):
    assignment, ring = _model(name)
    original = identities.infiltrate
    caught = 0
    for k, ident in enumerate(_fixture(name).identities):
        for mutated in _mutations(original(elaborate(ident)).terms):
            monkeypatch.setattr(identities, "infiltrate", lambda plan: FormalSum(mutated))
            fresh = _fixture(name).identity(ident.label)
            assert not check_d2d1(fresh, assignment, _random_f(random.Random(k), ring))
            caught += 1
    assert caught == {"switchback.idl": 8, "assoc.idl": 8}[name]


@pytest.mark.parametrize("name", ["switchback.idl", "assoc.idl"])
def test_check_d2d1_catches_a_mutated_one_differential(monkeypatch, name):
    assignment, ring = _model(name)
    original = identities.one_differential
    caught = 0
    for gen, (p, q) in _fixture(name).gens.items():
        for mutated in _mutations(original(gen, p, q).terms):
            def one_differential(g, gp, gq, gen=gen, mutated=mutated):
                return FormalSum(mutated) if g == gen else original(g, gp, gq)

            monkeypatch.setattr(identities, "one_differential", one_differential)
            for k, ident in enumerate(_fixture(name).identities):
                assert not check_d2d1(ident, assignment, _random_f(random.Random(k), ring))
                caught += 1
    assert caught == {"switchback.idl": 16, "assoc.idl": 6}[name]
