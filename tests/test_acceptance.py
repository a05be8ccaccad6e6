"""The acceptance battery.

Thirteen criteria, each a single test with a hard pass/fail line in the
terminal summary.  Everything is exact: no tolerances anywhere.  Where a
criterion carries a runtime budget, exceeding the budget fails it.
"""

import random
import time
from pathlib import Path

from skeinlab.braid import (
    BraidWord,
    compare_with_oracle,
    jones_oracle,
    make_turaev,
    matches_oracle,
    normalized_invariant,
    parse_braid,
    skein_triple_check,
    turaev_first_failure,
)
from skeinlab.identities import (
    COCHAIN,
    Compose,
    FormalSum,
    Id,
    Sym,
    Tensor,
    X_SWAP,
    check_d2d1,
    elaborate,
    infiltrate,
    parse_identity_file,
)
from skeinlab.linmap import LinearMap, compose
from skeinlab.rmatrix import (
    build_R,
    max_strands,
    solve_deformed_coefficients,
    tl_first_failure,
    tl_generators,
    ybe_residual,
)
from skeinlab.scalars import (
    GAUSS,
    LAURENT,
    RATFUN,
    GaussRat,
    dual,
    into_ring,
    parse_scalar,
)
from skeinlab.switchback import (
    C2,
    D3,
    SwitchbackError,
    bracket_cocycle,
    cochain_coords,
    cochain_from_coords,
    cohomology_dims,
    d1_matrix,
    d2,
    d2_matrix,
    d3_matrix,
    deform,
    deformation_obstruction,
    degree2_analysis,
    delta0,
    make_bracket_pair,
    pair_from_matrix,
    solve_2cocycles,
    verify_switchback,
)

from reference import conjugated, kron, stabilized

L = lambda text: parse_scalar(text, LAURENT)  # noqa: E731
RF = lambda text: parse_scalar(text, RATFUN)  # noqa: E731

FIXTURES = Path(__file__).parent.parent / "src" / "skeinlab" / "fixtures"


def _fixture_identities(name):
    return parse_identity_file((FIXTURES / name).read_text())


def _generated(idf, label):
    return infiltrate(elaborate(idf.identity(label))).canonical()


def _phi(name, p, q):
    return Sym(name, p, q, role=COCHAIN)


# ---------------------------------------------------------------------------


def test_criterion_01_bracket_switchback(criterion):
    def body():
        assert verify_switchback(make_bracket_pair())

    criterion(1, "bracket pair satisfies both switchback conditions in A", body,
              budget=1.0)


def test_criterion_02_generated_differentials(criterion):
    def body():
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
        sw = _fixture_identities("switchback.idl")
        assert _generated(sw, "s1") == d22
        assert _generated(sw, "s2") == d21

        mu, fmu = Sym("mu", 2, 1), _phi("mu", 2, 1)
        assoc = FormalSum((
            (1, Compose((fmu, Tensor((mu, one))))),
            (1, Compose((mu, Tensor((fmu, one))))),
            (-1, Compose((fmu, Tensor((one, mu))))),
            (-1, Compose((mu, Tensor((one, fmu))))),
        )).canonical()
        assert _generated(_fixture_identities("assoc.idl"), "assoc") == assoc

        de, fde = Sym("Delta", 1, 2), _phi("Delta", 1, 2)
        mid = Tensor((one, X_SWAP, one))
        b2 = FormalSum((
            (1, Compose((Tensor((one, fde)), de))),
            (1, Compose((Tensor((one, de)), fde))),
            (-1, Compose((Tensor((fde, one)), de))),
            (-1, Compose((Tensor((de, one)), fde))),
        )).canonical()
        rhs3 = lambda tl, tr, bl, br: Compose(  # noqa: E731
            (Tensor((tl, tr)), mid, Tensor((bl, br)))
        )
        b3 = FormalSum((
            (1, Compose((fde, mu))),
            (1, Compose((de, fmu))),
            (-1, rhs3(fmu, mu, de, de)),
            (-1, rhs3(mu, fmu, de, de)),
            (-1, rhs3(mu, mu, fde, de)),
            (-1, rhs3(mu, mu, de, fde)),
        )).canonical()
        bi = _fixture_identities("bialgebra.idl")
        assert _generated(bi, "b1") == assoc
        assert _generated(bi, "b2") == b2
        assert _generated(bi, "b3") == b3

    criterion(2, "generated 2-differentials equal the written-out sums", body)


def test_criterion_03_d2d1_vanishes_on_models(criterion):
    def body():
        rows = [[1, 0, 0, 0], [0, 1, 1, 0]]
        mu = LinearMap.from_rows(
            2, 2, 1, GAUSS, [[GAUSS.from_int(e) for e in r] for r in rows]
        )
        bracket = make_bracket_pair()
        models = [
            ("assoc.idl", {"mu": mu}, GAUSS),
            ("switchback.idl",
             {"beta": bracket.pairing, "gamma": bracket.copairing},
             LAURENT),
        ]
        rng = random.Random(2026)
        for name, assignment, ring in models:
            idf = _fixture_identities(name)
            for ident in idf.identities:
                for _ in range(10):
                    f = LinearMap.from_rows(
                        2, 1, 1, ring,
                        [[ring.from_int(rng.randint(-9, 9)) for _ in range(2)]
                         for _ in range(2)],
                    )
                    assert check_d2d1(ident, assignment, f)

    criterion(3, "d2 after d1 vanishes on both concrete models, 10 random f each",
              body, budget=5.0)


def _random_pair(rng, ring=RATFUN):
    while True:
        rows = [[ring.from_int(rng.randint(-5, 5)) for _ in range(2)]
                for _ in range(2)]
        try:
            return pair_from_matrix(rows, ring)
        except SwitchbackError:
            continue


def test_criterion_04_chain_complex(criterion):
    def body():
        rng = random.Random(40)
        pairs = [make_bracket_pair(RATFUN)] + [_random_pair(rng) for _ in range(5)]
        for pair in pairs:
            m1, m2, m3 = d1_matrix(pair), d2_matrix(pair), d3_matrix(pair)
            zero = pair.ring.zero()
            for left, right in ((m2, m1), (m3, m2)):
                for i in range(len(left)):
                    for j in range(len(right[0])):
                        acc = zero
                        for k in range(len(right)):
                            acc = acc + left[i][k] * right[k][j]
                        assert acc.is_zero()

    criterion(4, "differential matrices compose to zero, bracket and 5 random pairs",
              body)


def test_criterion_05_cohomology_dimensions(criterion):
    def body():
        expected = (1, 3, 4, 4, 4, 4, 1, 1, 0)
        variants = [make_bracket_pair(RATFUN)]
        # rational specializations keeping A^2 + 1 and A^4 - 1 nonzero
        variants += [make_bracket_pair().specialize(GaussRat(v)) for v in (2, 3)]
        for pair in variants:
            dims = cohomology_dims(pair)
            got = (dims.z1, dims.b2, dims.z2, dims.b3, dims.z3, dims.b4,
                   dims.h1, dims.h2, dims.h3)
            assert got == expected

    criterion(5, "cohomology dimensions, generic and at two specializations",
              body, budget=5.0)


def test_criterion_06_cocycle_relations(criterion):
    def body():
        basis = solve_2cocycles(make_bracket_pair(RATFUN))
        assert len(basis) == 4
        a2, am2 = RF("( A^2 )/( 1 )"), RF("( A^-2 )/( 1 )")
        for phi1, phi2 in basis:
            bxx, bxy, byx, byy, gxx, gxy, gyx, gyy = cochain_coords(phi1, phi2)
            assert gyy == -bxx
            assert gxx == -byy
            assert gyx == am2 * bxy
            assert gxy == a2 * byx

    criterion(6, "all four coordinate relations on every 2-cocycle basis vector",
              body)


def test_criterion_07_deformation(criterion):
    def body():
        pair = make_bracket_pair(RATFUN)
        for phi1, phi2 in solve_2cocycles(pair):
            pair_t = deform(pair, phi1, phi2)
            assert pair_t.ring is dual(RATFUN)
            assert verify_switchback(pair_t)
        coords = [RATFUN.zero()] * 8
        coords[3] = RATFUN.one()  # a bare pairing-slope coordinate: not a cocycle
        phi1, phi2 = cochain_from_coords(coords, 2, RATFUN, C2)
        assert not verify_switchback(deform(pair, phi1, phi2))
        xi1, xi2 = deformation_obstruction(pair, phi1, phi2)
        e1, e2 = d2(pair, phi1, phi2)
        assert (xi1 - e1).is_zero() and (xi2 - e2).is_zero()
        assert not xi1.is_zero() or not xi2.is_zero()

    criterion(7, "cocycle deformations pass; non-cocycle obstruction is d2 exactly",
              body)


def test_criterion_08_degree_two(criterion):
    def body():
        pair = make_bracket_pair(RATFUN)
        for phi1, phi2 in solve_2cocycles(pair):
            report = degree2_analysis(pair, phi1, phi2)
            assert report.is_cocycle
            r1, r2 = D3(pair, report.psi1, report.psi2)
            assert r1.is_zero() and r2.is_zero()
            assert report.extension is not None
            e1, e2 = d2(pair, *report.extension)
            assert (e1 + report.psi1).is_zero()
            assert (e2 + report.psi2).is_zero()

    criterion(8, "psi is a 3-cocycle and the degree-2 extension exhibits it",
              body)


def test_criterion_09_yang_baxter(criterion):
    def body():
        rmx = build_R(make_bracket_pair(), L("A"), L("A^-1"))
        assert ybe_residual(rmx.R).is_zero()
        pair = make_bracket_pair(RATFUN)
        factor = RF("( i*A^2 - i*A^-2 )/( 1 )")
        a, a_inv = RF("( A )/( 1 )"), RF("( A^-1 )/( 1 )")
        for phi1, phi2 in solve_2cocycles(pair):
            t0 = time.perf_counter()
            coords = cochain_coords(phi1, phi2)
            pair_t = deform(pair, phi1, phi2)
            a_t, b_t = solve_deformed_coefficients(pair_t)
            assert ybe_residual(build_R(pair_t, a_t, b_t).R).is_zero()
            loop_t = delta0(pair_t)
            assert loop_t.slope == factor * (a_inv * coords[1] + a * coords[2])
            assert time.perf_counter() - t0 < 10.0

    criterion(9, "Yang-Baxter, undeformed and per deformed cocycle with loop slope",
              body)


def test_criterion_10_temperley_lieb(criterion):
    def body():
        pair = make_bracket_pair()
        top = max_strands(pair.d)
        assert top == 10
        for n in range(2, top + 1):
            assert tl_first_failure(tl_generators(pair, n), delta0(pair)) is None
        base = make_bracket_pair(RATFUN)
        for phi1, phi2 in solve_2cocycles(base):
            pair_t = deform(base, phi1, phi2)
            delta_t = delta0(pair_t)
            for n in range(2, top + 1):
                assert tl_first_failure(tl_generators(pair_t, n), delta_t) is None

    criterion(10, "Temperley-Lieb relations to 10 strands, undeformed and deformed",
              body)


def _deformed_turaev(slot="xy"):
    pair = make_bracket_pair(RATFUN)
    coords = [RATFUN.one() if s == slot else RATFUN.zero()
              for s in ("xx", "xy", "yx", "yy")]
    pair_t = deform(pair, *bracket_cocycle(pair, *coords))
    a_t, b_t = solve_deformed_coefficients(pair_t)
    return make_turaev(pair_t, a_t, b_t)


def test_criterion_11_turaev_conditions(criterion):
    def body():
        td = make_turaev(make_bracket_pair(), L("A"), L("A^-1"))
        assert turaev_first_failure(td) is None
        # the two twist-invariance conditions, stated directly
        nn = kron(td.nu, td.nu)
        assert (compose(td.pair.pairing, nn) - td.pair.pairing).is_zero()
        assert (compose(nn, td.pair.copairing) - td.pair.copairing).is_zero()
        for slot in ("xx", "xy", "yx", "yy"):
            assert turaev_first_failure(_deformed_turaev(slot)) is None

    criterion(11, "trace compatibility conditions, undeformed and deformed", body)


CORPUS_12 = [
    ("", 2), ("s1", 2), ("s1^-1", 2), ("s1 s1 s1", 2),
    ("s1^-1 s1^-1 s1^-1", 2), ("s1 s1 s1 s1 s1", 2),
    ("s1 s2^-1 s1 s2^-1", 3), ("s1 s2 s1 s2", 3), ("s2 s1 s2", 3),
    ("s1 s1 s2^-1 s1 s2^-1", 3),
    ("s1 s2 s3", 4), ("s1 s3^-1 s2 s3^-1", 4),
]

NAMED_LINKS = [
    ("", 1), ("", 2), ("s1 s1 s1", 2), ("s1 s2^-1 s1 s2^-1", 3),
    ("s1 s1 s1 s1 s1", 2),
]

SKEIN_WORDS = [
    ("s1 s1 s1", 2), ("s1^-1 s1^-1 s1^-1", 2), ("s1 s2^-1 s1 s2^-1", 3),
    ("s1 s1 s1 s1 s1", 2), ("s2 s1 s2", 3),
]


def test_criterion_12_invariant_battery(criterion):
    def body():
        tds = [
            make_turaev(make_bracket_pair(RATFUN), RF("( A )/( 1 )"),
                        RF("( A^-1 )/( 1 )")),
            _deformed_turaev("xy"),
        ]
        for td in tds:
            # Markov moves on the full corpus
            for text, n in CORPUS_12:
                w = parse_braid(text, n=n)
                base = normalized_invariant(td, w)
                for i in range(1, w.n):
                    for sign in (1, -1):
                        assert normalized_invariant(td, conjugated(w, i, sign)) == base
                for sign in (1, -1):
                    assert normalized_invariant(td, stabilized(w, sign)) == base
            # five skein triples
            for text, n in SKEIN_WORDS:
                w = parse_braid(text, n=n)
                (i, _), rest = w.letters[0], w.letters[1:]
                assert skein_triple_check(
                    td,
                    BraidWord(w.n, ((i, 1), *rest)),
                    BraidWord(w.n, ((i, -1), *rest)),
                    BraidWord(w.n, rest),
                )
        # named links against the oracle, and the deformed constants
        deformed = tds[1]
        report = compare_with_oracle(
            deformed, [parse_braid(t, n=n) for t, n in NAMED_LINKS]
        )
        assert report.all_ok
        assert report.ell_squared_is_c4
        assert report.loop_is_minus_c_plus_cinv
        for text, n in NAMED_LINKS:
            w = parse_braid(text, n=n)
            undeformed_value = normalized_invariant(tds[0], w)
            assert undeformed_value == into_ring(jones_oracle(w), RATFUN)

    criterion(12, "Markov, skein, and oracle battery on the braid corpus", body,
              budget=60.0)


# Every generator once, then random letters: connected closures on ten
# strands, the most the two-dimensional pair allows.
CORPUS_13 = [
    "s5^-1 s9 s6^-1 s7^-1 s2 s8 s3 s1 s4^-1 s3 s3 s2^-1 s9^-1 s4^-1 s5^-1 "
    "s1^-1 s7^-1 s3^-1 s1 s5^-1",
    "s2^-1 s4^-1 s3 s6^-1 s7^-1 s5 s8^-1 s1 s9 s5 s8 s7^-1 s7 s2^-1 s5 "
    "s4^-1 s6^-1 s6^-1 s5 s6^-1",
    "s4 s1^-1 s5^-1 s6^-1 s8 s2^-1 s7^-1 s3 s9 s3 s6 s4^-1 s2 s6^-1 s8^-1 "
    "s6^-1 s5 s7^-1 s5^-1 s6",
]


def test_criterion_13_ten_strand_words_against_the_oracle(criterion):
    def body():
        tds = [
            make_turaev(make_bracket_pair(RATFUN), RF("( A )/( 1 )"),
                        RF("( A^-1 )/( 1 )")),
            _deformed_turaev("xy"),
        ]
        for text in CORPUS_13:
            w = parse_braid(text)
            assert (w.n, len(w.letters)) == (10, 20)
            oracle = into_ring(jones_oracle(w), RATFUN)
            values = [normalized_invariant(td, w) for td in tds]
            for td, value in zip(tds, values):
                assert matches_oracle(td, value, w)
            # undeformed, and the t = 0 body of the deformed value
            assert values[0] == oracle
            assert values[1].body == oracle

    # 1.25-1.55 s on a 2-core x86-64 host (Intel Xeon) under CPython 3.11:
    # 0.8-1.4 s in the packed kernel of normalized_invariant, most of it on
    # the deformed words, 0.33-0.62 s in the whole-value matches_oracle
    # checks and 0.14-0.28 s in the Jones polynomials.  That host's speed
    # swings by up to 2x, and the budget leaves about twenty times its
    # slowest reading
    criterion(13, "ten-strand words of 20 letters against the oracle, ratfun and deformed",
              body, budget=30.0)
