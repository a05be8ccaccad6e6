"""Braid words, the trace invariant, and the oracle comparison."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skeinlab.braid import (
    BraidSyntaxError,
    BraidWord,
    TuraevData,
    TuraevError,
    compare_with_oracle,
    invariant,
    jones_oracle,
    make_nu,
    make_turaev,
    normalized_invariant,
    parse_braid,
    skein_triple_check,
    solve_uv,
    turaev_first_failure,
)
from skeinlab.rmatrix import MAX_STRANDS, RMatrixError, solve_deformed_coefficients
from skeinlab.scalars import LAURENT, RATFUN, dual, parse_scalar, promote
from skeinlab.switchback import bracket_cocycle, deform, make_bracket_pair

L = lambda text: parse_scalar(text, LAURENT)  # noqa: E731

TREFOIL = "s1 s1 s1"
MIRROR_TREFOIL = "s1^-1 s1^-1 s1^-1"
FIGURE_EIGHT = "s1 s2^-1 s1 s2^-1"
CINQUEFOIL = "s1 s1 s1 s1 s1"


def _turaev(ring=LAURENT):
    pair = make_bracket_pair(ring)
    a, b = promote(L("A"), ring), promote(L("A^-1"), ring)
    return make_turaev(pair, a, b)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


def test_parse_braid():
    w = parse_braid(FIGURE_EIGHT)
    assert w.n == 3
    assert w.letters == ((1, 1), (2, -1), (1, 1), (2, -1))
    assert w.writhe == 0
    assert str(w) == FIGURE_EIGHT
    assert parse_braid("", n=2) == BraidWord(2, ())
    assert str(BraidWord(2, ())) == "(empty, 2 strands)"
    assert parse_braid("s1", n=4).n == 4


@pytest.mark.parametrize("text", ["x1", "s1^2", "s1^-2", "s"])
def test_parse_braid_rejects_bad_tokens(text):
    with pytest.raises(BraidSyntaxError, match="bad braid token"):
        parse_braid(text)


def test_braid_word_validation():
    with pytest.raises(BraidSyntaxError, match="out of range"):
        parse_braid("s3", n=2)
    with pytest.raises(BraidSyntaxError, match="strand count"):
        BraidWord(0, ())
    with pytest.raises(BraidSyntaxError, match="bad sign"):
        BraidWord(2, ((1, 5),))


def test_markov_move_constructors():
    w = parse_braid(TREFOIL)
    c = w.conjugated(1, -1)
    assert c.n == w.n and c.writhe == w.writhe
    assert c.letters == ((1, -1), (1, 1), (1, 1), (1, 1), (1, 1))
    s = w.stabilized(-1)
    assert s.n == w.n + 1 and s.writhe == w.writhe - 1
    assert s.letters[-1] == (2, -1)


# ---------------------------------------------------------------------------
# the twist and the trace coefficients
# ---------------------------------------------------------------------------


def test_nu_is_the_diagonal_twist():
    nu = make_nu(make_bracket_pair())
    assert nu.entry(0, 0) == L("-A^2")
    assert nu.entry(1, 1) == L("-A^-2")
    assert nu.entry(0, 1).is_zero() and nu.entry(1, 0).is_zero()


def test_solve_uv_bracket_values():
    td = _turaev()
    assert td.u == L("-A^3")
    assert td.v == LAURENT.one()
    assert turaev_first_failure(td) is None


def test_solve_uv_rejects_wrong_twist():
    td = _turaev()
    with pytest.raises(TuraevError, match="not a multiple"):
        solve_uv(td.rmx, td.pair.id1())
    with pytest.raises(TuraevError, match="delta0"):
        solve_uv(td.rmx, td.nu.scale(L("A")))


def test_turaev_first_failure_reports_broken_u():
    td = _turaev()
    broken = TuraevData(td.rmx, td.nu, td.u * L("A"), td.v)
    assert turaev_first_failure(broken) == "Tr_2(R (nu x nu)) != u*v*nu"


# ---------------------------------------------------------------------------
# invariant values against the oracle
# ---------------------------------------------------------------------------

KNOWN_VALUES = [
    ("", 1, "1"),
    ("", 2, "-A^-2 - A^2"),
    ("s1", 2, "1"),
    ("s1^-1", 2, "1"),
    (TREFOIL, 2, "-A^-16 + A^-12 + A^-4"),
    (MIRROR_TREFOIL, 2, "A^4 + A^12 - A^16"),
    (FIGURE_EIGHT, 3, "A^-8 - A^-4 + 1 - A^4 + A^8"),
    (CINQUEFOIL, 2, "-A^-28 + A^-24 - A^-20 + A^-16 + A^-8"),
]


@pytest.mark.parametrize("text, n, expected", KNOWN_VALUES)
def test_normalized_invariant_matches_known_values(text, n, expected):
    td = _turaev(RATFUN)
    w = parse_braid(text, n=n)
    value = normalized_invariant(td, w)
    assert value == promote(parse_scalar(expected, LAURENT), RATFUN)
    assert value == promote(jones_oracle(w), RATFUN)


_RATFUN_TD = _turaev(RATFUN)


@st.composite
def _words(draw):
    n = draw(st.integers(min_value=2, max_value=MAX_STRANDS))
    letter = st.tuples(st.integers(min_value=1, max_value=n - 1), st.sampled_from((1, -1)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=n + 1))))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_words())
@example(parse_braid("s1 s3^-1 s9 s2 s5^-1 s7 s4 s9^-1 s6 s8^-1 s2", n=10))
def test_normalized_invariant_matches_oracle_on_random_words(w):
    # the planar oracle shares no code with linmap
    assert normalized_invariant(_RATFUN_TD, w) == promote(jones_oracle(w), RATFUN)


def test_invariant_rejects_too_many_strands():
    with pytest.raises(RMatrixError, match=f"limit of {MAX_STRANDS}"):
        invariant(_RATFUN_TD, parse_braid("s30"))


def test_unnormalized_unknot_is_the_loop_value():
    td = _turaev()
    assert invariant(td, BraidWord(1, ())) == L("-A^-2 - A^2")


def test_markov_invariance():
    td = _turaev(RATFUN)
    for text in (TREFOIL, FIGURE_EIGHT):
        w = parse_braid(text)
        base = normalized_invariant(td, w)
        for i in range(1, w.n):
            for sign in (1, -1):
                assert normalized_invariant(td, w.conjugated(i, sign)) == base
        for sign in (1, -1):
            assert normalized_invariant(td, w.stabilized(sign)) == base


# ---------------------------------------------------------------------------
# skein relation
# ---------------------------------------------------------------------------


def _triple(word):
    (i, _), rest = word.letters[0], word.letters[1:]
    return (
        BraidWord(word.n, ((i, 1), *rest)),
        BraidWord(word.n, ((i, -1), *rest)),
        BraidWord(word.n, rest),
    )


def test_skein_relation_on_five_triples():
    td = _turaev(RATFUN)
    words = [TREFOIL, MIRROR_TREFOIL, FIGURE_EIGHT, CINQUEFOIL, "s2 s1 s2"]
    for text in words:
        wp, wm, w0 = _triple(parse_braid(text))
        assert skein_triple_check(td, wp, wm, w0)


def test_skein_triple_validation():
    td = _turaev(RATFUN)
    wp, wm, w0 = _triple(parse_braid(TREFOIL))
    with pytest.raises(TuraevError, match="strand count"):
        skein_triple_check(td, wp, wm, BraidWord(3, ()))
    with pytest.raises(TuraevError, match="writhes"):
        skein_triple_check(td, wm, wp, w0)


# ---------------------------------------------------------------------------
# end-to-end comparison, undeformed and deformed
# ---------------------------------------------------------------------------

CORPUS = [
    ("", 1),
    ("", 2),
    (TREFOIL, 2),
    (MIRROR_TREFOIL, 2),
    (FIGURE_EIGHT, 3),
    (CINQUEFOIL, 2),
]


def test_compare_with_oracle_undeformed():
    td = _turaev(RATFUN)
    report = compare_with_oracle(td, [parse_braid(t, n=n) for t, n in CORPUS])
    assert report.all_ok
    assert report.ell_squared_is_c4
    assert report.loop_is_minus_c_plus_cinv
    assert len(report.entries) == len(CORPUS)
    assert len(report.skein_ok) == 4  # one triple per word with letters


def test_compare_with_oracle_deformed():
    pair = make_bracket_pair(RATFUN)
    coords = [RATFUN.from_int(k) for k in (0, 1, 0, 0)]
    pair_t = deform(pair, *bracket_cocycle(RATFUN, *coords))
    a_t, b_t = solve_deformed_coefficients(pair_t)
    td = make_turaev(pair_t, a_t, b_t)
    assert td.rmx.R.ring is dual(RATFUN)
    report = compare_with_oracle(td, [parse_braid(t, n=n) for t, n in CORPUS])
    assert report.all_ok
    trefoil_value = next(
        e.value for e in report.entries if e.word == TREFOIL
    )
    # the t-slope is a genuine correction, not zero
    assert not trefoil_value.slope.is_zero()
    assert trefoil_value.body == promote(jones_oracle(parse_braid(TREFOIL)), RATFUN)
