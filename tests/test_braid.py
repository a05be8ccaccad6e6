"""Braid words, the trace invariant, and the oracle comparison."""

import random
from dataclasses import replace
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skeinlab import braid, planar
from skeinlab._packed import digits, place, unpack, width
from skeinlab.braid import (
    BraidSyntaxError,
    BraidWord,
    TuraevData,
    TuraevError,
    _pair_failure,
    compare_with_oracle,
    invariant,
    jones_oracle,
    make_nu,
    make_turaev,
    matches_oracle,
    normalized_invariant,
    parse_braid,
    r_of_word,
    skein_triple_check,
    turaev_first_failure,
)
from skeinlab.linmap import (
    LinearMap,
    compose,
    full_trace,
    invert_rows,
    map_specialize,
    transpose,
)
from skeinlab.planar import bracket_state_sum
from skeinlab.rmatrix import RMatrixError, max_strands, solve_deformed_coefficients
from skeinlab.scalars import (
    A,
    GAUSS,
    LAURENT,
    RATFUN,
    Dual,
    GaussRat,
    dual,
    into_ring,
    parse_scalar,
    ring_of,
    specialize,
)
from skeinlab.switchback import (
    D3,
    SwitchbackPair,
    bracket_cocycle,
    deform,
    make_bracket_pair,
    pair_from_matrix,
    parse_cocycle_config,
    solve_2cocycles,
    verify_switchback,
)

from reference import (
    conjugated,
    kron,
    packed_product,
    pair_first_failure,
    stabilized,
    unfolded_r_of_word,
)
from reference import twist as reference_twist

L = lambda text: parse_scalar(text, LAURENT)  # noqa: E731
RF = lambda text: parse_scalar(text, RATFUN)  # noqa: E731

FIXTURES = Path(__file__).parent.parent / "src" / "skeinlab" / "fixtures"

TREFOIL = "s1 s1 s1"
MIRROR_TREFOIL = "s1^-1 s1^-1 s1^-1"
FIGURE_EIGHT = "s1 s2^-1 s1 s2^-1"
CINQUEFOIL = "s1 s1 s1 s1 s1"


def _turaev(ring=LAURENT):
    pair = make_bracket_pair(ring)
    a, b = into_ring(L("A"), ring), into_ring(L("A^-1"), ring)
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
    c = conjugated(w, 1, -1)
    assert c.n == w.n and c.writhe == w.writhe
    assert c.letters == ((1, -1), (1, 1), (1, 1), (1, 1), (1, 1))
    s = stabilized(w, -1)
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


def test_make_turaev_bracket_values():
    td = _turaev()
    assert td.u == L("-A^3")
    assert turaev_first_failure(td) is None


def test_turaev_first_failure_rejects_wrong_twist():
    td = _turaev()
    for nu in (td.pair.id1(), td.nu.scale(L("A"))):
        wrong = TuraevData(td.rmx, nu)
        assert turaev_first_failure(wrong) == "Tr_2(R (nu x nu)) != u*nu"


def test_turaev_first_failure_reports_broken_u():
    td = _turaev()
    # u is derived from the loop value, so a wrong loop value gives a wrong u
    broken = TuraevData(replace(td.rmx, loop=td.rmx.loop * A), td.nu)
    assert broken.u != td.u
    assert turaev_first_failure(broken) == "Tr_2(R (nu x nu)) != u*nu"


@pytest.mark.parametrize("swapped, message", [
    ("pairing", "pairing not invariant under the doubled twist"),
    ("copairing", "copairing not invariant under the doubled twist"),
    ("doubled copairing", "twist does not cancel the cusp-pair curl"),
])
def test_turaev_first_failure_reaches_each_pair_message(swapped, message):
    # R, R^-1, u and the twist stay those of the bracket, so the checks on
    # V^2 pass and only the swapped pair can fail
    td = _turaev(RATFUN)
    beta, gamma = td.pair.pairing, td.pair.copairing
    # E_xx: 1 on x(x)x and 0 elsewhere
    unit = LinearMap.from_rows(2, 2, 0, RATFUN, [[RATFUN.one()] + [RATFUN.zero()] * 3])
    beta, gamma = {
        "pairing": (unit, gamma),
        "copairing": (beta, transpose(unit)),
        "doubled copairing": (beta, gamma.scale(RATFUN.from_int(2))),
    }[swapped]
    pair = replace(td.pair, pairing=beta, copairing=gamma)
    assert turaev_first_failure(TuraevData(replace(td.rmx, pair=pair), td.nu)) == message


def _twist_entry(rng, ring):
    if ring.name == "dual":
        return Dual(_twist_entry(rng, ring.base), _twist_entry(rng, ring.base))
    k = ring.from_int(rng.randint(-2, 2))
    return k if ring is GAUSS else k * into_ring(A ** rng.randint(-1, 1), ring)


def _random_map(rng, d, p, q, ring):
    rows = [[_twist_entry(rng, ring) for _ in range(d**p)] for _ in range(d**q)]
    return LinearMap.from_rows(d, p, q, ring, rows)


def _twist_cases():
    """(pair, twist) for pairs with d = 1, 2, 3 over gauss and ratfun and
    their dual deformations, by a 2-cocycle (switchback) or by a random
    slope (not), each as it is, with its copairing doubled, or with a
    random copairing or pairing; with the twist of the pair it came from,
    its negative, the variant's own twist and a random twist.  The d = 3
    ratfun pair is not deformed: the reference's curl on V^3 over its
    dual ring would take 3 s.  Last, the bracket pair over laurent and
    ratfun, at A = 2, and deformed by each bundled cocycle, with its
    twist."""
    rng = random.Random("twist")
    for d in (1, 2, 3):
        for ring in (GAUSS, RATFUN):
            while True:
                rows = [[_twist_entry(rng, ring) for _ in range(d)] for _ in range(d)]
                if invert_rows(rows, ring) is not None:
                    break
            pair = pair_from_matrix(rows, ring)
            bases = [pair]
            if (d, ring) != (3, RATFUN):
                slope = (_random_map(rng, d, 2, 0, ring), _random_map(rng, d, 0, 2, ring))
                cocycle = solve_2cocycles(pair)[rng.randrange(d * d)]
                bases += [deform(pair, *cocycle), deform(pair, *slope)]
            for base in bases:
                nu = make_nu(base)
                two = base.ring.from_int(2)
                for variant in (
                    base,
                    replace(base, copairing=base.copairing.scale(two)),
                    replace(base, copairing=_random_map(rng, d, 0, 2, base.ring)),
                    replace(base, pairing=_random_map(rng, d, 2, 0, base.ring)),
                ):
                    for twist in (nu, -nu, make_nu(variant), _random_map(rng, d, 1, 1, base.ring)):
                        yield variant, twist
    ratfun = make_bracket_pair(RATFUN)
    brackets = [make_bracket_pair(), ratfun, make_bracket_pair().specialize(GaussRat(2))]
    for c in ("xx", "xy", "yx", "yy"):
        phi = parse_cocycle_config((FIXTURES / f"cocycle_{c}.cfg").read_text(), ratfun)
        brackets.append(deform(ratfun, *phi))
    for pair in brackets:
        yield pair, make_nu(pair)


def test_bent_twist_and_pair_checks_match_the_diagrams():
    outcomes = set()
    for pair, nu in _twist_cases():
        assert make_nu(pair) == reference_twist(pair)
        failure = _pair_failure(pair, nu)
        assert failure == pair_first_failure(pair, nu)
        outcomes.add((pair.ring.name, verify_switchback(pair), failure))
    # every verdict is reached over both kinds of ring, and on switchback
    # pairs the curl is passed and failed
    messages = {None, "pairing not invariant under the doubled twist",
                "copairing not invariant under the doubled twist",
                "twist does not cancel the cusp-pair curl"}
    for ring in ("gauss", "ratfun", "dual"):
        assert {m for r, _, m in outcomes if r == ring} == messages
        assert {(True, None), (True, "twist does not cancel the cusp-pair curl")} <= {
            (ok, m) for r, ok, m in outcomes if r == ring
        }


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
    assert value == into_ring(parse_scalar(expected, LAURENT), RATFUN)
    assert value == into_ring(jones_oracle(w), RATFUN)


_RATFUN_TD = _turaev(RATFUN)


@st.composite
def _words(draw):
    n = draw(st.integers(min_value=2, max_value=max_strands(2)))
    letter = st.tuples(st.integers(min_value=1, max_value=n - 1), st.sampled_from((1, -1)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=n + 1))))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_words())
@example(parse_braid("s1 s3^-1 s9 s2 s5^-1 s7 s4 s9^-1 s6 s8^-1 s2", n=10))
def test_normalized_invariant_matches_oracle_on_random_words(w):
    # the planar oracle shares no code with linmap
    assert normalized_invariant(_RATFUN_TD, w) == into_ring(jones_oracle(w), RATFUN)


# ---------------------------------------------------------------------------
# the packed kernel against a reference from linmap primitives
# ---------------------------------------------------------------------------


def _reference_invariant(td, w):
    """u^(-writhe) Tr(twist^(x n) . R(w)), with every letter padded
    by Kronecker products and composed on the whole space: shares no code
    with the packed kernel of braid.invariant."""
    d, ring = td.pair.d, td.rmx.R.ring
    acc = LinearMap.identity(d, w.n, ring)
    for i, sign in w.letters:
        f = td.rmx.R if sign > 0 else td.rmx.Rinv
        left, right = (LinearMap.identity(d, m, ring) for m in (i - 1, w.n - i - 1))
        acc = compose(kron(kron(left, f), right), acc)
    twists = reduce(kron, [td.nu] * w.n, LinearMap.identity(d, 0, ring))
    tr = full_trace(compose(twists, acc))
    return td.u ** (-w.writhe) * tr


def _deformed(pair, phi):
    pair_t = deform(pair, *phi)
    return make_turaev(pair_t, *solve_deformed_coefficients(pair_t))


def _gauged_pair():
    # pairing (g x g) and (g^-1 x g^-1) copairing for a g with fractional
    # Gaussian entries: again a switchback pair, with non-integer R entries
    pair = make_bracket_pair(RATFUN)
    g = LinearMap.from_rows(2, 1, 1, RATFUN, [[RF("1/2"), RF("(1/3)i")], [RF("0"), RF("2")]])
    ginv = LinearMap.from_rows(2, 1, 1, RATFUN, [[RF("2"), RF("-(1/3)i")], [RF("0"), RF("1/2")]])
    gauged = SwitchbackPair(
        2, RATFUN, compose(pair.pairing, kron(g, g)), compose(kron(ginv, ginv), pair.copairing)
    )
    assert verify_switchback(gauged)
    return gauged


def _kernel_cases():
    pair = make_bracket_pair(RATFUN)
    cases = {
        "laurent": _turaev(LAURENT),
        "gauss": make_turaev(
            make_bracket_pair().specialize(GaussRat(3, 1) / 2),
            GaussRat(3, 1) / 2, (GaussRat(3, 1) / 2).inv(),
        ),
        # --a/--b style: a = A f, b = A^-1 f solve the quadratic for any f
        "ratfun-a-b": make_turaev(
            pair, RF("( 2*A )/( 3 - i*A )"), RF("( 2*A^-1 )/( 3 - i*A )")
        ),
        "gauged": make_turaev(_gauged_pair(), RF("( A )/( 1 )"), RF("( A^-1 )/( 1 )")),
    }
    for c in ("xx", "xy", "yx", "yy"):
        text = (FIXTURES / f"cocycle_{c}.cfg").read_text()
        cases[f"dual-{c}"] = _deformed(pair, parse_cocycle_config(text, pair))
    # a coboundary whose solved a_t carries a non-unit denominator, and
    # whose twist has off-diagonal slope entries
    eta = LinearMap.from_rows(
        2, 1, 1, RATFUN, [[RF("A"), RF("1")], [RF("0"), RF("( -1/2 )/( 1 + A )")]]
    )
    cases["dual-coboundary"] = _deformed(pair, D3(pair, eta, eta))
    return cases


KERNEL_CASES = _kernel_cases()


# the reference normalises a ratfun gcd at every product, which over the
# non-unit denominator of ratfun-a-b takes about 1 s for s1^20 and nearly
# a minute for s1^40
_MAX_POWER = {"ratfun-a-b": 20}


@st.composite
def _kernel_examples(draw):
    case = draw(st.sampled_from(sorted(KERNEL_CASES)))
    if draw(st.booleans()):
        # s1^k: up to 40 letters on two strands, so that the packed width B
        # and the degrees reach far beyond those of a short random word
        k = draw(st.integers(min_value=0, max_value=_MAX_POWER.get(case, 40)))
        return case, BraidWord(2, ((1, draw(st.sampled_from((1, -1)))),) * k)
    n = draw(st.integers(min_value=1, max_value=5))
    if n == 1:
        return case, BraidWord(1, ())
    letter = st.tuples(st.integers(min_value=1, max_value=n - 1), st.sampled_from((1, -1)))
    return case, BraidWord(n, tuple(draw(st.lists(letter, max_size=6))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_kernel_examples())
def test_invariant_matches_the_padded_reference(case_and_word):
    case, w = case_and_word
    td = KERNEL_CASES[case]
    assert invariant(td, w) == _reference_invariant(td, w)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_invariant_matches_the_reference_on_long_powers(case):
    td = KERNEL_CASES[case]
    for sign in (1, -1):
        w = BraidWord(2, ((1, sign),) * _MAX_POWER.get(case, 40))
        assert invariant(td, w) == _reference_invariant(td, w)


def test_long_powers_at_rational_weights_match_the_oracle():
    # the oracle sums the weights a = 2A/(3 - iA), b = 2A^-1/(3 - iA) over
    # one denominator, so s1^30 at this non-unit denominator is a check of
    # well under a second
    td = KERNEL_CASES["ratfun-a-b"]
    for sign in (1, -1):
        w = BraidWord(2, ((1, sign),) * 30)
        assert matches_oracle(td, normalized_invariant(td, w), w)


@pytest.mark.parametrize("case", ["laurent", "gauss"])
def test_invariant_matches_the_reference_on_a_long_ten_strand_word(case):
    w = parse_braid(
        "s4 s6^-1 s2 s8^-1 s9 s4^-1 s9^-1 s7 s4 s9^-1 s1 s3 s5 s5^-1 s7^-1 "
        "s7^-1 s3^-1 s2 s3^-1 s4^-1 s7^-1 s7^-1 s6^-1 s4^-1 s1^-1 s3^-1 s9 s4^-1 s5 s2^-1"
    )
    assert (w.n, len(w.letters)) == (10, 30)
    td = KERNEL_CASES[case]
    assert invariant(td, w) == _reference_invariant(td, w)


# ---------------------------------------------------------------------------
# each strand's twist folded into its first letter
# ---------------------------------------------------------------------------


@st.composite
def _fold_words(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    if n == 1:
        return BraidWord(1, ())
    letter = st.tuples(st.integers(min_value=1, max_value=n - 1), st.sampled_from((1, -1)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=10))))


# strands 1, 4 and 7 untouched, every first letter on a strand negative
_UNTOUCHED = parse_braid("s2^-1 s5^-1 s2 s5", n=7)


def _assert_unfolded(td, w):
    """r_of_word's halves multiply to the lanes of the unfolded loop, lane
    by lane and entry by entry, with its bits and scale."""
    upper, lower, bits, scale = r_of_word(td, w)
    lanes, want_bits, want_scale = unfolded_r_of_word(td, w)
    assert (bits, scale) == (want_bits, want_scale)
    product = packed_product(upper, lower, td.pair.d**w.n)
    assert len(product) == len(lanes)
    for got, want in zip(product, lanes):
        assert got == want


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(KERNEL_CASES)), _fold_words())
def test_r_of_word_is_the_unfolded_loop(case, w):
    _assert_unfolded(KERNEL_CASES[case], w)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_r_of_word_folds_negative_first_letters_and_skips_untouched_strands(case):
    td = KERNEL_CASES[case]
    words = (_UNTOUCHED, parse_braid("s1^-1 s3 s1", n=4), parse_braid("s2^-1 s2^-1"),
             BraidWord(6, ()))
    for w in words:
        _assert_unfolded(td, w)


# r_of_word cuts its placements (the lone twists, then the letters) at the
# midpoint: these put an empty lower half (one twist, one letter), lone
# twists in both halves or in the lower one only, and strands whose twists
# fold into letters of the upper half only (s3^-1 and s4 below)
_SPLIT_WORDS = (
    BraidWord(1, ()),
    BraidWord(6, ()),
    parse_braid("s1"),
    parse_braid("s1^-1"),
    parse_braid("s3", n=5),
    _UNTOUCHED,
    parse_braid("s1 s1^-1 s3^-1 s4 s1"),
)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_r_of_word_split_edges_against_the_loop_and_the_oracle(case):
    # gauss at A = (3+i)/2 has live imaginary lanes on both sides of the
    # cut, and the dual-* cases slope lanes
    td = KERNEL_CASES[case]
    unknot = td.unknot.body if isinstance(td.unknot, Dual) else td.unknot
    for w in _SPLIT_WORDS:
        _assert_unfolded(td, w)
        jones = jones_oracle(w)
        if case == "gauss":
            jones = specialize(jones, GaussRat(3, 1) / 2)
        value = invariant(td, w)
        # the normalized invariant is the oracle, in td's ring
        assert (value.body if isinstance(value, Dual) else value) == unknot * into_ring(
            jones, ring_of(unknot))
        # and, slope included, the state sum at td's weights
        if td.unknot_inv is not None:
            assert matches_oracle(td, normalized_invariant(td, w), w)


def _power(f: LinearMap, k: int) -> LinearMap:
    return f if k else LinearMap.identity(f.shape.d, 1, f.ring)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_folded_factors_are_r_times_the_twists(case):
    td = KERNEL_CASES[case]
    kern, d = td._kernel, td.pair.d
    base = td.rmx.R.ring.base or td.rmx.R.ring
    for sign, f in ((1, td.rmx.R), (-1, td.rmx.Rinv)):
        for a in (0, 1):
            for b in (0, 1):
                factor = td._factors[sign, a, b]
                want = compose(f, kron(_power(td.nu, a), _power(td.nu, b)))
                # the factor alone: N = max(1, ||factor'||) bounds what placing
                # it on the identity meets
                bits = width(max(1, factor.norm))
                lanes = place(kern.plan(factor, bits), d * d, d * d, kern.identity(d * d))
                over = into_ring(factor.scale, base).inv()
                colnorm = {}
                for r in range(d * d):
                    for c in range(d * d):
                        values = [lane.get(r * d * d + c, 0) for lane in lanes]
                        assert unpack(values, bits, base, over) == want.entry(r, c)
                        colnorm[c] = colnorm.get(c, 0) + sum(
                            abs(x) for v in values for x in digits(v, bits).values())
                assert factor.norm >= max(colnorm.values())


def test_plans_are_reused_per_width():
    td = _turaev(RATFUN)
    short, long = parse_braid("s1 s2^-1", n=4), parse_braid(" ".join(["s1^-1 s3"] * 8))
    assert r_of_word(td, short)[2] != r_of_word(td, long)[2]
    grown = len(td._plans)
    for w in (short, long, short, long):
        _assert_unfolded(td, w)
    assert len(td._plans) == grown


def test_word_scales_are_reused_per_letter_count():
    # the scale depends on the strands and the counts of positive and
    # negative letters only, so these three words share one
    td = _turaev(RATFUN)
    words = [parse_braid(text, n=3) for text in ("s1 s2^-1 s1", "s2 s1 s2^-1", "s1^-1 s1 s2")]
    for w in words + words:
        _assert_unfolded(td, w)
    assert list(td._scales) == [(3, 2, 1)]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from([c for c in sorted(KERNEL_CASES) if c.startswith("dual-")]), _words())
def test_deformed_invariant_body_matches_oracle_on_random_words(case, w):
    # the planar oracle shares no code with the packed kernel
    value = normalized_invariant(KERNEL_CASES[case], w)
    assert value.body == into_ring(jones_oracle(w), RATFUN)


_BRACKET_PAIR = make_bracket_pair(RATFUN)
_BUNDLED = {
    c: parse_cocycle_config((FIXTURES / f"cocycle_{c}.cfg").read_text(), _BRACKET_PAIR)
    for c in ("xx", "xy", "yx", "yy")
}
_SMALL = [RF(t) for t in ("1", "-1", "2", "-1/2", "i", "A", "-A^-1", "3*A^2", "( 1 )/( 1 + A )")]


@st.composite
def _deformations(draw):
    """A random scale of a bundled cocycle, or the coboundary
    d1(f) = D3(f, f) of a random f: V -> V; either deforms the bracket
    pair."""
    if draw(st.booleans()):
        phi = _BUNDLED[draw(st.sampled_from(sorted(_BUNDLED)))]
        s = draw(st.sampled_from(_SMALL))
        return tuple(f.scale(s) for f in phi)
    rows = [[draw(st.sampled_from([RF("0"), *_SMALL])) for _ in range(2)] for _ in range(2)]
    f = LinearMap.from_rows(2, 1, 1, RATFUN, rows)
    return D3(_BRACKET_PAIR, f, f)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_deformations(), _words())
def test_deformed_invariant_is_the_bracket_at_the_deformed_weights(phi, w):
    # the whole value, slope included, against the state sum at the
    # deformed a_t, b_t and delta_t; it depends on them only through
    # c_t = a_t/b_t and delta_t
    td = _deformed(_BRACKET_PAIR, phi)
    value = normalized_invariant(td, w)
    assert matches_oracle(td, value, w)
    a, b, delta = td.rmx.a, td.rmx.b, td.rmx.loop
    c = a * b.inv()
    assert value == (delta * c + 1) ** (-w.writhe) * bracket_state_sum(
        w.n, w.letters, c, c**0, delta
    )
    assert value.body == into_ring(jones_oracle(w), RATFUN)


def test_invariant_rejects_too_many_strands(monkeypatch):
    with pytest.raises(RMatrixError, match="limit of 10"):
        invariant(_RATFUN_TD, parse_braid("s30"))
    # so does the oracle it is checked against, before counting any state
    def count_states(n, letters):
        raise AssertionError(f"counted the states of a {n}-strand word")

    monkeypatch.setattr(planar, "_count_states", count_states)
    with pytest.raises(RMatrixError, match="^11 strands is more than the limit of 10$"):
        jones_oracle(parse_braid("s1 s2 s3 s4 s5 s6 s7 s8 s9 s10"))


def test_make_turaev_refuses_a_pair_too_wide_for_three_strands(monkeypatch):
    # R, R^-1 and the Turaev checks live on V^2; at d = 33, V^2 has 1089
    # dimensions, past the limit, so the pair is refused before any map is
    # built
    def build(*args):
        pytest.fail("a map was built")

    for name in ("build_R", "make_nu"):
        monkeypatch.setattr(braid, name, build)
    monkeypatch.setattr(LinearMap, "identity", staticmethod(build))
    d = 33
    pair = SwitchbackPair(d, GAUSS, LinearMap.zero(d, 2, 0, GAUSS), LinearMap.zero(d, 0, 2, GAUSS))
    with pytest.raises(RMatrixError, match="^2 strands is more than the limit of 1$"):
        make_turaev(pair, GAUSS.one(), GAUSS.one())


def test_make_turaev_takes_a_pair_with_two_strands_only():
    # d = 12: V^2 has 144 dimensions and V^3 1728, so Turaev data are made
    # and serve two-strand words, while a three-strand word is refused.
    # The pairing is six blocks [[0, r], [1, 0]], so delta0 is the sum of
    # r + 1/r = -5/2, and a = 2, b = 1 pass the quadratic condition
    i = GaussRat(0, 1)
    blocks = [GAUSS.from_int(-2), GAUSS.one(), GAUSS.from_int(-1), i, i, i]
    rows = [[GAUSS.zero()] * 12 for _ in range(12)]
    for k, r in enumerate(blocks):
        rows[2 * k][2 * k + 1], rows[2 * k + 1][2 * k] = r, GAUSS.one()
    td = make_turaev(pair_from_matrix(rows, GAUSS), GAUSS.from_int(2), GAUSS.one())
    for text, want in (("", parse_scalar("-5/2", GAUSS)), ("s1", GAUSS.one()),
                       ("s1 s1^-1 s1", GAUSS.one())):
        w = parse_braid(text, n=2)
        value = normalized_invariant(td, w)
        assert value == want
        assert matches_oracle(td, value, w)
    with pytest.raises(RMatrixError, match="^3 strands is more than the limit of 2$"):
        r_of_word(td, parse_braid("s1 s2"))


def test_unnormalized_unknot_is_the_loop_value():
    td = _turaev()
    assert invariant(td, BraidWord(1, ())) == L("-A^-2 - A^2")


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_unknot_is_the_one_strand_invariant(case):
    # undeformed, specialized and cocycle-deformed data alike
    td = KERNEL_CASES[case]
    value = invariant(td, BraidWord(1, ()))
    assert td.unknot == value and ring_of(td.unknot) == ring_of(value)


def test_markov_invariance():
    td = _turaev(RATFUN)
    for text in (TREFOIL, FIGURE_EIGHT):
        w = parse_braid(text)
        base = normalized_invariant(td, w)
        for i in range(1, w.n):
            for sign in (1, -1):
                assert normalized_invariant(td, conjugated(w, i, sign)) == base
        for sign in (1, -1):
            assert normalized_invariant(td, stabilized(w, sign)) == base


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
    pair_t = deform(pair, *bracket_cocycle(pair, *coords))
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
    assert trefoil_value.body == into_ring(jones_oracle(parse_braid(TREFOIL)), RATFUN)


@pytest.mark.parametrize("cocycle", [None, "xy"])
def test_compare_with_oracle_on_a_specialized_pair(cocycle):
    # the oracle is taken at the pair's A; each value is the generic one at A = 2
    at = GaussRat(2)
    pair = make_bracket_pair(RATFUN)
    a, b = RF("A"), RF("A^-1")
    special = pair.specialize(at)
    if cocycle is not None:
        phi = parse_cocycle_config((FIXTURES / f"cocycle_{cocycle}.cfg").read_text(), pair)
        pair = deform(pair, *phi)
        special = deform(special, *(map_specialize(f, at) for f in phi))
        a, b = solve_deformed_coefficients(pair)
    generic = make_turaev(pair, a, b)
    td = make_turaev(special, specialize(a, at), specialize(b, at))
    corpus = [parse_braid(t, n=n) for t, n in CORPUS]
    report = compare_with_oracle(td, corpus)
    assert report.all_ok
    for e, w in zip(report.entries, corpus):
        assert e.value == specialize(normalized_invariant(generic, w), at)
