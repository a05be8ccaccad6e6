"""Ring axioms, parse/format roundtrips, promotion and specialization."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from skeinlab.scalars import (
    GAUSS,
    LAURENT,
    RATFUN,
    Dual,
    GaussRat,
    LaurentA,
    NotInvertibleError,
    RatFunA,
    RingMismatchError,
    ScalarInvariantError,
    ScalarSyntaxError,
    _laurent_valuation,
    _poly_divexact,
    demote,
    dual,
    format_scalar,
    parse_scalar,
    promote,
    ring_of,
    specialize,
)

# kept small: rational-function arithmetic normalizes with polynomial gcds,
# so large random operands make the axiom checks needlessly slow
fractions = st.fractions(min_value=-5, max_value=5, max_denominator=5)
gauss_rats = st.builds(GaussRat, fractions, fractions)
laurents = st.lists(
    st.tuples(st.integers(min_value=-3, max_value=3), gauss_rats),
    max_size=2,
).map(LaurentA)
nonzero_laurents = laurents.filter(lambda x: not x.is_zero())
ratfuns = st.builds(RatFunA, laurents, nonzero_laurents)
duals = st.builds(Dual, ratfuns, ratfuns)


def _invertible(x) -> bool:
    try:
        x.inv()
    except NotInvertibleError:
        return False
    return True


# A failing ratfun or dual example would be shrunk through gcd-normalising
# RatFunA constructions for minutes, so those report it unshrunk.
_NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


@pytest.mark.parametrize(
    "elements, phases",
    [(gauss_rats, tuple(Phase)), (laurents, tuple(Phase)),
     (ratfuns, _NO_SHRINK), (duals, _NO_SHRINK)],
    ids=["gauss", "laurent", "ratfun", "dual"],
)
def test_ring_axioms(elements, phases):
    @settings(max_examples=25, deadline=None, phases=phases)
    @given(st.data())
    def axioms(data):
        x = data.draw(elements)
        y = data.draw(elements)
        z = data.draw(elements)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert (x - x).is_zero()
        zero = x - x
        one = ring_of(x).one()
        assert x + zero == x
        assert x * one == x
        # the operators every ring derives from +, unary -, * and inv
        assert x - y == x + (-y)
        assert 1 - x == -(x - 1)
        u = data.draw(elements.filter(_invertible))
        assert x / u == x * u.inv()
        assert 1 / u == u.inv()
        assert str(x) == format_scalar(x)

    axioms()


@settings(max_examples=60, deadline=None)
@given(ratfuns)
def test_ratfun_denominator_normalized(x):
    # canonical form: gcd removed and the denominator's lowest coefficient is 1
    assert x.den.coeff(min(k for k, _ in x.den.terms)) == GaussRat(1)


@settings(max_examples=40, deadline=None)
@given(ratfuns.filter(lambda x: not x.is_zero()))
def test_field_inverse(x):
    assert (x * x.inv()) == RATFUN.one()
    assert x**-2 == (x.inv()) ** 2


def _random_gauss(rng):
    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    return GaussRat(frac(), frac())


def _random_laurent(rng):
    return LaurentA(
        tuple((rng.randint(-8, 8), _random_gauss(rng)) for _ in range(rng.randint(0, 4)))
    )


def test_parse_format_roundtrip_seeded():
    rng = random.Random(20260814)
    for _ in range(1000):
        g = _random_gauss(rng)
        assert parse_scalar(format_scalar(g), GAUSS) == g
        l = _random_laurent(rng)
        assert parse_scalar(format_scalar(l), LAURENT) == l
        den = _random_laurent(rng)
        r = RatFunA(_random_laurent(rng), den if not den.is_zero() else LaurentA(((0, GaussRat(1)),)))
        assert parse_scalar(format_scalar(r), RATFUN) == r
        d = Dual(r, RatFunA(_random_laurent(rng), LaurentA(((0, GaussRat(1)),))))
        assert parse_scalar(format_scalar(d), dual(RATFUN)) == d


def test_parse_grammar_cases():
    assert parse_scalar("3/2 - 5i", GAUSS) == GaussRat(Fraction(3, 2), -5)
    assert parse_scalar("i*A", LAURENT) == LaurentA(((1, GaussRat(0, 1)),))
    assert parse_scalar("-i*A^-1 + A^3", LAURENT) == LaurentA(
        ((-1, GaussRat(0, -1)), (3, GaussRat(1)))
    )
    x = parse_scalar("( A^2 + 1 )/( A )", RATFUN)
    assert x == RatFunA(parse_scalar("A^2 + 1", LAURENT), parse_scalar("A", LAURENT))
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("A +", LAURENT)
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("B", LAURENT)


@settings(max_examples=40, deadline=None)
@given(laurents)
def test_promote_demote_inverse(x):
    up = promote(x, RATFUN)
    assert ring_of(up) is RATFUN
    assert demote(up, LAURENT) == x
    up2 = promote(x, dual(LAURENT))
    assert up2.slope.is_zero() and up2.body == x


def test_promote_rejects_downward():
    x = parse_scalar("( 1 )/( A + 1 )", RATFUN)
    with pytest.raises(RingMismatchError):
        promote(x, LAURENT)
    with pytest.raises(RingMismatchError):
        demote(x, LAURENT)  # denominator is not a unit


def test_mixed_ring_arithmetic_rejected():
    a = parse_scalar("A", LAURENT)
    g = parse_scalar("2", GAUSS)
    with pytest.raises(RingMismatchError):
        a + g
    with pytest.raises(RingMismatchError):
        g * a


def test_laurent_inverse_only_for_monomials():
    a = parse_scalar("3i*A^-2", LAURENT)
    assert a * a.inv() == LAURENT.one()
    with pytest.raises(NotInvertibleError):
        parse_scalar("A + 1", LAURENT).inv()
    with pytest.raises(NotInvertibleError):
        LaurentA().inv()


def test_dual_inverse():
    t_ring = dual(RATFUN)
    u = parse_scalar("( A )/( 1 ) + t*( ( 3 )/( A ) )", t_ring)
    assert u * u.inv() == t_ring.one()
    # t itself is nilpotent, hence not invertible
    with pytest.raises(NotInvertibleError):
        Dual(RATFUN.zero(), RATFUN.one()).inv()


def test_dual_is_square_zero():
    t = Dual(RATFUN.zero(), RATFUN.one())
    assert (t * t).is_zero()


def test_pow_negative_and_zero():
    a = parse_scalar("A", LAURENT)
    assert a**0 == LAURENT.one()
    assert a**-3 == parse_scalar("A^-3", LAURENT)
    g = parse_scalar("2i", GAUSS)
    assert g**-2 == parse_scalar("-1/4", GAUSS)


def test_specialize_tower():
    two = GaussRat(2)
    l = parse_scalar("A^2 - 3*A^-1", LAURENT)
    assert specialize(l, two) == GaussRat(Fraction(5, 2))
    r = parse_scalar("( A^2 + 1 )/( A )", RATFUN)
    assert specialize(r, two) == GaussRat(Fraction(5, 2))
    d = Dual(r, r)
    s = specialize(d, two)
    assert s.body == GaussRat(Fraction(5, 2)) and s.slope == GaussRat(Fraction(5, 2))
    vanishing = parse_scalar("( 1 )/( A - 2 )", RATFUN)
    with pytest.raises(NotInvertibleError):
        specialize(vanishing, two)


def test_format_is_canonical_and_ascending():
    x = parse_scalar("A^3 + A^-2", LAURENT)
    assert format_scalar(x) == "A^-2 + A^3"
    y = parse_scalar("-1 - i", GAUSS)
    assert format_scalar(y) == "-1 - i"


def test_polynomial_helper_invariants_raise():
    g = GaussRat
    # x^2 + 1 is not divisible by x + 2
    with pytest.raises(ScalarInvariantError, match="inexact"):
        _poly_divexact([g(1), g(0), g(1)], [g(2), g(1)])
    assert _poly_divexact([g(-1), g(0), g(1)], [g(1), g(1)]) == [g(-1), g(1)]
    with pytest.raises(ScalarInvariantError):
        _laurent_valuation(LaurentA())


# -- GaussRat against a (Fraction, Fraction) reference -----------------------
#
# The invariant and the planar oracle share this layer, so it is checked
# against arithmetic written here, on the stdlib's Fractions.


def _ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _ref_text(x):
    def rat(r):
        return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"

    pieces = []
    if x[0]:
        pieces.append((x[0] < 0, rat(abs(x[0]))))
    if x[1]:
        pieces.append((x[1] < 0, "i" if abs(x[1]) == 1 else f"{rat(abs(x[1]))}i"))
    if not pieces:
        return "0"
    text = ("-" if pieces[0][0] else "") + pieces[0][1]
    for neg, p in pieces[1:]:
        text += (" - " if neg else " + ") + p
    return text


def _parts(g):
    return (g._a, g._b, g._d)


def _assert_canonical(g, ref):
    a, b, d = _parts(g)
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1
    if not ref[0] and not ref[1]:
        assert (a, b, d) == (0, 0, 1)
    assert (g.re, g.im) == ref
    assert type(g.re) is Fraction and type(g.im) is Fraction


wide_fractions = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-10**3, max_value=10**3, max_denominator=10**3),
)


@settings(max_examples=300, deadline=None)
@given(wide_fractions, wide_fractions, wide_fractions, wide_fractions, wide_fractions)
def test_gaussrat_matches_fraction_pair_reference(p, q, r, s, k):
    rx, ry = (Fraction(p), Fraction(q)), (Fraction(r), Fraction(s))
    x, y = GaussRat(p, q), GaussRat(r, s)
    _assert_canonical(x, rx)
    _assert_canonical(y, ry)
    _assert_canonical(x + y, _ref_add(rx, ry))
    _assert_canonical(x - y, _ref_add(rx, (-ry[0], -ry[1])))
    _assert_canonical(-x, (-rx[0], -rx[1]))
    _assert_canonical(x * y, _ref_mul(rx, ry))
    rk = (Fraction(k), Fraction(0))
    _assert_canonical(x + k, _ref_add(rx, rk))
    _assert_canonical(k - x, _ref_add(rk, (-rx[0], -rx[1])))
    _assert_canonical(k * x, _ref_mul(rk, rx))
    if any(ry):
        _assert_canonical(y.inv(), _ref_inv(ry))
        _assert_canonical(x / y, _ref_mul(rx, _ref_inv(ry)))
        assert _parts(x * y * y.inv()) == _parts(x)
    else:
        with pytest.raises(NotInvertibleError):
            y.inv()
    if k:
        _assert_canonical(x / k, _ref_mul(rx, _ref_inv(rk)))
    # == against ints and Fractions, and hashes as before: of the parts
    assert (x == k) == (rx == rk)
    assert (x == Fraction(k)) == (rx == rk)
    assert (x == rx[0]) == (not rx[1])
    assert (x == rx[0].numerator) == (not rx[1] and rx[0].denominator == 1)
    assert (x == y) == (rx == ry)
    assert hash(x) == hash(rx)
    # equal values reached by different paths are the same structure
    back = (x + y) - y
    assert back == x and _parts(back) == _parts(x) and hash(back) == hash(x)
    # canonical text, and the round-trip through the parser
    assert format_scalar(x) == _ref_text(rx)
    again = parse_scalar(format_scalar(x), GAUSS)
    assert _parts(again) == _parts(x)


def test_gaussrat_equal_values_are_equal_structures():
    half = GaussRat(Fraction(1, 2))
    one = half + half
    assert _parts(one) == _parts(GaussRat(1)) == (1, 0, 1)
    assert one == 1 and hash(one) == hash(GaussRat(1))
    assert half == Fraction(1, 2) and half != 1 and half != Fraction(1, 3)
    assert GaussRat(Fraction(1, 2), 1) != Fraction(1, 2)
    zero = GaussRat(Fraction(1, 3), Fraction(-2, 3)) - GaussRat(Fraction(2, 6), Fraction(-4, 6))
    assert _parts(zero) == (0, 0, 1) and zero.is_zero() and zero == 0
    assert _parts(GaussRat(Fraction(3, 6), Fraction(-1, 4))) == (2, -1, 4)
    assert _parts(GaussRat(0, 1).inv()) == (0, -1, 1)
    assert repr(GaussRat(Fraction(3, 6), -1)) == "GaussRat(1/2, -1)"


# -- immutability --------------------------------------------------------------


_ONE_OF_EACH = [
    parse_scalar("1/2 - 3i", GAUSS),
    parse_scalar("A^-1 + 2i*A", LAURENT),
    parse_scalar("( A )/( A + 1 )", RATFUN),
    parse_scalar("( A )/( 1 ) + t*( ( 3 )/( A + 1 ) )", dual(RATFUN)),
]


@pytest.mark.parametrize("x", _ONE_OF_EACH, ids=["gauss", "laurent", "ratfun", "dual"])
def test_scalars_are_immutable(x):
    before = format_scalar(x)
    fields = {
        GaussRat: ("re", "im", "_a", "_b", "_d"),
        LaurentA: ("terms",),
        RatFunA: ("num", "den"),
        Dual: ("body", "slope"),
    }[type(x)]
    for name in fields + ("anything_else",):
        with pytest.raises(AttributeError):
            setattr(x, name, x)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert format_scalar(x) == before
    # copies and pickles rebuild an equal value without assigning fields
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and hash(y) == hash(x)
        assert format_scalar(y) == before
