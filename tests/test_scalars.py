"""Ring axioms, parse/format roundtrips, promotion and specialization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
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


@pytest.mark.parametrize(
    "elements",
    [gauss_rats, laurents, ratfuns, duals],
    ids=["gauss", "laurent", "ratfun", "dual"],
)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_ring_axioms(elements, data):
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
