"""Ring axioms, parse/format roundtrips, moves between rings and
specialization."""

import copy
import math
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from reference import (
    laurent_add,
    laurent_inv,
    laurent_mul,
    laurent_neg,
    laurent_terms,
    laurent_text,
    ratfun_parts,
)
from skeinlab import scalars
from skeinlab._packed import unpack
from skeinlab.planar import jones_polynomial
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
    ScalarError,
    ScalarInvariantError,
    ScalarSyntaxError,
    _zi_div,
    _zi_divmod,
    _zi_gcd,
    _zi_prem,
    dual,
    format_scalar,
    into_ring,
    parse_scalar,
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


# A failing Laurent, ratfun or dual example would be shrunk for minutes:
# one wrong product breaks several axioms at once, and Hypothesis shrinks
# each distinct failure in turn, through gcd-normalising RatFunA
# constructions for the last two.  Those report it unshrunk.
_NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


@pytest.mark.parametrize(
    "elements, phases",
    [(gauss_rats, tuple(Phase)), (laurents, _NO_SHRINK),
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
    assert parse_scalar("2 - t*( A )") == Dual(
        into_ring(GaussRat(2), LAURENT), -parse_scalar("A", LAURENT)
    )
    # columns count from the start of the whole text
    for text, column in [
        ("( A + % )/( 1 )", 6),
        ("1 + t*( A % )", 10),
        ("( 1 + A )/( 1 ^ )", 14),
        ("1/0", 2),
    ]:
        with pytest.raises(ScalarSyntaxError, match=f"at column {column}$"):
            parse_scalar(text)


@pytest.mark.parametrize("text, column", [("A^²", 2), ("²", 0), ("1²", 1), ("( 3²/2 )i", 3)])
def test_a_digit_that_int_does_not_read_is_a_syntax_error(text, column):
    # '²' is a digit to str.isdigit but not a decimal digit, so int() refuses it
    with pytest.raises(ScalarSyntaxError, match=f"unexpected character '²' at column {column}$"):
        parse_scalar(text)


# -- the conversion table of into_ring -------------------------------------------

# golden/into_ring_table.txt, written by _table_text(_conversion_table()),
# holds one cell per (value, target ring): the result's ring and text, or
# the exact error.  It was recorded while moves up and down the tower were
# still two functions; every cell must read the same today, except the ones
# test_into_ring_matches_the_recorded_table names as changed on purpose.
TABLE = Path(__file__).resolve().parent / "golden" / "into_ring_table.txt"

_TABLE_RINGS = [GAUSS, LAURENT, RATFUN, dual(GAUSS), dual(LAURENT), dual(RATFUN)]
# constants, monomials, polynomials, denominator 1, non-unit denominators, zero
_TABLE_BASES = [(GAUSS, t) for t in ("0", "2", "-3/2 + i")] + [
    (LAURENT, t) for t in ("0", "3", "A", "2*A^-2", "1 + A")
] + [
    (RATFUN, t) for t in ("0", "2", "i*A^-1", "( 1 + A )/( 1 )", "( 1 )/( 1 + A )",
                          "( A )/( 1 - A^2 )")
]
# one slope in every ring below and one only its own ring holds
_TABLE_SLOPES = {GAUSS: ("1/2", "i"), LAURENT: ("1/2", "A^-1 + A"),
                 RATFUN: ("1/2", "( 1 )/( 1 - A )")}


def _table_values():
    values = []
    for ring, text in _TABLE_BASES:
        x = parse_scalar(text, ring)
        values.append(x)
        for slope in (ring.zero(), *(parse_scalar(s, ring) for s in _TABLE_SLOPES[ring])):
            values.append(Dual(x, slope))
    return values


def _table_cell(x, target) -> str:
    try:
        y = into_ring(x, target)
    except ScalarError as e:
        return f"! {type(e).__name__}: {e}"
    return f"= {ring_of(y)}\t{format_scalar(y)}"


def _conversion_table() -> list[tuple[object, object, str]]:
    """(value, target ring, cell) for every value of the table and ring."""
    return [(x, r, _table_cell(x, r)) for x in _table_values() for r in _TABLE_RINGS]


def _table_text(table) -> str:
    return "".join(f"{ring_of(x)}\t{format_scalar(x)}\t{r}\t{cell}\n" for x, r, cell in table)


def test_into_ring_matches_the_recorded_table():
    table = _conversion_table()
    recorded = TABLE.read_text().splitlines(keepends=True)
    now = _table_text(table).splitlines(keepends=True)
    assert len(now) == len(recorded) == 336
    cells = {(format_scalar(x), str(ring_of(x)), str(r)): line
             for (x, r, _), line in zip(table, recorded)}
    changed = []
    for (x, r, _), old, new in zip(table, recorded, now):
        if old == new:
            continue
        # the one change: a dual value with zero slope, sent to a non-dual
        # ring above its base, lands there as its body does; it used to
        # raise "cannot demote"
        assert isinstance(x, Dual) and x.slope.is_zero() and r.base is None, old
        assert old.endswith(f"\t! RingMismatchError: cannot demote to {r}\n")
        body = cells[format_scalar(x.body), str(ring_of(x.body)), str(r)]
        assert new.split("\t", 3)[3] == body.split("\t", 3)[3]
        changed.append(f"{ring_of(x.body)} -> {r}")
    assert sorted(changed) == (
        ["gauss -> laurent"] * 3 + ["gauss -> ratfun"] * 3 + ["laurent -> ratfun"] * 5
    )


@pytest.mark.parametrize("ring", _TABLE_RINGS, ids=str)
def test_ring_constants_are_those_of_its_class(ring):
    def text(ring, n):
        if ring.base is not None:
            return f"{text(ring.base, n)} + t*( {text(ring.base, 0)} )"
        return f"( {n} )/( 1 )" if ring is RATFUN else str(n)

    for n in (0, 1, -3):
        x = ring.from_int(n)
        assert ring_of(x) == ring and format_scalar(x) == text(ring, n)
    assert ring.zero() == ring.from_int(0) and ring.one() == ring.from_int(1)
    if ring is LAURENT:
        assert ring.zero().terms == () and ring.from_int(-3).terms == ((0, GaussRat(-3)),)
    if ring is RATFUN:
        assert ring.from_int(-3).den.terms == ((0, GaussRat(1)),)


@settings(max_examples=40, deadline=None)
@given(laurents)
def test_promote_demote_inverse(x):
    up = into_ring(x, RATFUN)
    assert ring_of(up) is RATFUN
    assert into_ring(up, LAURENT) == x
    up2 = into_ring(x, dual(LAURENT))
    assert up2.slope.is_zero() and up2.body == x
    assert into_ring(up2, LAURENT) == x and into_ring(up2, RATFUN) == up


def test_into_a_dual_ring_names_the_part_that_does_not_fit():
    # the error names the cause: A has no value in gauss
    with pytest.raises(RingMismatchError, match="^A involves A; not a Gaussian rational$"):
        into_ring(parse_scalar("A"), dual(GAUSS))
    x = Dual(parse_scalar("( 2 )/( 1 )"), parse_scalar("( i )/( 1 )"))
    assert into_ring(x, dual(GAUSS)) == Dual(GaussRat(2), GaussRat(0, 1))
    assert into_ring(GaussRat(3), dual(RATFUN)) == Dual(RATFUN.from_int(3), RATFUN.zero())


def test_promote_rejects_downward():
    x = parse_scalar("( 1 )/( A + 1 )", RATFUN)
    with pytest.raises(RingMismatchError, match="nontrivial denominator; not demotable$"):
        into_ring(x, LAURENT)
    with pytest.raises(RingMismatchError, match="^dual value with nonzero slope cannot demote$"):
        into_ring(Dual(GaussRat(1), GaussRat(1)), RATFUN)


def test_mixed_ring_arithmetic_rejected():
    a = parse_scalar("A", LAURENT)
    g = parse_scalar("2", GAUSS)
    with pytest.raises(RingMismatchError, match="^cannot mix LaurentA with gauss; convert with into_ring$"):
        a + g
    with pytest.raises(RingMismatchError, match="^cannot mix GaussRat with laurent; convert with into_ring$"):
        g * a


def test_laurent_inverse_only_for_monomials():
    a = parse_scalar("3i*A^-2", LAURENT)
    assert a * a.inv() == LAURENT.one()
    with pytest.raises(
        NotInvertibleError,
        match=" is not a unit in the Laurent ring; convert into ratfun with into_ring for general division$",
    ):
        parse_scalar("A + 1", LAURENT).inv()
    # converting into ratfun cannot help with zero, so zero is refused as
    # gauss and ratfun refuse it
    for zero in (LaurentA(), Dual(LAURENT.zero(), LAURENT.one())):
        with pytest.raises(NotInvertibleError, match="^division by zero in the Laurent ring$"):
            zero.inv()


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


def test_specialize_at_zero_names_the_negative_power():
    # a negative power of A has no value at A = 0; the refusal names it, as
    # a vanishing denominator is named
    zero = GaussRat(0)
    assert specialize(parse_scalar("A^2 + 3", LAURENT), zero) == GaussRat(3)
    assert specialize(parse_scalar("( 1 + A )/( 1 - A )", RATFUN), zero) == GaussRat(1)
    for x in (
        parse_scalar("A^2 - 3*A^-2", LAURENT),
        parse_scalar("( 1 + A )/( A^2 - 2*A^4 )", RATFUN),
        Dual(LAURENT.one(), parse_scalar("i*A^-2", LAURENT)),
    ):
        with pytest.raises(NotInvertibleError, match="^A\\^-2 is undefined at A = 0$"):
            specialize(x, zero)


def test_format_is_canonical_and_ascending():
    x = parse_scalar("A^3 + A^-2", LAURENT)
    assert format_scalar(x) == "A^-2 + A^3"
    y = parse_scalar("-1 - i", GAUSS)
    assert format_scalar(y) == "-1 - i"


def _zi_times(a, b):
    """The product of two dense polynomials over Z[i] (lists of (re, im))."""
    out = [(0, 0)] * (len(a) + len(b) - 1)
    for j, (x, y) in enumerate(a):
        for k, (u, v) in enumerate(b):
            re, im = out[j + k]
            out[j + k] = re + x * u - y * v, im + x * v + y * u
    return out


def _zi_plus(a, b):
    n = max(len(a), len(b))
    a, b = a + [(0, 0)] * (n - len(a)), b + [(0, 0)] * (n - len(b))
    out = [(x + u, y + v) for (x, y), (u, v) in zip(a, b)]
    while out and out[-1] == (0, 0):
        out.pop()
    return out


@pytest.mark.parametrize(
    "a, b",
    [
        # x^2 + 1 by 2x + 1 leaves a remainder, x^2 - 1 by x + 1 none
        ([(1, 0), (0, 0), (1, 0)], [(1, 0), (2, 0)]),
        ([(-1, 0), (0, 0), (1, 0)], [(1, 0), (1, 0)]),
        # Gaussian leads, and a divisor of the dividend's degree
        ([(3, -1), (0, 2), (5, 0), (-1, 1)], [(2, 1), (1, 2)]),
        ([(0, 1), (4, 0), (1, 1)], [(7, 0), (1, -3), (2, 0)]),
        # a divisor of degree 0
        ([(1, 0), (2, 3)], [(1, 1)]),
    ],
)
def test_pseudo_division_identity(a, b):
    # l^k a = q b + r with l the lead of b, k = deg a - deg b + 1, deg r < deg b
    k = len(a) - len(b) + 1
    lead = [(1, 0)]
    for _ in range(k):
        lead = _zi_times(lead, [b[-1]])
    q, r = _zi_divmod(_zi_times(lead, a), b)
    assert _zi_times(lead, a) == _zi_plus(_zi_times(q, b), r)
    assert len(r) < len(b) and (not r or r[-1] != (0, 0))
    assert _zi_prem(a, b) == r


def _det(rows):
    """The determinant of a square matrix, by elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def _subresultant(u, v, j):
    """The degree-j subresultant of integer polynomials u and v (lowest
    coefficient first), deg u >= deg v > j: the determinant polynomial of
    the Sylvester matrix of x^(deg v - j - 1) u, ..., u, x^(deg u - j - 1) v,
    ..., v.  With r rows, its coefficient of x^k is the determinant of the
    first r - 1 columns and the column of x^k."""
    m, n = len(u) - 1, len(v) - 1
    width = m + n - j
    rows = [[0] * k + u[::-1] + [0] * (width - k - m - 1) for k in range(n - j)]
    rows += [[0] * k + v[::-1] + [0] * (width - k - n - 1) for k in range(m - j)]
    lead = len(rows) - 1
    return [_det([row[:lead] + [row[width - 1 - k]] for row in rows]) for k in range(j + 1)]


def test_subresultant_gcd_keeps_the_subresultant_size():
    # Knuth's pair (TAOCP 4.6.1), whose remainder sequence drops degree by
    # 2, each times x - 2: the gcd is the degree-1 subresultant, exactly.
    # Updating h by anything but g^delta / h^(delta - 1) still divides
    # exactly here, but leaves a larger multiple of x - 2.
    u = _zi_times([(c, 0) for c in (-5, 2, 8, -3, -3, 0, 1, 0, 1)], [(-2, 0), (1, 0)])
    v = _zi_times([(c, 0) for c in (21, -9, -4, 0, 5, 0, 3)], [(-2, 0), (1, 0)])
    s1 = _subresultant([x for x, _ in u], [x for x, _ in v], 1)
    assert s1 == [-521416, 260708]
    assert _zi_gcd(u, v) == [(int(c), 0) for c in s1]


def test_polynomial_helper_invariants_raise():
    # x^2 + 1 over 2x + 1 has the quotient coefficient 1/2, outside Z[i];
    # 1 + i does not divide 1
    for inexact in (
        lambda: _zi_divmod([(1, 0), (0, 0), (1, 0)], [(1, 0), (2, 0)]),
        lambda: _zi_div((1, 0), (1, 1)),
    ):
        with pytest.raises(ScalarInvariantError, match="^inexact division in Z\\[i\\]$"):
            inexact()


def test_ratfun_normalisation_raises_on_inexact_division(monkeypatch):
    # a gcd that does not divide the numerator must not pass silently
    monkeypatch.setattr(scalars, "_zi_gcd", lambda p, q: [(2, 0), (1, 0)])
    num = parse_scalar("A^2 + 1", LAURENT)
    den = parse_scalar("A + 2", LAURENT)
    with pytest.raises(ScalarInvariantError, match="inexact polynomial division"):
        RatFunA(num, den)


# -- RatFunA normalisation against Euclid over Q(i) --------------------------

_small = st.integers(min_value=-4, max_value=4)
# Gaussian integers, and Gaussian rationals over a denominator up to 6
_coefficients = st.builds(
    lambda a, b, d: GaussRat(Fraction(a, d), Fraction(b, d)),
    _small, _small, st.sampled_from((1, 1, 1, 2, 3, 4, 6)),
)


@st.composite
def _polynomials(draw, max_terms=4):
    """A nonzero Laurent polynomial, its exponents from -3 to 5."""
    terms = draw(st.lists(
        st.tuples(st.integers(min_value=-3, max_value=5), _coefficients),
        min_size=1, max_size=max_terms,
    ))
    x = LaurentA(terms)
    return x if not x.is_zero() else LaurentA(((draw(_small), GaussRat(1)),))


# common factors whose removal is where a gcd over Z[i] differs from one
# over Q(i): non-monic leads, Gaussian content, rational coefficients
_G = GaussRat
_PLANTED = [
    LaurentA(terms)
    for terms in (
        ((0, _G(2)), (1, _G(3))),
        ((0, _G(-1)), (1, _G(1, 2))),
        ((0, _G(1)), (2, _G(1, 1))),
        ((0, _G(0, Fraction(-2, 3))), (2, _G(Fraction(1, 2)))),
        ((0, _G(1, 1)), (3, _G(1, 2))),
        ((-1, _G(2)), (1, _G(3, -1))),
    )
]


@st.composite
def _ratfun_parts(draw):
    num, den = draw(_polynomials()), draw(_polynomials())
    planted = draw(st.lists(st.sampled_from(_PLANTED), max_size=2))
    for f in planted:
        num, den = num * f, den * f
    if draw(st.booleans()):
        num = num * LaurentA(((draw(st.integers(-4, 4)), GaussRat(1)),))
    return (LAURENT.zero() if draw(st.integers(0, 19)) == 0 else num), den


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_ratfun_parts())
def test_ratfun_normalisation_matches_euclid_over_q_i(parts):
    num, den = parts
    x = RatFunA(num, den)
    assert (x.num, x.den) == ratfun_parts(num, den)
    if not num.is_zero():
        y = x.inv()
        assert (y.num, y.den) == ratfun_parts(den, num)


def _lp(text):
    return parse_scalar(text, LAURENT)


# (q, r): q's lead over Z[i], once its denominators are cleared, is 1, -i
# (3 - i*A), i, and the non-units 6i, 3 and 1 + i; every r has a unit lead
_DIVISORS = [
    ("1 + A^4", "2 + A"),
    ("1 - 1/3i*A", "1 + A^2"),
    ("2 + 1/3i*A^2", "3 - A"),
    ("1/3i + 2i*A", "i + A"),
    ("1 + 3*A", "1 + A + A^2"),
    ("2 + A + i*A", "1 - A"),
]


@pytest.mark.parametrize("q, r", _DIVISORS)
def test_ratfun_with_a_dividing_denominator_matches_the_gcd_path(q, r, monkeypatch):
    # RatFunA(p*q, q) and RatFunA(p*q, q*r): with a unit lead the first is
    # one exact division and takes no gcd at all, and the second takes the
    # gcd of q*r and the division's remainder.  Both give the canonical
    # value of the gcd path, and of Euclid over Q(i)
    p, q, r = _lp("1/2*A^-1 + 3 - i*A^3 + A^5"), _lp(q), _lp(r)
    cases = [(p * q, q), (p * q, q * r), (p * q * r, q * r * r)]
    calls = []
    gcd = scalars._zi_gcd
    monkeypatch.setattr(scalars, "_zi_gcd", lambda u, v: calls.append(1) or gcd(u, v))
    fast = [RatFunA(num, den) for num, den in cases]
    unit = q.as_ints()[1][-1] in scalars._ZI_UNITS
    assert len(calls) == (2 if unit else 3)
    calls.clear()
    monkeypatch.setattr(scalars, "_ZI_UNITS", frozenset())
    slow = [RatFunA(num, den) for num, den in cases]
    assert len(calls) == len(cases)
    for x, y, (num, den) in zip(fast, slow, cases):
        assert (x.num, x.den) == (y.num, y.den) == ratfun_parts(num, den)
    assert (fast[0].num, fast[0].den) == (p, LAURENT.one())


@st.composite
def _ratfun_sums(draw):
    """Two ratfuns whose denominators are equal, share planted factors,
    share none, or of which one is 1; their sum sometimes cancels, in
    whole or in part."""
    kind = draw(st.sampled_from(("equal", "shared", "coprime", "unit")))
    picked = draw(st.permutations(range(len(_PLANTED))))
    first, second = (math.prod((_PLANTED[k] for k in picked[a:b]), start=LAURENT.one())
                     for a, b in ((0, 2), (2, 4)))
    if kind == "equal":
        dens = (first, first)
    elif kind == "shared":
        shared = _PLANTED[picked[4]]
        dens = (first * shared, draw(_polynomials(max_terms=3)) * shared)
    elif kind == "coprime":
        dens = (first, second)
    else:
        unit = draw(st.sampled_from((_G(1), _G(-2, 1), _G(0, Fraction(1, 3)))))
        dens = (first, LaurentA(((draw(st.integers(-2, 2)), unit),)))
    if draw(st.booleans()):
        dens = dens[::-1]
    x = RatFunA(draw(_polynomials()), dens[0])
    y = RatFunA(draw(_polynomials()), dens[1])
    cancel = draw(st.integers(0, 3))
    if cancel == 0:
        y = -x
    elif cancel == 1:
        y = y - x
    return x, y


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_ratfun_sums())
def test_ratfun_sums_match_euclid_over_q_i(pair):
    x, y = pair
    want = ratfun_parts(x.num * y.den + y.num * x.den, x.den * y.den)
    for total in (x + y, y + x):
        assert (total.num, total.den) == want


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
    # == against ints and Fractions, and hashes as the value it equals: a
    # real value as its Fraction, any other as the pair of its parts
    assert (x == k) == (rx == rk)
    assert (x == Fraction(k)) == (rx == rk)
    assert (x == rx[0]) == (not rx[1])
    assert (x == rx[0].numerator) == (not rx[1] and rx[0].denominator == 1)
    assert (x == y) == (rx == ry)
    assert hash(x) == (hash(rx) if rx[1] else hash(rx[0]))
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


def test_gaussrat_hashes_as_the_number_it_equals():
    # x == y must give hash(x) == hash(y), or sets and dict keys mix them up
    assert 2 in {GaussRat(2)} and GaussRat(2) in {2}
    assert hash(GaussRat(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert {GaussRat(Fraction(-3, 4)): "x"}[Fraction(-3, 4)] == "x"
    assert GaussRat(0) in {0} and GaussRat(0, 1) not in {0, 1}


def test_gaussrat_refuses_a_float_part():
    # 0.1 is not 1/10 in binary; a float part would enter as its exact
    # binary value, so it is refused as a non-int exponent is
    for re, im in ((0.1, 0), (0, 0.5), (Fraction(1, 2), 2.0), (1.0, 1.0)):
        with pytest.raises(TypeError, match="float"):
            GaussRat(re, im)
    assert GaussRat(Fraction(1, 10)) == Fraction(1, 10)


# -- Laurent and dual fast paths ---------------------------------------------

_small_gauss = st.sampled_from([
    GaussRat(Fraction(a, d), Fraction(b, d))
    for a in range(-2, 3) for b in range(-2, 3) for d in (1, 2, 3) if a or b
])
_term_maps = st.dictionaries(st.integers(min_value=-3, max_value=3), _small_gauss, max_size=3)


@st.composite
def _laurent_pairs(draw):
    """Two polynomials of 0-3 terms; the second may take the negation of a
    term of the first, so that their sum cancels it exactly."""
    x = draw(_term_maps)
    y = draw(_term_maps)
    if x and draw(st.booleans()):
        k = draw(st.sampled_from(sorted(x)))
        y = dict(sorted(y.items())[:2])
        y[k] = -x[k]
    return LaurentA(x), LaurentA(y)


def _assert_ascending_nonzero(z):
    exps = [k for k, _ in z.terms]
    assert exps == sorted(set(exps))
    assert all(not c.is_zero() for _, c in z.terms)


# the explain phase would spend about a minute annotating a failure
@settings(max_examples=300, phases=tuple(p for p in Phase if p is not Phase.explain))
@given(_laurent_pairs())
def test_laurent_arithmetic_matches_the_normalising_constructor(pair):
    x, y = pair
    neg = [(k, -c) for k, c in y.terms]
    prod = [(k1 + k2, c1 * c2) for k1, c1 in x.terms for k2, c2 in y.terms]
    for got, want in (
        (x + y, [*x.terms, *y.terms]), (y + x, [*x.terms, *y.terms]),
        (x - y, [*x.terms, *neg]), (x * y, prod), (y * x, prod),
    ):
        _assert_ascending_nonzero(got)
        assert got == LaurentA(want)
    assert (x + (-x)).terms == () and (x - x).terms == ()
    assert (x * 0).terms == () and 0 + x == x and x + 0 == x


# -- LaurentA against a {exponent: (Fraction, Fraction)} reference -------------

_ref_parts = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
# gapped exponents, so that 1 + A^4 and A^-3 + A^6 are drawn
_ref_polys = st.dictionaries(
    st.sampled_from((-3, -1, 0, 1, 4, 6)), st.tuples(_ref_parts, _ref_parts), max_size=4,
).map(lambda x: {k: c for k, c in x.items() if any(c)})


@st.composite
def _ref_pairs(draw):
    """Two reference polynomials; the second may take the negation of some
    or all of the first's terms, so that their sum cancels them."""
    x, y = draw(_ref_polys), draw(_ref_polys)
    for k in draw(st.lists(st.sampled_from(sorted(x)), unique=True)) if x else ():
        y[k] = (-x[k][0], -x[k][1])
    return x, y


def _laurent_of(ref) -> LaurentA:
    return LaurentA({k: GaussRat(*c) for k, c in ref.items()})


def _assert_stored_form(x):
    v, p, m = x.as_ints()
    assert type(p) is tuple and all(type(n) is int for n in (v, m, *(n for c in p for n in c)))
    if not p:
        assert (v, m) == (0, 1)
    else:
        assert p[0] != (0, 0) and p[-1] != (0, 0)
        assert m > 0 and math.gcd(m, *(n for c in p for n in c)) == 1
    assert LaurentA.from_ints(v, p, m) == x


@settings(max_examples=300, deadline=None,
          phases=tuple(p for p in Phase if p is not Phase.explain))
@given(_ref_pairs())
def test_laurent_arithmetic_matches_the_fraction_reference(pair):
    rx, ry = pair
    x, y = _laurent_of(rx), _laurent_of(ry)
    for value, ref in (
        (x, rx), (y, ry), (-x, laurent_neg(rx)),
        (x + y, laurent_add(rx, ry)), (y + x, laurent_add(ry, rx)),
        (x - y, laurent_add(rx, laurent_neg(ry))),
        (x * y, laurent_mul(rx, ry)), (y * x, laurent_mul(ry, rx)),
    ):
        assert laurent_terms(value) == ref
        assert format_scalar(value) == laurent_text(ref)
        _assert_stored_form(value)
    for value, ref in ((x, rx), (y, ry)):
        if len(ref) == 1:
            assert laurent_terms(value.inv()) == laurent_inv(ref)
            _assert_stored_form(value.inv())
    # equal values have equal stored forms and hashes, however reached
    assert (x == y) == (rx == ry)
    back = (x + y) - y
    assert back == x and back.as_ints() == x.as_ints() and hash(back) == hash(x)
    if rx == ry:
        assert hash(x) == hash(y)


def test_laurent_from_ints_is_the_inverse_of_as_ints():
    # zero pairs at either end are dropped, and the factor 2 that m shares
    # with every part is divided out
    x = LaurentA.from_ints(-2, [(0, 0), (2, 0), (0, 0), (0, 4), (0, 0)], 6)
    assert x.as_ints() == (-1, ((1, 0), (0, 0), (0, 2)), 3)
    assert x == parse_scalar("1/3*A^-1 + 2/3i*A", LAURENT)
    assert LaurentA.from_ints(5, [(0, 0)], 7).as_ints() == (0, (), 1)
    assert LaurentA.from_ints(*x.as_ints()) == x
    for m in (0, -3):
        with pytest.raises(ScalarError, match=f"^denominator {m} is not positive$"):
            LaurentA.from_ints(0, [(1, 0)], m)


def test_every_way_to_build_a_laurent_value_gives_one_stored_form():
    # parsed, computed, moved down from ratfun, unpacked from packed lanes
    # and read off the oracle's state counts, the trefoil's polynomial is
    # one stored form, so == and hash agree across all of them
    a = scalars.A
    want = parse_scalar("-A^-16 + A^-12 + A^-4", LAURENT)
    lanes = [sum(c << 8 * (e + 16) for e, c in ((-16, -1), (-12, 1), (-4, 1))), 0]
    built = [
        -(a**-16) + a**-12 + a**-4,
        (a**12 - 1 + a**4) * a**-16 * (2 * a) * (a.inv() / 2),
        into_ring(RatFunA(want * (1 + a), 1 + a), LAURENT),
        unpack(lanes, 8, a**-16),
        jones_polynomial(2, [(1, 1)] * 3),
        LaurentA.from_ints(*want.as_ints()),
    ]
    for x in built:
        assert x == want and hash(x) == hash(want) and x.as_ints() == want.as_ints()
    assert want.as_ints() == (-16, ((-1, 0), *((0, 0),) * 3, (1, 0), *((0, 0),) * 7, (1, 0)), 1)


def test_dual_arithmetic_keeps_its_coercion_rule():
    over_ratfun = Dual(into_ring(scalars.A, RATFUN), RATFUN.one())
    over_laurent = Dual(scalars.A, LAURENT.one())
    for x, y in ((over_ratfun, over_laurent), (over_laurent, over_ratfun)):
        for op in (lambda u, v: u + v, lambda u, v: u * v, lambda u, v: u - v):
            with pytest.raises(
                RingMismatchError,
                match="^dual numbers over different base rings; convert with into_ring$",
            ):
                op(x, y)
    with pytest.raises(RingMismatchError):
        over_laurent + scalars.A
    assert over_laurent + 2 == 2 + over_laurent == Dual(scalars.A + 2, LAURENT.one())
    half = Fraction(1, 2)
    assert over_laurent * half == half * over_laurent == Dual(
        scalars.A * half, LAURENT.from_int(1) * half
    )
    assert over_laurent * over_laurent == Dual(scalars.A**2, 2 * scalars.A)


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
        LaurentA: ("terms", "_v", "_p", "_m"),
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


def test_ratfun_and_dual_constructors_refuse_bad_parts():
    a, one = parse_scalar("A", LAURENT), GaussRat(1)
    cases = [
        (RingMismatchError, "RatFunA parts must be LaurentA values", lambda: RatFunA(one)),
        (RingMismatchError, "RatFunA parts must be LaurentA values", lambda: RatFunA(a, one)),
        (NotInvertibleError, "zero denominator in ratfun", lambda: RatFunA(a, LAURENT.zero())),
        (RingMismatchError, "nested dual numbers are not supported",
         lambda: Dual(Dual(one, one), Dual(one, one))),
        (RingMismatchError, "nested dual numbers are not supported",
         lambda: Dual(one, Dual(one, one))),
        (RingMismatchError, "dual body and slope live in different rings: gauss vs laurent",
         lambda: Dual(one, a)),
    ]
    for error, message, call in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
