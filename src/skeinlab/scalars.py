"""Exact scalars: Gaussian rationals, sparse Laurent polynomials in one
variable A, their fraction field, and square-zero dual numbers.

The tower is

    GaussRat  ⊂  LaurentA  ⊂  RatFunA        (each also lifts under Dual)

and every ring supports +, -, *, /, ** on same-ring values, `is_zero()`,
`inv()`, structural equality, and a canonical text form produced by
`format_scalar` and read back by `parse_scalar`.  Mixing rings in an
arithmetic operation raises RingMismatchError.  A value changes ring only
explicitly, through `into_ring`: up the tower always, down it and out of
a dual ring when the value lies in the target.

All arithmetic is exact and runs on Python ints: a GaussRat is Gaussian-
integer parts over one positive denominator, and every other ring is built
from GaussRat coefficients.  Fractions appear only at the edges (the `re` /
`im` views, text, and `GaussRat(re, im)`); there is no floating point
anywhere in this module.  Values are immutable, and arithmetic builds its
results in canonical form directly, so the normalising public constructors
run only on values that come from outside.

A RatFunA is normalised on polynomials over the Gaussian integers Z[i].
Each part is cleared to a dense list of (re, im) int pairs over one
integer denominator, its power of A set aside.  The gcd of the two parts
is the last remainder of the subresultant polynomial remainder sequence
(Collins 1967, Brown 1971).  Each step takes a pseudo-remainder of
l^k * u by v, whose long division has its quotient in Z[i][A], and divides
it by g * h^delta, which the subresultant theorem says divides it; so every
division is exact in Z[i].  That gcd may carry a content far larger than
the parts.  Its primitive part g0 divides both parts in Z[i][A] (Gauss's
lemma), so lead(g0) divides the lead l of the denominator.  The parts are
multiplied by l and divided by l * gcd / lead(gcd) = (l / lead(g0)) * g0,
whose lead is l, and each quotient coefficient is again an exact division
in Z[i].  The integer denominators and the factor that makes the new
denominator's constant coefficient 1 are folded into one Gaussian
rational, and each coefficient is reduced once by `_gauss`.  A division
that is not exact is an internal fault and raises ScalarInvariantError.
When the denominator's lead is a unit of Z[i] (1 + A^4, or (3 - iA)^k once
cleared), the long division of the numerator by it is exact at every step,
so it is tried first: with no remainder the quotient over 1 is the answer,
and no gcd is taken; otherwise the PRS starts from the denominator and that
remainder.
A sum of two canonical values is Henrici's: it takes the gcd of the two
denominators and then only that of the numerator with it, never the gcd
of the numerator with the whole product of denominators.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from . import SkeinlabError


class ScalarError(SkeinlabError):
    """Base class for scalar-tower errors."""


class RingMismatchError(ScalarError):
    """Arithmetic mixed two different rings, or into_ring found no value of
    x in the target."""


class NotInvertibleError(ScalarError):
    """Inverse requested for a non-unit (reports which element)."""


class ScalarSyntaxError(ScalarError):
    """parse_scalar rejected the input; message includes the column."""


class ScalarInvariantError(ScalarError):
    """An internal invariant of exact polynomial arithmetic failed."""


RationalLike = Union[int, Fraction]


class _Scalar:
    """Operators that every ring of the tower derives the same way.

    A subclass supplies `_const` (an int or Fraction in its own ring), `+`,
    unary `-`, `*` and `inv`.  Coercion of the other operand, subtraction,
    division (both reflected forms included), integer powers, the canonical
    `str` and the `repr` follow from those.

    Scalars are immutable: their fields live in `__slots__`, are written
    once by the class's constructors, and assigning or deleting one raises
    AttributeError.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _restore, (type(self), tuple(getattr(self, s) for s in self.__slots__))

    def _coerce(self, other):
        """other in this ring: itself when of the same class, an int or
        Fraction as a constant, None for a type outside the tower;
        RingMismatchError for another ring of the tower."""
        if other.__class__ is self.__class__:
            return other
        if isinstance(other, (int, Fraction)):
            return self._const(other)
        if isinstance(other, _Scalar):
            raise RingMismatchError(
                f"cannot mix {type(self).__name__} with {ring_of(other).name}; "
                "convert with into_ring"
            )
        return None

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"{type(self).__name__}({format_scalar(self)!r})"

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an int")
        base = self if n >= 0 else self.inv()
        n = abs(n)
        out = self._const(1)
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out


def _restore(cls, values):
    """Unpickling and copying: a scalar from its slot values, as stored."""
    x = object.__new__(cls)
    for name, v in zip(cls.__slots__, values):
        object.__setattr__(x, name, v)
    return x


def _setters(cls):
    """Raw writers of cls's slots, for constructors of canonical values."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


_new = object.__new__


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


class GaussRat(_Scalar):
    """Element a + b*i of Q(i), held as Gaussian-integer parts over one
    denominator: three ints (a, b, d) for (a + b*i)/d, with d > 0 and
    gcd(a, b, d) = 1.  Zero is (0, 0, 1), and equal values have equal
    parts.  Arithmetic runs on ints and takes a gcd only when the result's
    denominator is not 1; `re` and `im` read the parts as Fractions."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            if isinstance(re, float) or isinstance(im, float):
                raise TypeError("parts must be int or Fraction, not float")
            re, im = Fraction(re), Fraction(im)
            d = lcm(re.denominator, im.denominator)
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def as_ints(self) -> tuple[int, int, int]:
        """The stored parts (a, b, d): self = (a + b*i)/d."""
        return self._a, self._b, self._d

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def _const(self, x: RationalLike) -> "GaussRat":
        return GaussRat(x)

    def __add__(self, other):
        if other.__class__ is not GaussRat:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        return _gauss(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _gauss(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if other.__class__ is not GaussRat:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _gauss(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def inv(self) -> "GaussRat":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise NotInvertibleError("division by zero in Q(i)")
        return _gauss(d * a, -d * b, n)

    def __eq__(self, other):
        if isinstance(other, GaussRat):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real value equals its int or Fraction, so it hashes as one
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussRat({self.re}, {self.im})"


_set_a, _set_b, _set_d = _setters(GaussRat)


def _gauss(a: int, b: int, d: int) -> GaussRat:
    """(a + b*i)/d for d > 0, divided through by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    x = _new(GaussRat)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


_G_ZERO = GaussRat(0)
_G_ONE = GaussRat(1)
I = GaussRat(0, 1)


# ---------------------------------------------------------------------------
# Laurent polynomials in A over Q(i)
# ---------------------------------------------------------------------------


class LaurentA(_Scalar):
    """Sparse Laurent polynomial: ascending (exponent, nonzero coeff) pairs."""

    __slots__ = ("terms",)

    terms: tuple[tuple[int, GaussRat], ...]

    def __init__(self, terms: Iterable[tuple[int, GaussRat]] = ()):
        acc: dict[int, GaussRat] = {}
        for k, c in terms.items() if isinstance(terms, dict) else terms:
            acc[k] = acc.get(k, _G_ZERO) + c
        _set_terms(self, _sorted_terms(acc))

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, k: int) -> GaussRat:
        for e, c in self.terms:
            if e == k:
                return c
        return _G_ZERO

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def _const(self, x: RationalLike) -> "LaurentA":
        return _laurent_const(GaussRat(x))

    def __add__(self, other):
        if other.__class__ is not LaurentA:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        s, o = self.terms, other.terms
        if not o:
            return self
        if not s:
            return other
        if len(s) == 1 and len(o) == 1:
            (k1, c1), (k2, c2) = s[0], o[0]
            if k1 != k2:
                return _laurent((s[0], o[0]) if k1 < k2 else (o[0], s[0]))
            c = c1 + c2
            return _L_ZERO if c.is_zero() else _laurent(((k1, c),))
        acc = dict(s)
        for k, c in o:
            prev = acc.get(k)
            acc[k] = c if prev is None else prev + c
        return _laurent(_sorted_terms(acc))

    __radd__ = __add__

    def __neg__(self):
        return _laurent(tuple([(k, -c) for k, c in self.terms]))

    def __mul__(self, other):
        if other.__class__ is not LaurentA:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        s, o = self.terms, other.terms
        if not s or not o:
            return _L_ZERO
        # a monomial factor, moved into o as the product commutes, shifts
        # exponents and scales coefficients; Q(i) has no zero divisors, so
        # no term vanishes and the order holds
        if len(s) == 1:
            s, o = o, s
        if len(o) == 1:
            k2, c2 = o[0]
            return _laurent(tuple([(k + k2, c * c2) for k, c in s]))
        acc: dict[int, GaussRat] = {}
        for k1, c1 in s:
            for k2, c2 in o:
                k = k1 + k2
                prev = acc.get(k)
                acc[k] = c1 * c2 if prev is None else prev + c1 * c2
        return _laurent(_sorted_terms(acc))

    __rmul__ = __mul__

    def inv(self) -> "LaurentA":
        if not self.is_monomial():
            raise NotInvertibleError(
                f"{format_scalar(self)!r} is not a unit in the Laurent ring; "
                "convert into ratfun with into_ring for general division"
            )
        k, c = self.terms[0]
        return _laurent(((-k, c.inv()),))

    def __eq__(self, other):
        if other.__class__ is not LaurentA:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.terms,))


(_set_terms,) = _setters(LaurentA)


def _laurent(terms: tuple[tuple[int, GaussRat], ...]) -> LaurentA:
    """LaurentA from terms already ascending, with distinct exponents and
    nonzero coefficients."""
    x = _new(LaurentA)
    _set_terms(x, terms)
    return x


def _sorted_terms(acc: dict[int, GaussRat]) -> tuple[tuple[int, GaussRat], ...]:
    return tuple([(k, acc[k]) for k in sorted(acc) if not acc[k].is_zero()])


def _laurent_const(c: GaussRat) -> LaurentA:
    return _L_ZERO if c.is_zero() else _laurent(((0, c),))


_L_ZERO = _laurent(())
_ONE_TERMS = ((0, _G_ONE),)
_L_ONE = _laurent(_ONE_TERMS)
A = _laurent(((1, _G_ONE),))
A_INV = _laurent(((-1, _G_ONE),))


def _zi_dense(x: LaurentA) -> tuple[list[tuple[int, int]], int, int]:
    """(p, v, m) with x = A^v * p(A) / m: p a dense polynomial over Z[i]
    with p(0) != 0, and m > 0 the lcm of the coefficients' denominators."""
    terms = x.terms
    v = terms[0][0]
    m = lcm(*[c._d for _, c in terms])
    p = [(0, 0)] * (terms[-1][0] - v + 1)
    for k, c in terms:
        e = m // c._d
        p[k - v] = (c._a * e, c._b * e)
    return p, v, m


def _zi_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def _zi_pow(x: tuple[int, int], k: int) -> tuple[int, int]:
    out = (1, 0)
    for _ in range(k):
        out = _zi_mul(out, x)
    return out


def _zi_div(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x / y in Z[i]; ScalarInvariantError when y does not divide x."""
    (a, b), (c, d) = x, y
    n = c * c + d * d
    re, r1 = divmod(a * c + b * d, n)
    im, r2 = divmod(b * c - a * d, n)
    if r1 or r2:
        raise ScalarInvariantError("inexact division in Z[i]")
    return re, im


def _zi_divmod(u: list[tuple[int, int]], v: list[tuple[int, int]]):
    """(q, r) with u = q*v + r over Z[i] and deg r < deg v, r trimmed ([]
    when v divides u): long division, in which each quotient coefficient
    is a top coefficient divided by the lead of v exactly in Z[i]
    (ScalarInvariantError when it is not)."""
    n, lead = len(v) - 1, v[-1]
    u = list(u)
    q = [(0, 0)] * max(len(u) - n, 0)
    for k in range(len(u) - 1 - n, -1, -1):
        # u <- u - t * A^k * v, whose top coefficient cancels
        if u[n + k] != (0, 0):
            tr, ti = q[k] = _zi_div(u[n + k], lead)
            for j, (vr, vi) in enumerate(v[:n], k):
                x, y = u[j]
                u[j] = x - tr * vr + ti * vi, y - tr * vi - ti * vr
    del u[n:]
    while u and u[-1] == (0, 0):
        u.pop()
    return q, u


def _zi_prem(u: list[tuple[int, int]], v: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The pseudo-remainder r of u by v: l^k * u = q*v + r with l the lead
    of v and k = deg u - deg v + 1.  q and r lie in Z[i][A] (Knuth, TAOCP
    4.6.1), so the long division of l^k * u is exact at every step."""
    c = _zi_pow(v[-1], len(u) - len(v) + 1)
    return _zi_divmod([_zi_mul(x, c) for x in u], v)[1]


def _zi_gcd(p: list[tuple[int, int]], q: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """A gcd of p and q over Q(i), as a polynomial over Z[i]: the last
    nonzero remainder of the subresultant PRS (Collins, J. ACM 14, 1967;
    Brown, J. ACM 18, 1971), or [1] when p and q are coprime.  Each
    pseudo-remainder is divided by g * h^delta, which divides it exactly
    in Z[i] by the subresultant theorem."""
    if len(p) < len(q):
        p, q = q, p
    g = h = (1, 0)
    while len(q) > 1:
        delta = len(p) - len(q)
        r = _zi_prem(p, q)
        if not r:
            return q
        c = _zi_mul(g, _zi_pow(h, delta))
        p, q = q, [_zi_div(x, c) for x in r]
        g = p[-1]
        if delta:
            h = _zi_div(_zi_pow(g, delta), _zi_pow(h, delta - 1))
    return [(1, 0)]


_ZI_UNITS = frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)})


def _zi_cofactors(p: list[tuple[int, int]], q: list[tuple[int, int]]):
    """(p', q') over Z[i] with p'/q' = p/q and no common factor of positive
    degree: their PRS gcd divided out.  When q is not constant, is no
    longer than p and has a unit of Z[i] as its lead, the long division of
    p by q is exact at every step: a zero remainder r gives (p/q, 1) with
    no gcd at all, and otherwise the gcd of q and r, which is that of p
    and q, is divided out."""
    if 1 < len(q) <= len(p) and q[-1] in _ZI_UNITS:
        quo, r = _zi_divmod(p, q)
        if not r:
            return quo, [(1, 0)]
        return _zi_divide_out(p, q, _zi_gcd(q, r))
    return _zi_divide_out(p, q, _zi_gcd(p, q))


def _zi_divide_out(p: list[tuple[int, int]], q: list[tuple[int, int]], g):
    """(p', q') over Z[i] with p'/q' = p/q and g divided out, for g over
    Z[i] a common factor of p and q over Q(i) ([1] for none).  g is c * g0
    for a primitive g0 and a content c that can be far larger than p and q,
    so it is replaced by g' = l * g / lead(g) = (l / lead(g0)) * g0 for the
    lead l of q: lead(g0) divides l by Gauss's lemma.  l*p / g' and l*q / g'
    are lead(g0) times the cofactors of g0, so each step of their long
    division is exact."""
    if len(g) == 1:
        return p, q
    l = q[-1]
    g = [_zi_div(_zi_mul(l, x), g[-1]) for x in g]
    (p, r), (q, s) = (_zi_divmod([_zi_mul(l, x) for x in u], g) for u in (p, q))
    if r or s:
        raise ScalarInvariantError("inexact polynomial division")
    return p, q


# ---------------------------------------------------------------------------
# Rational functions in A
# ---------------------------------------------------------------------------


class RatFunA(_Scalar):
    """Fraction num/den of Laurent polynomials, kept canonical.

    Canonical form: the common power of A is folded into the numerator, the
    denominator is an honest polynomial with constant coefficient 1, and
    numerator and denominator share no polynomial factor.  Structural
    equality on (num, den) is then true equality of rational functions.

    The constructor finds the common factor by the subresultant gcd over
    Z[i] and divides it out by exact divisions in Z[i], as the module
    docstring sets out; `inv` needs no gcd, since canonical parts are
    already coprime.
    """

    __slots__ = ("num", "den")

    num: LaurentA
    den: LaurentA

    def __init__(self, num: LaurentA, den: LaurentA = _L_ONE):
        if not isinstance(num, LaurentA) or not isinstance(den, LaurentA):
            raise RingMismatchError("RatFunA parts must be LaurentA values")
        if den.is_zero():
            raise NotInvertibleError("zero denominator in ratfun")
        if num.is_zero():
            num, den = _L_ZERO, _L_ONE
        elif den.terms != _ONE_TERMS:
            # num/den = A^(vn - vd) * (md/mn) * p/q with p, q over Z[i]
            p, vn, mn = _zi_dense(num)
            q, vd, md = _zi_dense(den)
            num, den = _canonical(*_zi_cofactors(p, q), vn - vd, md, mn)
        _set_num(self, num)
        _set_den(self, den)

    def is_zero(self) -> bool:
        return not self.num.terms

    def _const(self, x: RationalLike) -> "RatFunA":
        return _ratfun(_laurent_const(GaussRat(x)), _L_ONE)

    def __add__(self, other):
        """Henrici's sum (Knuth, TAOCP 4.5.1): for coprime a/b and c/d with
        g = gcd(b, d), a/b + c/d = (a*(d/g) + c*(b/g)) / (b*(d/g)), and the
        numerator can share a factor with g only.  So a unit denominator or
        g = 1 needs no gcd, and otherwise only the gcd with g is taken."""
        if other.__class__ is not RatFunA:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.terms == _ONE_TERMS:
            if d.terms == _ONE_TERMS:
                return _ratfun(a + c, _L_ONE)
            return _ratfun(a * d + c, d)
        if d.terms == _ONE_TERMS:
            return _ratfun(a + c * b, b)
        # canonical denominators are polynomials with constant coefficient 1
        bz, _, mb = _zi_dense(b)
        dz, _, md = _zi_dense(d)
        g = _zi_gcd(bz, dz)
        if len(g) == 1:
            return _ratfun(a * d + c * b, b * d)
        # bq = l*bz/g' and dq = l*dz/g' for one l/g', so with bz = mb*b and
        # dz = md*d the sum is (a*mb*dq + c*md*bq) / (bz*dq)
        bq, dq = _zi_divide_out(bz, dz, g)
        scaled = _laurent_zi(dq, mb)
        num = a * scaled + c * _laurent_zi(bq, md)
        if num.is_zero():
            return _ratfun(_L_ZERO, _L_ONE)
        p, vn, mn = _zi_dense(num)
        # bz*dq is over Z[i] with a nonzero constant coefficient
        q, _, _ = _zi_dense(b * scaled)
        p, q = _zi_divide_out(p, q, _zi_gcd(p, g))
        return _ratfun(*_canonical(p, q, vn, 1, mn))

    __radd__ = __add__

    def __neg__(self):
        return _ratfun(-self.num, self.den)

    def __mul__(self, other):
        if other.__class__ is not RatFunA:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self.den.terms == _ONE_TERMS and other.den.terms == _ONE_TERMS:
            return _ratfun(self.num * other.num, _L_ONE)
        return RatFunA(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "RatFunA":
        num, den = self.num.terms, self.den.terms
        if not num:
            raise NotInvertibleError("division by zero in ratfun")
        # the parts are coprime, so den/num is canonical once num's lowest
        # term is made the constant 1
        v, c = num[0]
        c = c.inv()
        return _ratfun(
            _laurent(tuple([(k - v, x * c) for k, x in den])),
            _laurent(tuple([(k - v, x * c) for k, x in num])),
        )

    def __eq__(self, other):
        if other.__class__ is not RatFunA:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))


_set_num, _set_den = _setters(RatFunA)


def _laurent_zi(p: list[tuple[int, int]], m: int) -> LaurentA:
    """The polynomial m * p(A) for p dense over Z[i]."""
    return _laurent(tuple([(k, _gauss(m * x, m * y, 1)) for k, (x, y) in enumerate(p) if x or y]))


def _canonical(p: list[tuple[int, int]], q: list[tuple[int, int]], v: int, md: int, mn: int):
    """The canonical parts of A^v * (md/mn) * p/q, for p and q coprime over
    Z[i] and q(0) != 0: divided through by q(0), den has the constant
    coefficient 1."""
    c, d = q[0]
    n = c * c + d * d
    a, b, m = md * c, -md * d, mn * n
    num = _laurent(tuple([
        (v + k, _gauss(a * x - b * y, a * y + b * x, m))
        for k, (x, y) in enumerate(p) if x or y
    ]))
    den = _laurent(tuple([
        (k, _gauss(x * c + y * d, y * c - x * d, n))
        for k, (x, y) in enumerate(q) if x or y
    ]))
    return num, den


def _ratfun(num: LaurentA, den: LaurentA) -> RatFunA:
    """RatFunA from a numerator and denominator already in canonical form."""
    x = _new(RatFunA)
    _set_num(x, num)
    _set_den(x, den)
    return x


# ---------------------------------------------------------------------------
# Dual numbers (square-zero extension)
# ---------------------------------------------------------------------------


class Dual(_Scalar):
    """body + t*slope with t^2 = 0, body and slope in the same base ring."""

    __slots__ = ("body", "slope")

    def __init__(self, body, slope):
        if isinstance(body, Dual) or isinstance(slope, Dual):
            raise RingMismatchError("nested dual numbers are not supported")
        if ring_of(body) != ring_of(slope):
            raise RingMismatchError(
                "dual body and slope live in different rings: "
                f"{ring_of(body).name} vs {ring_of(slope).name}"
            )
        _set_body(self, body)
        _set_slope(self, slope)

    def is_zero(self) -> bool:
        return self.body.is_zero() and self.slope.is_zero()

    def _coerce(self, other) -> "Dual | None":
        if other.__class__ is Dual:
            # a body is never Dual, so its class names its ring
            if other.body.__class__ is not self.body.__class__:
                raise RingMismatchError(
                    "dual numbers over different base rings; convert with into_ring"
                )
            return other
        return super()._coerce(other)

    def _const(self, x: RationalLike) -> "Dual":
        return _dual(self.body._const(x), self.body._const(0))

    def __add__(self, other):
        if other.__class__ is Dual and other.body.__class__ is self.body.__class__:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        return _dual(self.body + o.body, self.slope + o.slope)

    __radd__ = __add__

    def __neg__(self):
        return _dual(-self.body, -self.slope)

    def __mul__(self, other):
        if other.__class__ is Dual and other.body.__class__ is self.body.__class__:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        if self.slope.is_zero() and o.slope.is_zero():
            return _dual(self.body * o.body, self.slope)
        return _dual(
            self.body * o.body, self.body * o.slope + self.slope * o.body
        )

    __rmul__ = __mul__

    def inv(self) -> "Dual":
        u = self.body.inv()
        return _dual(u, -(u * u * self.slope))

    def __eq__(self, other):
        if other.__class__ is not Dual:
            return NotImplemented
        return self.body == other.body and self.slope == other.slope

    def __hash__(self):
        return hash((self.body, self.slope))


_set_body, _set_slope = _setters(Dual)


def _dual(body, slope) -> Dual:
    """Dual from a body and slope already known to share a non-dual ring."""
    x = _new(Dual)
    _set_body(x, body)
    _set_slope(x, slope)
    return x


# ---------------------------------------------------------------------------
# Ring tags and moves between rings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ring:
    """Tag identifying a ring of the tower; carries zero/one constructors."""

    name: str
    base: "Ring | None" = None

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        return into_ring(GaussRat(n), self)

    @property
    def is_field(self) -> bool:
        return self.name in ("gauss", "ratfun")

    def __str__(self):
        return self.name if self.base is None else f"dual-{self.base.name}"


GAUSS = Ring("gauss")
LAURENT = Ring("laurent")
RATFUN = Ring("ratfun")

_DUALS: dict[Ring, Ring] = {}


def dual(base: Ring) -> Ring:
    if base.name == "dual":
        raise RingMismatchError("nested dual rings are not supported")
    if base not in _DUALS:
        _DUALS[base] = Ring("dual", base)
    return _DUALS[base]


_TOWER = {"gauss": 0, "laurent": 1, "ratfun": 2}


def ring_of(x) -> Ring:
    if isinstance(x, GaussRat):
        return GAUSS
    if isinstance(x, LaurentA):
        return LAURENT
    if isinstance(x, RatFunA):
        return RATFUN
    if isinstance(x, Dual):
        return dual(ring_of(x.body))
    raise RingMismatchError(f"not a scalar of the tower: {x!r}")


def ring_by_name(name: str) -> Ring:
    """Ring from its config-file spelling: gauss|laurent|ratfun|dual-<base>."""
    if name.startswith("dual-"):
        return dual(ring_by_name(name[5:]))
    try:
        return {"gauss": GAUSS, "laurent": LAURENT, "ratfun": RATFUN}[name]
    except KeyError:
        raise ScalarError(f"unknown ring name {name!r}") from None


def into_ring(x, target: Ring):
    """x as a value of the target ring.  Up the tower x is embedded; down it,
    and out of a dual ring, x must lie in the target (no slope, no
    denominator, no A), or RingMismatchError says why not.  Into a dual
    ring, x's body and slope (zero when x is not dual) each go into the base."""
    name = target.name
    if name == "dual":
        body, slope = (x.body, x.slope) if x.__class__ is Dual else (x, _G_ZERO)
        return _dual(into_ring(body, target.base), into_ring(slope, target.base))
    if x.__class__ is Dual:
        if not x.slope.is_zero():
            raise RingMismatchError("dual value with nonzero slope cannot demote")
        x = x.body
    if x.__class__ is RatFunA:
        if name == "ratfun":
            return x
        if x.den.terms != _ONE_TERMS:
            raise RingMismatchError(
                f"{format_scalar(x)} has a nontrivial denominator; not demotable"
            )
        x = x.num
    elif x.__class__ is GaussRat:
        if name == "gauss":
            return x
        x = _laurent_const(x)
    elif x.__class__ is not LaurentA:
        raise RingMismatchError(f"not a scalar of the tower: {x!r}")
    if name == "laurent":
        return x
    if name == "ratfun":
        return _ratfun(x, _L_ONE)
    if x.terms and (len(x.terms) > 1 or x.terms[0][0] != 0):
        raise RingMismatchError(f"{format_scalar(x)} involves A; not a Gaussian rational")
    return x.coeff(0)


def specialize(x, value: GaussRat):
    """Substitute a concrete Q(i) value for A; lands in GaussRat (or its dual)."""
    if isinstance(value, (int, Fraction)):
        value = GaussRat(value)
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, LaurentA):
        out = _G_ZERO
        for k, c in x.terms:
            out = out + c * value**k
        return out
    if isinstance(x, RatFunA):
        den = specialize(x.den, value)
        if den.is_zero():
            raise NotInvertibleError(
                f"denominator {format_scalar(x.den)} vanishes at the requested A"
            )
        return specialize(x.num, value) / den
    if isinstance(x, Dual):
        return Dual(specialize(x.body, value), specialize(x.slope, value))
    raise RingMismatchError(f"not a scalar of the tower: {x!r}")


# ---------------------------------------------------------------------------
# Canonical text form
# ---------------------------------------------------------------------------


def _fmt_rat(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def _fmt_piece(mag: Fraction, imag: bool, k: int) -> str:
    """One signless term: magnitude, i marker, A^k part."""
    if imag:
        g = "i" if mag == 1 else f"{_fmt_rat(mag)}i"
    else:
        g = _fmt_rat(mag)
    if k == 0:
        return g
    a = "A" if k == 1 else f"A^{k}"
    if not imag and mag == 1:
        return a
    return f"{g}*{a}"


def _sum_pieces(x) -> list[tuple[int, str]]:
    """Signed term list for a GaussRat or LaurentA, ascending exponent."""
    if isinstance(x, GaussRat):
        terms = [(0, x)] if not x.is_zero() else []
    else:
        terms = list(x.terms)
    out: list[tuple[int, str]] = []
    for k, c in terms:
        if c.re:
            out.append((1 if c.re > 0 else -1, _fmt_piece(abs(c.re), False, k)))
        if c.im:
            out.append((1 if c.im > 0 else -1, _fmt_piece(abs(c.im), True, k)))
    return out


def _fmt_sum(x) -> str:
    pieces = _sum_pieces(x)
    if not pieces:
        return "0"
    head_sign, head = pieces[0]
    text = ("-" if head_sign < 0 else "") + head
    for sign, p in pieces[1:]:
        text += (" - " if sign < 0 else " + ") + p
    return text


def format_scalar(x) -> str:
    """Canonical text: ascending exponents, ratfun as ( num )/( den ),
    dual as body + t*( slope )."""
    if isinstance(x, (GaussRat, LaurentA)):
        return _fmt_sum(x)
    if isinstance(x, RatFunA):
        return f"( {_fmt_sum(x.num)} )/( {_fmt_sum(x.den)} )"
    if isinstance(x, Dual):
        return f"{format_scalar(x.body)} + t*( {format_scalar(x.slope)} )"
    raise RingMismatchError(f"not a scalar of the tower: {x!r}")


_Tok = namedtuple("_Tok", "kind text pos")

# an integer is a run of decimal digits, exactly what int() accepts; any
# other character that is not whitespace is unexpected
_SCALAR_TOKEN = re.compile(r"(?P<int>\d+)|(?P<op>[iAt+\-*/^()])|\S")


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    for m in _SCALAR_TOKEN.finditer(text):
        if m.lastgroup is None:
            raise ScalarSyntaxError(f"unexpected character {m[0]!r} at column {m.start()}")
        toks.append(_Tok("int" if m.lastgroup == "int" else m[0], m[0], m.start()))
    return toks + [_Tok("end", "", len(text))]


class _ScalarParser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def take(self, kind: str) -> _Tok:
        t = self.toks[self.i]
        if t.kind != kind:
            raise ScalarSyntaxError(
                f"expected {kind!r}, found {t.text or 'end of input'!r} at column {t.pos}"
            )
        self.i += 1
        return t

    def _sign(self) -> int:
        return -1 if self.take(self.peek().kind).kind == "-" else 1

    def _int(self) -> int:
        sign = self._sign() if self.peek().kind in "+-" else 1
        return sign * int(self.take("int").text)

    def _rational(self) -> Fraction:
        num = int(self.take("int").text)
        if self.peek().kind == "/" and self.peek(1).kind == "int":
            self.take("/")
            den = self.take("int")
            if not int(den.text):
                raise ScalarSyntaxError(f"zero denominator at column {den.pos}")
            return Fraction(num, int(den.text))
        return Fraction(num)

    def term(self) -> tuple[int, GaussRat]:
        """One signless term -> (A-exponent, Gaussian coefficient)."""
        g: GaussRat | None = None
        t = self.peek()
        if t.kind == "(":
            self.take("(")
            r = self._rational()
            self.take(")")
            self.take("i")
            g = GaussRat(0, r)
        elif t.kind == "int":
            r = self._rational()
            if self.peek().kind == "i":
                self.take("i")
                g = GaussRat(0, r)
            else:
                g = GaussRat(r)
        elif t.kind == "i":
            self.take("i")
            g = GaussRat(0, 1)
        if self.peek().kind == "*":
            self.take("*")
            if g is None:
                raise ScalarSyntaxError(f"stray '*' at column {self.peek().pos}")
        k = 0
        if self.peek().kind == "A":
            self.take("A")
            k = 1
            if self.peek().kind == "^":
                self.take("^")
                k = self._int()
        elif g is None:
            raise ScalarSyntaxError(
                f"expected a term at column {self.peek().pos}"
            )
        return k, (g if g is not None else _G_ONE)

    def _dual_marker(self) -> bool:
        """Whether the dual marker t is next, after at most a sign."""
        return self.peek().kind == "t" or (
            self.peek().kind in "+-" and self.peek(1).kind == "t"
        )

    def sum(self) -> LaurentA:
        """Signed terms, up to the first token that does not continue the
        sum; a sign before the dual marker t ends the sum too."""
        acc: dict[int, GaussRat] = {}
        sign = self._sign() if self.peek().kind in "+-" else 1
        while True:
            k, g = self.term()
            g = g if sign > 0 else -g
            acc[k] = acc.get(k, _G_ZERO) + g
            if self.peek().kind not in "+-" or self._dual_marker():
                return LaurentA(acc)
            sign = self._sign()

    def _ratfun_ahead(self) -> bool:
        """Whether the group opened here is followed by '/', so that it is
        the numerator of ( num )/( den ) rather than a ( r )i term."""
        if self.peek().kind != "(":
            return False
        depth = 0
        for j in range(self.i, len(self.toks)):
            depth += (self.toks[j].kind == "(") - (self.toks[j].kind == ")")
            if depth == 0:
                return self.toks[j + 1].kind == "/"
        return False

    def nodual(self):
        """A sum or ( sum )/( sum ): GaussRat, LaurentA or RatFunA."""
        if self._ratfun_ahead():
            self.take("(")
            num = self.sum()
            self.take(")")
            self.take("/")
            self.take("(")
            den = self.sum()
            self.take(")")
            return RatFunA(num, den)
        start = self.i
        val = self.sum()
        if all(k == 0 for k, _ in val.terms) and all(
            t.kind != "A" for t in self.toks[start:self.i]
        ):
            return val.coeff(0)
        return val

    def scalar(self):
        """body [+|-] t*( slope ), either part optional, up to the end."""
        val = _G_ZERO if self._dual_marker() else self.nodual()
        if self._dual_marker():
            sign = self._sign() if self.peek().kind in "+-" else 1
            self.take("t")
            self.take("*")
            self.take("(")
            slope = self.nodual()
            self.take(")")
            if sign < 0:
                slope = -slope
            base = max(ring_of(val), ring_of(slope), key=lambda r: _TOWER[r.name])
            val = _dual(into_ring(val, base), into_ring(slope, base))
        self.take("end")
        return val


def parse_scalar(text: str, ring: Ring | None = None):
    """Read the canonical text form back; `ring` forces the resulting ring.

    Without `ring` the smallest fitting ring is inferred (a bare sum with no
    A is GaussRat, with A LaurentA; the ( num )/( den ) form is RatFunA; a
    t*( ... ) part makes it Dual over the join of the part rings).  Errors
    give the column in the whole text.
    """
    val = _ScalarParser(text).scalar()
    return val if ring is None else into_ring(val, ring)
