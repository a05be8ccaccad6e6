"""Exact scalars: Gaussian rationals, sparse Laurent polynomials in one
variable A, their fraction field, and square-zero dual numbers.

The tower is

    GaussRat  ⊂  LaurentA  ⊂  RatFunA        (each also lifts under Dual)

and every ring supports +, -, *, /, ** on same-ring values, `is_zero()`,
`inv()`, structural equality, and a canonical text form produced by
`format_scalar` and read back by `parse_scalar`.  Mixing rings in an
arithmetic operation raises RingMismatchError; movement up and down the
tower is always explicit via `promote` / `demote`.

All arithmetic is exact and runs on Python ints: a GaussRat is Gaussian-
integer parts over one positive denominator, and every other ring is built
from GaussRat coefficients.  Fractions appear only at the edges (the `re` /
`im` views, text, and `GaussRat(re, im)`); there is no floating point
anywhere in this module.  Values are immutable, and arithmetic builds its
results in canonical form directly, so the normalising public constructors
run only on values that come from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union


class ScalarError(ValueError):
    """Base class for scalar-tower errors."""


class RingMismatchError(ScalarError):
    """Arithmetic mixed two different rings without an explicit promotion."""


class NotInvertibleError(ScalarError):
    """Inverse requested for a non-unit (reports which element)."""


class ScalarSyntaxError(ScalarError):
    """parse_scalar rejected the input; message includes the column."""


class ScalarInvariantError(ScalarError):
    """An internal invariant of exact polynomial arithmetic failed."""


RationalLike = Union[int, Fraction]


class _Scalar:
    """Operators that every ring of the tower derives the same way.

    A subclass supplies `_coerce` (the other operand in its own ring, None
    for a type it does not know, RingMismatchError for another ring of the
    tower), `+`, unary `-`, `*` and `inv`.  Subtraction, division (both
    reflected forms included) and the canonical `str` follow from those.

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

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def _coerce(self, other) -> "GaussRat | None":
        if isinstance(other, GaussRat):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRat(other)
        if isinstance(other, (LaurentA, RatFunA, Dual)):
            raise RingMismatchError(
                f"cannot mix GaussRat with {ring_of(other).name}; promote explicitly"
            )
        return None

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

    def __pow__(self, n: int):
        return _generic_pow(self, n, _G_ONE)

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
        if self._d == 1:
            return hash((self._a, self._b))   # == hash of the parts as Fractions
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


def _generic_pow(x, n: int, one):
    if not isinstance(n, int):
        raise TypeError("exponent must be an int")
    if n < 0:
        return _generic_pow(x.inv(), -n, one)
    out = one
    base = x
    while n:
        if n & 1:
            out = out * base
        base = base * base if n > 1 else base
        n >>= 1
    return out


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

    def _coerce(self, other) -> "LaurentA | None":
        if isinstance(other, LaurentA):
            return other
        if isinstance(other, (int, Fraction)):
            return _laurent_const(GaussRat(other))
        if isinstance(other, (GaussRat, RatFunA, Dual)):
            raise RingMismatchError(
                f"cannot mix LaurentA with {ring_of(other).name}; promote explicitly"
            )
        return None

    def __add__(self, other):
        if other.__class__ is not LaurentA:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        acc = dict(self.terms)
        for k, c in other.terms:
            prev = acc.get(k)
            acc[k] = c if prev is None else prev + c
        return _laurent(_sorted_terms(acc))

    __radd__ = __add__

    def __neg__(self):
        return _laurent(tuple((k, -c) for k, c in self.terms))

    def __mul__(self, other):
        if other.__class__ is not LaurentA:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        acc: dict[int, GaussRat] = {}
        for k1, c1 in self.terms:
            for k2, c2 in other.terms:
                k = k1 + k2
                prev = acc.get(k)
                acc[k] = c1 * c2 if prev is None else prev + c1 * c2
        return _laurent(_sorted_terms(acc))

    __rmul__ = __mul__

    def inv(self) -> "LaurentA":
        if not self.is_monomial():
            raise NotInvertibleError(
                f"{format_scalar(self)!r} is not a unit in the Laurent ring; "
                "promote to ratfun for general division"
            )
        k, c = self.terms[0]
        return _laurent(((-k, c.inv()),))

    def __pow__(self, n: int):
        return _generic_pow(self, n, _L_ONE)

    def __eq__(self, other):
        if other.__class__ is not LaurentA:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.terms,))

    def __repr__(self):
        return f"LaurentA({format_scalar(self)!r})"


(_set_terms,) = _setters(LaurentA)


def _laurent(terms: tuple[tuple[int, GaussRat], ...]) -> LaurentA:
    """LaurentA from terms already ascending, with distinct exponents and
    nonzero coefficients."""
    x = _new(LaurentA)
    _set_terms(x, terms)
    return x


def _sorted_terms(acc: dict[int, GaussRat]) -> tuple[tuple[int, GaussRat], ...]:
    return tuple((k, acc[k]) for k in sorted(acc) if not acc[k].is_zero())


def _laurent_const(c: GaussRat) -> LaurentA:
    return _L_ZERO if c.is_zero() else _laurent(((0, c),))


_L_ZERO = _laurent(())
_ONE_TERMS = ((0, _G_ONE),)
_L_ONE = _laurent(_ONE_TERMS)
A = _laurent(((1, _G_ONE),))
A_INV = _laurent(((-1, _G_ONE),))


def _laurent_valuation(x: LaurentA) -> tuple[list[GaussRat], int]:
    """Split x = A^v * p with p an honest polynomial, nonzero constant term.

    Returns (dense coefficient list of p, v).  x must be nonzero.
    """
    if not x.terms:
        raise ScalarInvariantError("the zero polynomial has no valuation")
    v = x.terms[0][0]
    deg = x.terms[-1][0] - v
    coeffs = [_G_ZERO] * (deg + 1)
    for k, c in x.terms:
        coeffs[k - v] = c
    return coeffs, v


def _poly_from_dense(coeffs: list[GaussRat], shift: int = 0) -> LaurentA:
    return _laurent(tuple((i + shift, c) for i, c in enumerate(coeffs) if not c.is_zero()))


def _poly_trim(p: list[GaussRat]) -> list[GaussRat]:
    while p and p[-1].is_zero():
        p.pop()
    return p


def _poly_mod(a: list[GaussRat], b: list[GaussRat]) -> list[GaussRat]:
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        q = a[-1] / lead
        off = len(a) - 1 - db
        for i, bc in enumerate(b):
            a[off + i] = a[off + i] - q * bc
        _poly_trim(a)
    return a


def _poly_gcd(a: list[GaussRat], b: list[GaussRat]) -> list[GaussRat]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_mod(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _poly_divexact(a: list[GaussRat], b: list[GaussRat]) -> list[GaussRat]:
    """Quotient a / b, assuming b divides a exactly."""
    a = list(a)
    out = [_G_ZERO] * (len(a) - len(b) + 1)
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        q = a[-1] / lead
        off = len(a) - 1 - db
        out[off] = q
        for i, bc in enumerate(b):
            a[off + i] = a[off + i] - q * bc
        _poly_trim(a)
    if a:
        raise ScalarInvariantError("inexact polynomial division")
    return out


# ---------------------------------------------------------------------------
# Rational functions in A
# ---------------------------------------------------------------------------


class RatFunA(_Scalar):
    """Fraction num/den of Laurent polynomials, kept canonical.

    Canonical form: the common power of A is folded into the numerator, the
    denominator is an honest polynomial with constant coefficient 1, and
    numerator and denominator share no polynomial factor.  Structural
    equality on (num, den) is then true equality of rational functions.
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
            p, vn = _laurent_valuation(num)
            q, vd = _laurent_valuation(den)
            g = _poly_gcd(p, q)
            if len(g) > 1:
                p = _poly_divexact(p, g)
                q = _poly_divexact(q, g)
            c = q[0].inv()
            num = _poly_from_dense([x * c for x in p], vn - vd)
            den = _poly_from_dense([x * c for x in q])
        _set_num(self, num)
        _set_den(self, den)

    def is_zero(self) -> bool:
        return not self.num.terms

    def _coerce(self, other) -> "RatFunA | None":
        if isinstance(other, RatFunA):
            return other
        if isinstance(other, (int, Fraction)):
            return _ratfun(_laurent_const(GaussRat(other)), _L_ONE)
        if isinstance(other, (GaussRat, LaurentA, Dual)):
            raise RingMismatchError(
                f"cannot mix RatFunA with {ring_of(other).name}; promote explicitly"
            )
        return None

    def __add__(self, other):
        if other.__class__ is not RatFunA:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self.den.terms == _ONE_TERMS and other.den.terms == _ONE_TERMS:
            return _ratfun(self.num + other.num, _L_ONE)
        return RatFunA(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

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
        if self.is_zero():
            raise NotInvertibleError("division by zero in ratfun")
        return RatFunA(self.den, self.num)

    def __pow__(self, n: int):
        return _generic_pow(self, n, _R_ONE)

    def __eq__(self, other):
        if other.__class__ is not RatFunA:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunA({format_scalar(self)!r})"


_set_num, _set_den = _setters(RatFunA)


def _ratfun(num: LaurentA, den: LaurentA) -> RatFunA:
    """RatFunA from a numerator and denominator already in canonical form."""
    x = _new(RatFunA)
    _set_num(x, num)
    _set_den(x, den)
    return x


_R_ONE = _ratfun(_L_ONE, _L_ONE)


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
        if isinstance(other, Dual):
            # a body is never Dual, so its class names its ring
            if other.body.__class__ is not self.body.__class__:
                raise RingMismatchError(
                    "dual numbers over different base rings; promote explicitly"
                )
            return other
        if isinstance(other, (int, Fraction)):
            base = ring_of(self.body)
            return _dual(base.from_int(0) + other, base.zero())
        if isinstance(other, (GaussRat, LaurentA, RatFunA)):
            raise RingMismatchError(
                f"cannot mix Dual with {ring_of(other).name}; promote explicitly"
            )
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _dual(self.body + o.body, self.slope + o.slope)

    __radd__ = __add__

    def __neg__(self):
        return _dual(-self.body, -self.slope)

    def __mul__(self, other):
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

    def __pow__(self, n: int):
        base = ring_of(self.body)
        return _generic_pow(self, n, _dual(base.one(), base.zero()))

    def __eq__(self, other):
        if other.__class__ is not Dual:
            return NotImplemented
        return self.body == other.body and self.slope == other.slope

    def __hash__(self):
        return hash((self.body, self.slope))

    def __repr__(self):
        return f"Dual({format_scalar(self)!r})"


_set_body, _set_slope = _setters(Dual)


def _dual(body, slope) -> Dual:
    """Dual from a body and slope already known to share a non-dual ring."""
    x = _new(Dual)
    _set_body(x, body)
    _set_slope(x, slope)
    return x


# ---------------------------------------------------------------------------
# Ring tags, promotion, demotion
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
        if self.name == "gauss":
            return GaussRat(n)
        if self.name == "laurent":
            return _laurent_const(GaussRat(n))
        if self.name == "ratfun":
            return _ratfun(_laurent_const(GaussRat(n)), _L_ONE)
        return _dual(self.base.from_int(n), self.base.zero())

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


def promote(x, target: Ring):
    """Embed x into a ring at or above its own; error otherwise."""
    cur = ring_of(x)
    if cur == target:
        return x
    if target.name == "dual":
        body = x.body if cur.name == "dual" else x
        slope = x.slope if cur.name == "dual" else ring_of(x).zero()
        return _dual(promote(body, target.base), promote(slope, target.base))
    if cur.name == "dual":
        raise RingMismatchError(f"cannot promote {cur} into non-dual {target}")
    if _TOWER[cur.name] > _TOWER[target.name]:
        raise RingMismatchError(f"cannot promote {cur} down to {target}; use demote")
    if isinstance(x, GaussRat):
        x = _laurent_const(x)
    if target == LAURENT:
        return x
    return _ratfun(x, _L_ONE)


def demote(x, target: Ring):
    """Inverse of promote where exact; error when x is not in the subring."""
    cur = ring_of(x)
    if cur == target:
        return x
    if cur.name == "dual":
        if target.name == "dual":
            return Dual(demote(x.body, target.base), demote(x.slope, target.base))
        if not x.slope.is_zero():
            raise RingMismatchError("dual value with nonzero slope cannot demote")
        return demote(x.body, target)
    if target.name == "dual":
        raise RingMismatchError(f"use promote to move {cur} into {target}")
    if isinstance(x, RatFunA):
        if x.den != _L_ONE:
            raise RingMismatchError(
                f"{format_scalar(x)} has a nontrivial denominator; not demotable"
            )
        x = x.num
    if isinstance(x, LaurentA) and target == GAUSS:
        if x.terms and (len(x.terms) > 1 or x.terms[0][0] != 0):
            raise RingMismatchError(
                f"{format_scalar(x)} involves A; not a Gaussian rational"
            )
        return x.coeff(0)
    if ring_of(x) != target:
        raise RingMismatchError(f"cannot demote to {target}")
    return x


def into_ring(x, target: Ring):
    """x in the target ring: promoted when it lies below, else demoted."""
    try:
        return promote(x, target)
    except RingMismatchError:
        return demote(x, target)


def specialize(x, value: GaussRat):
    """Substitute a concrete Q(i) value for A; lands in GaussRat (or its dual)."""
    if isinstance(value, (int, Fraction)):
        value = GaussRat(value)
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, LaurentA):
        out = _G_ZERO
        for k, c in x.terms:
            out = out + c * _generic_pow(value, k, _G_ONE)
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


class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind, self.text, self.pos = kind, text, pos


def _tokenize(text: str) -> list[_Tok]:
    toks, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", text[i:j], i))
            i = j
            continue
        if ch in "iAt":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        if ch in "+-*/^()":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        raise ScalarSyntaxError(f"unexpected character {ch!r} at column {i}")
    toks.append(_Tok("end", "", n))
    return toks


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

    def _int(self) -> int:
        sign = 1
        if self.peek().kind in "+-":
            sign = -1 if self.take(self.peek().kind).kind == "-" else 1
        return sign * int(self.take("int").text)

    def _rational(self) -> Fraction:
        num = int(self.take("int").text)
        if self.peek().kind == "/" and self.peek(1).kind == "int":
            self.take("/")
            return Fraction(num, int(self.take("int").text))
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

    def sum(self, stop: tuple[str, ...]) -> LaurentA:
        acc: dict[int, GaussRat] = {}
        sign = 1
        if self.peek().kind in "+-":
            sign = -1 if self.take(self.peek().kind).kind == "-" else 1
        while True:
            k, g = self.term()
            g = g if sign > 0 else -g
            acc[k] = acc.get(k, _G_ZERO) + g
            t = self.peek()
            if t.kind in stop or t.kind == "end":
                return LaurentA(acc)
            if t.kind not in "+-":
                raise ScalarSyntaxError(
                    f"expected '+' or '-' at column {t.pos}, found {t.text!r}"
                )
            sign = -1 if self.take(t.kind).kind == "-" else 1


def _parse_nodual(text: str):
    """Parse a sum or ( sum )/( sum ); returns GaussRat, LaurentA or RatFunA."""
    stripped = text.strip()
    if stripped.startswith("("):
        depth, j = 0, 0
        for j, ch in enumerate(stripped):
            depth += (ch == "(") - (ch == ")")
            if depth == 0:
                break
        rest = stripped[j + 1 :].lstrip()
        if rest.startswith("/"):
            after = rest[1:].lstrip()
            if not (after.startswith("(") and after.endswith(")")):
                raise ScalarSyntaxError("ratfun denominator must be parenthesized")
            num = _ScalarParser(stripped[1:j])
            nval = num.sum(stop=())
            num.take("end")
            den = _ScalarParser(after[1:-1])
            dval = den.sum(stop=())
            den.take("end")
            return RatFunA(nval, dval)
    p = _ScalarParser(stripped)
    val = p.sum(stop=())
    p.take("end")
    if all(k == 0 for k, _ in val.terms) and "A" not in stripped:
        return val.coeff(0)
    return val


def _split_dual(text: str) -> tuple[str, str, int] | None:
    """Split 'body + t*( slope )' at top parenthesis level, if present.

    Returns (body text, slope text without its parentheses, slope sign).
    """
    depth = 0
    for idx, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "t" and depth == 0:
            rest = text[idx + 1 :].lstrip()
            if not rest.startswith("*"):
                raise ScalarSyntaxError("expected '*(' after dual marker t")
            inner = rest[1:].lstrip()
            if not (inner.startswith("(") and inner.endswith(")")):
                raise ScalarSyntaxError("dual slope must be parenthesized")
            body = text[:idx].rstrip()
            sign = 1
            if body.endswith("+") or body.endswith("-"):
                sign = -1 if body.endswith("-") else 1
                body = body[:-1].rstrip()
            return (body if body else "0", inner[1:-1], sign)
    return None


def parse_scalar(text: str, ring: Ring | None = None):
    """Read the canonical text form back; `ring` forces the resulting ring.

    Without `ring` the smallest fitting ring is inferred (a bare sum with no
    A is GaussRat, with A LaurentA; the ( num )/( den ) form is RatFunA; a
    t*( ... ) part makes it Dual over the join of the part rings).
    """
    split = _split_dual(text)
    if split is not None:
        body_text, slope_text, sign = split
        body = _parse_nodual(body_text)
        slope = _parse_nodual(slope_text)
        if sign < 0:
            slope = -slope
        base = ring_of(body)
        if _TOWER[ring_of(slope).name] > _TOWER[base.name]:
            base = ring_of(slope)
        val = Dual(promote(body, base), promote(slope, base))
    else:
        val = _parse_nodual(text)
    return val if ring is None else into_ring(val, ring)
