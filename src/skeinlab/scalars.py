"""Exact scalars: Gaussian rationals, sparse Laurent polynomials in one
variable A, their fraction field, and square-zero dual numbers.

The tower is

    GaussRat  ⊂  LaurentA  ⊂  RatFunA        (each also lifts under Dual)

and every ring supports +, -, *, /, ** on same-ring values, `is_zero()`,
`inv()`, structural equality, and a canonical text form produced by
`format_scalar` and read back by `parse_scalar`.  Mixing rings in an
arithmetic operation raises RingMismatchError; movement up and down the
tower is always explicit via `promote` / `demote`.

All arithmetic is exact (stdlib Fraction underneath); there is no floating
point anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussRat:
    """Element a + b*i of Q(i), both parts exact Fractions in lowest terms."""

    re: Fraction
    im: Fraction

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def is_zero(self) -> bool:
        return not self.re and not self.im

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

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

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def inv(self) -> "GaussRat":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise NotInvertibleError("division by zero in Q(i)")
        return GaussRat(self.re / n, -self.im / n)

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

    def __pow__(self, n: int):
        return _generic_pow(self, n, GaussRat(1))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussRat(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussRat({self.re}, {self.im})"

    def __str__(self):
        return format_scalar(self)


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


@dataclass(frozen=True)
class LaurentA:
    """Sparse Laurent polynomial: ascending (exponent, nonzero coeff) pairs."""

    terms: tuple[tuple[int, GaussRat], ...]

    def __init__(self, terms: Iterable[tuple[int, GaussRat]] = ()):
        acc: dict[int, GaussRat] = {}
        for k, c in dict(terms).items() if isinstance(terms, dict) else terms:
            acc[k] = acc.get(k, _G_ZERO) + c
        clean = tuple(sorted((k, c) for k, c in acc.items() if not c.is_zero()))
        object.__setattr__(self, "terms", clean)

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
            return LaurentA(((0, GaussRat(other)),))
        if isinstance(other, (GaussRat, RatFunA, Dual)):
            raise RingMismatchError(
                f"cannot mix LaurentA with {ring_of(other).name}; promote explicitly"
            )
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentA(self.terms + o.terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentA(tuple((k, -c) for k, c in self.terms))

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

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict[int, GaussRat] = {}
        for k1, c1 in self.terms:
            for k2, c2 in o.terms:
                k = k1 + k2
                prev = acc.get(k)
                acc[k] = c1 * c2 if prev is None else prev + c1 * c2
        return LaurentA(acc)

    __rmul__ = __mul__

    def inv(self) -> "LaurentA":
        if not self.is_monomial():
            raise NotInvertibleError(
                f"{format_scalar(self)!r} is not a unit in the Laurent ring; "
                "promote to ratfun for general division"
            )
        k, c = self.terms[0]
        return LaurentA(((-k, c.inv()),))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __pow__(self, n: int):
        return _generic_pow(self, n, _L_ONE)

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"LaurentA({format_scalar(self)!r})"


_L_ZERO = LaurentA()
_L_ONE = LaurentA(((0, _G_ONE),))
A = LaurentA(((1, _G_ONE),))


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
    return LaurentA(tuple((i + shift, c) for i, c in enumerate(coeffs)))


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


@dataclass(frozen=True)
class RatFunA:
    """Fraction num/den of Laurent polynomials, kept canonical.

    Canonical form: the common power of A is folded into the numerator, the
    denominator is an honest polynomial with constant coefficient 1, and
    numerator and denominator share no polynomial factor.  Structural
    equality on (num, den) is then true equality of rational functions.
    """

    num: LaurentA
    den: LaurentA

    def __init__(self, num: LaurentA, den: LaurentA = _L_ONE):
        if not isinstance(num, LaurentA) or not isinstance(den, LaurentA):
            raise RingMismatchError("RatFunA parts must be LaurentA values")
        if den.is_zero():
            raise NotInvertibleError("zero denominator in ratfun")
        if num.is_zero():
            num, den = _L_ZERO, _L_ONE
        elif den == _L_ONE:
            pass
        else:
            p, vn = _laurent_valuation(num)
            q, vd = _laurent_valuation(den)
            g = _poly_gcd(p, q)
            if len(g) > 1:
                p = _poly_divexact(p, g)
                q = _poly_divexact(q, g)
            c = q[0].inv()
            num = _poly_from_dense([x * c for x in p], vn - vd)
            den = _poly_from_dense([x * c for x in q])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other) -> "RatFunA | None":
        if isinstance(other, RatFunA):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunA(LaurentA(((0, GaussRat(other)),)))
        if isinstance(other, (GaussRat, LaurentA, Dual)):
            raise RingMismatchError(
                f"cannot mix RatFunA with {ring_of(other).name}; promote explicitly"
            )
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == _L_ONE and o.den == _L_ONE:
            return RatFunA(self.num + o.num)
        return RatFunA(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        out = RatFunA.__new__(RatFunA)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

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

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == _L_ONE and o.den == _L_ONE:
            return RatFunA(self.num * o.num)
        return RatFunA(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inv(self) -> "RatFunA":
        if self.is_zero():
            raise NotInvertibleError("division by zero in ratfun")
        return RatFunA(self.den, self.num)

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

    def __pow__(self, n: int):
        return _generic_pow(self, n, RatFunA(_L_ONE))

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"RatFunA({format_scalar(self)!r})"


# ---------------------------------------------------------------------------
# Dual numbers (square-zero extension)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dual:
    """body + t*slope with t^2 = 0, body and slope in the same base ring."""

    body: object
    slope: object

    def __post_init__(self):
        if isinstance(self.body, Dual) or isinstance(self.slope, Dual):
            raise RingMismatchError("nested dual numbers are not supported")
        if ring_of(self.body) != ring_of(self.slope):
            raise RingMismatchError(
                "dual body and slope live in different rings: "
                f"{ring_of(self.body).name} vs {ring_of(self.slope).name}"
            )

    def is_zero(self) -> bool:
        return self.body.is_zero() and self.slope.is_zero()

    def _coerce(self, other) -> "Dual | None":
        if isinstance(other, Dual):
            if ring_of(other.body) != ring_of(self.body):
                raise RingMismatchError(
                    "dual numbers over different base rings; promote explicitly"
                )
            return other
        if isinstance(other, (int, Fraction)):
            base = ring_of(self.body)
            return Dual(base.from_int(0) + other, base.zero())
        if isinstance(other, (GaussRat, LaurentA, RatFunA)):
            raise RingMismatchError(
                f"cannot mix Dual with {ring_of(other).name}; promote explicitly"
            )
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.body + o.body, self.slope + o.slope)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.body, -self.slope)

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

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.slope.is_zero() and o.slope.is_zero():
            return Dual(self.body * o.body, self.slope)
        return Dual(
            self.body * o.body, self.body * o.slope + self.slope * o.body
        )

    __rmul__ = __mul__

    def inv(self) -> "Dual":
        u = self.body.inv()
        return Dual(u, -(u * u * self.slope))

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

    def __pow__(self, n: int):
        base = ring_of(self.body)
        return _generic_pow(self, n, Dual(base.one(), base.zero()))

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Dual({format_scalar(self)!r})"


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
            return LaurentA(((0, GaussRat(n)),))
        if self.name == "ratfun":
            return RatFunA(LaurentA(((0, GaussRat(n)),)))
        return Dual(self.base.from_int(n), self.base.zero())

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
        return Dual(promote(body, target.base), promote(slope, target.base))
    if cur.name == "dual":
        raise RingMismatchError(f"cannot promote {cur} into non-dual {target}")
    if _TOWER[cur.name] > _TOWER[target.name]:
        raise RingMismatchError(f"cannot promote {cur} down to {target}; use demote")
    if isinstance(x, GaussRat):
        x = LaurentA(((0, x),))
    if target == LAURENT:
        return x
    return RatFunA(x)


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


def ring_add(x, y):
    return x + y


def ring_mul(x, y):
    return x * y


def ring_neg(x):
    return -x


def ring_inv(x):
    return x.inv()


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
    if ring is None:
        return val
    cur = ring_of(val)
    if cur == ring:
        return val
    try:
        return promote(val, ring)
    except RingMismatchError:
        return demote(val, ring)
