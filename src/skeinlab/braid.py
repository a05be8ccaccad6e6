"""Closed-braid invariants from a twist-compatible R-matrix.

A braid word on n strands acts on V^(x n) by stacking R (or its inverse)
at the letter's position.  Together with a one-strand twist map and the
scalar u = delta0*a + b, which satisfy the trace-compatibility conditions
below, the writhe-corrected trace

    T(w) = u^(-writhe) * Tr(twist^(x n) . R(w))

depends only on the closure of w up to Markov moves.  Dividing by the
one-strand unknot value gives a normalization that equals the
combinatorial Kauffman-bracket oracle evaluated at the weights a, b and
delta0 of R, deformed or not.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import lcm

from . import SkeinlabError
from .linmap import (
    LinearMap,
    apply_local,
    compose,
    equal,
    full_trace,
    partial_trace,
    swap,
)
from .planar import bracket_state_sum, jones_polynomial
from .rmatrix import SkeinRMatrix, build_R, check_strands
from .scalars import (
    RATFUN,
    Dual,
    GaussRat,
    LaurentA,
    RatFunA,
    Ring,
    into_ring,
)
from .switchback import SwitchbackPair


class BraidSyntaxError(SkeinlabError):
    pass


class TuraevError(SkeinlabError):
    pass


@dataclass(frozen=True)
class BraidWord:
    n: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise BraidSyntaxError(f"strand count must be >= 1, got {self.n}")
        for i, sign in self.letters:
            if not 1 <= i <= self.n - 1:
                raise BraidSyntaxError(
                    f"generator s{i} out of range for {self.n} strands"
                )
            if sign not in (1, -1):
                raise BraidSyntaxError(f"bad sign {sign} on s{i}")

    @property
    def writhe(self) -> int:
        return sum(sign for _, sign in self.letters)

    def __str__(self):
        if not self.letters:
            return f"(empty, {self.n} strands)"
        return " ".join(f"s{i}" if s > 0 else f"s{i}^-1" for i, s in self.letters)


_LETTER = re.compile(r"s(\d+)(\^-1)?$")


def parse_braid(text: str, n: int | None = None) -> BraidWord:
    """Whitespace-separated tokens `s<i>` / `s<i>^-1`; n defaults to one
    more than the largest generator index used (1 for the empty word)."""
    letters = []
    for tok in text.split():
        m = _LETTER.match(tok)
        if not m:
            raise BraidSyntaxError(f"bad braid token {tok!r} (want s<i> or s<i>^-1)")
        letters.append((int(m.group(1)), -1 if m.group(2) else 1))
    if n is None:
        n = 1 + max((i for i, _ in letters), default=0)
    return BraidWord(n, tuple(letters))


# ---------------------------------------------------------------------------
# Turaev data
# ---------------------------------------------------------------------------


def make_nu(pair: SwitchbackPair) -> LinearMap:
    """The one-strand twist (1 x pairing)(tau x 1)(1 x copairing)."""
    nu = apply_local(swap(pair.d, pair.ring), 0, apply_local(pair.copairing, 1, pair.id1()))
    return apply_local(pair.pairing, 1, nu)


@dataclass(frozen=True)
class TuraevData:
    rmx: SkeinRMatrix
    nu: LinearMap
    # delta0*a + b: closing one strand gives Tr_2(R (nu x nu)) = u*nu
    u: object = field(init=False)
    # the one-strand unknot value Tr(nu), by which invariants are normalized
    unknot: object = field(init=False)
    # R, R^-1 and the twist scaled for the packed kernel, worked out once
    _kernel: "_Kernel" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "u", self.rmx.loop * self.rmx.a + self.rmx.b)
        object.__setattr__(self, "unknot", full_trace(self.nu))
        object.__setattr__(self, "_kernel", _Kernel.of(self))

    @property
    def pair(self) -> SwitchbackPair:
        return self.rmx.pair


def make_turaev(pair: SwitchbackPair, a, b) -> TuraevData:
    """Turaev data of R = a*1 + b*cupcap, with u = delta0*a + b.

    The trace conditions ask Tr_2(R(nu x nu)) = u*nu and
    Tr_2(R^-1(nu x nu)) = u^-1*nu; for a twist that passes them the traces
    are (delta0*a + b)*nu and (delta0*a^-1 + b^-1)*nu.  The quadratic
    condition that build_R checks gives (delta0*a + b)(delta0*a^-1 + b^-1) = 1,
    so a second normalising scalar v could only have v^2 = 1, and v = 1 is
    taken.  Nothing is left to solve: turaev_first_failure checks both
    traces against these values.
    """
    check_strands(3, pair.d)
    td = TuraevData(build_R(pair, a, b), make_nu(pair))
    failure = turaev_first_failure(td)
    if failure is not None:
        raise TuraevError(failure)
    return td


def turaev_first_failure(td: TuraevData) -> str | None:
    """None when every trace-compatibility condition holds exactly."""
    R, Rinv, nu = td.rmx.R, td.rmx.Rinv, td.nu
    pair = td.pair
    two = LinearMap.identity(pair.d, 2, pair.ring)
    nn = apply_local(nu, 0, apply_local(nu, 1, two))
    r_nn = compose(R, nn)
    if not equal(r_nn, compose(nn, R)):
        return "R does not commute with the doubled twist"
    if not equal(partial_trace(r_nn, 1), nu.scale(td.u)):
        return "Tr_2(R (nu x nu)) != u*nu"
    if not equal(partial_trace(compose(Rinv, nn), 1), nu.scale(td.u.inv())):
        return "Tr_2(R^-1 (nu x nu)) != u^-1*nu"
    if not equal(compose(pair.pairing, nn), pair.pairing):
        return "pairing not invariant under the doubled twist"
    if not equal(compose(nn, pair.copairing), pair.copairing):
        return "copairing not invariant under the doubled twist"
    curl = apply_local(nu, 1, LinearMap.identity(pair.d, 3, pair.ring))
    curl = apply_local(pair.copairing, 0, apply_local(pair.pairing, 0, curl))
    if not equal(partial_trace(curl, 1), two):
        return "twist does not cancel the cusp-pair curl"
    return None


# ---------------------------------------------------------------------------
# The packed-integer kernel
# ---------------------------------------------------------------------------
#
# Tr(twist^(x n) . R(w)) is evaluated on Python ints, not on scalar
# objects; r_of_word's docstring gives the scaling, the packing and the
# proof of the bound on the packed width B.


@dataclass(frozen=True)
class _Scaled:
    """A local map M = M'/scale, with M' as the lane moves of its entries:
    (row, col, out lane, in lane, {exponent: nonzero int coefficient}),
    meaning that entry (row, col) adds that polynomial times the in lane of
    a value to its out lane."""

    moves: tuple
    scale: object
    norm: int


def _scaled(m: LinearMap) -> _Scaled:
    is_dual = m.ring.name == "dual"
    base = m.ring.base if is_dual else m.ring
    cells = [
        (r, c, [into_ring(p, RATFUN) for p in ((x.body, x.slope) if is_dual else (x,))])
        for r, c, x in m.nonzeros()
    ]
    q = RATFUN.one()
    for den in dict.fromkeys(p.den for _, _, parts in cells for p in parts):
        q = q * RatFunA(den)
    # (row, col, t-degree, [(exponent, re, im)]) of M times Q, as Fractions
    polys = [
        (r, c, tdeg, [(e, g.re, g.im) for e, g in (q * p).num.terms])
        for r, c, parts in cells for tdeg, p in enumerate(parts)
    ]
    mult = lcm(*(f.denominator for *_, p in polys for _, a, b in p for f in (a, b)))
    shift = -min((e for *_, p in polys for e, _, _ in p), default=0)
    lanes = 4 if is_dual else 2
    moves, colnorm = [], {}
    for r, c, tdeg, p in polys:
        re = {e + shift: a.numerator * (mult // a.denominator)
              for e, a, _ in p if a}
        im = {e + shift: b.numerator * (mult // b.denominator)
              for e, _, b in p if b}
        size = sum(map(abs, re.values())) + sum(map(abs, im.values()))
        colnorm[c] = colnorm.get(c, 0) + size
        # (x + y*i)(re + im*i) = (re*x - im*y) + (re*y + im*x)*i, and the
        # slope part of the entry takes body lanes to slope lanes
        for src in range(0, lanes - 2 * tdeg, 2):
            dst = src + 2 * tdeg
            if re:
                moves += [(r, c, dst, src, re), (r, c, dst + 1, src + 1, re)]
            if im:
                neg = {e: -v for e, v in im.items()}
                moves += [(r, c, dst, src + 1, neg), (r, c, dst + 1, src, im)]
    scale = into_ring(LaurentA(((shift, GaussRat(mult)),)), RATFUN) * q
    return _Scaled(tuple(moves), into_ring(scale, base),
                   max(colnorm.values(), default=0))


@dataclass(frozen=True)
class _Kernel:
    """Everything the packed evaluation needs from one TuraevData."""

    d: int
    base: Ring
    lanes: int            # 2 over a base ring, 4 over its dual
    live: frozenset       # lanes reachable from the identity
    R: _Scaled
    Rinv: _Scaled
    nu: _Scaled

    @staticmethod
    def of(td: TuraevData) -> "_Kernel":
        ring = td.rmx.R.ring
        lanes = 4 if ring.name == "dual" else 2
        maps = [_scaled(m) for m in (td.rmx.R, td.rmx.Rinv, td.nu)]
        live = {0}
        while True:
            grown = live | {o for sm in maps for _, _, o, i, _ in sm.moves if i in live}
            if grown == live:
                break
            live = grown
        return _Kernel(td.rmx.R.shape.d, ring.base if lanes == 4 else ring,
                       lanes, frozenset(live), *maps)

    def plan(self, sm: _Scaled, bits: int):
        """Per output local index: (out lane, [(source local index, in
        lane, odd multiplier, shift)]) over the live lanes.  A packed factor
        f is split as f = odd * 2^shift, so that the usual monomial factors
        (odd = +-1) act by a shift alone."""
        by_out: dict[int, dict[int, list]] = {}
        for r, c, o, i, poly in sm.moves:
            if i in self.live:
                f = sum(v << (e * bits) for e, v in poly.items())
                shift = (f & -f).bit_length() - 1
                by_out.setdefault(r, {}).setdefault(o, []).append(
                    (c, i, f >> shift, shift))
        return [(r, list(outs.items())) for r, outs in sorted(by_out.items())]


def _apply_local(plan, low: int, block: int, acc: list[dict]) -> list[dict]:
    """(1^slot x f x 1^rest) . acc on packed lanes, for the plan of a local
    f; low and block are the place values of f's lowest digit and of its
    whole block of digits.  Each output row is pulled from the rows that
    differ from it in f's digits only; cancelled entries are dropped."""
    new: list[dict] = [{} for _ in acc]
    bases = {r - r % block // low * low for lane in acc for r in lane}
    for base in bases:
        for fr, outs in plan:
            key = base + fr * low
            for o, terms in outs:
                row = None
                for local, i, odd, shift in terms:
                    src = acc[i].get(base + local * low)
                    if src is None:
                        continue
                    if odd == 1:
                        part = {s: g << shift for s, g in src.items()}
                    elif odd == -1:
                        part = {s: -(g << shift) for s, g in src.items()}
                    else:
                        part = {s: odd * g << shift for s, g in src.items()}
                    if row is None:
                        row = part
                        continue
                    get = row.get
                    for s, v in part.items():
                        v += get(s, 0)
                        if v:
                            row[s] = v
                        else:
                            del row[s]
                if row:
                    new[o][key] = row
    return new


def r_of_word(td: TuraevData, w: BraidWord):
    """The letter loop: product over letters of 1^(i-1) x R^(sign) x
    1^(n-i-1), first letter applied first (bottom of the diagram), each
    acting on its two strands only.  It runs on the packed kernel and
    starts from the twist^(x n), built by n one-strand updates of the
    identity, because only the trace Tr(twist^(x n) . R(w)) =
    Tr(R(w) . twist^(x n)) is ever read.  Returns (lanes, bits, scale):
    R(w) . twist^(x n) = X / scale, X held as packed lanes of bits-bit
    digits.

    Scaling.  Each local map M (R, R^-1, the twist) over the base ring K, or
    over its dual with parts M = M0 + t*M1, is written M = M'/D: D = m*A^s*Q
    lies in K (m a positive int, Q the product of the distinct ratfun
    denominators of M's entries) and every entry of M' (each part, for a
    dual map) is a polynomial in A with Gaussian-integer coefficients and no
    negative exponent.

    Packing.  A polynomial P = sum_k (a_k + b_k*i) A^k is held as the two
    ints P_re(2^B) and P_im(2^B), with P_re = sum a_k A^k and P_im = sum b_k
    A^k. Evaluation at 2^B is a ring homomorphism Z[A] -> Z, so sums and
    products of packed values are the packed sums and products, and a local
    entry acts on a packed entry by a few big-int multiplies and adds.  A
    value is stored as lanes: (re, im) over K, (body re, body im, slope re,
    slope im) over the dual of K.  Lanes that the identity, the twist, R and
    R^-1 can never reach (for instance every imaginary lane when all entries
    are real) are not stored.

    The bound on B.  Write |P| = sum_k |a_k| + |b_k| and, for a matrix,
    ||M'|| = max over columns c of sum over rows r of |M'_rc| (for a dual
    map |M0'_rc| + |M1'_rc|).  |.| is submultiplicative on Z[i][A], so ||.||
    is submultiplicative on products, and padding with identities does not
    change it.  The kernel forms X = R'(w) . twist'^(x n) as a product of
    the n one-strand twists and one local map per letter, so every entry of
    X, and of every partial product (each factor has ||.|| >= 1), has |X_rc|
    <= N0 = ||twist'||^n * prod over letters of ||R'^(+-1)||; for a dual map
    this bounds the body and the slope part together, since ||M0' + t*M1'||
    is taken on |M0'| + |M1'|.  The trace adds d^n diagonal entries, so
    every coefficient of every lane of the result is at most N = d^n * N0 in
    absolute value.  With B = bit_length(N) + 2 every such coefficient lies
    strictly inside (-2^(B-1), 2^(B-1)), so the signed base-2^B digits of
    the traced ints are exactly the coefficients. Packed entries and packed
    factors are nonzero exactly when their polynomials are, since every
    coefficient met on the way obeys the same bound.
    """
    kern = td._kernel
    d, n = kern.d, w.n
    check_strands(n, d)
    pos = sum(sign > 0 for _, sign in w.letters)
    neg = len(w.letters) - pos
    bound = d**n * kern.nu.norm**n * kern.R.norm**pos * kern.Rinv.norm**neg
    bits = bound.bit_length() + 2
    acc: list[dict] = [{} for _ in range(kern.lanes)]
    acc[0] = {r: {r: 1} for r in range(d**n)}
    nu = kern.plan(kern.nu, bits)
    for slot in range(n):
        low = d ** (n - 1 - slot)
        acc = _apply_local(nu, low, low * d, acc)
    plans = {1: kern.plan(kern.R, bits), -1: kern.plan(kern.Rinv, bits)}
    for i, sign in w.letters:
        low = d ** (n - i - 1)
        acc = _apply_local(plans[sign], low, low * d * d, acc)
    scale = kern.nu.scale**n * kern.R.scale**pos * kern.Rinv.scale**neg
    return acc, bits, scale


def _digits(x: int, bits: int) -> dict[int, int]:
    """The nonzero signed base-2^bits digits of x, by place."""
    digits = {}
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    k = 0
    while x:
        c = x & mask
        if c >= half:
            c -= 1 << bits
        if c:
            digits[k] = c
        x = (x - c) >> bits
        k += 1
    return digits


# ---------------------------------------------------------------------------
# The invariant
# ---------------------------------------------------------------------------


def invariant(td: TuraevData, w: BraidWord):
    """u^(-writhe) * Tr(twist^(x n) . R(w)); the trace of the
    packed word is unpacked into the ring of td, and its scaling divided
    out, once."""
    lanes, bits, scale = r_of_word(td, w)
    kern = td._kernel
    inv = scale.inv()
    parts = []
    for re_lane, im_lane in zip(lanes[0::2], lanes[1::2]):
        re, im = (_digits(sum(row.get(r, 0) for r, row in lane.items()), bits)
                  for lane in (re_lane, im_lane))
        poly = LaurentA({k: GaussRat(re.get(k, 0), im.get(k, 0))
                         for k in re.keys() | im.keys()})
        parts.append(into_ring(poly, kern.base) * inv)
    tr = Dual(*parts) if kern.lanes == 4 else parts[0]
    return td.u ** (-w.writhe) * tr


def normalized_invariant(td: TuraevData, w: BraidWord):
    """invariant(w) divided by the one-strand unknot value; needs a ring
    where the loop value is invertible (the rational-function field or its
    dual)."""
    return invariant(td, w) * td.unknot.inv()


def skein_triple_check(td: TuraevData, wp: BraidWord, wm: BraidWord, w0: BraidWord) -> bool:
    """(b^-1 u) T(w+) - (b u^-1) T(w-) = (a b^-1 - a^-1 b) T(w0) for words
    differing by one crossing (positive / negative / removed)."""
    if not (wp.n == wm.n == w0.n):
        raise TuraevError("skein triple must share the strand count")
    if not (wp.writhe == wm.writhe + 2 == w0.writhe + 1):
        raise TuraevError("skein triple writhes must be (k+1, k-1, k)")
    a, b = td.rmx.a, td.rmx.b
    lhs = (b.inv() * td.u) * invariant(td, wp) - (b * td.u.inv()) * invariant(td, wm)
    rhs = (a * b.inv() - a.inv() * b) * invariant(td, w0)
    return lhs == rhs


def jones_oracle(w: BraidWord) -> LaurentA:
    """Independent combinatorial Kauffman-bracket value of the closure,
    refused past the strand limit of the invariant it is checked against."""
    check_strands(w.n, 2)
    return jones_polynomial(w.n, w.letters)


# ---------------------------------------------------------------------------
# Deformed-versus-oracle comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompareEntry:
    word: str
    value: object          # normalized invariant (possibly dual)
    matches: bool          # value == oracle at the weights of R


@dataclass(frozen=True)
class CompareReport:
    entries: tuple[CompareEntry, ...]
    ell_squared_is_c4: bool
    loop_is_minus_c_plus_cinv: bool
    skein_ok: tuple[tuple[str, bool], ...]

    @property
    def all_ok(self) -> bool:
        return (
            self.ell_squared_is_c4
            and self.loop_is_minus_c_plus_cinv
            and all(e.matches for e in self.entries)
            and all(ok for _, ok in self.skein_ok)
        )


def matches_oracle(td: TuraevData, value, w: BraidWord) -> bool:
    """value, the normalized invariant of w under td, against the state
    sum of w with the weights a, b and delta0 of td's R-matrix, normalized
    by u^(-writhe).  Only the weights come from td, so a deformed value is
    checked whole, slope included, and a specialized one at the pair's A."""
    rmx = td.rmx
    bracket = bracket_state_sum(w.n, w.letters, rmx.a, rmx.b, rmx.loop)
    return value == td.u ** (-w.writhe) * bracket


def compare_with_oracle(td: TuraevData, corpus) -> CompareReport:
    """Per-word: the normalized invariant must equal the oracle at the
    weights of R (matches_oracle).  Constants: with c = a/b and ell = b^-1 u,
    both ell^2 = c^4 and delta0 = -(c + c^-1) must hold exactly.  Each
    corpus word with at least one letter also yields one skein triple (its
    first letter made positive / negative / removed) which must satisfy the
    skein relation."""
    entries = []
    for w in corpus:
        value = normalized_invariant(td, w)
        entries.append(CompareEntry(str(w), value, matches_oracle(td, value, w)))
    a, b = td.rmx.a, td.rmx.b
    c = a * b.inv()
    ell = b.inv() * td.u
    ell_ok = ell * ell == c**4
    loop_ok = td.rmx.loop == -(c + c.inv())
    skein = []
    for w in corpus:
        if not w.letters:
            continue
        i, _ = w.letters[0]
        rest = w.letters[1:]
        wp = BraidWord(w.n, ((i, 1), *rest))
        wm = BraidWord(w.n, ((i, -1), *rest))
        w0 = BraidWord(w.n, rest)
        skein.append((str(w), skein_triple_check(td, wp, wm, w0)))
    return CompareReport(tuple(entries), ell_ok, loop_ok, tuple(skein))
