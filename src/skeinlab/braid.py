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

from . import SkeinlabError
from ._packed import Kernel, place, product, trace_product, unpack, width
from .linmap import (
    LinearMap,
    apply_local,
    compose,
    equal,
    full_trace,
    partial_trace,
    placed,
    transpose,
)
from .planar import bracket_state_sum, jones_polynomial
from .rmatrix import SkeinRMatrix, build_R, check_strands
from .scalars import LaurentA, into_ring
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
    """The one-strand twist (1 x pairing)(tau x 1)(1 x copairing): it sends
    e_a to sum over j, k of G[j][k] B[a][k] e_j, so it is G B^T."""
    bb, gg = pair.bent()
    return compose(gg, transpose(bb))


@dataclass(frozen=True)
class TuraevData:
    rmx: SkeinRMatrix
    nu: LinearMap
    # delta0*a + b: closing one strand gives Tr_2(R (nu x nu)) = u*nu
    u: object = field(init=False)
    # the one-strand unknot value Tr(nu), by which invariants are normalized
    unknot: object = field(init=False)
    # R, R^-1 and the twist's family [twist, twist x 1, 1 x twist] scaled for
    # the packed kernel, and the factors of r_of_word made from them by key,
    # all built once here; the kernel's plans of the factors by (factor key,
    # width); and by word shape (strands, positive letters, negative
    # letters), the width and scale of r_of_word (_shapes) and the scalar
    # factors of the trace (_tails), the latter with a fourth key,
    # normalized or not
    _kernel: Kernel = field(init=False, repr=False, compare=False)
    _factors: dict = field(init=False, repr=False, compare=False)
    _plans: dict = field(init=False, repr=False, compare=False)
    _shapes: dict = field(init=False, repr=False, compare=False)
    _tails: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "u", self.rmx.loop * self.rmx.a + self.rmx.b)
        object.__setattr__(self, "unknot", full_trace(self.nu))
        nu = self.nu
        kernel = Kernel.of([self.rmx.R], [self.rmx.Rinv],
                           [nu, placed(nu, 0, 2), placed(nu, 1, 2)])
        R, Rinv, twist, first, second = kernel.maps
        factors = {None: twist}
        for sign, r in ((1, R), (-1, Rinv)):
            factors[sign, 0, 0] = r
            factors[sign, 1, 0] = product(r, first)
            factors[sign, 0, 1] = product(r, second)
            factors[sign, 1, 1] = product(factors[sign, 1, 0], second)
        object.__setattr__(self, "_kernel", kernel)
        object.__setattr__(self, "_factors", factors)
        object.__setattr__(self, "_plans", {})
        object.__setattr__(self, "_shapes", {})
        object.__setattr__(self, "_tails", {})

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
    check_strands(2, pair.d)
    td = TuraevData(build_R(pair, a, b), make_nu(pair))
    failure = turaev_first_failure(td)
    if failure is not None:
        raise TuraevError(failure)
    return td


def turaev_first_failure(td: TuraevData) -> str | None:
    """None when every trace-compatibility condition holds exactly.  R is
    a general map on V^2, so the conditions on R are checked there."""
    R, Rinv, nu = td.rmx.R, td.rmx.Rinv, td.nu
    nn = apply_local(nu, 0, placed(nu, 1, 2))
    r_nn = compose(R, nn)
    if not equal(r_nn, compose(nn, R)):
        return "R does not commute with the doubled twist"
    if not equal(partial_trace(r_nn, 1), nu.scale(td.u)):
        return "Tr_2(R (nu x nu)) != u*nu"
    if not equal(partial_trace(compose(Rinv, nn), 1), nu.scale(td.u.inv())):
        return "Tr_2(R^-1 (nu x nu)) != u^-1*nu"
    return _pair_failure(td.pair, nu)


def _pair_failure(pair: SwitchbackPair, nu: LinearMap) -> str | None:
    """The conditions on the pair and twist alone, on d x d matrices:
    pairing (nu x nu) = pairing is nu^T B nu = B, (nu x nu) copairing =
    copairing is nu G nu^T = G, and the cusp-pair curl (copairing x 1)
    (pairing x 1)(1 x nu x 1) has Tr_2 = (G nu^T B^T) x 1 on V^2."""
    bb, gg = pair.bent()
    nt = transpose(nu)
    if not equal(compose(compose(nt, bb), nu), bb):
        return "pairing not invariant under the doubled twist"
    if not equal(compose(compose(nu, gg), nt), gg):
        return "copairing not invariant under the doubled twist"
    if not equal(compose(compose(gg, nt), transpose(bb)), pair.id1()):
        return "twist does not cancel the cusp-pair curl"
    return None


# ---------------------------------------------------------------------------
# The letter loop, on the packed kernel
# ---------------------------------------------------------------------------


def _plan(td: TuraevData, key, bits: int):
    """The kernel's plan of one factor of r_of_word at width bits, made
    once per Turaev data."""
    plan = td._plans.get((key, bits))
    if plan is None:
        plan = td._plans[key, bits] = td._kernel.plan(td._factors[key], bits)
    return plan


def _shape(td: TuraevData, n: int, pos: int, neg: int):
    """(bits, scale) of r_of_word for the word shape (n, pos, neg), made
    once per Turaev data, and only once n passes the strand limit."""
    shape = td._shapes.get((n, pos, neg))
    if shape is None:
        d = td.pair.d
        check_strands(n, d)
        R, Rinv, nu = td._kernel.maps[:3]
        bound = d**n * nu.norm**n * R.norm**pos * Rinv.norm**neg
        scale = nu.scale**n * R.scale**pos * Rinv.scale**neg
        shape = td._shapes[n, pos, neg] = (width(bound), scale)
    return shape


def r_of_word(td: TuraevData, w: BraidWord):
    """The letter loop: product over letters of 1^(i-1) x R^(sign) x
    1^(n-i-1), first letter applied first (bottom of the diagram), each
    acting on its two strands only.  It runs on the packed kernel and
    takes in the twist^(x n) as well, because only the trace
    Tr(twist^(x n) . R(w)) = Tr(R(w) . twist^(x n)) is ever read.  Returns
    (upper, lower, bits, scale): R(w) . twist^(x n) = U . L / scale, with U
    and L held as packed lanes of bits-bit digits, flat-keyed row*d^n + col,
    and scale a LaurentA.

    A strand's twist commutes with every letter that does not touch the
    strand, so it rides on the first letter that does: that letter, on
    strands i and i+1, places R^(sign) . (twist^a x twist^b), with a = 1
    when strand i is fresh and b = 1 when strand i+1 is.  Only the strands
    that no letter touches get a one-strand twist of their own, placed on
    the identity first.  The nine factors, keyed None for the twist and
    (sign, a, b) for a letter, are built once with the Turaev data
    (td._factors), and only their plans are made here, once per width.
    The width B, from the bound N below, and the scale are fixed by the
    word's shape and read from td's table of shapes (_shape).

    These placements, in order, are cut in two: L is the product of the
    lower ones and U of the upper ones, each applied to the packed
    identity, so that neither half builds the dense rows of the whole
    word; an empty half is the identity.  The trace is read as the dot
    product Tr(U . L) = sum over r, c of U_rc L_cr (_packed.trace_product).

    R, R^-1 and the twist's family (the twist and its placements twist x 1
    and 1 x twist) are each scaled on their own, M = M'/D, and packed as the
    _packed docstring sets out; its bound on the width B applies with this
    N.  U . L is the product of the n one-strand twists and one local map
    per letter, so every entry of U, of L and of every partial product of
    either (each factor is invertible, so ||.|| >= 1) has |.| <= N0 =
    ||twist'||^n * prod over letters of ||R'^(+-1)||, and so does
    ||U'|| * ||L'||.  The placed members hold the twist's own entries, so
    they carry its scale and its norm ||twist'||, and a folded factor, their
    product with R'^(+-1), carries the norm ||R'^(+-1)|| * ||twist'||^(a+b)
    >= ||R'^(+-1) (twist'^a x twist'^b)||; placing it keeps ||.||, so
    folding leaves N0 as it is.  Every partial sum of the dot product, in
    every lane, is bounded by sum over r, c of |U'_rc| |L'_cr| <= sum over
    c of ||L'|| * (sum over r of |U'_rc|) <= d^n * ||L'|| * ||U'||, as
    |L'_cr|, one entry of column r, is at most ||L'||.  So N = d^n * N0
    bounds every coefficient met, as it did for the trace of the whole
    product.
    """
    kern = td._kernel
    d, n = td.pair.d, w.n
    pos = sum(sign > 0 for _, sign in w.letters)
    bits, scale = _shape(td, n, pos, len(w.letters) - pos)
    fresh = [1] * n
    # the placements, first applied first, each as (factor key, place value
    # of the factor's lowest digit, span of its digits): the letters, and
    # then the lone twists put in front of them
    steps = []
    for i, sign in w.letters:
        steps.append(((sign, fresh[i - 1], fresh[i]), d ** (n - i - 1), d * d))
        fresh[i - 1] = fresh[i] = 0
    steps[:0] = [(None, d ** (n - 1 - slot), d) for slot in range(n) if fresh[slot]]
    cut = len(steps) // 2
    size = d**n
    halves = []
    for part in (steps[cut:], steps[:cut]):
        acc = kern.identity(size)
        for key, low, span in part:
            acc = place(_plan(td, key, bits), low * size, span, acc)
        halves.append(acc)
    return (*halves, bits, scale)


# ---------------------------------------------------------------------------
# The invariant
# ---------------------------------------------------------------------------


def invariant(td: TuraevData, w: BraidWord):
    """u^(-writhe) * Tr(twist^(x n) . R(w)), read off the packed word with
    one scalar factor per word shape (_closed_trace)."""
    return _closed_trace(td, w, False)


def normalized_invariant(td: TuraevData, w: BraidWord):
    """invariant(w) divided by the one-strand unknot value; needs a ring
    where the loop value is invertible (the rational-function field or its
    dual); elsewhere unknot.inv() refuses it before any letter is placed."""
    return _closed_trace(td, w, True)


def _closed_trace(td: TuraevData, w: BraidWord, normalized: bool):
    """u^(-writhe) * Tr(twist^(x n) . R(w)), divided by the unknot value
    when normalized.  The trace of the packed word, read off its two halves
    as Tr(U . L), is unpacked into the ring of td times one factor,
    u^(-writhe) / scale, times 1/unknot when normalized: each is fixed by
    the word's shape (strands, positive letters, negative letters), so the
    factor is made once per shape and Turaev data, before the word is
    placed, and a word costs one scalar product after unpacking."""
    pos = sum(sign > 0 for _, sign in w.letters)
    neg = len(w.letters) - pos
    key = (w.n, pos, neg, normalized)
    factor = td._tails.get(key)
    if factor is None:
        _, scale = _shape(td, w.n, pos, neg)
        factor = td.u ** (neg - pos) * into_ring(scale, td.rmx.R.ring).inv()
        if normalized:
            factor = factor * td.unknot.inv()
        td._tails[key] = factor
    upper, lower, bits, _ = r_of_word(td, w)
    return unpack(trace_product(upper, lower, td.pair.d**w.n), bits, factor)


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
