"""Closed-braid invariants from a twist-compatible R-matrix.

A braid word on n strands acts on V^(x n) by stacking R (or its inverse)
at the letter's position.  Together with a one-strand twist map and scalars
u, v satisfying the three trace-compatibility conditions below, the
writhe-corrected trace

    T(w) = u^(-writhe) * v^(-n) * Tr(twist^(x n) . R(w))

depends only on the closure of w up to Markov moves.  Dividing by the
one-strand unknot value gives a normalization that matches the
combinatorial Kauffman-bracket oracle at t = 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .linmap import (
    LinearMap,
    apply_local,
    compose,
    partial_trace,
    partial_trace_last,
    swap,
    tensor,
    tensor_all,
    trace_of_product,
)
from .planar import jones_polynomial
from .rmatrix import SkeinRMatrix, build_R, check_strands
from .scalars import LaurentA, NotInvertibleError, format_scalar, promote
from .switchback import SwitchbackPair


class BraidSyntaxError(ValueError):
    pass


class TuraevError(ValueError):
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

    def conjugated(self, i: int, sign: int = 1) -> "BraidWord":
        """g w g^-1 for g = s_i^sign."""
        g, ginv = (i, sign), (i, -sign)
        return BraidWord(self.n, (g, *self.letters, ginv))

    def stabilized(self, sign: int = 1) -> "BraidWord":
        """w . s_n^sign on one more strand."""
        return BraidWord(self.n + 1, (*self.letters, (self.n, sign)))

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
    one = pair.id1()
    tau = swap(pair.d, pair.ring)
    return compose(
        tensor(one, pair.pairing),
        compose(tensor(tau, one), tensor(one, pair.copairing)),
    )


@dataclass(frozen=True)
class TuraevData:
    rmx: SkeinRMatrix
    nu: LinearMap
    u: object
    v: object

    @property
    def pair(self) -> SwitchbackPair:
        return self.rmx.pair


def _proportionality(m: LinearMap, target: LinearMap):
    """The scalar c with m = c * target, or None if no such c exists."""
    probe = next(((i, j) for i, j, _ in target.nonzeros()), None)
    if probe is None:
        return None
    try:
        c = m.entry(*probe) * target.entry(*probe).inv()
    except NotInvertibleError:
        return None
    return c if (m - target.scale(c)).is_zero() else None


def solve_uv(rmx: SkeinRMatrix, nu: LinearMap):
    """Extract u and v from the two partial traces: Tr_2(R(nu x nu)) must
    be (uv) nu and Tr_2(R^-1(nu x nu)) must be (u^-1 v) nu.  The products
    force v^2 = 1; v is fixed to 1 (dual case: body 1, slope 0) and the
    extracted values are cross-checked against the closed forms
    uv = delta0*a + b and u^-1*v = delta0*a^-1 + b^-1."""
    nn = tensor(nu, nu)
    uv = _proportionality(partial_trace_last(compose(rmx.R, nn)), nu)
    uinv_v = _proportionality(partial_trace_last(compose(rmx.Rinv, nn)), nu)
    if uv is None or uinv_v is None:
        raise TuraevError("partial trace of R(nu x nu) is not a multiple of nu")
    ring = rmx.R.ring
    if uv != rmx.loop * rmx.a + rmx.b or uinv_v != rmx.loop * rmx.a_inv + rmx.b_inv:
        raise TuraevError("extracted traces disagree with delta0*a + b")
    if uv * uinv_v != ring.one():
        raise TuraevError(
            "v^2 = " + format_scalar(uv * uinv_v) + ", expected 1"
        )
    return uv, ring.one()


def make_turaev(pair: SwitchbackPair, a, b) -> TuraevData:
    rmx = build_R(pair, a, b)
    nu = make_nu(pair)
    u, v = solve_uv(rmx, nu)
    td = TuraevData(rmx, nu, u, v)
    failure = turaev_first_failure(td)
    if failure is not None:
        raise TuraevError(failure)
    return td


def turaev_first_failure(td: TuraevData) -> str | None:
    """None when every trace-compatibility condition holds exactly."""
    R, Rinv, nu = td.rmx.R, td.rmx.Rinv, td.nu
    pair = td.pair
    nn = tensor(nu, nu)
    if not (compose(R, nn) - compose(nn, R)).is_zero():
        return "R does not commute with the doubled twist"
    if not (partial_trace_last(compose(R, nn)) - nu.scale(td.u * td.v)).is_zero():
        return "Tr_2(R (nu x nu)) != u*v*nu"
    if not (
        partial_trace_last(compose(Rinv, nn)) - nu.scale(td.u.inv() * td.v)
    ).is_zero():
        return "Tr_2(R^-1 (nu x nu)) != u^-1*v*nu"
    if not (compose(pair.pairing, nn) - pair.pairing).is_zero():
        return "pairing not invariant under the doubled twist"
    if not (compose(nn, pair.copairing) - pair.copairing).is_zero():
        return "copairing not invariant under the doubled twist"
    one = pair.id1()
    curl = compose(
        tensor(pair.copairing, one),
        compose(tensor(pair.pairing, one), tensor_all([one, nu, one], pair.d, pair.ring)),
    )
    if not (partial_trace(curl, 1) - LinearMap.identity(pair.d, 2, pair.ring)).is_zero():
        return "twist does not cancel the cusp-pair curl"
    return None


# ---------------------------------------------------------------------------
# The invariant
# ---------------------------------------------------------------------------


def r_of_word(td: TuraevData, w: BraidWord) -> LinearMap:
    """Product over letters of 1^(i-1) x R^(sign) x 1^(n-i-1), first letter
    applied first (bottom of the diagram); each letter acts on its two
    strands only."""
    check_strands(w.n)
    acc = LinearMap.identity(td.rmx.R.shape.d, w.n, td.rmx.R.ring)
    for i, sign in w.letters:
        acc = apply_local(td.rmx.R if sign > 0 else td.rmx.Rinv, i - 1, acc)
    return acc


def invariant(td: TuraevData, w: BraidWord):
    """u^(-writhe) * v^(-n) * Tr(twist^(x n) . R(w))."""
    rw = r_of_word(td, w)
    nun = tensor_all([td.nu] * w.n, td.nu.shape.d, td.nu.ring)
    tr = trace_of_product(nun, rw)
    return td.u ** (-w.writhe) * td.v ** (-w.n) * tr


def normalized_invariant(td: TuraevData, w: BraidWord):
    """invariant(w) divided by the one-strand unknot value; needs a ring
    where the loop value is invertible (the rational-function field or its
    dual)."""
    unknot = invariant(td, BraidWord(1, ()))
    return invariant(td, w) * unknot.inv()


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
    """Independent combinatorial Kauffman-bracket value of the closure."""
    return jones_polynomial(w.n, w.letters)


# ---------------------------------------------------------------------------
# Deformed-versus-oracle comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompareEntry:
    word: str
    value: object          # normalized invariant (possibly dual)
    oracle: object         # oracle value promoted into the working ring
    matches: bool          # body of value == oracle


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


def t0_part(x):
    """The t = 0 part of a value: the body of a dual number, else x."""
    return x.body if hasattr(x, "body") else x


def compare_with_oracle(td: TuraevData, corpus) -> CompareReport:
    """Per-word: the t=0 part of the normalized invariant must equal the
    oracle.  Constants: with c = a/b and ell = b^-1 u, both ell^2 = c^4 and
    delta0 = -(c + c^-1) must hold exactly.  Each corpus word with at least
    one letter also yields one skein triple (its first letter made
    positive / negative / removed) which must satisfy the skein relation."""
    ring = td.rmx.R.ring
    base = ring.base if ring.name == "dual" else ring
    entries = []
    for w in corpus:
        value = normalized_invariant(td, w)
        oracle = promote(jones_oracle(w), base)
        entries.append(CompareEntry(str(w), value, oracle, t0_part(value) == oracle))
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
