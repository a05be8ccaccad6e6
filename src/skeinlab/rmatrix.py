"""Skein-form solutions of the Yang-Baxter equation.

R = a*1 + b*(copairing after pairing) on V x V is an invertible YBE
solution whenever a and b are invertible and a^2 + b^2 + delta0*a*b = 0,
where delta0 is the pair's loop value.  The inverse is then
R^-1 = a^-1*1 + b^-1*(copairing after pairing).

The cup-cap composites e_i = 1^(i-1) x (copairing pairing) x 1^(n-i-1)
represent the Temperley-Lieb algebra with parameter delta0.  Each relation
is checked on the strands that its generators occupy, not on all n: padding
with identities, X -> 1^a x X x 1^b, is an injective algebra homomorphism,
so a relation holds exactly when it holds there, and padding keeps the norm
that fixes the packed width (tl_first_failure).

Both checks run on the packed kernel and take only what they can pack: TL
generators of one square shape and ring with delta in that ring, an R on two
strands.  Other input raises ShapeMismatchError or RingMismatchError first.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import SkeinlabError
from ._packed import Kernel, place, unpack, width
from .linmap import LinearMap, ShapeMismatchError, compose, equal, placed, unplaced
from .scalars import (
    A,
    A_INV,
    Dual,
    GaussRat,
    NotInvertibleError,
    RingMismatchError,
    format_scalar,
    into_ring,
    ring_of,
)
from .switchback import SwitchbackPair, delta0


class RMatrixError(SkeinlabError):
    pass


# Largest dimension d^n of V^(x n) on which maps are built; maps on it are
# d^n x d^n.  On a 2-core x86-64 host (Intel Xeon) under CPython 3.11, whose
# speed swings by up to 2x, the Temperley-Lieb check of the Laurent bracket
# pair (d = 2), generators included, takes 0.0007 s at 8 strands and
# 0.0015-0.0017 s at 10, and of the d = 3 identity pair 0.0008-0.0010 s
# at 6 strands; each relation runs on at most three strands, so laying out
# the generators is about half of it at 8 strands and most of it at 10.
# The ratfun invariant of s1 s2 ... s(n-1) takes 0.0009-0.0014 s at 8
# strands and 0.0047-0.0053 s at 10, and of a 20-letter word on 10 strands
# 0.035-0.038 s (0.22-0.24 s deformed by a cocycle).
MAX_DIM = 2**10


def max_strands(d: int) -> int:
    """The most strands n with d^n <= MAX_DIM.  A one-dimensional space
    takes the two-dimensional limit, so that n stays bounded there too."""
    d = max(d, 2)
    n = 0
    while d ** (n + 1) <= MAX_DIM:
        n += 1
    return n


def check_strands(n: int, d: int) -> None:
    """Raise RMatrixError, before anything is built, when n strands of a
    d-dimensional space is more than max_strands(d)."""
    if n > max_strands(d):
        raise RMatrixError(
            f"{n} strands is more than the limit of {max_strands(d)}"
        )


@dataclass(frozen=True)
class SkeinRMatrix:
    pair: SwitchbackPair
    a: object
    b: object
    loop: object          # delta0 of the pair
    R: LinearMap
    Rinv: LinearMap


def cupcap(pair: SwitchbackPair) -> LinearMap:
    """copairing after pairing: the V x V -> V x V cup-cap composite."""
    return compose(pair.copairing, pair.pairing)


def build_R(pair: SwitchbackPair, a, b) -> SkeinRMatrix:
    """Assemble R = a*1 + b*cupcap, checking the quadratic condition
    a^2 + b^2 + delta0*a*b = 0 and invertibility of both coefficients."""
    try:
        a_inv, b_inv = a.inv(), b.inv()
    except NotInvertibleError as e:
        raise RMatrixError(f"coefficients must be invertible: {e}") from None
    loop = delta0(pair)
    residual = a * a + b * b + loop * a * b
    if not residual.is_zero():
        raise RMatrixError(
            "quadratic condition fails: a^2 + b^2 + delta0*a*b = "
            + format_scalar(residual)
        )
    two = LinearMap.identity(pair.d, 2, pair.ring)
    cc = cupcap(pair)
    R = two.scale(a) + cc.scale(b)
    Rinv = two.scale(a_inv) + cc.scale(b_inv)
    if not equal(compose(R, Rinv), two):
        raise RMatrixError("R times the assembled R^-1 is not the identity")
    return SkeinRMatrix(pair, a, b, loop, R, Rinv)


def ybe_residual(R: LinearMap) -> LinearMap:
    """(R x 1)(1 x R)(R x 1) - (1 x R)(R x 1)(1 x R) on three strands, for R
    on two strands; any other shape raises ShapeMismatchError before
    anything is packed.

    Both products run on the packed kernel from the identity, with
    R = R'/D; each is a product of three packed maps, so N = c^3 in the
    _packed docstring's bound.  A nonzero difference is unpacked and divided
    by D^3."""
    d = R.shape.d
    if (R.shape.p, R.shape.q) != (2, 2):
        raise ShapeMismatchError(f"Yang-Baxter: R has shape {R.shape}, not (d={d}, 2->2)")
    check_strands(3, d)
    kern = Kernel.of([R])
    (scaled,) = kern.maps
    bits = width(max(1, scaled.norm) ** 3)
    plan = kern.plan(scaled, bits)

    size = d**3

    def at(slot, acc):
        return place(plan, d ** (1 - slot) * size, d * d, acc)

    start = kern.identity(size)
    left = at(0, at(1, at(0, start)))
    right = at(1, at(0, at(1, start)))
    if left == right:
        return LinearMap.zero(d, 3, 3, R.ring)
    factor = into_ring(scaled.scale, R.ring).inv() ** 3
    rows = [[R.ring.zero()] * size for _ in range(size)]
    for key in {key for lane in (*left, *right) for key in lane}:
        values = [x.get(key, 0) - y.get(key, 0) for x, y in zip(left, right)]
        if any(values):
            r, c = divmod(key, size)
            rows[r][c] = unpack(values, bits, factor)
    return LinearMap.from_rows(d, 3, 3, R.ring, rows)


def solve_deformed_coefficients(pair_t: SwitchbackPair, a0=None, b0=None):
    """First-order coefficients for a deformed pair: keep b = b0 and set
    a = a0 + t*alpha with alpha = -delta1*a0*b0 / (2*a0 + delta0*b0), where
    delta0 + t*delta1 is the deformed loop value.  Defaults a0 = A,
    b0 = A^-1 (the bracket gauge), taken at the pair's A by pair_t.scalar.
    The result is re-checked against the quadratic condition over the dual
    ring."""
    ring = pair_t.ring
    if ring.name != "dual":
        raise RMatrixError(f"expected a deformed pair over a dual ring, got {ring}")
    base = ring.base
    if a0 is None:
        a0 = pair_t.scalar(A).body
    if b0 is None:
        b0 = pair_t.scalar(A_INV).body
    loop = delta0(pair_t)
    d0, d1 = loop.body, loop.slope
    body_residual = a0 * a0 + b0 * b0 + d0 * a0 * b0
    if not body_residual.is_zero():
        raise RMatrixError(
            "(a0, b0) does not solve the undeformed quadratic: residual "
            + format_scalar(body_residual)
        )
    denom = a0 + a0 + d0 * b0
    try:
        alpha = -(d1 * a0 * b0) * denom.inv()
    except NotInvertibleError:
        raise RMatrixError(
            "2*a0 + delta0*b0 = " + format_scalar(denom)
            + " is not invertible (for the bracket gauge this means A^4 = 1)"
        ) from None
    a_t = Dual(a0, alpha)
    b_t = Dual(b0, base.zero())
    check = a_t * a_t + b_t * b_t + loop * a_t * b_t
    if not check.is_zero():
        raise RMatrixError(
            "deformed coefficients fail the quadratic condition: residual "
            + format_scalar(check)
        )
    return a_t, b_t


# ---------------------------------------------------------------------------
# Temperley-Lieb representation
# ---------------------------------------------------------------------------


def tl_generators(pair: SwitchbackPair, n: int) -> list[LinearMap]:
    """e_i = 1^(i-1) x cupcap x 1^(n-i-1) for i = 1..n-1, on n strands."""
    if n < 2:
        raise RMatrixError(f"need at least 2 strands, got {n}")
    check_strands(n, pair.d)
    cc = cupcap(pair)
    return [placed(cc, i - 1, n) for i in range(1, n)]


def tl_first_failure(gens: list[LinearMap], delta) -> str | None:
    """None when all Temperley-Lieb relations hold; otherwise a human
    description of the first failure (1-based generator indices).

    Before anything is packed, e1's shape must be square, every generator
    must have that shape and e1's ring, and delta must be a scalar of that
    ring; the first violation raises ShapeMismatchError or RingMismatchError.

    Each generator is split by linmap.unplaced into its core, the map that
    placed padded with identity strands, and the strands it sits on; a
    generator that placed did not build is its own core on all n strands.  The distinct cores and delta are packed once over one scale
    D, core = M'/D and delta = delta'/D, and each relation is an equality
    of packed maps on the strands that its generators occupy, with each
    core placed on its own strands there: e_i^2 = delta*e_i on e_i's
    strands (M_i'M_i' = delta'M_i'), e_i e_j e_i = e_i on the union of
    the two (M_i'M_j'M_i' = D^2 M_i'), and e_i e_j = e_j e_i on the union
    when the two share a strand (M_i'M_j' = M_j'M_i').  This is exact:
    X -> X x 1 on the other strands is an injective algebra homomorphism,
    so a relation holds on n strands exactly when it holds on those it
    touches, and maps on disjoint strands commute.  A relation depends
    only on the cores and their places, so each arrangement is checked
    once.  Placing keeps ||.||, so each side, at most a product of three
    packed maps or of packed scalars and maps, has N = c^3 in the _packed
    docstring's bound as on n strands.  The relations are checked squares
    first, then braids, then commutations, and the first failure is
    reported in that order."""
    if not gens:
        return None
    shape, ring = gens[0].shape, gens[0].ring
    if shape.p != shape.q:
        raise ShapeMismatchError(f"Temperley-Lieb: e1 has shape {shape}, not square")
    for k, g in enumerate(gens, 1):
        if g.shape != shape:
            raise ShapeMismatchError(f"Temperley-Lieb: shapes differ, e{k} {g.shape} vs e1 {shape}")
        if g.ring != ring:
            raise RingMismatchError(f"Temperley-Lieb: rings differ, e{k} {g.ring} vs e1 {ring}")
    if ring_of(delta) != ring:
        raise RingMismatchError(f"Temperley-Lieb: rings differ, delta {ring_of(delta)} vs e1 {ring}")
    d = shape.d
    cores, at = [], []      # the distinct cores; per generator (core, strands)
    for g in gens:
        slot, f = unplaced(g)
        c = next((c for c, x in enumerate(cores) if x.shape == f.shape and equal(x, f)),
                 len(cores))
        if c == len(cores):
            cores.append(f)
        at.append((c, range(slot, slot + f.shape.p)))
    kern = Kernel.of([*cores, delta, GaussRat(1)])
    bits = width(max(1, *(sm.norm for sm in kern.maps)) ** 3)
    *plans, by_delta, by_d = (kern.plan(sm, bits) for sm in kern.maps)

    def site(i, strands):
        # e_i's core, with the step and span that place it on `strands`,
        # which hold e_i's own
        c, own = at[i]
        after = sum(s >= own.stop for s in strands)
        return c, d ** (after + len(strands)), d ** len(own)

    def times(i, strands, acc):
        # M_i' acc, for acc on `strands`
        c, step, span = site(i, strands)
        return place(plans[c], step, span, acc)

    def scaled(plan, acc):
        # a packed scalar (delta' or D) times acc
        return place(plan, 1, 1, acc)

    def square(strands, i):
        e = times(i, strands, kern.identity(d ** len(strands)))
        return times(i, strands, e) == scaled(by_delta, e)

    def braid(strands, a, b):
        e = times(a, strands, kern.identity(d ** len(strands)))
        return times(a, strands, times(b, strands, e)) == scaled(by_d, scaled(by_d, e))

    def commute(strands, a, b):
        one = kern.identity(d ** len(strands))
        ab = times(a, strands, times(b, strands, one))
        return ab == times(b, strands, times(a, strands, one))

    verdicts = {}

    def holds(relation, *ids):
        # the relation on the strands that the generators ids occupy; it
        # depends only on their cores and places there, so each arrangement
        # is checked once
        strands = tuple(sorted({s for i in ids for s in at[i][1]}))
        key = relation, len(strands), *(site(i, strands) for i in ids)
        if key not in verdicts:
            verdicts[key] = relation(strands, *ids)
        return verdicts[key]

    for i in range(len(gens)):
        if not holds(square, i):
            return f"e{i + 1}^2 != delta*e{i + 1}"
    for i in range(len(gens) - 1):
        for a, b in ((i, i + 1), (i + 1, i)):
            if not holds(braid, a, b):
                return f"e{a + 1}*e{b + 1}*e{a + 1} != e{a + 1}"
    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            # generators on disjoint strands commute
            if set(at[i][1]) & set(at[j][1]) and not holds(commute, i, j):
                return f"e{i + 1} and e{j + 1} do not commute"
    return None
