"""Skein-form solutions of the Yang-Baxter equation.

R = a*1 + b*(copairing after pairing) on V x V is an invertible YBE
solution whenever a and b are invertible and a^2 + b^2 + delta0*a*b = 0,
where delta0 is the pair's loop value.  The inverse is then
R^-1 = a^-1*1 + b^-1*(copairing after pairing).

The cup-cap composites e_i = 1^(i-1) x (copairing pairing) x 1^(n-i-1)
represent the Temperley-Lieb algebra with parameter delta0.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import SkeinlabError
from ._packed import Kernel, place, unpack, width
from .linmap import LinearMap, ShapeMismatchError, apply_local, compose, equal
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
# pair (d = 2), generators included, takes 0.025-0.05 s at 8 strands and
# 0.15-0.30 s at 10, and of the d = 3 identity pair 0.035-0.07 s at 6
# strands.  The ratfun invariant of s1 s2 ... s(n-1) takes 0.0024-0.006 s
# at 8 strands and 0.013-0.03 s at 10, and of a 20-letter word on 10
# strands 0.11-0.22 s (0.75-1.3 s deformed by a cocycle).
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
    """(R x 1)(1 x R)(R x 1) - (1 x R)(R x 1)(1 x R) on three strands.

    Both products run on the packed kernel from the identity, with
    R = R'/D; each is a product of three packed maps, so N = c^3 in the
    _packed docstring's bound.  A nonzero difference is unpacked and divided
    by D^3."""
    d, k = R.shape.d, R.shape.p
    check_strands(3, d)
    if not k == R.shape.q <= 2:
        # only a map on k <= 2 strands fits both placements and their
        # products; for any other shape the padded products, run on a zero
        # map of R's shape, raise the ShapeMismatchError they raise on R
        three = LinearMap.identity(d, 3, R.ring)
        zero = LinearMap.zero(d, k, R.shape.q, R.ring)
        compose(apply_local(zero, 0, three), apply_local(zero, 1, three))
    kern = Kernel.of([R])
    (scaled,) = kern.maps
    bits = width(max(1, scaled.norm) ** 3)
    plan = kern.plan(scaled, bits)

    def at(slot, acc):
        low = d ** (3 - k - slot)
        return place(plan, low, low * d**k, acc)

    start = kern.identity(d**3)
    left = at(0, at(1, at(0, start)))
    right = at(1, at(0, at(1, start)))
    if left == right:
        return LinearMap.zero(d, 3, 3, R.ring)
    base = R.ring.base or R.ring
    factor = into_ring(scaled.scale, base).inv() ** 3
    rows = [[R.ring.zero()] * d**3 for _ in range(d**3)]
    for r, c in {(r, c) for lane in (*left, *right) for r, row in lane.items() for c in row}:
        values = [x.get(r, {}).get(c, 0) - y.get(r, {}).get(c, 0) for x, y in zip(left, right)]
        if any(values):
            rows[r][c] = unpack(values, bits, base, factor)
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
    ident = LinearMap.identity(pair.d, n, pair.ring)
    return [apply_local(cc, i - 1, ident) for i in range(1, n)]


def _tl_steps(m: int) -> list[tuple[str, str, int, int]]:
    """(failure message, relation, i, j) for every Temperley-Lieb relation
    among m generators, in the order they are checked."""
    steps = [(f"e{i + 1}^2 != delta*e{i + 1}", "square", i, i) for i in range(m)]
    for i in range(m - 1):
        steps += [(f"e{i + 1}*e{i + 2}*e{i + 1} != e{i + 1}", "braid", i, i + 1),
                  (f"e{i + 2}*e{i + 1}*e{i + 2} != e{i + 2}", "braid", i + 1, i)]
    steps += [(f"e{i + 1} and e{j + 1} do not commute", "commute", i, j)
              for i in range(m) for j in range(i + 2, m)]
    return steps


def _shape_check(kind: str, f: LinearMap, g: LinearMap, delta):
    """Relation kind on f and g as the linear maps state it; run on zero
    maps, it raises the ShapeMismatchError or RingMismatchError of
    mismatched shapes and rings and costs nothing else."""
    if kind == "square":
        equal(compose(f, f), f.scale(delta))
    elif kind == "braid":
        equal(compose(compose(f, g), f), f)
    else:
        equal(compose(f, g), compose(g, f))


def tl_first_failure(gens: list[LinearMap], delta) -> str | None:
    """None when all Temperley-Lieb relations hold; otherwise a human
    description of the first failure (1-based generator indices).

    The generators and delta are packed once over one scale D, e_i = M_i'/D
    and delta = delta'/D, and each relation is an equality of packed maps:
    M_i'M_i' = delta'M_i', M_i'M_j'M_i' = D^2 M_i' and M_i'M_j' = M_j'M_i'.
    Each side is at most a product of three packed maps, or of packed
    scalars and maps, so N = c^3 in the _packed docstring's bound.  The
    relations are checked in the order of _tl_steps; when the generators
    do not share one square shape and ring with delta, each is first
    checked on zero maps of the same shapes, so that the first mismatch
    raises where the linear maps would."""
    m = len(gens)
    if m == 0:
        return None
    steps = _tl_steps(m)
    shape, ring = gens[0].shape, gens[0].ring
    error = None
    if not (shape.p == shape.q
            and all(g.shape == shape and g.ring == ring for g in gens)
            and (isinstance(delta, int) or ring_of(delta) == ring)):
        zeros = [LinearMap.zero(g.shape.d, g.shape.p, g.shape.q, g.ring) for g in gens]
        for k, (_, kind, i, j) in enumerate(steps):
            try:
                _shape_check(kind, zeros[i], zeros[j], delta)
            except (ShapeMismatchError, RingMismatchError) as e:
                error, steps = e, steps[:k]
                break
    if steps:
        if isinstance(delta, int):
            delta = ring.from_int(delta)
        kern = Kernel.of([*gens, delta, GaussRat(1)])
        bits = width(max(1, *(sm.norm for sm in kern.maps)) ** 3)
        *plans, by_delta, by_d = (kern.plan(sm, bits) for sm in kern.maps)

        def times(i, acc):
            # M_i' acc
            return place(plans[i], 1, gens[i].shape.cols, acc)

        def scaled(plan, acc):
            # a packed scalar (delta' or D) times acc
            return place(plan, 1, 1, acc)

        packed = [times(i, kern.identity(g.shape.cols)) for i, g in enumerate(gens)]
        squared_d = {}    # i -> D^2 M_i'
        for message, kind, i, j in steps:
            e = packed[i]
            if kind == "square":
                holds = times(i, e) == scaled(by_delta, e)
            elif kind == "braid":
                if i not in squared_d:
                    squared_d[i] = scaled(by_d, scaled(by_d, e))
                holds = times(i, times(j, e)) == squared_d[i]
            else:
                holds = times(i, packed[j]) == times(j, e)
            if not holds:
                return message
    if error is not None:
        raise error
    return None
