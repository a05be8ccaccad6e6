"""Skein-form solutions of the Yang-Baxter equation.

R = a*1 + b*(copairing after pairing) on V x V is an invertible YBE
solution whenever a and b are invertible and a^2 + b^2 + delta0*a*b = 0,
where delta0 is the pair's loop value.  The inverse is then
R^-1 = a^-1*1 + b^-1*(copairing after pairing).

The cup-cap composites e_i = 1^(i-1) x (copairing pairing) x 1^(n-i-1)
represent the Temperley-Lieb algebra with parameter delta0.  For a
first-order deformed pair the representation survives iff the sum of the
two 2-differential components vanishes, a strictly weaker condition than
being a 2-cocycle (verify_weak_tl_condition).
"""

from __future__ import annotations

from dataclasses import dataclass

from .linmap import LinearMap, compose, tensor_all
from .scalars import A, A_INV, Dual, NotInvertibleError, format_scalar, promote
from .switchback import SwitchbackPair, d2, delta0


class RMatrixError(ValueError):
    pass


# Largest strand count for which maps on V^(x n) are built.  Their size
# grows as d^n x d^n.  For the bracket pair (d = 2) on a 2-core x86-64 host
# under CPython 3.11, the Temperley-Lieb check takes 0.16 s at 8 strands
# and 1.0 s at 10, and the ratfun invariant of the word s1 s2 ... s(n-1)
# 0.05 s and 0.3 s.
MAX_STRANDS = 10


def check_strands(n: int) -> None:
    """Raise RMatrixError, before anything is built, when n strands is more
    than MAX_STRANDS."""
    if n > MAX_STRANDS:
        raise RMatrixError(
            f"{n} strands is more than the limit of {MAX_STRANDS}"
        )


@dataclass(frozen=True)
class SkeinRMatrix:
    pair: SwitchbackPair
    a: object
    b: object
    a_inv: object
    b_inv: object
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
    if not (compose(R, Rinv) - two).is_zero():
        raise RMatrixError("R times the assembled R^-1 is not the identity")
    return SkeinRMatrix(pair, a, b, a_inv, b_inv, loop, R, Rinv)


def ybe_residual(R: LinearMap) -> LinearMap:
    """(R x 1)(1 x R)(R x 1) - (1 x R)(R x 1)(1 x R) on three strands."""
    d, ring = R.shape.d, R.ring
    one = LinearMap.identity(d, 1, ring)
    left = tensor_all([R, one], d, ring)
    right = tensor_all([one, R], d, ring)
    return compose(compose(left, right), left) - compose(compose(right, left), right)


def solve_deformed_coefficients(pair_t: SwitchbackPair, a0=None, b0=None):
    """First-order coefficients for a deformed pair: keep b = b0 and set
    a = a0 + t*alpha with alpha = -delta1*a0*b0 / (2*a0 + delta0*b0), where
    delta0 + t*delta1 is the deformed loop value.  Defaults a0 = A,
    b0 = A^-1 (the bracket gauge).  The result is re-checked against the
    quadratic condition over the dual ring."""
    ring = pair_t.ring
    if ring.name != "dual":
        raise RMatrixError(f"expected a deformed pair over a dual ring, got {ring}")
    base = ring.base
    if a0 is None:
        a0 = promote(A, base)
    if b0 is None:
        b0 = promote(A_INV, base)
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
    check_strands(n)
    cc = cupcap(pair)
    one = LinearMap.identity(pair.d, 1, pair.ring)
    gens = []
    for i in range(1, n):
        factors = [one] * (i - 1) + [cc] + [one] * (n - i - 1)
        gens.append(tensor_all(factors, pair.d, pair.ring))
    return gens


def tl_first_failure(gens: list[LinearMap], delta) -> str | None:
    """None when all Temperley-Lieb relations hold; otherwise a human
    description of the first failure (1-based generator indices)."""
    m = len(gens)
    for i in range(m):
        if not (compose(gens[i], gens[i]) - gens[i].scale(delta)).is_zero():
            return f"e{i + 1}^2 != delta*e{i + 1}"
    for i in range(m - 1):
        lhs = compose(compose(gens[i], gens[i + 1]), gens[i])
        if not (lhs - gens[i]).is_zero():
            return f"e{i + 1}*e{i + 2}*e{i + 1} != e{i + 1}"
        lhs = compose(compose(gens[i + 1], gens[i]), gens[i + 1])
        if not (lhs - gens[i + 1]).is_zero():
            return f"e{i + 2}*e{i + 1}*e{i + 2} != e{i + 2}"
    for i in range(m):
        for j in range(i + 2, m):
            ij = compose(gens[i], gens[j])
            if not (ij - compose(gens[j], gens[i])).is_zero():
                return f"e{i + 1} and e{j + 1} do not commute"
    return None


def verify_weak_tl_condition(pair: SwitchbackPair, phi1: LinearMap, phi2: LinearMap) -> bool:
    """True iff the two components of the 2-differential cancel:
    d21(phi1, phi2) + d22(phi1, phi2) = 0.  This is exactly the condition
    for the pair deformed by (phi1, phi2) to still represent the
    Temperley-Lieb algebra with the deformed loop value; every 2-cocycle
    satisfies it, but it is strictly weaker."""
    xi1, xi2 = d2(pair, phi1, phi2)
    return (xi1 + xi2).is_zero()
