"""Switchback pairs and their low-degree deformation cohomology.

A switchback pair on a d-dimensional module V is a pairing V x V -> K
together with a copairing K -> V x V such that both zig-zag composites
equal the identity of V; equivalently the pairing matrix is invertible
and the copairing matrix is its inverse.

The deformation complex lives in degrees 1..4:

    C1 = Hom(V, V)
    C2 = Hom(V2, K) + Hom(K, V2)      (pairing slope, copairing slope)
    C3 = Hom(V, V) + Hom(V, V)
    C4 = Hom(V2, K) + Hom(K, V2)

with differentials D1, d2, D3 below.  d2 is exactly what infiltrating the
two switchback identities produces, so its kernel consists of the
first-order deformations (beta + t*phi1, gamma + t*phi2) that stay a
switchback pair mod t^2.

Coordinates are fixed for golden tests: Hom(V,V) is listed by input slot
then output slot (xx, xy, yx, yy for d=2), degree-2 and degree-4 data as
the pairing part then the copairing part, degree-3 as the first Hom(V,V)
then the second.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linmap import (
    LinearMap,
    compose,
    dual_from_parts,
    dual_parts,
    invert_rows,
    kernel_basis,
    map_promote,
    map_specialize,
    rank,
    solve,
    tensor,
)
from .scalars import (
    A,
    I,
    LAURENT,
    LaurentA,
    Ring,
    RingMismatchError,
    dual,
    parse_scalar,
    promote,
    ring_by_name,
)


class SwitchbackError(ValueError):
    pass


class NotACocycleError(SwitchbackError):
    pass


class PairConfigError(SwitchbackError):
    pass


@dataclass(frozen=True)
class SwitchbackPair:
    d: int
    ring: Ring
    pairing: LinearMap    # V^2 -> K
    copairing: LinearMap  # K -> V^2

    def __post_init__(self):
        for m, p, q, what in (
            (self.pairing, 2, 0, "pairing"),
            (self.copairing, 0, 2, "copairing"),
        ):
            if (m.shape.d, m.shape.p, m.shape.q) != (self.d, p, q):
                raise SwitchbackError(
                    f"{what} has shape {m.shape}, expected (d={self.d}, {p}->{q})"
                )
            if m.ring is not self.ring:
                raise RingMismatchError(
                    f"{what} is over {m.ring}, pair declared over {self.ring}"
                )

    def id1(self) -> LinearMap:
        return LinearMap.identity(self.d, 1, self.ring)

    def promote(self, target: Ring) -> "SwitchbackPair":
        return SwitchbackPair(
            self.d, target,
            map_promote(self.pairing, target),
            map_promote(self.copairing, target),
        )

    def specialize(self, value) -> "SwitchbackPair":
        b = map_specialize(self.pairing, value)
        return SwitchbackPair(self.d, b.ring, b, map_specialize(self.copairing, value))


def make_bracket_pair(ring: Ring = LAURENT) -> SwitchbackPair:
    """The d=2 pair behind the Kauffman bracket: the only nonzero values
    are iA on x(x)y and -iA^-1 on y(x)x, for both the pairing and the
    copairing.  Verified at construction."""
    z = LAURENT.zero()
    up = LaurentA(((1, I),))      # i*A
    dn = LaurentA(((-1, -I),))    # -i*A^-1
    b = LinearMap.from_rows(2, 2, 0, LAURENT, [[z, up, dn, z]])
    g = LinearMap.from_rows(2, 0, 2, LAURENT, [[z], [up], [dn], [z]])
    pair = SwitchbackPair(2, LAURENT, b, g)
    if ring is not LAURENT:
        pair = pair.promote(ring)
    if not verify_switchback(pair):
        raise SwitchbackError("the bracket pair fails the switchback conditions")
    return pair


def pair_from_matrix(rows, ring: Ring) -> SwitchbackPair:
    """Build a switchback pair from an invertible d x d pairing matrix:
    the copairing matrix is its inverse (and then both zig-zags hold)."""
    d = len(rows)
    inv = invert_rows(rows, ring)
    if inv is None:
        raise SwitchbackError("pairing matrix is singular")
    b = LinearMap.from_rows(d, 2, 0, ring, [[rows[i][j] for i in range(d) for j in range(d)]])
    g = LinearMap.from_rows(d, 0, 2, ring, [[inv[i][j]] for i in range(d) for j in range(d)])
    return SwitchbackPair(d, ring, b, g)


def switchback_residuals(pair: SwitchbackPair) -> tuple[LinearMap, LinearMap]:
    """Both zig-zag composites minus the identity of V."""
    b, g, one = pair.pairing, pair.copairing, pair.id1()
    r1 = compose(tensor(b, one), tensor(one, g)) - one
    r2 = compose(tensor(one, b), tensor(g, one)) - one
    return r1, r2


def verify_switchback(pair: SwitchbackPair) -> bool:
    r1, r2 = switchback_residuals(pair)
    return r1.is_zero() and r2.is_zero()


def delta0(pair: SwitchbackPair):
    """The loop value: pairing after copairing, as a scalar."""
    return compose(pair.pairing, pair.copairing).entry(0, 0)


# ---------------------------------------------------------------------------
# Differentials
# ---------------------------------------------------------------------------


def D1(pair: SwitchbackPair, eta: LinearMap) -> tuple[LinearMap, LinearMap]:
    b, g, one = pair.pairing, pair.copairing, pair.id1()
    r1 = compose(b, tensor(eta, one)) - compose(b, tensor(one, eta))
    r2 = compose(tensor(eta, one), g) - compose(tensor(one, eta), g)
    return r1, r2


def d2(pair: SwitchbackPair, phi1: LinearMap, phi2: LinearMap) -> tuple[LinearMap, LinearMap]:
    """The infiltrated 2-differential of the two switchback identities:
    one component per identity, each a Hom(V, V) element."""
    b, g, one = pair.pairing, pair.copairing, pair.id1()
    xi1 = compose(tensor(b, one), tensor(one, phi2)) + compose(
        tensor(phi1, one), tensor(one, g)
    )
    xi2 = compose(tensor(one, b), tensor(phi2, one)) + compose(
        tensor(one, phi1), tensor(g, one)
    )
    return xi1, xi2


def D3(pair: SwitchbackPair, xi1: LinearMap, xi2: LinearMap) -> tuple[LinearMap, LinearMap]:
    b, g, one = pair.pairing, pair.copairing, pair.id1()
    r1 = compose(b, tensor(xi1, one)) - compose(b, tensor(one, xi2))
    r2 = compose(tensor(xi2, one), g) - compose(tensor(one, xi1), g)
    return r1, r2


# ---------------------------------------------------------------------------
# Coordinates (fixed ordering, see module docstring)
# ---------------------------------------------------------------------------


def c1_to_coords(m: LinearMap) -> list:
    d = m.shape.d
    return [m.entry(out, inp) for inp in range(d) for out in range(d)]


def coords_to_c1(coords, d: int, ring: Ring) -> LinearMap:
    rows = [[coords[inp * d + out] for inp in range(d)] for out in range(d)]
    return LinearMap.from_rows(d, 1, 1, ring, rows)


def c2_to_coords(phi1: LinearMap, phi2: LinearMap) -> list:
    n = phi1.shape.cols
    return [phi1.entry(0, j) for j in range(n)] + [phi2.entry(i, 0) for i in range(n)]


def coords_to_c2(coords, d: int, ring: Ring) -> tuple[LinearMap, LinearMap]:
    n = d * d
    phi1 = LinearMap.from_rows(d, 2, 0, ring, [list(coords[:n])])
    phi2 = LinearMap.from_rows(d, 0, 2, ring, [[c] for c in coords[n:]])
    return phi1, phi2


def c3_to_coords(xi1: LinearMap, xi2: LinearMap) -> list:
    return c1_to_coords(xi1) + c1_to_coords(xi2)


def coords_to_c3(coords, d: int, ring: Ring) -> tuple[LinearMap, LinearMap]:
    n = d * d
    return coords_to_c1(coords[:n], d, ring), coords_to_c1(coords[n:], d, ring)


def _matrix_of(pair, apply, to_coords, from_coords, dom_dim):
    """Rows x cols matrix of a differential in the fixed coordinates."""
    z, o = pair.ring.zero(), pair.ring.one()
    cols = []
    for k in range(dom_dim):
        coords = [z] * dom_dim
        coords[k] = o
        image = apply(from_coords(coords, pair.d, pair.ring))
        cols.append(to_coords(*image))
    return [[cols[k][r] for k in range(dom_dim)] for r in range(len(cols[0]))]


def d1_matrix(pair: SwitchbackPair):
    return _matrix_of(
        pair,
        lambda eta: D1(pair, eta),
        c2_to_coords,
        coords_to_c1,
        pair.d**2,
    )


def d2_matrix(pair: SwitchbackPair):
    return _matrix_of(
        pair,
        lambda c2: d2(pair, *c2),
        c3_to_coords,
        coords_to_c2,
        2 * pair.d**2,
    )


def d3_matrix(pair: SwitchbackPair):
    return _matrix_of(
        pair,
        lambda c3: D3(pair, *c3),
        c2_to_coords,
        coords_to_c3,
        2 * pair.d**2,
    )


@dataclass(frozen=True)
class CohomologyDims:
    z1: int
    b2: int
    h1: int
    z2: int
    b3: int
    h2: int
    z3: int
    b4: int
    h3: int


def cohomology_dims(pair: SwitchbackPair) -> CohomologyDims:
    """Kernel/image dimensions of the complex C1 -> C2 -> C3 -> C4 over a
    field ring.  One elimination per differential gives its rank (the
    image dimension), and rank-nullity (dim C^n = rank + nullity) gives
    the kernel dimension from the same pivots."""
    n1 = pair.d**2
    n2 = 2 * pair.d**2
    m1, m2, m3 = d1_matrix(pair), d2_matrix(pair), d3_matrix(pair)
    b2, b3, b4 = rank(m1, pair.ring), rank(m2, pair.ring), rank(m3, pair.ring)
    z1, z2, z3 = n1 - b2, n2 - b3, n2 - b4
    return CohomologyDims(z1, b2, z1, z2, b3, z2 - b2, z3, b4, z3 - b3)


def solve_2cocycles(pair: SwitchbackPair) -> list[tuple[LinearMap, LinearMap]]:
    """Basis of the 2-cocycle space (kernel of d2) as (phi1, phi2) pairs."""
    basis = kernel_basis(d2_matrix(pair), pair.ring)
    return [coords_to_c2(v, pair.d, pair.ring) for v in basis]


def z3_solve(pair: SwitchbackPair) -> list[tuple[LinearMap, LinearMap]]:
    """Basis of the 3-cocycle space (kernel of D3) as (xi1, xi2) pairs."""
    basis = kernel_basis(d3_matrix(pair), pair.ring)
    return [coords_to_c3(v, pair.d, pair.ring) for v in basis]


# ---------------------------------------------------------------------------
# Deformation
# ---------------------------------------------------------------------------


def deform(pair: SwitchbackPair, phi1: LinearMap, phi2: LinearMap) -> SwitchbackPair:
    """(pairing + t*phi1, copairing + t*phi2) over the dual ring.  Passes
    verify_switchback exactly when (phi1, phi2) is a 2-cocycle."""
    b = dual_from_parts(pair.pairing, phi1)
    g = dual_from_parts(pair.copairing, phi2)
    return SwitchbackPair(pair.d, dual(pair.ring), b, g)


def deformation_obstruction(
    pair: SwitchbackPair, phi1: LinearMap, phi2: LinearMap
) -> tuple[LinearMap, LinearMap]:
    """t-slope of the deformed pair's switchback residuals.  Cross-checked
    against d2(phi1, phi2); they agree identically."""
    r1, r2 = switchback_residuals(deform(pair, phi1, phi2))
    body1, xi1 = dual_parts(r1)
    body2, xi2 = dual_parts(r2)
    if not (body1.is_zero() and body2.is_zero()):
        raise SwitchbackError("the undeformed pair fails the switchback conditions")
    e1, e2 = d2(pair, phi1, phi2)
    if not ((xi1 - e1).is_zero() and (xi2 - e2).is_zero()):
        raise SwitchbackError("residual slope disagrees with the 2-differential")
    return xi1, xi2


@dataclass(frozen=True)
class Degree2Report:
    psi1: LinearMap
    psi2: LinearMap
    is_cocycle: bool
    extension: tuple[LinearMap, LinearMap] | None


def degree2_analysis(
    pair: SwitchbackPair, phi1: LinearMap, phi2: LinearMap
) -> Degree2Report:
    """Second-order data of a first-order deformation.

    psi1, psi2 are the degree-2 residual slopes (the cocycle composed with
    itself across each zig-zag); they always form a 3-cocycle.  The
    extension, when the linear system is consistent, is a degree-2
    correction (phi1', phi2') with d2(phi1', phi2') = (-psi1, -psi2), which
    exhibits psi as a coboundary."""
    e1, e2 = d2(pair, phi1, phi2)
    if not (e1.is_zero() and e2.is_zero()):
        raise NotACocycleError("degree-2 analysis needs a 2-cocycle")
    one = pair.id1()
    psi1 = compose(tensor(phi1, one), tensor(one, phi2))
    psi2 = compose(tensor(one, phi1), tensor(phi2, one))
    r1, r2 = D3(pair, psi1, psi2)
    is_cocycle = r1.is_zero() and r2.is_zero()
    target = [-c for c in c3_to_coords(psi1, psi2)]
    sol = solve(d2_matrix(pair), target, pair.ring)
    ext = None if sol is None else coords_to_c2(sol, pair.d, pair.ring)
    return Degree2Report(psi1, psi2, is_cocycle, ext)


# ---------------------------------------------------------------------------
# Bracket-specific cocycle coordinates and config files
# ---------------------------------------------------------------------------

def bracket_cocycle(ring: Ring, bxx, bxy, byx, byy) -> tuple[LinearMap, LinearMap]:
    """2-cocycle of the bracket pair from its four free pairing-slope
    coordinates; the copairing slope is forced:

        copairing yy = -xx of the pairing slope, xx = -yy,
        yx = A^-2 * xy, xy = A^2 * yx.
    """
    a2, am2 = promote(A**2, ring), promote(A**-2, ring)
    phi1 = LinearMap.from_rows(2, 2, 0, ring, [[bxx, bxy, byx, byy]])
    gxx, gxy, gyx, gyy = -byy, a2 * byx, am2 * bxy, -bxx
    phi2 = LinearMap.from_rows(2, 0, 2, ring, [[gxx], [gxy], [gyx], [gyy]])
    return phi1, phi2


def _parse_kv(text: str, path: str = "<config>") -> dict[str, str]:
    """Flat `key = value` lines; values may be double-quoted; # comments."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PairConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
            value = value[1:-1]
        if not key or not value:
            raise PairConfigError(f"{path}:{lineno}: empty key or value")
        if key in out:
            raise PairConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _parse_matrix(text: str, ring: Ring, what: str) -> list[list]:
    rows = []
    for chunk in text.split(";"):
        rows.append([parse_scalar(e.strip(), ring) for e in chunk.split(",")])
    if any(len(r) != len(rows[0]) for r in rows):
        raise PairConfigError(f"{what}: ragged matrix literal")
    return rows


def parse_pair_config(text: str, path: str = "<config>") -> SwitchbackPair:
    """dimension, ring, and the pairing/copairing matrix literals
    (`beta` is 1 x d^2 with entries comma-separated; `gamma` is d^2 x 1
    with rows semicolon-separated)."""
    kv = _parse_kv(text, path)
    missing = {"dimension", "ring", "beta", "gamma"} - set(kv)
    if missing:
        raise PairConfigError(f"{path}: missing keys {sorted(missing)}")
    try:
        d = int(kv["dimension"])
    except ValueError:
        raise PairConfigError(f"{path}: dimension must be an integer") from None
    ring = ring_by_name(kv["ring"])
    brows = _parse_matrix(kv["beta"], ring, "beta")
    grows = _parse_matrix(kv["gamma"], ring, "gamma")
    if len(brows) != 1 or len(brows[0]) != d * d:
        raise PairConfigError(f"{path}: beta must be 1 x {d * d}")
    if len(grows) != d * d or len(grows[0]) != 1:
        raise PairConfigError(f"{path}: gamma must be {d * d} x 1")
    b = LinearMap.from_rows(d, 2, 0, ring, brows)
    g = LinearMap.from_rows(d, 0, 2, ring, grows)
    return SwitchbackPair(d, ring, b, g)


def parse_cocycle_config(
    text: str, pair: SwitchbackPair, path: str = "<config>"
) -> tuple[LinearMap, LinearMap]:
    """Either the four bracket coordinates beta1_xx .. beta1_yy (copairing
    slope derived) or explicit phi1 / phi2 matrix literals."""
    kv = _parse_kv(text, path)
    named = [f"beta1_{s}" for s in ("xx", "xy", "yx", "yy")]
    if any(k in kv for k in named):
        missing = [k for k in named if k not in kv]
        if missing:
            raise PairConfigError(f"{path}: missing keys {missing}")
        coords = [parse_scalar(kv[k], pair.ring) for k in named]
        return bracket_cocycle(pair.ring, *coords)
    if "phi1" not in kv or "phi2" not in kv:
        raise PairConfigError(
            f"{path}: need either beta1_xx..beta1_yy or phi1 and phi2"
        )
    n = pair.d**2
    p1 = _parse_matrix(kv["phi1"], pair.ring, "phi1")
    p2 = _parse_matrix(kv["phi2"], pair.ring, "phi2")
    if len(p1) != 1 or len(p1[0]) != n:
        raise PairConfigError(f"{path}: phi1 must be 1 x {n}")
    if len(p2) != n or len(p2[0]) != 1:
        raise PairConfigError(f"{path}: phi2 must be {n} x 1")
    return (
        LinearMap.from_rows(pair.d, 2, 0, pair.ring, p1),
        LinearMap.from_rows(pair.d, 0, 2, pair.ring, p2),
    )
