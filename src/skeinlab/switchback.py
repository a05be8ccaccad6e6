"""Switchback pairs and their low-degree deformation cohomology.

A switchback pair on a d-dimensional module V is a pairing V x V -> K
together with a copairing K -> V x V such that both zig-zag composites
equal the identity of V; equivalently the pairing matrix is invertible
and the copairing matrix is its inverse.

Everything below is computed on d x d matrices.  Bending a pairing b into
B[i][j] = b(e_i x e_j), and a copairing g into G[j][k] = its coefficient on
e_j x e_k (`linmap.reshape(., 1, 1)`, `SwitchbackPair.bent`), turns each
diagram into a product:

    (b x 1)(1 x g) = (B G)^T,    (1 x b)(g x 1) = G B.

The deformation complex lives in degrees 1..4:

    C1 = Hom(V, V)
    C2 = Hom(V2, K) + Hom(K, V2)      (pairing slope, copairing slope)
    C3 = Hom(V, V) + Hom(V, V)
    C4 = Hom(V2, K) + Hom(K, V2)

The zig-zag pair Z(b, g) of the deformed pair (beta + t*phi1,
gamma + t*phi2) expands as

    Z(beta, gamma) + t*[Z(beta, phi2) + Z(phi1, gamma)] + t^2*Z(phi1, phi2).

The t^0 part minus 1 is the switchback residual; the t^1 part is d2, so
ker d2 holds the deformations that stay switchback pairs mod t^2; the t^2
part is the degree-2 residual psi.  With bent matrices:

    d2(phi1, phi2) = ((B Phi2 + Phi1 G)^T, Phi2 B + G Phi1)
    D3(xi1, xi2)   = (xi1^T B - B xi2, xi2 G - G xi1^T),

with D3's two components bent back into Hom(V2, K) and Hom(K, V2); as
diagrams they read b(xi1 x 1) - b(1 x xi2) and (xi2 x 1)g - (1 x xi1)g.
d1(eta) is D3(eta, eta).

Coordinates, fixed for golden tests: a cochain lists each component map's
entries column by column (input index, then output index), components in
order: xx, xy, yx, yy for Hom(V,V) at d=2, and the pairing row, then the
copairing column, for C2.  C1, C2 and C3 below give the component arities.

The matrices of the differentials are written by placement.  Each column
is the image of a unit cochain E_rc: one at row r, column c of one
component's d x d matrix (bent, for C2), zero elsewhere.  By the formulas
above its entries are entries of B and G, copied with a sign.  With
n = d^2, every index is read in the coordinates above; a unit's column is
its coordinate: a*d + j for phi1 = E_aj, n + j*d + k for phi2 = E_jk,
i*d + o for xi1 = E_oi and n + i*d + o for xi2 = E_oi.

    d2:  phi1 = E_aj puts G[j][k] at row a*d + k, G[i][a] at n + j*d + i;
         phi2 = E_jk puts B[a][j] at row a*d + k, B[k][m] at n + m*d + j.
    D3:  xi1 = E_oi puts +B[o][j] at row i*d + j, -G[j][i] at n + j*d + o;
         xi2 = E_oi puts -B[a][o] at row a*d + i, +G[i][k] at n + o*d + k.

d1's column for eta = E_oi (column i*d + o) holds both D3 rules, added
where they meet: at rows i*d + i and n + o*d + o.

The 2-cocycles have a closed form, the cocycle rule.  As B G = G B = 1,
d2(phi1, phi2) = 0 exactly when Phi1 = -B Phi2 B, or equivalently
Phi2 = -G Phi1 G (then Phi2 B + G Phi1 = 0 as well).  The rule divides by
nothing, so it holds over every ring; solve_2cocycles, degree2_analysis
and bracket_cocycle read it, and first refuse a pair that fails
verify_switchback.  The basis (-B E B, E), for the unit copairing slopes E
in coordinate order, is the one an elimination of d2 reads off:
d2(Phi1, 0) = 0 forces Phi1 = 0, so the phi1 columns are its pivots.  The
degree-2 extension (Phi1', 0) solves d2 x = -psi with its free coordinates
0.  The first component asks Phi1' = -psi1^T B; the second asks
G Phi1' = -psi2, and a cocycle meets it, as psi1^T = Phi1 Phi2,
psi2 = Phi2 Phi1 and Phi2 = -G Phi1 G give
G Phi1' = -G Phi1 Phi2 B = G Phi1 G Phi1 = -Phi2 Phi1.

The same rule gives the whole cohomology, with one elimination.  D3's
second component is -G (first) G, as G (xi1^T B - B xi2) G =
G xi1^T - xi2 G.  So ker D3 = {(xi1, G xi1^T B)}: z3 = n and b4 = n.
The cocycle rule gives z2 = n, hence b3 = n.  d1(eta) = D3(eta, eta)
has the kernel of its first component eta -> eta^T B - B eta, and the
rows of its second are combinations of those of its first, so b2 is the
rank of the first n rows of d1's matrix and z1 = n - b2.  Then h1 = z1,
h2 = z2 - b2 = z1 and h3 = z3 - b3 = 0.

One product checks a pair: G B = 1 alone implies B G = 1.  B and G are
square over a commutative ring (every ring of the tower is, the dual
rings included), so det G det B = 1, B is invertible, and its left
inverse G is its inverse.  So verify_switchback's one verdict answers
both zig-zag conditions, and the CLI reports it for each.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import SkeinlabError
from .linmap import (
    LinearMap,
    compose,
    dual_from_parts,
    dual_parts,
    equal,
    invert_rows,
    map_apply,
    map_specialize,
    rank,
    reshape,
    transpose,
)
from .scalars import (
    GAUSS,
    I,
    LAURENT,
    LaurentA,
    Ring,
    RingMismatchError,
    ScalarError,
    dual,
    format_scalar,
    into_ring,
    parse_scalar,
    ring_by_name,
    specialize,
)


class SwitchbackError(SkeinlabError):
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
    at: object = None     # the value of A the pair was specialized at

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

    def bent(self) -> tuple[LinearMap, LinearMap]:
        """B and G, the pairing and copairing bent (module docstring)."""
        return reshape(self.pairing, 1, 1), reshape(self.copairing, 1, 1)

    def into_ring(self, target: Ring) -> "SwitchbackPair":
        """The pair with every entry brought into the target ring."""
        b, g = (map_apply(m, lambda x: into_ring(x, target), target)
                for m in (self.pairing, self.copairing))
        return SwitchbackPair(self.d, target, b, g, self.at)

    def specialize(self, value) -> "SwitchbackPair":
        """The pair at A = value; its entries must still be written in A."""
        if self.at is not None:
            raise SwitchbackError(
                f"the pair is already specialized at A = {format_scalar(self.at)}"
            )
        if GAUSS in (self.ring, self.ring.base):
            raise SwitchbackError(f"a pair over {self.ring} has no A to specialize")
        b = map_specialize(self.pairing, value)
        g = map_specialize(self.copairing, value)
        return SwitchbackPair(self.d, b.ring, b, g, value)

    def scalar(self, x):
        """x, written in the generic A, as a value of the pair's ring: taken
        at the pair's A when it was specialized."""
        return into_ring(x if self.at is None else specialize(x, self.at), self.ring)


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
        pair = pair.into_ring(ring)
    _require_switchback(pair)
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


def _zigzags(bb: LinearMap, gg: LinearMap) -> tuple[LinearMap, LinearMap]:
    """Z(b, g) of b: V2 -> K and g: K -> V2 from their bent B and G:
    (b x 1)(1 x g) = (B G)^T and (1 x b)(g x 1) = G B."""
    return transpose(compose(bb, gg)), compose(gg, bb)


def verify_switchback(pair: SwitchbackPair) -> bool:
    """Both zig-zags are the identity, checked by the one product G B = 1:
    over a commutative ring it implies B G = 1 (module docstring)."""
    bb, gg = pair.bent()
    return equal(compose(gg, bb), pair.id1())


def delta0(pair: SwitchbackPair):
    """The loop value: pairing after copairing, as a scalar."""
    return compose(pair.pairing, pair.copairing).entry(0, 0)


# ---------------------------------------------------------------------------
# Differentials
# ---------------------------------------------------------------------------


def d2(pair: SwitchbackPair, phi1: LinearMap, phi2: LinearMap) -> tuple[LinearMap, LinearMap]:
    """The t-slope of the deformed pair's zig-zags, which is what
    infiltrating the two switchback identities produces: one component per
    identity, each a Hom(V, V) element."""
    bb, gg = pair.bent()
    x1, x2 = _zigzags(bb, reshape(phi2, 1, 1))
    y1, y2 = _zigzags(reshape(phi1, 1, 1), gg)
    return x1 + y1, x2 + y2


def D3(pair: SwitchbackPair, xi1: LinearMap, xi2: LinearMap) -> tuple[LinearMap, LinearMap]:
    bb, gg = pair.bent()
    xt = transpose(xi1)
    r1 = compose(xt, bb) - compose(bb, xi2)
    r2 = compose(xi2, gg) - compose(gg, xt)
    return reshape(r1, 2, 0), reshape(r2, 0, 2)


# ---------------------------------------------------------------------------
# Coordinates (one rule, see module docstring)
# ---------------------------------------------------------------------------

# (p, q) of each component map V^p -> V^q of a cochain
C1 = ((1, 1),)
C2 = ((2, 0), (0, 2))
C3 = ((1, 1), (1, 1))


def cochain_coords(*maps: LinearMap) -> list:
    """The entries of each map column by column, maps in order."""
    out = []
    for m in maps:
        rows = range(m.shape.rows)
        out += [m.entry(r, c) for c in range(m.shape.cols) for r in rows]
    return out


def cochain_from_coords(coords, d: int, ring: Ring, arities) -> tuple[LinearMap, ...]:
    """The inverse of cochain_coords for component maps of the given arities."""
    maps, k = [], 0
    for p, q in arities:
        nr, nc = d**q, d**p
        rows = [[coords[k + c * nr + r] for c in range(nc)] for r in range(nr)]
        maps.append(LinearMap.from_rows(d, p, q, ring, rows))
        k += nr * nc
    return tuple(maps)


def _dense(nrows: int, ncols: int, ring: Ring, entries) -> list[list]:
    """The nrows x ncols matrix of the (row, col, value) entries, summed
    where two land on one cell, zero elsewhere."""
    z = ring.zero()
    m = [[z] * ncols for _ in range(nrows)]
    for r, c, v in entries:
        row = m[r]
        row[c] = v if row[c] is z else row[c] + v
    return m


def _d2_entries(pair: SwitchbackPair):
    """d2 on the unit cochains phi1 = E_aj (column a*d + j) and phi2 =
    E_jk (column n + j*d + k)."""
    d, n = pair.d, pair.d**2
    bb, gg = (m.rows for m in pair.bent())
    for a in range(d):
        for j in range(d):
            for k in range(d):
                yield a * d + k, a * d + j, gg[j][k]
                yield n + j * d + k, a * d + j, gg[k][a]
                yield a * d + k, n + j * d + k, bb[a][j]
                yield n + a * d + j, n + j * d + k, bb[k][a]


def _d3_entries(pair: SwitchbackPair, off1: int, off2: int):
    """D3 on the unit cochains xi1 = E_oi (column off1 + i*d + o) and
    xi2 = E_oi (column off2 + i*d + o)."""
    d, n = pair.d, pair.d**2
    bb, gg = (m.rows for m in pair.bent())
    nb, ng = ([[-x for x in row] for row in m] for m in (bb, gg))
    for o in range(d):
        for i in range(d):
            c1, c2 = off1 + i * d + o, off2 + i * d + o
            for x in range(d):
                yield i * d + x, c1, bb[o][x]
                yield n + x * d + o, c1, ng[x][i]
                yield x * d + i, c2, nb[x][o]
                yield n + o * d + x, c2, gg[i][x]


def d1_matrix(pair: SwitchbackPair):
    # d1(eta) = D3(eta, eta): both unit rules share each column
    n = pair.d**2
    return _dense(2 * n, n, pair.ring, _d3_entries(pair, 0, 0))


def d2_matrix(pair: SwitchbackPair):
    n = pair.d**2
    return _dense(2 * n, 2 * n, pair.ring, _d2_entries(pair))


def d3_matrix(pair: SwitchbackPair):
    n = pair.d**2
    return _dense(2 * n, 2 * n, pair.ring, _d3_entries(pair, 0, n))


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
    field ring, read off the cocycle rule (module docstring): z2 = b3 =
    z3 = b4 = n, h3 = 0, and one elimination, of the first n rows of d1,
    gives b2 and with it z1 = h1 = h2 = n - b2.  A pair that fails the
    switchback conditions, whose maps need not form a complex, is refused."""
    _require_switchback(pair)
    n = pair.d**2
    b2 = rank(d1_matrix(pair)[:n], pair.ring)
    z1 = n - b2
    return CohomologyDims(z1, b2, z1, n, n, z1, n, n, 0)


def _require_switchback(pair: SwitchbackPair):
    if not verify_switchback(pair):
        raise SwitchbackError("the pair fails the switchback conditions")


def _cocycle_partner(m: LinearMap, x: LinearMap) -> LinearMap:
    """-M X M on bent d x d maps: the cocycle rule, read from B or from G."""
    return -compose(compose(m, x), m)


def solve_2cocycles(pair: SwitchbackPair) -> list[tuple[LinearMap, LinearMap]]:
    """Basis of the 2-cocycle space (kernel of d2) as (phi1, phi2) pairs:
    phi2 runs over the unit copairing slopes E in coordinate order, and
    phi1 = -B E B."""
    _require_switchback(pair)
    (bb, _), n, ring = pair.bent(), pair.d**2, pair.ring
    z, o = ring.zero(), ring.one()
    units = (LinearMap.from_rows(pair.d, 0, 2, ring, [[o if r == k else z] for r in range(n)])
             for k in range(n))
    return [(reshape(_cocycle_partner(bb, reshape(e, 1, 1)), 2, 0), e) for e in units]


# ---------------------------------------------------------------------------
# Deformation
# ---------------------------------------------------------------------------


def deform(pair: SwitchbackPair, phi1: LinearMap, phi2: LinearMap) -> SwitchbackPair:
    """(pairing + t*phi1, copairing + t*phi2) over the dual ring.  Passes
    verify_switchback exactly when (phi1, phi2) is a 2-cocycle."""
    b = dual_from_parts(pair.pairing, phi1)
    g = dual_from_parts(pair.copairing, phi2)
    return SwitchbackPair(pair.d, dual(pair.ring), b, g, pair.at)


def deformation_obstruction(
    pair: SwitchbackPair, phi1: LinearMap, phi2: LinearMap
) -> tuple[LinearMap, LinearMap]:
    """t-slope of the deformed pair's zig-zags.  Cross-checked against
    d2(phi1, phi2); they agree identically."""
    _require_switchback(pair)
    z1, z2 = _zigzags(*deform(pair, phi1, phi2).bent())
    (_, xi1), (_, xi2) = dual_parts(z1), dual_parts(z2)
    e1, e2 = d2(pair, phi1, phi2)
    if not (equal(xi1, e1) and equal(xi2, e2)):
        raise SwitchbackError("residual slope disagrees with the 2-differential")
    return xi1, xi2


@dataclass(frozen=True)
class Degree2Report:
    psi1: LinearMap
    psi2: LinearMap
    is_cocycle: bool
    extension: tuple[LinearMap, LinearMap]


def degree2_analysis(
    pair: SwitchbackPair, phi1: LinearMap, phi2: LinearMap
) -> Degree2Report:
    """Second-order data of a first-order deformation.

    psi1, psi2 = Z(phi1, phi2) are the t^2 part of the deformed zig-zags
    (the cocycle composed with itself across each zig-zag); they always
    form a 3-cocycle.  The extension (-psi1^T B, 0) has d2 = (-psi1, -psi2),
    which exhibits psi as a coboundary; the module docstring proves it, and
    SwitchbackError reports a failure of the proof."""
    _require_switchback(pair)
    e1, e2 = d2(pair, phi1, phi2)
    if not (e1.is_zero() and e2.is_zero()):
        raise NotACocycleError("degree-2 analysis needs a 2-cocycle")
    psi1, psi2 = _zigzags(reshape(phi1, 1, 1), reshape(phi2, 1, 1))
    r1, r2 = D3(pair, psi1, psi2)
    is_cocycle = r1.is_zero() and r2.is_zero()
    bb, gg = pair.bent()
    ext1 = -compose(transpose(psi1), bb)
    if not equal(compose(gg, ext1), -psi2):
        raise SwitchbackError("the degree-2 extension does not meet -psi2")
    ext = (reshape(ext1, 2, 0), LinearMap.zero(pair.d, 0, 2, pair.ring))
    return Degree2Report(psi1, psi2, is_cocycle, ext)


# ---------------------------------------------------------------------------
# Bracket-specific cocycle coordinates and config files
# ---------------------------------------------------------------------------

def bracket_cocycle(pair: SwitchbackPair, bxx, bxy, byx, byy) -> tuple[LinearMap, LinearMap]:
    """The 2-cocycle of a d = 2 pair with pairing slope (bxx, bxy, byx,
    byy), given in the pair's ring.  The cocycle rule forces the copairing
    slope, Phi2 = -G Phi1 G; on the bracket pair that reads

        copairing yy = -xx of the pairing slope, xx = -yy,
        yx = A^-2 * xy, xy = A^2 * yx.
    """
    _require_switchback(pair)
    if pair.d != 2:
        raise SwitchbackError(f"bracket cocycle coordinates need d = 2, got d = {pair.d}")
    phi1 = LinearMap.from_rows(2, 2, 0, pair.ring, [[bxx, bxy, byx, byy]])
    _, gg = pair.bent()
    return phi1, reshape(_cocycle_partner(gg, reshape(phi1, 1, 1)), 0, 2)


_PAIR_KEYS = ("dimension", "ring", "beta", "gamma")
_BRACKET_KEYS = ("beta1_xx", "beta1_xy", "beta1_yx", "beta1_yy")
_COCYCLE_KEYS = (*_BRACKET_KEYS, "phi1", "phi2")


def _parse_kv(text: str, keys, path: str = "<config>") -> dict[str, str]:
    """Flat `key = value` lines, each key one of `keys`; values may be
    double-quoted; # comments."""
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
        if key not in keys:
            raise PairConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise PairConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _parse_entry(text: str, key: str, into, path: str):
    """One entry, read in the generic A and brought into place by `into`.
    A refusal names the file, the key and the entry, and keeps its class."""
    text = text.strip()
    try:
        return into(parse_scalar(text))
    except SkeinlabError as e:
        raise type(e)(f"{path}: {key} entry {text!r}: {e}") from None


def _parse_matrix(text: str, key: str, into, path: str) -> list[list]:
    """The matrix literal of `key`: rows separated by `;`, entries by `,`,
    as written by format_matrix."""
    rows = [[_parse_entry(e, key, into, path) for e in chunk.split(",")]
            for chunk in text.split(";")]
    if any(len(r) != len(rows[0]) for r in rows):
        raise PairConfigError(f"{path}: {key}: ragged matrix literal")
    return rows


def _pairing_maps(kv, keys, into, d: int, ring, path: str) -> tuple[LinearMap, LinearMap]:
    """The literals of keys (row, column) as a pairing V^2 -> 1, written
    1 x d^2, and a copairing 1 -> V^2, written d^2 x 1, over ring."""
    n = d * d
    row, col = (_parse_matrix(kv[k], k, into, path) for k in keys)
    if len(row) != 1 or len(row[0]) != n:
        raise PairConfigError(f"{path}: {keys[0]} must be 1 x {n}")
    if len(col) != n or len(col[0]) != 1:
        raise PairConfigError(f"{path}: {keys[1]} must be {n} x 1")
    return LinearMap.from_rows(d, 2, 0, ring, row), LinearMap.from_rows(d, 0, 2, ring, col)


def format_matrix(m: LinearMap) -> str:
    """m as a matrix literal of the config files: rows split by `;`,
    entries by `,`."""
    return "; ".join(", ".join(format_scalar(e) for e in row) for row in m.rows)


def parse_pair_config(text: str, path: str = "<config>") -> SwitchbackPair:
    """dimension, ring, and the pairing/copairing matrix literals
    (`beta` is 1 x d^2 with entries comma-separated; `gamma` is d^2 x 1
    with rows semicolon-separated)."""
    kv = _parse_kv(text, _PAIR_KEYS, path)
    missing = set(_PAIR_KEYS) - set(kv)
    if missing:
        raise PairConfigError(f"{path}: missing keys {sorted(missing)}")
    try:
        d = int(kv["dimension"])
    except ValueError:
        raise PairConfigError(f"{path}: dimension must be an integer") from None
    if d < 1:
        raise PairConfigError(f"{path}: dimension must be at least 1, got {d}")
    try:
        ring = ring_by_name(kv["ring"])
    except ScalarError as e:
        raise type(e)(f"{path}: ring: {e}") from None
    maps = _pairing_maps(kv, ("beta", "gamma"), lambda x: into_ring(x, ring), d, ring, path)
    return SwitchbackPair(d, ring, *maps)


def parse_cocycle_config(
    text: str, pair: SwitchbackPair, path: str = "<config>"
) -> tuple[LinearMap, LinearMap]:
    """Either the four bracket coordinates beta1_xx .. beta1_yy (copairing
    slope derived) or explicit phi1 / phi2 matrix literals, not both.
    Entries are written in the generic A and taken into the pair's ring by
    pair.scalar."""
    kv = _parse_kv(text, _COCYCLE_KEYS, path)
    if any(k in kv for k in _BRACKET_KEYS):
        if "phi1" in kv or "phi2" in kv:
            raise PairConfigError(
                f"{path}: give either beta1_xx..beta1_yy or phi1 and phi2, not both"
            )
        missing = [k for k in _BRACKET_KEYS if k not in kv]
        if missing:
            raise PairConfigError(f"{path}: missing keys {missing}")
        return bracket_cocycle(
            pair, *(_parse_entry(kv[k], k, pair.scalar, path) for k in _BRACKET_KEYS)
        )
    if "phi1" not in kv or "phi2" not in kv:
        raise PairConfigError(
            f"{path}: need either beta1_xx..beta1_yy or phi1 and phi2"
        )
    return _pairing_maps(kv, ("phi1", "phi2"), pair.scalar, pair.d, pair.ring, path)
