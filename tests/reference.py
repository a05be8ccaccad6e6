"""References for the tests, independent of the code they check.

`kron` multiplies the stored entries of two maps pairwise, as a Kronecker
product of matrices; it calls no compose, apply_local or _place, so a test
that builds a padded map with it checks placement against something else.
`kernel_basis` reads a kernel off `linmap.rref`, as an elimination of the
whole matrix gives it; the program finds its 2-cocycles and degree-2
extensions without one.
`conjugated` and `stabilized` make the two Markov moves of a braid word.
`packed_placement` lays out 1^slot x f x 1^rest as a flat packed matrix
by index arithmetic from the lane moves of a packed f, and
`packed_product` multiplies two packed maps as matrices, lane by lane;
the program pushes each stored entry through its column's moves
(_packed.place) and never forms the placed matrix.
`unfolded_r_of_word` is braid.r_of_word without folding each strand's
twist into its first letter: the packed identity, then n one-strand
twists, then one placement of R or R^-1 per letter, each multiplied in
by packed_product, so that the two halves that braid.r_of_word returns
can be checked against that loop; the program reads only the trace of
their product.
`evaluate` builds an identity-DSL expression bottom-up, a tensor as the
kron of its parts and a composition as the compose of its parts; the
program evaluates its sums as one compiled program of placements.
`tl_first_failure` and `ybe_residual` state the Temperley-Lieb relations
and the Yang-Baxter residual on scalar maps, with compose, equal and kron;
the program evaluates both on the packed-integer kernel.
`zigzags` forms both zig-zag composites of a pairing and a copairing on
V^3 by Kronecker products; the program reads them off the bent d x d
matrices, and checks a pair by the one product G B = 1.
`twist` and `pair_first_failure` are the twist and the Turaev conditions
on the pair alone as tensor diagrams: the twist (1 x pairing)(tau x 1)
(1 x copairing) through the swap, the doubled twist on V^2 and the
cusp-pair curl on V^3; the program evaluates all four as products of
the bent d x d matrices of the pairing and copairing.
`ratfun_parts` is the canonical numerator and denominator of a rational
function by Euclid's algorithm over Q(i), on GaussRat arithmetic; the
program takes the gcd by a subresultant sequence over Z[i].
`laurent_add`, `laurent_neg`, `laurent_mul`, `laurent_inv` and
`laurent_text` are Laurent arithmetic and the canonical text on
{exponent: (re, im)} dicts of the stdlib's Fractions; the program holds a
Laurent polynomial as one shift, one tuple of Gaussian-integer pairs and
one integer denominator.
"""

from fractions import Fraction

from skeinlab._packed import width
from skeinlab.braid import BraidWord
from skeinlab.identities import COCHAIN, X_SWAP, Compose, Id, Sym, Tensor
from skeinlab.linmap import (
    LinearMap,
    MapShape,
    apply_local,
    compose,
    equal,
    partial_trace,
    placed,
    rref,
    swap,
)
from skeinlab.scalars import GaussRat, LaurentA


def kron(f: LinearMap, g: LinearMap) -> LinearMap:
    """f ⊗ g: V^(p_f+p_g) -> V^(q_f+q_g), f's factors the leftmost.  Row
    r*rows_g + s and column c*cols_g + u hold f[r][c] * g[s][u]; products
    that vanish (t*t over a dual ring) are dropped."""
    g_rows, g_cols = g.shape.rows, g.shape.cols
    g_entries = list(g.nonzeros())
    shape = MapShape(f.shape.d, f.shape.p + g.shape.p, f.shape.q + g.shape.q)
    cols = shape.cols
    entries: dict[int, object] = {}
    for r, c, x in f.nonzeros():
        for s, u, y in g_entries:
            v = x * y
            if not v.is_zero():
                entries[(r * g_rows + s) * cols + c * g_cols + u] = v
    return LinearMap(shape, f.ring, entries)


def evaluate(expr, env, d, ring) -> LinearMap:
    """expr as a map, with phi[gen], gen and f bound by env: id^n is the
    identity, X the swap, a tensor the kron of its parts left to right and
    a composition the compose of its parts, the leftmost applied last."""
    if expr == X_SWAP:
        return swap(d, ring)
    if isinstance(expr, Sym):
        return env[f"phi[{expr.name}]" if expr.role == COCHAIN else expr.name]
    if isinstance(expr, Id):
        return LinearMap.identity(d, expr.n, ring)
    parts = [evaluate(part, env, d, ring) for part in expr.parts]
    out = parts[0]
    if isinstance(expr, Tensor):
        for part in parts[1:]:
            out = kron(out, part)
        return out
    if isinstance(expr, Compose):
        for part in parts[1:]:
            out = compose(out, part)
        return out
    raise TypeError(f"not an expression: {expr!r}")


def kernel_basis(rows, ring) -> list[list]:
    """Basis of the right kernel, one vector per free column in order: 1 at
    the free column, 0 at the others, minus the reduced entries of that
    column at the pivots."""
    red, pivots = rref(rows, ring)
    ncols = len(rows[0]) if rows else 0
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [ring.one() if c == fc else ring.zero() for c in range(ncols)]
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def conjugated(w: BraidWord, i: int, sign: int = 1) -> BraidWord:
    """g w g^-1 for g = s_i^sign."""
    return BraidWord(w.n, ((i, sign), *w.letters, (i, -sign)))


def stabilized(w: BraidWord, sign: int = 1) -> BraidWord:
    """w . s_n^sign on one more strand."""
    return BraidWord(w.n + 1, (*w.letters, (w.n, sign)))


def tl_first_failure(gens, delta):
    """None when all Temperley-Lieb relations hold; otherwise the first
    failure, in the program's order and words."""
    m = len(gens)
    for i in range(m):
        if not equal(compose(gens[i], gens[i]), gens[i].scale(delta)):
            return f"e{i + 1}^2 != delta*e{i + 1}"
    for i in range(m - 1):
        lhs = compose(compose(gens[i], gens[i + 1]), gens[i])
        if not equal(lhs, gens[i]):
            return f"e{i + 1}*e{i + 2}*e{i + 1} != e{i + 1}"
        lhs = compose(compose(gens[i + 1], gens[i]), gens[i + 1])
        if not equal(lhs, gens[i + 1]):
            return f"e{i + 2}*e{i + 1}*e{i + 2} != e{i + 2}"
    for i in range(m):
        for j in range(i + 2, m):
            if not equal(compose(gens[i], gens[j]), compose(gens[j], gens[i])):
                return f"e{i + 1} and e{j + 1} do not commute"
    return None


def ybe_residual(R: LinearMap) -> LinearMap:
    """(R x 1)(1 x R)(R x 1) - (1 x R)(R x 1)(1 x R) on three strands, for
    R on two strands, padded by Kronecker products."""
    one = LinearMap.identity(R.shape.d, 1, R.ring)
    left, right = kron(R, one), kron(one, R)
    return compose(compose(left, right), left) - compose(compose(right, left), right)


def packed_identity(lanes: int, size: int) -> list[dict]:
    """The identity on a space of dimension size as flat packed lanes
    {row*size + col: int}."""
    return [{r * size + r: 1 for r in range(size)}] + [{} for _ in range(lanes - 1)]


def packed_placement(sm, lanes: int, bits: int, low: int, span: int, size: int) -> list[dict]:
    """1^slot x f x 1^rest as flat packed lanes, for a packed f of dimension
    span whose lowest digit has the place value low in an index below size.
    A move (r, c, o, 0, poly) of f out of lane 0 is the part of f's entry
    (r, c) in lane o, and it is laid out at row base + r*low and column
    base + c*low for every index base whose f digits are 0, as poly at
    2^bits."""
    out = [{} for _ in range(lanes)]
    bases = [x for x in range(size) if x // low % span == 0]
    for r, c, o, i, poly in sm.moves:
        if i:
            continue
        value = sum(v * 2 ** (e * bits) for e, v in poly.items())
        for base in bases:
            out[o][(base + r * low) * size + base + c * low] = value
    return out


def unfolded_r_of_word(td, w: BraidWord):
    """(lanes, bits, scale) of R(w) . twist^(x n) on the packed kernel, as
    braid.r_of_word returns them, by n twist placements on the packed
    identity and one placement of R^(sign) per letter, each multiplied in
    by packed_product."""
    kern = td._kernel
    R, Rinv, nu = kern.maps[:3]
    d, n = td.pair.d, w.n
    size = d**n
    pos = sum(sign > 0 for _, sign in w.letters)
    neg = len(w.letters) - pos
    bits = width(d**n * nu.norm**n * R.norm**pos * Rinv.norm**neg)
    acc = packed_identity(kern.lanes, size)
    for slot in range(n):
        twist = packed_placement(nu, kern.lanes, bits, d ** (n - 1 - slot), d, size)
        acc = packed_product(twist, acc, size)
    for i, sign in w.letters:
        letter = packed_placement(R if sign > 0 else Rinv, kern.lanes, bits,
                                  d ** (n - i - 1), d * d, size)
        acc = packed_product(letter, acc, size)
    scale = nu.scale**n * R.scale**pos * Rinv.scale**neg
    return acc, bits, scale


def packed_product(f: list[dict], g: list[dict], size: int) -> list[dict]:
    """f . g for packed maps on a space of dimension size, held as lanes
    {row*size + col: int}, lane 2t + j holding the part of dual degree t
    and power of i j: entry (r, c) of lane (t, j) sums f[(t1, j1)][r][k] *
    g[(t2, j2)][k][c] over k and the lanes with t1 + t2 = t and j1 + j2 = j
    mod 2, times -1 when j1 = j2 = 1; t1 + t2 = 2 vanishes.  Zero entries
    are left out."""
    out = [{} for _ in f]
    for lf, f_lane in enumerate(f):
        tf, jf = divmod(lf, 2)
        for lg, g_lane in enumerate(g):
            tg, jg = divmod(lg, 2)
            if tf + tg > 1:
                continue
            sign = -1 if jf == jg == 1 else 1
            lane = out[2 * (tf + tg) + (jf + jg) % 2]
            g_rows = {}
            for key, y in g_lane.items():
                k, c = divmod(key, size)
                g_rows.setdefault(k, []).append((c, y))
            for key, x in f_lane.items():
                r, k = divmod(key, size)
                for c, y in g_rows.get(k, ()):
                    at = r * size + c
                    lane[at] = lane.get(at, 0) + sign * x * y
    return [{key: v for key, v in lane.items() if v} for lane in out]


def zigzags(b: LinearMap, g: LinearMap) -> tuple[LinearMap, LinearMap]:
    """(b x 1)(1 x g) and (1 x b)(g x 1) for b: V^2 -> K, g: K -> V^2."""
    one = LinearMap.identity(b.shape.d, 1, b.ring)
    return (
        compose(kron(b, one), kron(one, g)),
        compose(kron(one, b), kron(g, one)),
    )


def twist(pair) -> LinearMap:
    """The one-strand twist (1 x pairing)(tau x 1)(1 x copairing), each
    diagram placed on three strands."""
    nu = apply_local(swap(pair.d, pair.ring), 0, apply_local(pair.copairing, 1, pair.id1()))
    return apply_local(pair.pairing, 1, nu)


def pair_first_failure(pair, nu) -> str | None:
    """The first of the Turaev conditions on the pair alone that nu fails,
    in braid.turaev_first_failure's order and words: pairing and
    copairing invariant under nu x nu, and Tr_2 of the cusp-pair curl
    (copairing x 1)(pairing x 1)(1 x nu x 1) the identity of V^2."""
    nn = apply_local(nu, 0, placed(nu, 1, 2))
    if not equal(compose(pair.pairing, nn), pair.pairing):
        return "pairing not invariant under the doubled twist"
    if not equal(compose(nn, pair.copairing), pair.copairing):
        return "copairing not invariant under the doubled twist"
    curl = placed(nu, 1, 3)
    curl = apply_local(pair.copairing, 0, apply_local(pair.pairing, 0, curl))
    if not equal(partial_trace(curl, 1), LinearMap.identity(pair.d, 2, pair.ring)):
        return "twist does not cancel the cusp-pair curl"
    return None


def _dense(x: LaurentA) -> tuple[list[GaussRat], int]:
    """(coefficients of p, v) with x = A^v * p(A) and p(0) != 0."""
    v = x.terms[0][0]
    coeffs = [GaussRat(0)] * (x.terms[-1][0] - v + 1)
    for k, c in x.terms:
        coeffs[k - v] = c
    return coeffs, v


def _trim(p: list[GaussRat]) -> list[GaussRat]:
    while p and p[-1].is_zero():
        p.pop()
    return p


def _divmod(a: list[GaussRat], b: list[GaussRat]) -> tuple[list[GaussRat], list[GaussRat]]:
    """Quotient and remainder of a by b over Q(i)."""
    a = list(a)
    out = [GaussRat(0)] * (len(a) - len(b) + 1)
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        q = a[-1] / lead
        off = len(a) - 1 - db
        out[off] = q
        for i, bc in enumerate(b):
            a[off + i] = a[off + i] - q * bc
        _trim(a)
    return out, a


def ratfun_parts(num: LaurentA, den: LaurentA) -> tuple[LaurentA, LaurentA]:
    """The canonical (num, den) of num/den for den != 0: both parts divided
    by their gcd over Q(i), found by Euclid's algorithm, the common power of
    A folded into the numerator, and the denominator's constant coefficient
    made 1."""
    one = LaurentA(((0, GaussRat(1)),))
    if num.is_zero():
        return LaurentA(), one
    if den == one:
        return num, den
    p, vn = _dense(num)
    q, vd = _dense(den)
    a, b = p, q
    while b:
        a, b = b, _divmod(a, b)[1]
    if len(a) > 1:
        (p, r), (q, s) = _divmod(p, a), _divmod(q, a)
        assert not r and not s
    c = q[0].inv()
    return (
        LaurentA(tuple((k + vn - vd, x * c) for k, x in enumerate(p))),
        LaurentA(tuple((k, x * c) for k, x in enumerate(q))),
    )


# -- Laurent polynomials as {exponent: (re, im)} over Fractions ---------------


def laurent_terms(x: LaurentA) -> dict[int, tuple[Fraction, Fraction]]:
    """x as {exponent: (re, im)}, read off its public terms."""
    return {k: (c.re, c.im) for k, c in x.terms}


def _nonzero(x: dict) -> dict:
    return {k: c for k, c in x.items() if c[0] or c[1]}


def laurent_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for k, (a, b) in y.items():
        c, d = out.get(k, (0, 0))
        out[k] = (c + a, d + b)
    return _nonzero(out)


def laurent_neg(x: dict) -> dict:
    return {k: (-a, -b) for k, (a, b) in x.items()}


def laurent_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for j, (a, b) in x.items():
        for k, (c, d) in y.items():
            e, f = out.get(j + k, (0, 0))
            out[j + k] = (e + a * c - b * d, f + a * d + b * c)
    return _nonzero(out)


def laurent_inv(x: dict) -> dict:
    """The inverse of a monomial c*A^k: A^-k / c."""
    ((k, (a, b)),) = x.items()
    n = a * a + b * b
    return {-k: (Fraction(a) / n, Fraction(-b) / n)}


def laurent_text(x: dict) -> str:
    """format_scalar's text: by ascending exponent, each term's real piece
    and then its imaginary one, with a sign between pieces; a magnitude 1
    is left out before A and written i alone."""

    def rat(r: Fraction) -> str:
        return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"

    pieces = []
    for k in sorted(x):
        power = "" if k == 0 else "A" if k == 1 else f"A^{k}"
        for part, unit in zip(x[k], ("", "i")):
            if not part:
                continue
            mag = abs(Fraction(part))
            number = unit if unit and mag == 1 else rat(mag) + unit
            if not power:
                text = number
            elif mag == 1 and not unit:
                text = power
            else:
                text = f"{number}*{power}"
            pieces.append((part < 0, text))
    if not pieces:
        return "0"
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for negative, piece in pieces[1:]:
        out += (" - " if negative else " + ") + piece
    return out
