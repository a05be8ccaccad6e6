"""The packed-integer kernel: products of linear maps evaluated on ints.

The closed-braid trace (braid), the Temperley-Lieb relations and the
Yang-Baxter residual (rmatrix) are products of a few maps over one ring of
the tower.  Here those products run on Python ints, in a placement loop
that pushes each stored entry through the moves of its column, and only
the values that are read go back to scalars.

Scaling.  A family of maps and scalars (a scalar is a 1 x 1 map) over the
base ring K, or over its dual with parts M = M0 + t*M1, is written over one
scale D = m*A^s*Q: Q is the product of the distinct denominators of the
parts of its entries, and the positive int m and the int s are chosen so
that every part of every entry of M' = D*M is a polynomial in A with
Gaussian-integer coefficients and no negative exponent.  For a part
p = num/den, the numerator of Q*p is num times the other distinct
denominators: a product of Laurent polynomials, with no gcd.  The scalar 1
in a family scales to D itself.  The placements of one map hold that map's
entry objects (linmap.placed), so each distinct entry object is scaled and
turned into lane moves once, with its share of its column's norm, and the
moves are then laid out at every entry that holds it.

Packing.  A polynomial P = sum_k (a_k + b_k*i) A^k is held as the two ints
P_re(2^B) and P_im(2^B), with P_re = sum a_k A^k and P_im = sum b_k A^k.
Evaluation at 2^B is a ring homomorphism Z[A] -> Z, so sums and products of
packed values are the packed sums and products, and an entry acts on a
packed entry by a few big-int multiplies and adds.  A value is stored as
lanes indexed by dual degree and power of i: (re, im) over K, and (body re,
body im, slope re, slope im) over the dual of K.  The im part of an entry
takes an im lane to a re lane negated, as i*i = -1, and the slope part of
an entry takes body lanes to slope lanes only, as t*t = 0.  Lanes that no
entry of the kernel's maps can reach from lane 0 (every imaginary lane when
all entries are real, say) are not stored.  A packed map on a space of
dimension size is one flat dict per lane, {row*size + col: nonzero int},
so the key's digits in base size are its row and its column.

The width B.  Write |P| = sum_k |a_k| + |b_k| and, for a matrix, ||M'|| =
max over columns c of sum over rows r of |M'_rc|, where a dual entry counts
|M0'_rc| + |M1'_rc|.  |.| is submultiplicative on Z[i][A] and on its dual,
as |M0 N0| + |M0 N1 + M1 N0| <= (|M0| + |M1|)(|N0| + |N1|), so ||.|| is
submultiplicative on products.  Placing a map on some of the strands (padding
it with identities) keeps ||.||, a scalar x acts as x times the identity,
with ||.|| = |D*x|, and the identity has ||.|| = 1.  So when factors F_1,
..., F_k are applied in turn to the identity, every entry of every partial
product, and every partial sum formed inside one, has |.| at most
max(1, ||F_1||) * ... * max(1, ||F_k||).  Let N bound all of these and every
sum of entries that the caller reads.  Then B = bit_length(N) + 2 puts each
coefficient met, and the difference of two, strictly inside
(-2^(B-1), 2^(B-1)).  So the signed base-2^B digits of a packed int are
exactly its coefficients, a packed entry is zero exactly when its
polynomial is, and two packed values are equal exactly when their
polynomials are.  With c the largest max(1, ||F||) among the factors, a
product of three packed maps, or a packed scalar times a product of two,
has N = c^3, and a packed scalar times one map has N = c^2;
braid.r_of_word states its own N.

Products.  A Scaled map is a matrix over Z[A] whose rows and columns are
(index, lane) pairs, so two of them compose as matrices: product(f, g) =
f . g holds at ((r, o), (c, i)) the sum over (k, l) of the polynomial of f
at ((r, o), (k, l)) times that of g at ((k, l), (c, i)).  As (f'/D_f) .
(g'/D_g) = f'g'/(D_f*D_g), its scale is f.scale*g.scale, and its norm
f.norm*g.norm bounds ||f'g'|| as ||.|| is submultiplicative.  A map placed
on some strands by linmap.placed holds the map's own entry objects, each
of its columns one column of the map, so as a member of the map's family
it gets the map's scale and norm and each entry's moves (braid packs the
twist with its two placements on two strands as one family).  So a product
placed as one factor meets no coefficient beyond the bound that its
factors, placed in turn, are given.

Placing.  place(plan, step, span, acc) applies 1^slot x f x 1^rest to a
packed map by pushing: each stored entry (key, v) of acc is visited once,
its local digit t = key // step % span read off (step is the place value of
f's lowest digit in the flat key), and v times the packed factor of each
move of f's column t is added at key + (fr - t)*step, the entry of row fr
of f; an entry that cancels to 0 is deleted.  Pulling each output entry
from the entries that differ from it in f's digits only adds the same
terms in another order.  Every partial sum in either order, in every lane,
is a sum over a subset of the lane parts of the terms f_rk*acc_kc, so it
is bounded by sum over k of |f_rk| |acc_kc| <= ||f|| ||acc||, and the width
proof above holds as it is.  trace_product(f, g, size) reads Tr(f .
g) of two packed values without forming f . g, by one lookup of g at
col*size + row per stored entry of f: its sums are sums of entries read by
the caller, which bounds them (braid.r_of_word).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod

from .linmap import LinearMap
from .scalars import LAURENT, Dual, GaussRat, LaurentA, RatFunA, Ring, into_ring


@dataclass(frozen=True)
class Scaled:
    """A map M = M'/scale, with M' as the lane moves of its entries:
    (row, col, out lane, in lane, {exponent: nonzero int coefficient}),
    meaning that entry (row, col) adds that polynomial times the in lane of
    a value to its out lane.  scale is the family's D, a LaurentA, and norm
    is ||M'||."""

    moves: tuple
    scale: LaurentA
    norm: int


def product(f: Scaled, g: Scaled) -> Scaled:
    """f . g, g applied first: the lane moves of f and g compose through
    g's output index and lane, and the polynomials of the moves that meet
    multiply and add.  The scale is f.scale*g.scale, and the norm the bound
    f.norm*g.norm, as ||.|| is submultiplicative."""
    into = {}         # (col, in lane) of f -> [(row, out lane, poly)]
    for r, c, o, i, poly in f.moves:
        into.setdefault((c, i), []).append((r, o, poly))
    sums: dict[tuple, dict[int, int]] = {}
    for r, c, o, i, q in g.moves:
        for fr, fo, p in into.get((r, o), ()):
            acc = sums.setdefault((fr, c, fo, i), {})
            for e, v in p.items():
                for e2, v2 in q.items():
                    acc[e + e2] = acc.get(e + e2, 0) + v * v2
    moves = []
    for key, acc in sums.items():
        poly = {e: v for e, v in acc.items() if v}
        if poly:
            moves.append((*key, poly))
    return Scaled(tuple(moves), f.scale * g.scale, f.norm * g.norm)


def _is_dual(x) -> bool:
    if isinstance(x, LinearMap):
        return x.ring.name == "dual"
    return x.__class__ is Dual


def _parts(v) -> list[tuple]:
    """(t-degree, numerator, denominator) for each nonzero part of one
    entry; a denominator of 1 is None.  A canonical ratfun denominator has
    constant coefficient 1, so it is 1 exactly when it is a monomial."""
    out = []
    for tdeg, p in enumerate((v.body, v.slope) if v.__class__ is Dual else (v,)):
        if p.is_zero():
            continue
        if p.__class__ is RatFunA:
            out.append((tdeg, p.num, None if p.den.is_monomial() else p.den))
        else:
            out.append((tdeg, into_ring(p, LAURENT), None))
    return out


def _scaled(family, lanes: int) -> list[Scaled]:
    """The members of a family (maps and scalars) over one common scale.
    Each distinct entry object is packed once, however many entries hold
    it (the placements of one map share its entries)."""
    # per member: (row, col, entry), a scalar as a 1 x 1 map
    members = [list(x.nonzeros()) if isinstance(x, LinearMap) else [(0, 0, x)]
               for x in family]
    # id of an entry -> (entry, its parts); holding the entry keeps its id
    # valid for the call
    parts = {}
    for member in members:
        for _, _, v in member:
            if id(v) not in parts:
                parts[id(v)] = (v, _parts(v))
    dens = list(dict.fromkeys(den for _, ps in parts.values() for *_, den in ps if den))
    # Q*num/den is num times the distinct denominators other than den
    others = {den: prod(dens[:k] + dens[k + 1:], start=LAURENT.one())
              for k, den in enumerate(dens)}
    others[None] = prod(dens, start=LAURENT.one())
    # per entry id: (t-degree, key) for each part of Q*v, where a key lists
    # the terms (exponent, a, b, d) of a polynomial with coefficients
    # (a + b*i)/d
    keyed = {
        k: [(tdeg, tuple((e, *g.as_ints()) for e, g in (
            num * others[den] if dens else num).terms))
            for tdeg, num, den in ps]
        for k, (_, ps) in parts.items()
    }
    terms = {t for ks in keyed.values() for _, key in ks for t in key}
    mult = lcm(*(d for *_, d in terms))
    shift = -min((e for e, *_ in terms), default=0)
    scale = LaurentA(((shift, GaussRat(mult)),)) * others[None]
    # the integer polynomials of M', once for each distinct entry part:
    # (re, im, -im, |.|) with re and im as {exponent: nonzero int}
    polys = {}
    for key in {key for ks in keyed.values() for _, key in ks}:
        re = {e + shift: a * (mult // d) for e, a, _, d in key if a}
        im = {e + shift: b * (mult // d) for e, _, b, d in key if b}
        size = sum(map(abs, re.values())) + sum(map(abs, im.values()))
        polys[key] = (re, im, {e: -v for e, v in im.items()}, size)
    # per entry id: its lane moves (out lane, in lane, poly) and its share
    # of its column's norm
    packed = {}
    for k, ks in keyed.items():
        lane_moves, share = [], 0
        for tdeg, key in ks:
            re, im, neg, size = polys[key]
            share += size
            # (x + y*i)(re + im*i) = (re*x - im*y) + (re*y + im*x)*i, and the
            # slope part of the entry takes body lanes to slope lanes
            for src in range(0, lanes - 2 * tdeg, 2):
                dst = src + 2 * tdeg
                if re:
                    lane_moves += [(dst, src, re), (dst + 1, src + 1, re)]
                if im:
                    lane_moves += [(dst, src + 1, neg), (dst + 1, src, im)]
        packed[k] = (lane_moves, share)
    out = []
    for member in members:
        moves, colnorm = [], {}
        for r, c, v in member:
            lane_moves, share = packed[id(v)]
            colnorm[c] = colnorm.get(c, 0) + share
            moves += [(r, c, o, i, poly) for o, i, poly in lane_moves]
        out.append(Scaled(tuple(moves), scale, max(colnorm.values(), default=0)))
    return out


@dataclass(frozen=True)
class Kernel:
    """Families of maps and scalars, each family over its own scale, kept
    to the moves out of the lanes that their products with the identity
    can reach (the live lanes); a move out of any other lane never meets a
    nonzero value.  Products of these maps keep to the live lanes too."""

    lanes: int            # 2 over a base ring, 4 over its dual
    maps: tuple           # the Scaled members, family by family, in order

    @staticmethod
    def of(*families) -> "Kernel":
        lanes = 4 if any(_is_dual(x) for family in families for x in family) else 2
        maps = tuple(sm for family in families for sm in _scaled(family, lanes))
        live = {0}
        while True:
            grown = live | {o for sm in maps for _, _, o, i, _ in sm.moves if i in live}
            if grown == live:
                break
            live = grown
        maps = tuple(Scaled(tuple(m for m in sm.moves if m[3] in live), sm.scale, sm.norm)
                     for sm in maps)
        return Kernel(lanes, maps)

    def plan(self, sm: Scaled, bits: int) -> list[dict]:
        """Per in lane: {local column t: [(out lane, fr - t, packed
        factor)]}, a move of sm's entry (fr, t) with its polynomial
        evaluated at 2^bits; a lane that no move leaves has {}."""
        by_in: list[dict] = [{} for _ in range(self.lanes)]
        factors = {}      # id of a polynomial of sm -> its packed factor
        for r, c, o, i, poly in sm.moves:
            f = factors.get(id(poly))
            if f is None:
                f = factors[id(poly)] = sum(v << (e * bits) for e, v in poly.items())
            by_in[i].setdefault(c, []).append((o, r - c, f))
        return by_in

    def identity(self, size: int) -> list[dict]:
        """The packed identity on a space of the given dimension."""
        acc: list[dict] = [{} for _ in range(self.lanes)]
        acc[0] = dict.fromkeys(range(0, size * size, size + 1), 1)
        return acc


def width(bound: int) -> int:
    """The digit width B for a bound N on every coefficient met: B =
    bit_length(N) + 2, as the module docstring proves."""
    return bound.bit_length() + 2


def place(plan, step: int, span: int, acc: list[dict]) -> list[dict]:
    """(1^slot x f x 1^rest) . acc on packed lanes, for the plan of a local
    f of dimension span; step is the place value, in acc's flat keys
    row*size + col, of f's lowest digit.  With step = size and span = size
    this is f . acc, and with step = span = 1 for a 1 x 1 f it is the
    scalar multiple.  Each stored entry is pushed through the moves of its
    local column, and entries that cancel are dropped (module docstring,
    Placing)."""
    new: list[dict] = [{} for _ in acc]
    for cols, lane in zip(plan, acc):
        if not cols or not lane:
            continue
        # per local column: (output lane, key offset, packed factor)
        moves = [()] * span
        for t, col in cols.items():
            moves[t] = [(new[o], df * step, f) for o, df, f in col]
        for key, v in lane.items():
            for out, off, f in moves[key // step % span]:
                k = key + off
                x = out.get(k)
                if x is None:
                    out[k] = v * f
                else:
                    x += v * f
                    if x:
                        out[k] = x
                    else:
                        del out[k]
    return new


def trace_product(f: list[dict], g: list[dict], size: int) -> list[int]:
    """The lanes of Tr(f . g) = sum over r, c of f_rc g_cr, for packed maps
    f and g on a space of dimension size.  Lanes multiply as their parts
    do: the lanes of (dual degree, power of i) (t1, j1) and (t2, j2) give
    (t1 + t2, j1 + j2 mod 2), negated when j1 = j2 = 1 (i*i = -1) and
    dropped when t1 + t2 = 2 (t*t = 0)."""
    out = [0] * len(f)
    for o1, fl in enumerate(f):
        for o2, gl in enumerate(g):
            t = (o1 >> 1) + (o2 >> 1)
            if not fl or not gl or t > 1:
                continue
            get = gl.get
            total = 0
            for key, x in fl.items():
                r, c = divmod(key, size)
                y = get(c * size + r)
                if y is not None:
                    total += x * y
            out[2 * t + ((o1 ^ o2) & 1)] += -total if o1 & o2 & 1 else total
    return out


def digits(x: int, bits: int) -> dict[int, int]:
    """The nonzero signed base-2^bits digits of x, by place."""
    out = {}
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    k = 0
    while x:
        c = x & mask
        if c >= half:
            c -= 1 << bits
        if c:
            out[k] = c
        x = (x - c) >> bits
        k += 1
    return out


def unpack(values: list[int], bits: int, base: Ring, factor):
    """The scalar whose lanes pack to values, over the dual of base when
    there are four lanes, times factor: a scalar of base, or of the dual of
    base when there are four lanes."""
    parts = []
    for re_value, im_value in zip(values[0::2], values[1::2]):
        re, im = digits(re_value, bits), digits(im_value, bits)
        poly = LaurentA({k: GaussRat(re.get(k, 0), im.get(k, 0))
                         for k in re.keys() | im.keys()})
        parts.append(into_ring(poly, base))
    if len(parts) == 1:
        return parts[0] * factor
    if factor.__class__ is Dual:
        return Dual(*parts) * factor
    return Dual(parts[0] * factor, parts[1] * factor)
