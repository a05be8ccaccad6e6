"""The packed kernel's placement and trace against a flat packed matrix
laid out by index arithmetic, and the Temperley-Lieb check and the
Yang-Baxter residual on the kernel, against scalar references that share
no code with it."""

import copy
import random
from pathlib import Path

import pytest

import reference
from reference import kron, packed_identity, packed_placement, packed_product
from skeinlab import _packed, rmatrix
from skeinlab._packed import Kernel, place, trace_product, width
from skeinlab.linmap import (
    LinearMap,
    ShapeMismatchError,
    apply_local,
    compose,
    equal,
    placed,
    unplaced,
)
from skeinlab.rmatrix import (
    build_R,
    cupcap,
    solve_deformed_coefficients,
    tl_first_failure,
    tl_generators,
    ybe_residual,
)
from skeinlab.scalars import (
    GAUSS,
    LAURENT,
    RATFUN,
    Dual,
    GaussRat,
    LaurentA,
    RingMismatchError,
    into_ring,
    parse_scalar,
    ring_of,
)
from skeinlab.switchback import (
    SwitchbackPair,
    deform,
    delta0,
    make_bracket_pair,
    pair_from_matrix,
    parse_cocycle_config,
)

FIXTURES = Path(__file__).parent.parent / "src" / "skeinlab" / "fixtures"
UNITS = (GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(0, -1))
WIDE = 2**40 + 1


def _agree(gens, delta):
    """The program's verdict, which must be the reference's."""
    got = tl_first_failure(gens, delta)
    assert got == reference.tl_first_failure(gens, delta)
    return got


def _monomial(e, unit):
    return LaurentA(((e, unit),))


def _gauged(rng):
    """pairing(x, y) -> c * pairing(Dx, Dy) on the bracket pair, with D
    diagonal and D and c monomials whose coefficients are units of Z[i]."""
    pair = make_bracket_pair()
    dg = [_monomial(rng.randint(-15, 15), rng.choice(UNITS)) for _ in range(2)]
    c = _monomial(rng.randint(-2, 2), rng.choice(UNITS))
    b = [pair.pairing.entry(0, k) for k in range(4)]
    g = [pair.copairing.entry(k, 0) for k in range(4)]
    brow = [c * b[2 * i + j] * dg[i] * dg[j] for i in range(2) for j in range(2)]
    gcol = [[c.inv() * g[2 * i + j] * dg[i].inv() * dg[j].inv()]
            for i in range(2) for j in range(2)]
    return SwitchbackPair(
        2, LAURENT,
        LinearMap.from_rows(2, 2, 0, LAURENT, [brow]),
        LinearMap.from_rows(2, 0, 2, LAURENT, gcol),
    )


# ---------------------------------------------------------------------------
# place and trace_product against laid-out matrices
# ---------------------------------------------------------------------------

# entry pools per case: odd and negative multipliers, i (live im lanes), and
# over the dual ring slopes (live slope lanes) and denominators, which the
# scale clears into polynomial multipliers
_L = lambda text: parse_scalar(text, LAURENT)  # noqa: E731
_KERNEL_POOLS = {
    "laurent-real": (2, [_L(x) for x in ("0", "0", "1", "-1", "3", "-5*A", "2*A^-2")]),
    "laurent-im": (2, [_L(x) for x in ("0", "0", "1", "-1", "3i", "-5*A", "-i*A^2", "7")]),
    "laurent-im-d3": (3, [_L(x) for x in ("0", "0", "0", "1", "-1", "i", "-3*A")]),
    "dual-ratfun": (2, [
        Dual(parse_scalar(x, RATFUN), parse_scalar(y, RATFUN))
        for x, y in (("0", "0"), ("0", "0"), ("1", "0"), ("-1", "0"), ("0", "i"),
                     ("( 3 )/( 1 + A )", "-A"), ("-5i", "( 1 )/( 2 - A )"), ("A", "1"))
    ]),
}


def _random_map(rng, d, strands, pool):
    ring = ring_of(pool[0])
    dim = d**strands
    return LinearMap.from_rows(d, strands, strands, ring,
                               [[rng.choice(pool) for _ in range(dim)] for _ in range(dim)])


def _body(v):
    return v.body if isinstance(v, Dual) else v


def _cancelling(strands, low, values):
    """A map on V^strands, d = 2, on which a one-strand f whose two columns
    are opposite, placed with its digit at the place value low, cancels in
    every even column: there the two rows that differ in that digit only
    hold equal entries, and in the odd columns opposite ones."""
    dim = 2**strands
    rows = [[values[(r // (2 * low) + c) % len(values)] for c in range(dim)]
            for r in range(dim)]
    for r in range(dim):
        for c in range(1, dim, 2):
            if r // low % 2:
                rows[r][c] = -rows[r][c]
    return LinearMap.from_rows(2, strands, strands, ring_of(values[0]), rows)


def _trace(f, g, size):
    return [sum(lane.get(r * size + r, 0) for r in range(size))
            for lane in packed_product(f, g, size)]


def _stored_nonzero(lanes):
    assert all(v for lane in lanes for v in lane.values())


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", sorted(_KERNEL_POOLS))
def test_place_and_trace_match_the_laid_out_matrix(case, seed):
    d, pool = _KERNEL_POOLS[case]
    rng = random.Random(seed)
    n = 3
    size = d**n
    f = _random_map(rng, d, 2 if d == 2 else 1, pool)
    k = f.shape.p
    span = d**k
    g, h = _random_map(rng, d, n, pool), _random_map(rng, d, n, pool)
    # entries whose products do not vanish
    nonzero = [v for v in pool if not _body(v).is_zero()]
    kern = Kernel.of([f], [g], [h], [rng.choice(nonzero)])
    lanes = kern.lanes
    fm, gm, hm, sm = kern.maps
    assert lanes == (4 if case.startswith("dual") else 2)
    bits = width(size * max(1, fm.norm) * max(1, gm.norm) * max(1, hm.norm) * max(1, sm.norm))
    one = packed_identity(lanes, size)
    assert kern.identity(size) == one
    # g placed whole on the identity is its laid-out matrix
    acc = place(kern.plan(gm, bits), size, size, kern.identity(size))
    assert acc == packed_product(packed_placement(gm, lanes, bits, 1, size, size), one, size)
    other = packed_placement(hm, lanes, bits, 1, size, size)
    if case != "laurent-real":
        assert any(acc[1:]), "the im or slope lanes are not live"
    for slot in range(n - k + 1):
        low = d ** (n - k - slot)
        got = place(kern.plan(fm, bits), low * size, span, acc)
        want = packed_product(packed_placement(fm, lanes, bits, low, span, size), acc, size)
        assert got == want
        _stored_nonzero(got)
        assert trace_product(got, other, size) == _trace(got, other, size)
        assert trace_product(other, got, size) == _trace(other, got, size)
    if d == 2:
        x, y = rng.choice(nonzero), rng.choice(nonzero)
        opposite = LinearMap.from_rows(2, 1, 1, f.ring, [[x, -x], [y, -y]])
        for slot in range(n):
            low = 2 ** (n - 1 - slot)
            cancel = Kernel.of([opposite], [_cancelling(n, low, nonzero)])
            om, bm = cancel.maps
            cbits = width(max(1, om.norm) * max(1, bm.norm))
            start = packed_product(packed_placement(bm, lanes, cbits, 1, size, size), one, size)
            got = place(cancel.plan(om, cbits), low * size, 2, start)
            want = packed_product(packed_placement(om, lanes, cbits, low, 2, size), start, size)
            assert got == want
            _stored_nonzero(got)
            # the even columns cancel, the odd ones do not
            assert {key % size % 2 for lane in got for key in lane} == {1}
    # a scalar multiplies every entry
    got = place(kern.plan(sm, bits), 1, 1, acc)
    assert got == packed_product(packed_placement(sm, lanes, bits, 1, 1, size), acc, size)
    _stored_nonzero(got)
    assert trace_product(acc, one, size) == _trace(acc, one, size)


@pytest.mark.parametrize("seed", range(6))
def test_laurent_gauges_with_unit_coefficients(seed):
    # D = A^15 puts entries up to A^+-30 into the generators
    pair = _gauged(random.Random(seed))
    delta = delta0(pair)
    i = LaurentA(((0, GaussRat(0, 1)),))
    for n in (2, 3, 4, 5):
        gens = tl_generators(pair, n)
        assert _agree(gens, delta) is None
        for wrong in (delta + LAURENT.one(), delta * i, -delta):
            assert _agree(gens, wrong) == "e1^2 != delta*e1"
        # an imaginary multiple keeps every square with delta times it
        turned = [e.scale(i) for e in gens]
        assert _agree(turned, delta * i) == (None if n == 2 else "e1*e2*e1 != e1")


@pytest.mark.parametrize("name", ["xx", "xy", "yx", "yy"])
@pytest.mark.parametrize("scale", [(1, 0), (-1, 0), (2, 0), (0, 1)])
def test_bundled_cocycles_at_four_scales(name, scale):
    rat = make_bracket_pair(RATFUN)
    phi1, phi2 = parse_cocycle_config((FIXTURES / f"cocycle_{name}.cfg").read_text(), rat)
    s = RATFUN.one() * into_ring(GaussRat(*scale), RATFUN)
    pair = deform(rat, phi1.scale(s), phi2.scale(s))
    delta = delta0(pair)
    off_slope = delta + Dual(RATFUN.zero(), RATFUN.one())
    for n in (3, 4):
        gens = tl_generators(pair, n)
        assert _agree(gens, delta) is None
        assert _agree(gens, off_slope) == "e1^2 != delta*e1"
        # a slope added to one generator breaks a relation in the slope only
        bent = [gens[0] + gens[0].scale(Dual(RATFUN.zero(), RATFUN.one())), *gens[1:]]
        assert _agree(bent, delta) is not None


RF = lambda text: parse_scalar(text, RATFUN)  # noqa: E731

RATFUN_MATRICES = {
    "d2": [["( 2*A )/( 3 - i*A )", "1"], ["( -1/2 )/( 1 + A )", "A^-1"]],
    "d2-gauss": [["1/3", "( i )/( 1 - A^2 )"], ["2 - i", "( A )/( 3 - i*A )"]],
    "d3": [
        ["1", "( A )/( 1 + A )", "0"],
        ["0", "2", "i*A^-1"],
        ["1/2", "0", "A"],
    ],
}


@pytest.mark.parametrize("name", sorted(RATFUN_MATRICES))
def test_ratfun_pairs_with_denominators(name):
    rows = [[RF(x) for x in row] for row in RATFUN_MATRICES[name]]
    pair = pair_from_matrix(rows, RATFUN)
    delta = delta0(pair)
    # the scalar reference normalises a ratfun gcd at every product, so the
    # pairs with more denominators stop at fewer strands
    for n in range(2, 5 if name == "d2" else 4):
        gens = tl_generators(pair, n)
        assert _agree(gens, delta) is None
        for wrong in (delta + RATFUN.one(), delta * RF("( 1 )/( 1 + A )")):
            assert _agree(gens, wrong) == "e1^2 != delta*e1"


def _changed(m: LinearMap, r: int, c: int, by) -> LinearMap:
    """m with by added to entry (r, c)."""
    return LinearMap.from_rows(m.shape.d, m.shape.p, m.shape.q, m.ring, [
        [x + by if (i, j) == (r, c) else x for j, x in enumerate(row)]
        for i, row in enumerate(m.rows)
    ])


def _dropped(m: LinearMap, outer) -> LinearMap:
    """m on 4 strands, d = 2, without the entries whose row and column both
    have the given (first, last) digits: one copy of a core on the middle
    two strands taken out, so no square changes."""
    return LinearMap.from_rows(2, 4, 4, m.ring, [
        [m.ring.zero() if (i >> 3, i & 1) == (j >> 3, j & 1) == outer else x
         for j, x in enumerate(row)]
        for i, row in enumerate(m.rows)
    ])


def _broken_generator_lists():
    """(name, generators, delta, the first failure) for generator lists
    whose cores lie on every kind of strand arrangement."""
    pair = make_bracket_pair()
    delta = delta0(pair)
    cc = cupcap(pair)
    e1, e2, e3 = tl_generators(pair, 4)
    one = LinearMap.identity(2, 1, LAURENT)
    o, z = LAURENT.one(), LAURENT.zero()
    hold = LinearMap.from_rows(2, 1, 1, LAURENT, [[o, z], [z, z]])
    g = kron(kron(cc, hold), one)
    ident = LinearMap.identity(2, 4, LAURENT)
    a2 = LaurentA(((2, GaussRat(1)),))
    # u = 1 + A^2 e commutes with e and has inverse 1 + A^-2 e, so u e' u^-1
    # keeps every relation with e and e' but puts e' on three strands
    u, u_inv = ident + e2.scale(a2), ident + e2.scale(a2.inv())
    f1 = compose(compose(u, e1), u_inv)
    f3 = compose(compose(u, e3), u_inv)
    # idempotents times delta, on one and three strands, that no identity
    # strand pads
    step = LinearMap.from_rows(2, 1, 1, LAURENT, [[o, o], [z, z]]).scale(delta)
    corner = LinearMap.from_rows(2, 3, 3, LAURENT, [
        [o if (r, c) in ((0, 0), (0, 7)) else z for c in range(8)] for r in range(8)
    ]).scale(delta)
    (r, c, _), *_ = e2.nonzeros()
    # delta and 1 as maps on no strands: placed, each is that scalar times
    # the identity, a core that touches no strand
    scalar_delta = LinearMap.from_rows(2, 0, 0, LAURENT, [[delta]])
    scalar_one = LinearMap.from_rows(2, 0, 0, LAURENT, [[o]])

    p3 = pair_from_matrix([[GaussRat(int(i == j)) for j in range(3)] for i in range(3)], GAUSS)
    delta3, cc3 = delta0(p3), cupcap(p3)
    d3 = tl_generators(p3, 4)
    (r3, c3, _), *_ = d3[1].nonzeros()

    rat = make_bracket_pair(RATFUN)
    pair_t = deform(rat, *parse_cocycle_config((FIXTURES / "cocycle_xy.cfg").read_text(), rat))
    delta_t, cc_t = delta0(pair_t), cupcap(pair_t)
    t1, t2, t3 = tl_generators(pair_t, 4)
    (rt, ct, _), *_ = t3.nonzeros()
    slope = Dual(RATFUN.zero(), RATFUN.one())
    return [
        ("square", [e1, e2.scale(2), e3], delta, "e2^2 != delta*e2"),
        ("braid", [e1, e1, e3], delta, "e1*e2*e1 != e1"),
        ("whole strands", [g, e2, e3], delta, "e2*e1*e2 != e2"),
        ("overlap at slot 1", [e1, e2, f3], delta, "e1 and e3 do not commute"),
        ("overlap at slot 0", [f1, e2, e3], delta, "e1 and e3 do not commute"),
        ("overlap commuting", [e1, e2, e1], delta, None),
        ("one entry", [e1, _changed(e2, r, c, o), e3], delta, "e2^2 != delta*e2"),
        ("one copy", [e1, _dropped(e2, (1, 1)), e3], delta, "e1*e2*e1 != e1"),
        ("cores on 1, 2, 3", [placed(step, 0, 4), e2, placed(corner, 1, 4)], delta,
         "e1*e2*e1 != e1"),
        ("cores on 3, 2, 1", [placed(corner, 0, 4), e3, placed(step, 1, 4)], delta,
         "e1*e2*e1 != e1"),
        ("disjoint", [placed(cc, 0, 5), placed(cc, 3, 5)], delta, "e1*e2*e1 != e1"),
        ("core on no strand", [e1, placed(scalar_delta, 2, 4), e3], delta, "e1*e2*e1 != e1"),
        ("core on no strand at the end", [e1, e2, placed(scalar_one, 4, 4)], delta,
         "e3^2 != delta*e3"),
        ("d3", d3, delta3, None),
        ("d3 one entry", [d3[0], _changed(d3[1], r3, c3, GaussRat(1)), d3[2]], delta3,
         "e2^2 != delta*e2"),
        ("d3 disjoint", [placed(cc3, 0, 4), placed(cc3, 2, 4)], delta3, "e1*e2*e1 != e1"),
        ("dual", [t1, t2, t3], delta_t, None),
        ("dual one entry", [t1, t2, _changed(t3, rt, ct, slope)], delta_t, "e3^2 != delta*e3"),
        ("dual one copy", [t1, _dropped(t2, (0, 1)), t3], delta_t, "e1*e2*e1 != e1"),
        ("dual disjoint", [placed(cc_t, 0, 5), placed(cc_t, 3, 5)], delta_t, "e1*e2*e1 != e1"),
        ("dual overlap commuting", [t1, t2, t1], delta_t, None),
    ]


def test_broken_generators():
    cases = {name: case for name, *case in _broken_generator_lists()}
    for name, (gens, delta, message) in cases.items():
        assert _agree(gens, delta) == message, name
        # rebuilt from their rows, the generators are no placements, so each
        # is checked whole on all n strands, with the same verdict
        rebuilt = [LinearMap.from_rows(g.shape.d, g.shape.p, g.shape.q, g.ring, g.rows)
                   for g in gens]
        assert all(unplaced(g)[1] is g for g in rebuilt), name
        assert _agree(rebuilt, delta) == message, name
    # a changed copy is no placement, so its generator is checked whole
    for name in ("one entry", "one copy", "d3 one entry", "dual one entry", "dual one copy"):
        gens = cases[name][0]
        assert [unplaced(g)[1].shape.p for g in gens].count(4) == 1, name


@pytest.mark.parametrize("d", [2, 3])
def test_relations_are_checked_on_the_strands_they_touch(monkeypatch, d):
    # the bracket pair at 10 strands and the d = 3 identity pair at 6: every
    # packed map is on at most three strands, the union of two cup-caps
    if d == 2:
        pair = make_bracket_pair()
    else:
        pair = pair_from_matrix([[GaussRat(int(i == j)) for j in range(3)]
                                 for i in range(3)], GAUSS)
    gens = tl_generators(pair, rmatrix.max_strands(d))
    assert len(gens) == (9 if d == 2 else 5)
    dims, keys = [], []
    identity = Kernel.identity

    def spied_place(plan, step, span, acc):
        out = place(plan, step, span, acc)
        keys.extend(key for lane in (*acc, *out) for key in lane)
        return out

    def spied_identity(kern, size):
        dims.append(size)
        return identity(kern, size)

    monkeypatch.setattr(rmatrix, "place", spied_place)
    monkeypatch.setattr(Kernel, "identity", spied_identity)
    assert tl_first_failure(gens, delta0(pair)) is None
    # every product starts from an identity on at most three strands, and
    # every key row*size + col that a placement reads or writes is below
    # (d^3)^2
    assert max(dims) == d**3
    assert max(keys) < d**6


def test_wide_coefficients_and_exponents():
    # packed at a fixed 40-bit width, (1 + A) and 2^40 + 1 would be one int
    pair = make_bracket_pair()
    delta = delta0(pair)
    e1, e2, e3 = tl_generators(pair, 4)
    one_plus_a = LaurentA(((0, GaussRat(1)), (1, GaussRat(1))))
    assert _agree([e1.scale(one_plus_a), e2, e3], delta * WIDE) == "e1^2 != delta*e1"
    assert _agree([e.scale(WIDE) for e in (e1, e2, e3)], delta * WIDE) == "e1*e2*e1 != e1"
    assert _agree([e1, e2.scale(WIDE), e3], delta) == "e2^2 != delta*e2"
    far, near = LaurentA(((30, GaussRat(1)),)), LaurentA(((-30, GaussRat(1)),))
    assert _agree([e.scale(far) for e in (e1, e2, e3)], delta * far) == "e1*e2*e1 != e1"
    assert _agree([e1.scale(far), e2.scale(near), e3], delta) == "e1^2 != delta*e1"
    # scaling by a unit keeps every relation only if it squares to one
    assert _agree([e.scale(-1) for e in (e1, e2, e3)], -delta) is None


# ---------------------------------------------------------------------------
# Shared entries
# ---------------------------------------------------------------------------


def _fresh(x):
    """An equal scalar that is another object."""
    y = copy.deepcopy(x)
    assert y is not x and y == x
    return y


def _unshared(g: LinearMap) -> LinearMap:
    return LinearMap.from_rows(g.shape.d, g.shape.p, g.shape.q, g.ring,
                               [[_fresh(x) for x in row] for row in g.rows])


def _tl_family(name):
    """(pair, strands) for a Temperley-Lieb family above."""
    kind, _, which = name.partition("-")
    if kind == "gauge":
        return _gauged(random.Random(int(which))), 4
    rat = make_bracket_pair(RATFUN)
    if kind == "cocycle":
        cfg = (FIXTURES / f"cocycle_{which}.cfg").read_text()
        return deform(rat, *parse_cocycle_config(cfg, rat)), 3
    rows = [[RF(x) for x in row] for row in RATFUN_MATRICES[which]]
    return pair_from_matrix(rows, RATFUN), 3


TL_FAMILIES = [
    *(f"gauge-{seed}" for seed in range(6)),
    *(f"cocycle-{name}" for name in ("xx", "xy", "yx", "yy")),
    *(f"ratfun-{name}" for name in sorted(RATFUN_MATRICES)),
]


def _packing(kern: Kernel):
    return [(sm.scale, sm.norm, sorted((*m[:4], sorted(m[4].items())) for m in sm.moves))
            for sm in kern.maps]


@pytest.mark.parametrize("name", TL_FAMILIES)
def test_shared_entries_pack_as_fresh_ones(name):
    pair, n = _tl_family(name)
    gens = tl_generators(pair, n)
    # the placements of one cup-cap hold its entry objects only
    shared = {id(v) for g in gens for *_, v in g.nonzeros()}
    assert len(shared) == len(list(cupcap(pair).nonzeros()))
    delta = delta0(pair)
    got = Kernel.of([*gens, delta, GaussRat(1)])
    want = Kernel.of([*map(_unshared, gens), _fresh(delta), GaussRat(1)])
    assert got.lanes == want.lanes
    assert _packing(got) == _packing(want)


def test_each_distinct_entry_is_packed_once(monkeypatch):
    pair = make_bracket_pair()
    cc, delta = cupcap(pair), delta0(pair)
    products, mul = [], LaurentA.__mul__

    def counted(x, y):
        products.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(rmatrix, "cupcap", lambda _: cc)
    monkeypatch.setattr(LaurentA, "__mul__", counted)
    monkeypatch.setattr(LaurentA, "__rmul__", counted)
    gens = tl_generators(pair, 6)
    assert products == []
    monkeypatch.undo()

    # _packed moves each Laurent part it packs into LAURENT: one call per
    # distinct cup-cap entry, and one each for delta and the scale's 1
    packed, into = [], _packed.into_ring

    def converted(x, ring):
        packed.append(x)
        return into(x, ring)

    monkeypatch.setattr(_packed, "into_ring", converted)
    assert tl_first_failure(gens, delta) is None
    assert len(packed) <= len(list(cc.nonzeros())) + 2


def _mismatched():
    pair = make_bracket_pair()
    delta = delta0(pair)
    three, four = tl_generators(pair, 3), tl_generators(pair, 4)
    d3 = tl_generators(pair_from_matrix([[GaussRat(int(i == j)) for j in range(3)]
                                         for i in range(3)], GAUSS), 3)
    rat = tl_generators(make_bracket_pair(RATFUN), 3)
    bent = LinearMap.zero(2, 3, 2, LAURENT)
    return {
        "strand counts": (three[:1] + four[1:2], delta),
        "strand counts after a failure": ([three[0].scale(2), four[1]], delta),
        "not square": ([bent, *three], delta),
        "delta ring": (three, into_ring(delta, RATFUN)),
        "generator rings": ([three[0], rat[1]], delta),
        "dimensions": ([three[0], *d3[1:]], delta),
        "int delta": ([three[0], rat[1]], 2),
        "int delta alone": (three, 2),
        "zero maps over two rings": ([LinearMap.zero(2, 3, 3, LAURENT),
                                      LinearMap.zero(2, 3, 3, RATFUN)], 2),
        "commuting strands": ([*four, three[0]], delta),
    }


# the gate's error for each case: the first generator, in order, whose shape
# or ring is not e1's, else delta's ring; an int delta has no ring to name
_SHAPES, _RINGS = "Temperley-Lieb: shapes differ,", "Temperley-Lieb: rings differ,"
TL_GATE = {
    "strand counts": (ShapeMismatchError, f"{_SHAPES} e2 (d=2, 4->4) vs e1 (d=2, 3->3)"),
    "strand counts after a failure":
        (ShapeMismatchError, f"{_SHAPES} e2 (d=2, 4->4) vs e1 (d=2, 3->3)"),
    "not square": (ShapeMismatchError, "Temperley-Lieb: e1 has shape (d=2, 3->2), not square"),
    "delta ring": (RingMismatchError, f"{_RINGS} delta ratfun vs e1 laurent"),
    "generator rings": (RingMismatchError, f"{_RINGS} e2 ratfun vs e1 laurent"),
    "dimensions": (ShapeMismatchError, f"{_SHAPES} e2 (d=3, 3->3) vs e1 (d=2, 3->3)"),
    "int delta": (RingMismatchError, f"{_RINGS} e2 ratfun vs e1 laurent"),
    "int delta alone": (RingMismatchError, "not a scalar of the tower: 2"),
    "zero maps over two rings": (RingMismatchError, f"{_RINGS} e2 ratfun vs e1 laurent"),
    "commuting strands": (ShapeMismatchError, f"{_SHAPES} e4 (d=2, 3->3) vs e1 (d=2, 4->4)"),
}


def _nothing_is_built(monkeypatch):
    def built(*args, **kwargs):
        pytest.fail("malformed input reached the kernel or the linear maps")

    for name in ("Kernel", "compose", "placed", "unplaced"):
        monkeypatch.setattr(rmatrix, name, built)


@pytest.mark.parametrize("case", sorted(_mismatched()))
def test_tl_gate_refuses_malformed_input_before_packing(monkeypatch, case):
    gens, delta = _mismatched()[case]
    error, message = TL_GATE[case]
    _nothing_is_built(monkeypatch)
    with pytest.raises(error) as got:
        tl_first_failure(gens, delta)
    assert type(got.value) is error
    assert str(got.value) == message


# ---------------------------------------------------------------------------
# Yang-Baxter
# ---------------------------------------------------------------------------


def _same(got: LinearMap, want: LinearMap):
    assert (got.shape, got.ring) == (want.shape, want.ring)
    assert equal(got, want)


def _perturbed(R: LinearMap, r: int, c: int, by) -> LinearMap:
    rows = [list(row) for row in R.rows]
    rows[r][c] = rows[r][c] + by
    return LinearMap.from_rows(R.shape.d, R.shape.p, R.shape.q, R.ring, rows)


def _ybe_cases():
    pair = make_bracket_pair()
    bracket = build_R(pair, LaurentA(((1, GaussRat(1)),)), LaurentA(((-1, GaussRat(1)),)))
    rat = make_bracket_pair(RATFUN)
    ratfun = build_R(rat, RF("( 2*A )/( 3 - i*A )"), RF("( 2*A^-1 )/( 3 - i*A )"))
    phi = parse_cocycle_config((FIXTURES / "cocycle_xy.cfg").read_text(), rat)
    deformed_pair = deform(rat, *phi)
    deformed = build_R(deformed_pair, *solve_deformed_coefficients(deformed_pair))
    t = Dual(RATFUN.zero(), RF("A"))
    rng = random.Random(5)
    pool = [RF(x) for x in ("0", "0", "0", "1", "-2", "i*A", "( 1 )/( 1 + A )", "( A^2 )/( 3 - i*A )")]
    d3 = LinearMap.from_rows(3, 2, 2, RATFUN,
                             [[rng.choice(pool) for _ in range(9)] for _ in range(9)])
    far = LaurentA(((30, GaussRat(1)),))
    at = GaussRat(3, 1) / 2
    gauss = build_R(pair.specialize(at), at, at.inv())
    return {
        "bracket": bracket.R,
        "bracket inverse": bracket.Rinv,
        "bracket perturbed": _perturbed(bracket.R, 0, 0, LAURENT.one()),
        "ratfun": ratfun.R,
        "ratfun perturbed": _perturbed(ratfun.R, 1, 2, RF("( 1 )/( 1 - A )")),
        "deformed": deformed.R,
        "deformed slope": _perturbed(deformed.R, 3, 3, t),
        "gauss perturbed": _perturbed(gauss.R, 2, 1, GaussRat(0, 1)),
        "wide": _perturbed(bracket.R, 1, 2, LAURENT.one()).scale(WIDE),
        # one entry per column: every product of three has |.| = WIDE^3,
        # the bound itself, so a narrower digit would misread the residual
        "wide cycle": LinearMap.from_rows(2, 2, 2, LAURENT, [
            [LAURENT.one() * WIDE if c == (1, 2, 0, 3)[r] else LAURENT.zero()
             for c in range(4)] for r in range(4)]),
        "far": _perturbed(bracket.R, 2, 2, far),
        "d3 random": d3,
    }


@pytest.mark.parametrize("case", sorted(_ybe_cases()))
def test_ybe_residual_matches_the_reference(case):
    R = _ybe_cases()[case]
    want = reference.ybe_residual(R)
    _same(ybe_residual(R), want)
    assert want.is_zero() == (case in {"bracket", "bracket inverse", "ratfun", "deformed"})


@pytest.mark.parametrize("shape", [(3, 3), (2, 1), (1, 2), (0, 2), (4, 4), (1, 1), (0, 0)])
def test_ybe_refuses_every_shape_but_two_strands(monkeypatch, shape):
    p, q = shape
    far = LaurentA(((30, GaussRat(1)),))
    R = LinearMap.from_rows(2, p, q, LAURENT, [[far] * 2**p for _ in range(2**q)])
    _nothing_is_built(monkeypatch)
    with pytest.raises(ShapeMismatchError) as got:
        ybe_residual(R)
    assert str(got.value) == f"Yang-Baxter: R has shape (d=2, {p}->{q}), not (d=2, 2->2)"
