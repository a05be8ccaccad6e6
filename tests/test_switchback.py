"""Switchback pairs, their cochain complex, cohomology, and deformations."""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinlab import linmap
from skeinlab.linmap import LinearMap, compose, map_apply, map_specialize
from skeinlab.scalars import (
    GAUSS,
    LAURENT,
    RATFUN,
    A,
    Dual,
    GaussRat,
    I,
    LaurentA,
    RingMismatchError,
    ScalarSyntaxError,
    dual,
    into_ring,
    parse_scalar,
)
from skeinlab.switchback import (
    C1,
    C2,
    C3,
    D3,
    CohomologyDims,
    Degree2Report,
    NotACocycleError,
    PairConfigError,
    SwitchbackError,
    SwitchbackPair,
    bracket_cocycle,
    cochain_coords,
    cochain_from_coords,
    cohomology_dims,
    d1_matrix,
    d2,
    d2_matrix,
    d3_matrix,
    deform,
    deformation_obstruction,
    degree2_analysis,
    delta0,
    make_bracket_pair,
    pair_from_matrix,
    parse_cocycle_config,
    parse_pair_config,
    solve_2cocycles,
    verify_switchback,
)

from reference import kernel_basis, kron, zigzags

RF = lambda text: parse_scalar(text, RATFUN)  # noqa: E731

FIXTURES = Path(__file__).parent.parent / "src" / "skeinlab" / "fixtures"


def _bracket():
    return make_bracket_pair(RATFUN)


def _random_pair(rng, d=2, ring=RATFUN):
    while True:
        rows = [
            [ring.from_int(rng.randint(-5, 5)) for _ in range(d)] for _ in range(d)
        ]
        try:
            return pair_from_matrix(rows, ring)
        except SwitchbackError:
            continue


# ---------------------------------------------------------------------------
# the pair itself
# ---------------------------------------------------------------------------


def test_bracket_pair_satisfies_switchback():
    pair = make_bracket_pair()
    one = pair.id1()
    assert zigzags(pair.pairing, pair.copairing) == (one, one)
    assert verify_switchback(pair)


def test_bracket_loop_value():
    assert delta0(make_bracket_pair()) == parse_scalar("-A^-2 - A^2", LAURENT)


def test_pair_from_matrix_and_rejection():
    rng = random.Random(0)
    for _ in range(5):
        assert verify_switchback(_random_pair(rng))
    singular = [[GAUSS.one(), GAUSS.one()], [GAUSS.one(), GAUSS.one()]]
    with pytest.raises(SwitchbackError):
        pair_from_matrix(singular, GAUSS)


def test_pair_promote_and_specialize():
    pair = make_bracket_pair()
    up = pair.into_ring(RATFUN)
    assert up.ring is RATFUN and verify_switchback(up)
    assert up.into_ring(LAURENT) == pair
    low = pair.specialize(GaussRat(2))
    assert low.ring is GAUSS and verify_switchback(low)


def test_specialize_refuses_a_pair_with_no_A():
    low = make_bracket_pair().specialize(GaussRat(2))
    with pytest.raises(SwitchbackError, match="^the pair is already specialized at A = 2$"):
        low.specialize(GaussRat(3, 1) / 2)
    with pytest.raises(SwitchbackError, match="^the pair is already specialized at A = 2$"):
        low.into_ring(RATFUN).specialize(GaussRat(3))
    # a pair file over gauss: its entries were written for some other A
    written = parse_pair_config(
        "dimension = 2\nring = gauss\nbeta = 0, 2i, -1/2i, 0\ngamma = 0; 2i; -1/2i; 0\n"
    )
    for pair in (written, written.into_ring(dual(GAUSS))):
        with pytest.raises(SwitchbackError, match=f"^a pair over {pair.ring} has no A to specialize$"):
            pair.specialize(GaussRat(3))


# ---------------------------------------------------------------------------
# coordinates
# ---------------------------------------------------------------------------


def _distinct(n):
    # nonzero and pairwise different, so every slot is visible
    return [GAUSS.from_int(k + 1) for k in range(n)]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("arities", [C1, C2, C3], ids=["C1", "C2", "C3"])
def test_cochain_coords_round_trip(arities, d):
    coords = _distinct(sum(d ** (p + q) for p, q in arities))
    maps = cochain_from_coords(coords, d, GAUSS, arities)
    assert [(m.shape.p, m.shape.q) for m in maps] == list(arities)
    assert cochain_coords(*maps) == coords


@pytest.mark.parametrize("d", [2, 3])
def test_cochain_coords_order(d):
    n = d * d
    coords = _distinct(2 * n)
    # C1: index inp*d + out holds entry(out, inp)
    (eta,) = cochain_from_coords(coords[:n], d, GAUSS, C1)
    for inp in range(d):
        for out in range(d):
            assert eta.entry(out, inp) == coords[inp * d + out]
    # C2: the pairing row, then the copairing column
    phi1, phi2 = cochain_from_coords(coords, d, GAUSS, C2)
    assert [phi1.entry(0, j) for j in range(n)] == coords[:n]
    assert [phi2.entry(i, 0) for i in range(n)] == coords[n:]
    # C3: two C1 blocks
    xi1, xi2 = cochain_from_coords(coords, d, GAUSS, C3)
    assert (xi1,) == cochain_from_coords(coords[:n], d, GAUSS, C1)
    assert (xi2,) == cochain_from_coords(coords[n:], d, GAUSS, C1)


# ---------------------------------------------------------------------------
# the complex
# ---------------------------------------------------------------------------


def _mat_mul(a, b, ring):
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(len(b))), ring.zero())
            for j in range(len(b[0]))
        ]
        for i in range(len(a))
    ]


def _is_zero_matrix(m):
    return all(e.is_zero() for row in m for e in row)


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
def test_differentials_compose_to_zero(seed):
    pair = _bracket() if seed is None else _random_pair(random.Random(seed))
    m1, m2, m3 = d1_matrix(pair), d2_matrix(pair), d3_matrix(pair)
    assert _is_zero_matrix(_mat_mul(m2, m1, pair.ring))
    assert _is_zero_matrix(_mat_mul(m3, m2, pair.ring))


def test_differentials_compose_to_zero_d3():
    pair = _random_pair(random.Random(6), d=3)
    m1, m2, m3 = d1_matrix(pair), d2_matrix(pair), d3_matrix(pair)
    assert _is_zero_matrix(_mat_mul(m2, m1, pair.ring))
    assert _is_zero_matrix(_mat_mul(m3, m2, pair.ring))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=4, max_size=4))
def test_d2_after_d1_vanishes_on_maps(entries):
    pair = _bracket()
    eta = LinearMap.from_rows(
        2, 1, 1, RATFUN,
        [[RATFUN.from_int(e) for e in entries[:2]],
         [RATFUN.from_int(e) for e in entries[2:]]],
    )
    phi1, phi2 = D3(pair, eta, eta)
    xi1, xi2 = d2(pair, phi1, phi2)
    assert xi1.is_zero() and xi2.is_zero()
    # and the coboundary is (by the same token) killed by the coordinate matrix
    assert all(
        sum((c * x for c, x in zip(row, cochain_coords(phi1, phi2))), RATFUN.zero()).is_zero()
        for row in d2_matrix(pair)
    )


def test_cohomology_dimensions():
    dims = cohomology_dims(_bracket())
    assert (dims.z1, dims.b2, dims.z2, dims.b3, dims.z3, dims.b4) == (1, 3, 4, 4, 4, 4)
    assert (dims.h1, dims.h2, dims.h3) == (1, 1, 0)


@pytest.mark.parametrize("value", [2, 3])
def test_cohomology_dimensions_specialized(value):
    pair = make_bracket_pair().specialize(GaussRat(value))
    dims = cohomology_dims(pair)
    assert (dims.z1, dims.b2, dims.z2, dims.b3, dims.z3, dims.b4,
            dims.h1, dims.h2, dims.h3) == (1, 3, 4, 4, 4, 4, 1, 1, 0)


def test_z1_is_spanned_by_scaled_identity():
    pair = _bracket()
    ker = kernel_basis(d1_matrix(pair), pair.ring)
    assert len(ker) == 1
    eta = ker[0]
    # coordinates of the identity map direction
    one_coords = [RF("1"), RF("0"), RF("0"), RF("1")]
    scale = next(c for c in eta if not c.is_zero())
    assert [c * scale.inv() for c in eta] == one_coords
    (eta_map,) = cochain_from_coords(eta, 2, RATFUN, C1)
    r1, r2 = D3(pair, eta_map, eta_map)
    assert r1.is_zero() and r2.is_zero()


# ---------------------------------------------------------------------------
# cocycle structure
# ---------------------------------------------------------------------------


def _relations_hold(pair, phi1, phi2):
    a2, am2 = RF("( A^2 )/( 1 )"), RF("( A^-2 )/( 1 )")
    b = cochain_coords(phi1, phi2)
    bxx, bxy, byx, byy, gxx, gxy, gyx, gyy = b
    return (
        gyy == -bxx
        and gxx == -byy
        and gyx == am2 * bxy
        and gxy == a2 * byx
    )


def test_z2_basis_relations():
    pair = _bracket()
    basis = solve_2cocycles(pair)
    assert len(basis) == 4
    for phi1, phi2 in basis:
        assert _relations_hold(pair, phi1, phi2)
    # relations are linear, so they persist on a random combination
    rng = random.Random(7)
    coeffs = [RATFUN.from_int(rng.randint(-5, 5)) for _ in basis]
    combo = [RATFUN.zero()] * 8
    for c, (p1, p2) in zip(coeffs, basis):
        combo = [x + c * y for x, y in zip(combo, cochain_coords(p1, p2))]
    assert _relations_hold(pair, *cochain_from_coords(combo, 2, RATFUN, C2))


def test_z3_relations():
    pair = _bracket()
    sols = [
        cochain_from_coords(v, 2, RATFUN, C3) for v in kernel_basis(d3_matrix(pair), RATFUN)
    ]
    assert len(sols) == 4
    a2, am2 = RF("( A^2 )/( 1 )"), RF("( A^-2 )/( 1 )")
    for xi1, xi2 in sols:
        assert xi2.entry(0, 0) == xi1.entry(1, 1)
        assert xi2.entry(1, 1) == xi1.entry(0, 0)
        assert xi2.entry(1, 0) == -am2 * xi1.entry(1, 0)
        assert xi2.entry(0, 1) == -a2 * xi1.entry(0, 1)


def test_bracket_cocycle_needs_a_two_dimensional_pair():
    pair = _random_pair(random.Random(3), d=3)
    with pytest.raises(SwitchbackError, match="need d = 2, got d = 3"):
        bracket_cocycle(pair, *[RATFUN.one()] * 4)


def test_bracket_cocycle_constructor_lands_in_kernel():
    pair = _bracket()
    rng = random.Random(8)
    coords = [RATFUN.from_int(rng.randint(-9, 9)) for _ in range(4)]
    phi1, phi2 = bracket_cocycle(pair, *coords)
    xi1, xi2 = d2(pair, phi1, phi2)
    assert xi1.is_zero() and xi2.is_zero()


# ---------------------------------------------------------------------------
# the bent-matrix formulas against the diagrams they stand for.  The
# reference pads with identities and composes V^3 tensors, as the pictures
# read; it shares only compose with the module under test.
# ---------------------------------------------------------------------------


def _diagram_d2(pair, phi1, phi2):
    x1, x2 = zigzags(pair.pairing, phi2)
    y1, y2 = zigzags(phi1, pair.copairing)
    return x1 + y1, x2 + y2


def _diagram_D3(pair, xi1, xi2):
    b, g, one = pair.pairing, pair.copairing, pair.id1()
    return (
        compose(b, kron(xi1, one)) - compose(b, kron(one, xi2)),
        compose(kron(xi2, one), g) - compose(kron(one, xi1), g),
    )


def _diagram_matrix(pair, differential, domain):
    n = sum(pair.d ** (p + q) for p, q in domain)
    z, o = pair.ring.zero(), pair.ring.one()
    cols = [
        cochain_coords(*differential(
            pair, *cochain_from_coords([o if j == k else z for j in range(n)],
                                       pair.d, pair.ring, domain)
        ))
        for k in range(n)
    ]
    return [[col[r] for col in cols] for r in range(len(cols[0]))]


def _entry(rng, ring):
    if ring.name == "dual":
        return Dual(_entry(rng, ring.base), _entry(rng, ring.base))
    k = ring.from_int(rng.randint(-3, 3))
    if ring is GAUSS:
        return k + GaussRat(0, rng.randint(-1, 1))
    return k * into_ring(A ** rng.randint(-2, 2), ring)


def _generic_pair(rng, d, ring):
    while True:
        try:
            return pair_from_matrix(
                [[_entry(rng, ring) for _ in range(d)] for _ in range(d)], ring
            )
        except SwitchbackError:
            continue


def _pair_and_coboundary(d, ring, seed):
    """A random pair and a random coboundary of it, which is a 2-cocycle
    (computed by the diagram reference)."""
    rng = random.Random(seed)
    pair = _generic_pair(rng, d, ring)
    (eta,) = cochain_from_coords([_entry(rng, ring) for _ in range(d * d)], d, ring, C1)
    return rng, pair, _diagram_D3(pair, eta, eta)


@pytest.mark.parametrize("deformed", [False, True], ids=["pair", "deformed"])
@pytest.mark.parametrize(
    "d, ring",
    [(1, GAUSS), (2, GAUSS), (2, RATFUN), (3, GAUSS), (3, RATFUN), (4, GAUSS)],
    ids=["1-gauss", "2-gauss", "2-ratfun", "3-gauss", "3-ratfun", "4-gauss"],
)
def test_bent_matrix_complex_matches_diagrams(d, ring, deformed):
    rng, pair, phi = _pair_and_coboundary(d, ring, f"{d}-{ring}")
    if deformed:
        pair = deform(pair, *phi)
    one = pair.id1()
    assert verify_switchback(pair)
    assert zigzags(pair.pairing, pair.copairing) == (one, one)
    for _ in range(3):
        c2 = cochain_from_coords(
            [_entry(rng, pair.ring) for _ in range(2 * d * d)], d, pair.ring, C2
        )
        c3 = cochain_from_coords(
            [_entry(rng, pair.ring) for _ in range(2 * d * d)], d, pair.ring, C3
        )
        assert d2(pair, *c2) == _diagram_d2(pair, *c2)
        assert D3(pair, *c3) == _diagram_D3(pair, *c3)
    assert d1_matrix(pair) == _diagram_matrix(pair, lambda p, e: _diagram_D3(p, e, e), C1)
    assert d2_matrix(pair) == _diagram_matrix(pair, _diagram_d2, C2)
    assert d3_matrix(pair) == _diagram_matrix(pair, _diagram_D3, C3)


@pytest.mark.parametrize(
    "d, ring",
    [(2, GAUSS), (2, RATFUN), (3, GAUSS), (3, RATFUN)],
    ids=["2-gauss", "2-ratfun", "3-gauss", "3-ratfun"],
)
def test_degree2_residual_matches_diagrams(d, ring):
    _, pair, phi = _pair_and_coboundary(d, ring, f"psi-{d}-{ring}")
    report = degree2_analysis(pair, *phi)
    psi = zigzags(*phi)
    assert not (psi[0].is_zero() and psi[1].is_zero())
    assert (report.psi1, report.psi2) == psi


# ---------------------------------------------------------------------------
# the cocycle rule against an elimination of the whole d2 matrix
# ---------------------------------------------------------------------------

_RULE_PAIRS = {
    "bracket": _bracket,
    "A=2": lambda: make_bracket_pair().specialize(GaussRat(2)),
    "A=3": lambda: make_bracket_pair().specialize(GaussRat(3)),
    **{
        f"{d}-{ring}": (lambda d=d, ring=ring: _generic_pair(random.Random(f"rule-{d}"), d, ring))
        for d in (1, 2, 3, 4) for ring in (GAUSS, RATFUN)
    },
}


@pytest.mark.parametrize("name", list(_RULE_PAIRS))
def test_cocycle_rule_matches_elimination(name):
    # one elimination of [d2 | psi].  rref reduces column by column, so the
    # appended column leaves the reduced d2 columns as they are: the kernel
    # vectors with a trailing 0 are kernel_basis(d2) in order, and the one
    # with a trailing 1 is the solution of d2 x = -psi whose free
    # coordinates are 0
    pair = _RULE_PAIRS[name]()
    ring, n = pair.ring, pair.d**2
    basis = solve_2cocycles(pair)
    rng = random.Random(name)
    phi = [ring.zero()] * (2 * n)
    for phi1, phi2 in basis:
        c = ring.from_int(rng.randint(-3, 3))
        phi = [x + c * y for x, y in zip(phi, cochain_coords(phi1, phi2))]
    report = degree2_analysis(pair, *cochain_from_coords(phi, pair.d, ring, C2))
    psi = cochain_coords(report.psi1, report.psi2)
    kernel = kernel_basis([row + [p] for row, p in zip(d2_matrix(pair), psi)], ring)
    z, o = ring.zero(), ring.one()
    assert [cochain_coords(*c) + [z] for c in basis] == kernel[:n]
    assert kernel[n:] == [cochain_coords(*report.extension) + [o]]


# ---------------------------------------------------------------------------
# cohomology_dims and verify_switchback against their definitions
# ---------------------------------------------------------------------------


def _symmetric_pair(rng, d, ring):
    while True:
        rows = [[None] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                rows[i][j] = rows[j][i] = _entry(rng, ring)
        try:
            return pair_from_matrix(rows, ring)
        except SwitchbackError:
            continue


_DIMS_PAIRS = {
    "bracket": _bracket,
    "A=2": lambda: make_bracket_pair().specialize(GaussRat(2)),
    "A=3": lambda: make_bracket_pair().specialize(GaussRat(3)),
    **{
        f"{kind}-{d}-{ring}": (
            lambda make=make, d=d, ring=ring: make(random.Random(f"dims-{d}"), d, ring)
        )
        for kind, make in (("random", _generic_pair), ("symmetric", _symmetric_pair))
        for d in (2, 3) for ring in (GAUSS, RATFUN)
    },
}


@pytest.mark.parametrize("name", list(_DIMS_PAIRS))
def test_cohomology_dims_match_kernels_of_the_full_matrices(name, monkeypatch):
    pair = _DIMS_PAIRS[name]()
    ring, n = pair.ring, pair.d**2
    shapes, rref = [], linmap.rref

    def counted(rows, ring):
        shapes.append((len(rows), len(rows[0])))
        return rref(rows, ring)

    monkeypatch.setattr(linmap, "rref", counted)
    dims = cohomology_dims(pair)
    monkeypatch.undo()
    assert shapes == [(n, n)]
    z1, z2, z3 = (
        len(kernel_basis(m, ring)) for m in (d1_matrix(pair), d2_matrix(pair), d3_matrix(pair))
    )
    b2, b3, b4 = n - z1, 2 * n - z2, 2 * n - z3
    assert dims == CohomologyDims(z1, b2, z1, z2, b3, z2 - b2, z3, b4, z3 - b3)
    # for a symmetric B, d1 eta = 0 exactly when B eta is symmetric
    expected_z1 = {"bracket": 1, "A=2": 1, "A=3": 1, "symmetric": pair.d * (pair.d + 1) // 2}
    kind = name.split("-")[0]
    if kind in expected_z1:
        assert dims.z1 == expected_z1[kind]


def _laurent_gauges(rng):
    """The bracket pair under pairing(x, y) -> c pairing(Dx, Dy), for D
    diagonal and c, D Laurent monomials with unit coefficients; gauged
    back by c^-1 and D^-1, the copairing makes a switchback pair, and
    gauged by c instead it makes one that fails."""
    pair = make_bracket_pair()
    units = (GaussRat(1), GaussRat(-1), I, -I)

    def monomial():
        return LaurentA(((rng.randint(-4, 4), rng.choice(units)),))

    dg, c = [monomial() for _ in range(2)], monomial()
    b = [c * pair.pairing.entry(0, 2 * i + j) * dg[i] * dg[j]
         for i in range(2) for j in range(2)]
    for cg in (c.inv(), c):
        g = [[cg * pair.copairing.entry(2 * i + j, 0) * dg[i].inv() * dg[j].inv()]
             for i in range(2) for j in range(2)]
        yield SwitchbackPair(
            2, LAURENT,
            LinearMap.from_rows(2, 2, 0, LAURENT, [b]),
            LinearMap.from_rows(2, 0, 2, LAURENT, g),
        )


def _zig_zag_cases():
    rng = random.Random("zig-zag")
    for d in (1, 2, 3):
        for ring in (GAUSS, RATFUN):
            pair = _generic_pair(rng, d, ring)
            yield pair
            n = d * d
            # a singular pairing, with an invertible pair's copairing
            b = [[_entry(rng, ring) for _ in range(n)]]
            b[0][n - d:] = [ring.zero()] * d
            yield SwitchbackPair(d, ring, LinearMap.from_rows(d, 2, 0, ring, b), pair.copairing)
            # the copairing twice the inverse
            two = ring.from_int(2)
            yield SwitchbackPair(d, ring, pair.pairing, pair.copairing.scale(two))
            if d > 1:
                for phi in (
                    solve_2cocycles(pair)[rng.randrange(n)],
                    cochain_from_coords([_entry(rng, ring) for _ in range(2 * n)], d, ring, C2),
                ):
                    yield deform(pair, *phi)
    yield parse_pair_config((Path(__file__).parent / "golden" / "broken.pair").read_text())
    for _ in range(3):
        yield from _laurent_gauges(rng)


def test_verify_switchback_is_both_residuals_zero():
    verdicts = set()
    for pair in _zig_zag_cases():
        one = pair.id1()
        z1, z2 = zigzags(pair.pairing, pair.copairing)
        ok = verify_switchback(pair)
        verdicts.add((pair.ring.name, ok))
        assert ok == (z1 == one) == (z2 == one)
    assert verdicts == {(r, v) for r in ("gauss", "ratfun", "laurent", "dual") for v in (True, False)}


def test_laurent_pair_has_the_cocycles_of_its_ratfun_widening():
    def widen(maps):
        return tuple(map_apply(m, lambda x: into_ring(x, RATFUN), RATFUN) for m in maps)

    laurent = solve_2cocycles(make_bracket_pair())
    assert all(m.ring is LAURENT for c in laurent for m in c)
    assert [widen(c) for c in laurent] == solve_2cocycles(_bracket())
    ext = degree2_analysis(make_bracket_pair(), *laurent[1]).extension
    assert widen(ext) == degree2_analysis(_bracket(), *widen(laurent[1])).extension


def test_cocycles_of_a_deformed_pair_are_computed_over_the_dual_ring():
    pair = deform(_bracket(), *solve_2cocycles(_bracket())[1])
    basis = solve_2cocycles(pair)
    assert len(basis) == 4
    for phi1, phi2 in basis:
        assert phi1.ring is dual(RATFUN)
        xi1, xi2 = d2(pair, phi1, phi2)
        assert xi1.is_zero() and xi2.is_zero()


def test_bracket_cocycle_is_a_cocycle_of_any_two_dimensional_pair():
    rng = random.Random(9)
    for ring in (GAUSS, RATFUN):
        pair = _generic_pair(rng, 2, ring)
        coords = [ring.from_int(rng.randint(-9, 9)) for _ in range(4)]
        xi1, xi2 = d2(pair, *bracket_cocycle(pair, *coords))
        assert xi1.is_zero() and xi2.is_zero()


BROKEN = "dimension = 2\nring = gauss\nbeta = 1, 0, 0, 1\ngamma = 1; 0; 0; 2\n"


def test_the_cocycle_rule_refuses_a_pair_that_is_not_switchback():
    pair = parse_pair_config(BROKEN)
    zero = (LinearMap.zero(2, 2, 0, GAUSS), LinearMap.zero(2, 0, 2, GAUSS))
    message = "^the pair fails the switchback conditions$"
    for call in (
        lambda: solve_2cocycles(pair),
        lambda: degree2_analysis(pair, *zero),
        lambda: bracket_cocycle(pair, *[GAUSS.one()] * 4),
        # on this pair d2 o d1 != 0, so its matrices form no complex
        lambda: cohomology_dims(pair),
    ):
        with pytest.raises(SwitchbackError, match=message):
            call()


# ---------------------------------------------------------------------------
# deformation
# ---------------------------------------------------------------------------


def test_deform_by_cocycles_keeps_switchback():
    pair = _bracket()
    for phi1, phi2 in solve_2cocycles(pair):
        pt = deform(pair, phi1, phi2)
        assert pt.ring is dual(RATFUN)
        assert verify_switchback(pt)


def test_non_cocycle_obstruction_equals_differential():
    pair = _bracket()
    coords = [RATFUN.zero()] * 8
    coords[4] = RATFUN.one()  # copairing slope alone violates the relations
    phi1, phi2 = cochain_from_coords(coords, 2, RATFUN, C2)
    pt = deform(pair, phi1, phi2)
    assert not verify_switchback(pt)
    xi1, xi2 = deformation_obstruction(pair, phi1, phi2)
    e1, e2 = d2(pair, phi1, phi2)
    assert (xi1 - e1).is_zero() and (xi2 - e2).is_zero()
    assert not (xi1.is_zero() and xi2.is_zero())


def test_obstruction_rejects_a_pair_that_is_not_switchback():
    pair = parse_pair_config(
        "dimension = 2\nring = gauss\nbeta = 1, 0, 0, 1\ngamma = 1; 0; 0; 2\n"
    )
    phi1, phi2 = LinearMap.zero(2, 2, 0, GAUSS), LinearMap.zero(2, 0, 2, GAUSS)
    with pytest.raises(SwitchbackError, match="^the pair fails the switchback conditions$"):
        deformation_obstruction(pair, phi1, phi2)


def test_degree2_analysis_on_basis():
    pair = _bracket()
    for phi1, phi2 in solve_2cocycles(pair):
        report = degree2_analysis(pair, phi1, phi2)
        assert isinstance(report, Degree2Report)
        assert report.is_cocycle
        r1, r2 = D3(pair, report.psi1, report.psi2)
        assert r1.is_zero() and r2.is_zero()
        assert report.extension is not None
        e1, e2 = d2(pair, *report.extension)
        assert (e1 + report.psi1).is_zero()
        assert (e2 + report.psi2).is_zero()


def test_degree2_analysis_rejects_non_cocycles():
    pair = _bracket()
    coords = [RATFUN.zero()] * 8
    coords[0] = RATFUN.one()
    with pytest.raises(NotACocycleError):
        degree2_analysis(pair, *cochain_from_coords(coords, 2, RATFUN, C2))


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

BRACKET_CFG = """\
dimension = 2
ring = laurent
beta = 0, i*A, -i*A^-1, 0
gamma = 0; i*A; -i*A^-1; 0
"""


def test_pair_config_roundtrip():
    pair = parse_pair_config(BRACKET_CFG)
    ref = make_bracket_pair()
    assert pair.d == ref.d and pair.ring is ref.ring
    assert (pair.pairing - ref.pairing).is_zero()
    assert (pair.copairing - ref.copairing).is_zero()


def test_bundled_bracket_pair_is_make_bracket_pair():
    # cli's bracket model is make_bracket_pair(); the fixture must agree
    assert parse_pair_config((FIXTURES / "bracket.pair").read_text()) == make_bracket_pair()


@pytest.mark.parametrize(
    "text, message",
    [
        ("dimension = 2\nring = laurent\nbeta = 0, i*A, -i*A^-1, 0\n", "missing"),
        ("dimension = x\nring = laurent\nbeta = 1\ngamma = 1\n", "integer"),
        (BRACKET_CFG + "dimension = 2\n", "duplicate"),
        ("dimension = 2\nring = laurent\nbeta = 0, i*A\ngamma = 0; i*A; -i*A^-1; 0\n",
         "beta must be"),
        ("dimension = 2\nring = laurent\nbeta = 0, i*A, -i*A^-1, 0\ngamma = 0; 1, 2\n",
         "^<config>: gamma: ragged matrix literal$"),
        (BRACKET_CFG + "gama = 1\n", "^<config>:5: unknown key 'gama'$"),
        ("no equals sign here\n", "key = value"),
        # d = -1 with 1 x 1 literals would pass the d^2 = 1 size checks
        ("dimension = -1\nring = gauss\nbeta = 1\ngamma = 1\n", "at least 1, got -1"),
        ("dimension = 0\nring = gauss\nbeta = 1\ngamma = 1\n", "at least 1, got 0"),
        ("= 2\n", "^<config>:1: empty key or value$"),
        ("dimension = 2\nring =\n", "^<config>:2: empty key or value$"),
        ('dimension = ""\n', "^<config>:1: empty key or value$"),
        ("dimension = 2\nring = gauss\nbeta = 1, 0, 0, 1\ngamma = 1, 0; 0, 1; 0, 0; 1, 0\n",
         "^<config>: gamma must be 4 x 1$"),
        ("dimension = 2\nring = gauss\nbeta = 1, 0, 0, 1\ngamma = 1; 0; 0\n",
         "^<config>: gamma must be 4 x 1$"),
    ],
)
def test_pair_config_errors(text, message):
    with pytest.raises(PairConfigError, match=message):
        parse_pair_config(text)


def _whole(message):
    return f"^{re.escape(message)}$"


def test_pair_refuses_maps_of_the_wrong_shape_or_ring():
    pair = make_bracket_pair()
    b, g = pair.pairing, pair.copairing
    widened = pair.into_ring(RATFUN).copairing
    cases = [
        (SwitchbackError, "pairing has shape (d=2, 0->2), expected (d=2, 2->0)",
         lambda: SwitchbackPair(2, LAURENT, g, g)),
        (SwitchbackError, "copairing has shape (d=2, 2->0), expected (d=2, 0->2)",
         lambda: SwitchbackPair(2, LAURENT, b, b)),
        (SwitchbackError, "pairing has shape (d=2, 2->0), expected (d=3, 2->0)",
         lambda: SwitchbackPair(3, LAURENT, b, g)),
        (RingMismatchError, "pairing is over laurent, pair declared over ratfun",
         lambda: SwitchbackPair(2, RATFUN, b, g)),
        (RingMismatchError, "copairing is over ratfun, pair declared over laurent",
         lambda: SwitchbackPair(2, LAURENT, b, widened)),
    ]
    for error, message, call in cases:
        with pytest.raises(error, match=_whole(message)):
            call()


def test_quoted_values_lose_their_quotes():
    quoted = 'dimension = "2"\nring = "gauss"\nbeta = "1, 0, 0, 1"\ngamma = 1; 0; 0; 1\n'
    plain = quoted.replace('"', "")
    assert parse_pair_config(quoted) == parse_pair_config(plain)


@pytest.mark.parametrize("text, message", [
    ("phi1 = 0, 1, 0\nphi2 = 0; 0; 0; 0\n", "c.cfg: phi1 must be 1 x 4"),
    ("phi1 = 0, 1, 0, 0\nphi2 = 0, 0, 0, 0\n", "c.cfg: phi2 must be 4 x 1"),
])
def test_cocycle_literals_of_the_wrong_size_are_refused(text, message):
    with pytest.raises(PairConfigError, match=_whole(message)):
        parse_cocycle_config(text, _bracket(), "c.cfg")


def test_cocycle_config_both_forms():
    pair = _bracket()
    named = "beta1_xx = 0\nbeta1_xy = 1\nbeta1_yx = 0\nbeta1_yy = 0\n"
    phi1, phi2 = parse_cocycle_config(named, pair)
    xi1, xi2 = d2(pair, phi1, phi2)
    assert xi1.is_zero() and xi2.is_zero()
    explicit = (
        "phi1 = ( 0 )/( 1 ), ( 1 )/( 1 ), ( 0 )/( 1 ), ( 0 )/( 1 )\n"
        "phi2 = ( 0 )/( 1 ); ( 0 )/( 1 ); ( A^-2 )/( 1 ); ( 0 )/( 1 )\n"
    )
    q1, q2 = parse_cocycle_config(explicit, pair)
    assert (q1 - phi1).is_zero() and (q2 - phi2).is_zero()
    with pytest.raises(PairConfigError):
        parse_cocycle_config("beta1_xx = 1\n", pair)
    with pytest.raises(PairConfigError):
        parse_cocycle_config("phi1 = 1, 0, 0, 0\n", pair)


def test_cocycle_config_refuses_keys_it_does_not_define():
    pair = _bracket()
    named = "beta1_xx = 0\nbeta1_xy = 1\nbeta1_yx = 0\nbeta1_yy = 0\n"
    with pytest.raises(PairConfigError, match="^c.cfg:5: unknown key 'beta'$"):
        parse_cocycle_config(named + "beta = 1\n", pair, "c.cfg")
    # a malformed phi1 next to a complete bracket form is not ignored
    with pytest.raises(PairConfigError, match="^c.cfg: give either .* not both$"):
        parse_cocycle_config(named + "phi1 = 1, 2, 3\n", pair, "c.cfg")


@pytest.mark.parametrize("text, error, message", [
    # a syntax error, in a pair file and in each cocycle form
    (BRACKET_CFG.replace("-i*A^-1, 0", "-i*A^-1 %, 0"), ScalarSyntaxError,
     "f: beta entry '-i*A^-1 %': unexpected character '%' at column 8"),
    ("beta1_xx = 0\nbeta1_xy = 1/\nbeta1_yx = 0\nbeta1_yy = 0\n", ScalarSyntaxError,
     "f: beta1_xy entry '1/': "),
    ("phi1 = 0, 0, 0, 0\nphi2 = 0; 0; 0; A^\n", ScalarSyntaxError,
     "f: phi2 entry 'A^': expected 'int', found 'end of input' at column 2"),
    # an entry that does not fit the declared ring
    (BRACKET_CFG.replace("laurent", "gauss"), RingMismatchError,
     "f: beta entry 'i*A': i*A involves A; not a Gaussian rational"),
])
def test_a_bad_entry_names_the_file_and_key_and_keeps_its_class(text, error, message):
    with pytest.raises(error, match="^" + re.escape(message)):
        if "dimension" in text:
            parse_pair_config(text, "f")
        else:
            parse_cocycle_config(text, _bracket(), "f")


# ---------------------------------------------------------------------------
# a specialized pair: cocycles follow its value of A
# ---------------------------------------------------------------------------

AT = GaussRat(2)


@pytest.mark.parametrize("name", ["xx", "xy", "yx", "yy"])
def test_bundled_cocycle_on_a_specialized_pair_is_the_specialized_cocycle(name):
    text = (FIXTURES / f"cocycle_{name}.cfg").read_text()
    generic = parse_cocycle_config(text, _bracket())
    special = parse_cocycle_config(text, _bracket().specialize(AT))
    assert special == tuple(map_specialize(f, AT) for f in generic)


def test_explicit_cocycle_literals_are_specialized_with_the_pair():
    text = "phi1 = 0, A, 0, 0\nphi2 = 0; 0; A^-2; 0\n"
    generic = parse_cocycle_config(text, _bracket())
    special = parse_cocycle_config(text, _bracket().specialize(AT))
    assert special == tuple(map_specialize(f, AT) for f in generic)
    assert special[1].entry(2, 0) == GaussRat(1, 0) / 4
