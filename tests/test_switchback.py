"""Switchback pairs, their cochain complex, cohomology, and deformations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinlab.linmap import LinearMap, kernel_basis
from skeinlab.scalars import (
    GAUSS,
    LAURENT,
    RATFUN,
    GaussRat,
    dual,
    parse_scalar,
)
from skeinlab.switchback import (
    D1,
    D3,
    Degree2Report,
    NotACocycleError,
    PairConfigError,
    SwitchbackError,
    bracket_cocycle,
    c2_to_coords,
    cohomology_dims,
    coords_to_c1,
    coords_to_c2,
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
    switchback_residuals,
    verify_switchback,
    z3_solve,
)

RF = lambda text: parse_scalar(text, RATFUN)  # noqa: E731


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
    r1, r2 = switchback_residuals(pair)
    assert r1.is_zero() and r2.is_zero()
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
    up = pair.promote(RATFUN)
    assert up.ring is RATFUN and verify_switchback(up)
    low = pair.specialize(GaussRat(2))
    assert low.ring is GAUSS and verify_switchback(low)


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
    phi1, phi2 = D1(pair, eta)
    xi1, xi2 = d2(pair, phi1, phi2)
    assert xi1.is_zero() and xi2.is_zero()
    # and D1 output is (by the same token) killed by the coordinate matrix
    assert all(
        sum((c * x for c, x in zip(row, c2_to_coords(phi1, phi2))), RATFUN.zero()).is_zero()
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
    r1, r2 = D1(pair, coords_to_c1(eta, 2, RATFUN))
    assert r1.is_zero() and r2.is_zero()


# ---------------------------------------------------------------------------
# cocycle structure
# ---------------------------------------------------------------------------


def _relations_hold(pair, phi1, phi2):
    a2, am2 = RF("( A^2 )/( 1 )"), RF("( A^-2 )/( 1 )")
    b = c2_to_coords(phi1, phi2)
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
        combo = [x + c * y for x, y in zip(combo, c2_to_coords(p1, p2))]
    assert _relations_hold(pair, *coords_to_c2(combo, 2, RATFUN))


def test_z3_relations():
    pair = _bracket()
    sols = z3_solve(pair)
    assert len(sols) == 4
    a2, am2 = RF("( A^2 )/( 1 )"), RF("( A^-2 )/( 1 )")
    for xi1, xi2 in sols:
        assert xi2.entry(0, 0) == xi1.entry(1, 1)
        assert xi2.entry(1, 1) == xi1.entry(0, 0)
        assert xi2.entry(1, 0) == -am2 * xi1.entry(1, 0)
        assert xi2.entry(0, 1) == -a2 * xi1.entry(0, 1)


def test_bracket_cocycle_constructor_lands_in_kernel():
    pair = _bracket()
    rng = random.Random(8)
    coords = [RATFUN.from_int(rng.randint(-9, 9)) for _ in range(4)]
    phi1, phi2 = bracket_cocycle(RATFUN, *coords)
    xi1, xi2 = d2(pair, phi1, phi2)
    assert xi1.is_zero() and xi2.is_zero()


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
    phi1, phi2 = coords_to_c2(coords, 2, RATFUN)
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
    with pytest.raises(SwitchbackError, match="undeformed pair"):
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
        degree2_analysis(pair, *coords_to_c2(coords, 2, RATFUN))


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("dimension = 2\nring = laurent\nbeta = 0, i*A, -i*A^-1, 0\n", "missing"),
        ("dimension = x\nring = laurent\nbeta = 1\ngamma = 1\n", "integer"),
        (BRACKET_CFG + "dimension = 2\n", "duplicate"),
        ("dimension = 2\nring = laurent\nbeta = 0, i*A\ngamma = 0; i*A; -i*A^-1; 0\n",
         "beta must be"),
        ("dimension = 2\nring = laurent\nbeta = 0, i*A, -i*A^-1, 0\ngamma = 0; 1, 2\n",
         "ragged"),
        ("no equals sign here\n", "key = value"),
    ],
)
def test_pair_config_errors(text, message):
    with pytest.raises(PairConfigError, match=message):
        parse_pair_config(text)


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
