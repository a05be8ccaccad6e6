"""Skein-form R-matrices, Yang-Baxter, and Temperley-Lieb checks."""

import random

import pytest

from skeinlab.linmap import LinearMap, compose, kernel_basis
from skeinlab.rmatrix import (
    MAX_STRANDS,
    RMatrixError,
    build_R,
    cupcap,
    solve_deformed_coefficients,
    tl_first_failure,
    tl_generators,
    verify_weak_tl_condition,
    ybe_residual,
)
from skeinlab.scalars import GAUSS, LAURENT, RATFUN, GaussRat, dual, parse_scalar
from skeinlab.switchback import (
    bracket_cocycle,
    coords_to_c2,
    d2,
    d2_matrix,
    deform,
    delta0,
    make_bracket_pair,
    solve_2cocycles,
    verify_switchback,
)

L = lambda text: parse_scalar(text, LAURENT)  # noqa: E731


def _bracket_R():
    return build_R(make_bracket_pair(), L("A"), L("A^-1"))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_bracket_r_matrix():
    rmx = _bracket_R()
    nonzero = {
        (i, j): rmx.R.entry(i, j)
        for i in range(4)
        for j in range(4)
        if not rmx.R.entry(i, j).is_zero()
    }
    assert set(nonzero) == {(0, 0), (1, 2), (2, 1), (2, 2), (3, 3)}
    assert nonzero[(0, 0)] == L("A") == nonzero[(3, 3)]
    assert nonzero[(1, 2)] == L("A^-1") == nonzero[(2, 1)]
    assert nonzero[(2, 2)] == L("A - A^-3")
    two = LinearMap.identity(2, 2, LAURENT)
    assert (compose(rmx.R, rmx.Rinv) - two).is_zero()
    assert (compose(rmx.Rinv, rmx.R) - two).is_zero()
    assert rmx.loop == L("-A^-2 - A^2")


def test_build_r_rejects_quadratic_violation():
    pair = make_bracket_pair()
    with pytest.raises(RMatrixError, match="quadratic condition fails"):
        build_R(pair, L("A"), L("A"))


def test_build_r_rejects_noninvertible_coefficient():
    pair = make_bracket_pair()
    with pytest.raises(RMatrixError, match="invertible"):
        build_R(pair, LAURENT.zero(), L("A^-1"))


# ---------------------------------------------------------------------------
# Yang-Baxter
# ---------------------------------------------------------------------------


def test_bracket_r_satisfies_ybe():
    rmx = _bracket_R()
    assert ybe_residual(rmx.R).is_zero()
    assert ybe_residual(rmx.Rinv).is_zero()


def test_perturbed_r_fails_ybe():
    rmx = _bracket_R()
    rows = [[rmx.R.entry(i, j) for j in range(4)] for i in range(4)]
    rows[0][0] = rows[0][0] + LAURENT.one()
    assert not ybe_residual(LinearMap.from_rows(2, 2, 2, LAURENT, rows)).is_zero()


# ---------------------------------------------------------------------------
# Temperley-Lieb
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_tl_relations_undeformed(n):
    pair = make_bracket_pair()
    gens = tl_generators(pair, n)
    assert len(gens) == n - 1
    assert tl_first_failure(gens, delta0(pair)) is None


def test_tl_wrong_delta_reported():
    pair = make_bracket_pair()
    gens = tl_generators(pair, 3)
    failure = tl_first_failure(gens, delta0(pair) + LAURENT.one())
    assert failure == "e1^2 != delta*e1"
    assert tl_first_failure(gens, LAURENT.one()) is not None


def test_tl_needs_two_strands():
    with pytest.raises(RMatrixError, match="at least 2"):
        tl_generators(make_bracket_pair(), 1)


def test_tl_strand_limit_is_checked_before_building():
    with pytest.raises(RMatrixError, match=f"limit of {MAX_STRANDS}"):
        tl_generators(make_bracket_pair(), 30)


# ---------------------------------------------------------------------------
# deformed coefficients
# ---------------------------------------------------------------------------

BASIS_SLOPES = {
    "xx": "( 0 )/( 1 )",
    "xy": "( -i )/( 1 )",
    "yx": "( -i*A^2 )/( 1 )",
    "yy": "( 0 )/( 1 )",
}


@pytest.mark.parametrize("slot", ["xx", "xy", "yx", "yy"])
def test_deformed_coefficients_per_basis_slot(slot):
    pair = make_bracket_pair(RATFUN)
    coords = [
        RATFUN.one() if s == slot else RATFUN.zero() for s in ("xx", "xy", "yx", "yy")
    ]
    phi1, phi2 = bracket_cocycle(RATFUN, *coords)
    pair_t = deform(pair, phi1, phi2)
    a_t, b_t = solve_deformed_coefficients(pair_t)
    assert a_t.slope == parse_scalar(BASIS_SLOPES[slot], RATFUN)
    assert b_t.slope.is_zero()
    # the quadratic holds over the dual ring, with the deformed loop value
    loop_t = delta0(pair_t)
    assert (a_t * a_t + b_t * b_t + loop_t * a_t * b_t).is_zero()


def test_deformed_loop_slope_formula():
    # slope of the deformed loop value depends only on the off-diagonal
    # pairing-slope coordinates
    pair = make_bracket_pair(RATFUN)
    rng = random.Random(11)
    factor = parse_scalar("( i*A^2 - i*A^-2 )/( 1 )", RATFUN)
    for _ in range(5):
        coords = [RATFUN.from_int(rng.randint(-9, 9)) for _ in range(4)]
        phi1, phi2 = bracket_cocycle(RATFUN, *coords)
        loop_t = delta0(deform(pair, phi1, phi2))
        a, a_inv = parse_scalar("( A )/( 1 )", RATFUN), parse_scalar("( A^-1 )/( 1 )", RATFUN)
        expected = factor * (a_inv * coords[1] + a * coords[2])
        assert loop_t.slope == expected
        assert loop_t.body == parse_scalar("( -A^-2 - A^2 )/( 1 )", RATFUN)


def test_deformed_coefficients_need_dual_ring():
    with pytest.raises(RMatrixError, match="dual"):
        solve_deformed_coefficients(make_bracket_pair())


def test_deformed_coefficients_reject_bad_base_point():
    pair = make_bracket_pair(RATFUN)
    phi1, phi2 = bracket_cocycle(RATFUN, *[RATFUN.from_int(k) for k in (0, 1, 0, 0)])
    pair_t = deform(pair, phi1, phi2)
    with pytest.raises(RMatrixError, match="quadratic"):
        solve_deformed_coefficients(pair_t, RATFUN.one(), RATFUN.one())


def test_degenerate_gauge_rejected():
    # at A = 1 the correction denominator 2*a0 + delta0*b0 vanishes
    pair = make_bracket_pair().specialize(GaussRat(1))
    coords = [GAUSS.zero(), GAUSS.one(), GAUSS.zero(), GAUSS.zero(),
              GAUSS.zero(), GAUSS.zero(), GAUSS.one(), GAUSS.zero()]
    phi1, phi2 = coords_to_c2(coords, 2, GAUSS)
    pair_t = deform(pair, phi1, phi2)
    assert verify_switchback(pair_t)
    with pytest.raises(RMatrixError, match=r"A\^4 = 1"):
        solve_deformed_coefficients(pair_t, GAUSS.one(), GAUSS.one())


# ---------------------------------------------------------------------------
# deformed YBE and TL
# ---------------------------------------------------------------------------


def test_each_basis_cocycle_deforms_ybe_and_tl():
    pair = make_bracket_pair(RATFUN)
    for phi1, phi2 in solve_2cocycles(pair):
        pair_t = deform(pair, phi1, phi2)
        a_t, b_t = solve_deformed_coefficients(pair_t)
        rmx = build_R(pair_t, a_t, b_t)
        assert rmx.pair.ring is dual(RATFUN)
        assert ybe_residual(rmx.R).is_zero()
        gens = tl_generators(pair_t, 3)
        assert tl_first_failure(gens, delta0(pair_t)) is None


# ---------------------------------------------------------------------------
# the weak TL condition
# ---------------------------------------------------------------------------


def _weak_kernel(pair):
    m2 = d2_matrix(pair)
    summed = [[m2[k][c] + m2[k + 4][c] for c in range(8)] for k in range(4)]
    return kernel_basis(summed, pair.ring)


def test_weak_condition_holds_on_cocycles():
    pair = make_bracket_pair(RATFUN)
    for phi1, phi2 in solve_2cocycles(pair):
        assert verify_weak_tl_condition(pair, phi1, phi2)


def test_weak_condition_fails_on_generic_cochain():
    pair = make_bracket_pair(RATFUN)
    coords = [RATFUN.zero()] * 8
    coords[0] = RATFUN.one()
    phi1, phi2 = coords_to_c2(coords, 2, RATFUN)
    assert not verify_weak_tl_condition(pair, phi1, phi2)


def test_weak_condition_is_strictly_weaker():
    # there is a cochain that keeps the TL relations but breaks switchback
    pair = make_bracket_pair(RATFUN)
    ker = _weak_kernel(pair)
    assert len(ker) == 5
    witnesses = 0
    for v in ker:
        phi1, phi2 = coords_to_c2(v, 2, RATFUN)
        assert verify_weak_tl_condition(pair, phi1, phi2)
        xi1, xi2 = d2(pair, phi1, phi2)
        pair_t = deform(pair, phi1, phi2)
        tl_ok = tl_first_failure(tl_generators(pair_t, 3), delta0(pair_t)) is None
        assert tl_ok
        if not (xi1.is_zero() and xi2.is_zero()):
            witnesses += 1
            assert not verify_switchback(pair_t)
    assert witnesses >= 1


def test_weak_condition_matches_deformed_tl():
    pair = make_bracket_pair(RATFUN)
    rng = random.Random(12)
    for _ in range(6):
        coords = [RATFUN.from_int(rng.randint(-3, 3)) for _ in range(8)]
        phi1, phi2 = coords_to_c2(coords, 2, RATFUN)
        pair_t = deform(pair, phi1, phi2)
        tl_ok = tl_first_failure(tl_generators(pair_t, 3), delta0(pair_t)) is None
        assert verify_weak_tl_condition(pair, phi1, phi2) == tl_ok


def test_cupcap_is_tl_idempotent_up_to_loop():
    pair = make_bracket_pair()
    cc = cupcap(pair)
    assert (compose(cc, cc) - cc.scale(delta0(pair))).is_zero()
