"""
First-order deformation, Yang-Baxter, Temperley-Lieb
====================================================

Deform the bracket pair by a 2-cocycle over the dual numbers (t^2 = 0),
re-solve the R-matrix coefficients to first order, and watch every
relation survive exactly.  Then break it on purpose and look at the
obstruction.
"""

from skeinlab.linmap import equal
from skeinlab.rmatrix import (
    build_R,
    solve_deformed_coefficients,
    tl_first_failure,
    tl_generators,
    ybe_residual,
)
from skeinlab.scalars import RATFUN, format_scalar
from skeinlab.switchback import (
    C2,
    bracket_cocycle,
    cochain_from_coords,
    d2,
    deform,
    deformation_obstruction,
    degree2_analysis,
    delta0,
    make_bracket_pair,
    verify_switchback,
)

pair = make_bracket_pair(RATFUN)

# a cocycle with both off-diagonal pairing slopes turned on
one, zero = RATFUN.one(), RATFUN.zero()
phi1, phi2 = bracket_cocycle(pair, zero, one, one, zero)
pair_t = deform(pair, phi1, phi2)
print("deformed pairing:", ", ".join(format_scalar(e) for e in pair_t.pairing.rows[0]))
print("switchback still holds:", verify_switchback(pair_t))

# the loop value picks up a t-slope, and the R-matrix coefficient a must
# move with it; b stays put
loop_t = delta0(pair_t)
print("deformed delta0 =", format_scalar(loop_t))
a_t, b_t = solve_deformed_coefficients(pair_t)
print("a =", format_scalar(a_t))
print("b =", format_scalar(b_t))

rmx = build_R(pair_t, a_t, b_t)
print("Yang-Baxter over the dual ring:", ybe_residual(rmx.R).is_zero())

gens = tl_generators(pair_t, 4)
print("Temperley-Lieb (4 strands, deformed delta):",
      tl_first_failure(gens, loop_t) is None)
print()

# second order: the cocycle composed with itself across each zig-zag is a
# 3-cocycle, and for every 2-cocycle of a switchback pair a coboundary: the
# extension (-psi1^T B, 0) has d2 = -psi
report = degree2_analysis(pair, phi1, phi2)
print("psi is a 3-cocycle:", report.is_cocycle)
x1, x2 = d2(pair, *report.extension)
print("d2 of the degree-2 extension is -psi:",
      equal(x1, -report.psi1) and equal(x2, -report.psi2))
print()

# a cochain that is not a cocycle: the switchback conditions fail at order
# t, and the failure slope is exactly the 2-differential of the cochain
coords = [one, zero, zero, zero, zero, zero, zero, zero]
bad1, bad2 = cochain_from_coords(coords, 2, RATFUN, C2)
broken = deform(pair, bad1, bad2)
print("non-cocycle deformation passes:", verify_switchback(broken))
xi1, xi2 = deformation_obstruction(pair, bad1, bad2)
e1, e2 = d2(pair, bad1, bad2)
print("obstruction equals the differential:",
      equal(xi1, e1) and equal(xi2, e2))
