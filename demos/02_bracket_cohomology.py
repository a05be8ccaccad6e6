"""
Cohomology of the bracket pairing
=================================

The bracket pair is the 2-dimensional pairing/copairing with entries
(0, i*A, -i*A^-1, 0).  The dimensions of its cochain complex come from
exact Gaussian elimination over the rational-function field.  The kernel
of the degree-2 differential, where the interesting deformations live,
needs none: bending the pairing and copairing into matrices B and G, a
cochain (phi1, phi2) is a 2-cocycle exactly when Phi1 = -B Phi2 B, so the
basis below has one cocycle per unit copairing slope.
"""

from skeinlab.scalars import RATFUN, format_scalar
from skeinlab.switchback import (
    cochain_coords,
    cohomology_dims,
    delta0,
    make_bracket_pair,
    solve_2cocycles,
    verify_switchback,
)

pair = make_bracket_pair(RATFUN)

# both zig-zag composites reduce to the identity: G B = 1 for the bent
# pairing B and copairing G decides both
print("switchback residuals zero:", verify_switchback(pair))
print("loop value delta0 =", format_scalar(delta0(pair)))
print()

# dimensions of kernels, images, and quotients along the complex
dims = cohomology_dims(pair)
print(f"Z1 = {dims.z1}   B2 = {dims.b2}   H1 = {dims.h1}")
print(f"Z2 = {dims.z2}   B3 = {dims.b3}   H2 = {dims.h2}")
print(f"Z3 = {dims.z3}   B4 = {dims.b4}   H3 = {dims.h3}")
print()

# the four-dimensional 2-cocycle space, as coordinate rows
# (pairing slope xx,xy,yx,yy then copairing slope xx,xy,yx,yy)
print("2-cocycle basis:")
for k, (phi1, phi2) in enumerate(solve_2cocycles(pair), 1):
    coords = ", ".join(format_scalar(c) for c in cochain_coords(phi1, phi2))
    print(f"  {k}: [{coords}]")
print()

# every basis vector ties its copairing slope to its pairing slope by the
# same four relations, Phi2 = -G Phi1 G for the bracket's G; eyeball them
# in the rows above:
#   g_yy = -b_xx    g_xx = -b_yy    g_yx = A^-2 b_xy    g_xy = A^2 b_yx
