"""
Closed-braid invariants against an independent oracle
=====================================================

The braid-trace invariant is computed from the R-matrix and the twist map;
the oracle is the Kauffman state sum, which counts the smoothings of the
closure on packed ints and never touches the linear-algebra code.  They
must agree on the nose.  The deformed invariant, which carries a genuine
first-order correction, must equal the same state sum taken at the
deformed R-matrix's weights, slope included.
"""

from skeinlab.braid import (
    compare_with_oracle,
    jones_oracle,
    make_turaev,
    normalized_invariant,
    parse_braid,
)
from skeinlab.rmatrix import solve_deformed_coefficients
from skeinlab.scalars import RATFUN, format_scalar, parse_scalar
from skeinlab.switchback import bracket_cocycle, deform, make_bracket_pair

pair = make_bracket_pair(RATFUN)
td = make_turaev(pair, parse_scalar("( A )/( 1 )", RATFUN),
                 parse_scalar("( A^-1 )/( 1 )", RATFUN))

words = {
    "unknot": parse_braid("", n=1),
    "two-component unlink": parse_braid("", n=2),
    "trefoil": parse_braid("s1 s1 s1"),
    "figure-eight": parse_braid("s1 s2^-1 s1 s2^-1"),
    "cinquefoil": parse_braid("s1 s1 s1 s1 s1"),
}

print("undeformed invariant vs state-sum oracle:")
for name, w in words.items():
    value = normalized_invariant(td, w)
    oracle = jones_oracle(w)
    print(f"  {name:22s} {format_scalar(oracle)}")
    assert value == parse_scalar(f"( {format_scalar(oracle)} )/( 1 )", RATFUN)
print()

# now the same trace through a deformed pair; whole values must match the
# oracle at the deformed weights, and the trefoil picks up a visible t-slope
zero, one = RATFUN.zero(), RATFUN.one()
pair_t = deform(pair, *bracket_cocycle(pair, zero, one, zero, zero))
a_t, b_t = solve_deformed_coefficients(pair_t)
td_t = make_turaev(pair_t, a_t, b_t)

report = compare_with_oracle(td_t, list(words.values()))
print("deformed run, all checks pass:", report.all_ok)
print("  l^2 = c^4:", report.ell_squared_is_c4)
print("  delta0 = -(c + c^-1):", report.loop_is_minus_c_plus_cinv)
for entry in report.entries:
    print(f"  {entry.word or '(empty)':22s} match={entry.matches}")
print()

trefoil_t = normalized_invariant(td_t, words["trefoil"])
print("deformed trefoil:", format_scalar(trefoil_t))
print("its t-slope is nonzero:", not trefoil_t.slope.is_zero())
