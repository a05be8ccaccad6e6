"""
Cocycle conditions out of tensor-map identities
===============================================

A single-term identity like associativity determines, mechanically, the
condition a first-order perturbation of its generators must satisfy.  The
recipe: number the generator occurrences, then replace one occurrence at a
time by a cochain symbol; the signed sum LHS - RHS is the 2-differential.
"""

from pathlib import Path

from skeinlab.identities import elaborate, infiltrate, parse_identity_file, to_text

FIXTURES = Path(__file__).parent.parent / "src" / "skeinlab" / "fixtures"

for name in ("assoc.idl", "switchback.idl", "bialgebra.idl"):
    idf = parse_identity_file((FIXTURES / name).read_text())
    print(f"--- {name} ---")
    for ident in idf.identities:
        plan = elaborate(ident)
        diff = infiltrate(plan).canonical()
        print(f"{ident.label}: {to_text(ident.lhs)} = {to_text(ident.rhs)}")
        for coeff, term in diff.terms:
            print(f"   {'+' if coeff > 0 else '-'} {to_text(term)}")
    print()

# Setting the differential of the associativity identity to zero is the
# classical Hochschild 2-cocycle condition; the same machine applied to the
# two switchback identities produces the two components of the pairing /
# copairing differential used everywhere else in this package.
