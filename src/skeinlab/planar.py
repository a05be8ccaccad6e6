"""Non-crossing matchings (Temperley-Lieb diagrams) and a purely
combinatorial Kauffman-bracket state sum.

This module deliberately avoids the linear-map machinery, so it serves as
an oracle for the braid-trace invariant, sharing no code path with it.
Diagrams are perfect non-crossing matchings of 2n boundary points with an
accumulated closed-loop count, multiplied by stacking.

The state sum counts before it evaluates (Kauffman, State models and the
Jones polynomial, Topology 26, 1987).  Each crossing is smoothed both ways,
into the identity or the cup-cap at its position, and each cup-cap is
stacked by a local update of the diagram's partner tuple.  A smoothing's
weight is a monomial a^(i-N) * b^(P-i) * delta^(L-1), fixed by two
integers: i, the positive identity plus negative cup-cap smoothings, and
L, the loops of the braid closure (top k joined to bottom k).  So the
counting pass adds up integer tables c[i][L], packed one int per state,
and `bracket_state_sum` evaluates the table once, in the ring of its
weights.  The default weights a = A, b = A^-1, delta = delta0 = -A^2 - A^-2
give the Kauffman bracket; writhe-normalized, it is the Jones polynomial
in the A variable.

Boundary points of an n-strand diagram: bottom 0..n-1 left to right, top
n..2n-1 left to right.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import SkeinlabError
from .scalars import A, A_INV, GaussRat, LaurentA


class PlanarityError(SkeinlabError):
    pass


def _circle_pos(p: int, n: int) -> int:
    """Walk the rectangle boundary: bottom left-to-right, then top
    right-to-left; a matching is planar iff it is non-crossing in this
    circular order."""
    return p if p < n else 3 * n - 1 - p


@dataclass(frozen=True)
class PlanarMatching:
    n: int
    pairs: tuple[tuple[int, int], ...]
    loops: int = 0

    def __post_init__(self):
        seen = sorted(p for pair in self.pairs for p in pair)
        if seen != list(range(2 * self.n)):
            raise PlanarityError(f"not a perfect matching of {2 * self.n} points")
        spans = sorted(
            tuple(sorted(_circle_pos(p, self.n) for p in pair)) for pair in self.pairs
        )
        for i, (a, b) in enumerate(spans):
            for c, d in spans[i + 1 :]:
                if a < c < b < d:
                    raise PlanarityError(f"pairs {(a, b)} and {(c, d)} cross")

    @staticmethod
    def _normal(n: int, raw_pairs, loops: int) -> "PlanarMatching":
        pairs = tuple(sorted(tuple(sorted(p)) for p in raw_pairs))
        return PlanarMatching(n, pairs, loops)

    @staticmethod
    def identity(n: int) -> "PlanarMatching":
        return PlanarMatching._normal(n, [(i, n + i) for i in range(n)], 0)

    @staticmethod
    def cup_cap(n: int, i: int) -> "PlanarMatching":
        """The i-th Temperley-Lieb diagram (1-based): a cup joining bottom
        points i-1, i and a cap joining the matching top points."""
        if not 1 <= i <= n - 1:
            raise PlanarityError(f"cup-cap index {i} out of range for {n} strands")
        pairs = [(i - 1, i), (n + i - 1, n + i)]
        pairs += [(k, n + k) for k in range(n) if k not in (i - 1, i)]
        return PlanarMatching._normal(n, pairs, 0)

    def strip_loops(self) -> "PlanarMatching":
        return PlanarMatching(self.n, self.pairs, 0)

    def __mul__(self, other: "PlanarMatching") -> "PlanarMatching":
        """Diagram composition matching map composition: self is stacked
        on top of other (other acts first)."""
        if not isinstance(other, PlanarMatching):
            return NotImplemented
        if self.n != other.n:
            raise PlanarityError(f"strand counts differ: {self.n} vs {other.n}")
        n = self.n
        # node ids: other's bottom 0..n-1, interface n..2n-1, self's top
        # 2n..3n-1; boundary nodes have degree 1, interface nodes degree 2
        adj: dict[int, list[int]] = {}

        def link(x, y):
            adj.setdefault(x, []).append(y)
            adj.setdefault(y, []).append(x)

        for a, b in other.pairs:
            link(a, b)
        for a, b in self.pairs:
            link(a + n, b + n)
        new_pairs = []
        visited = set()
        for start in (*range(n), *range(2 * n, 3 * n)):
            if start in visited:
                continue
            visited.add(start)
            prev, cur = start, adj[start][0]
            while n <= cur < 2 * n:
                visited.add(cur)
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
            visited.add(cur)
            new_pairs.append((start, cur))
        closed = 0
        for start in range(n, 2 * n):
            if start in visited:
                continue
            closed += 1
            prev, cur = None, start
            while cur not in visited:
                visited.add(cur)
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
        remap = lambda x: x if x < n else x - n
        return PlanarMatching._normal(
            n,
            [(remap(a), remap(b)) for a, b in new_pairs],
            self.loops + other.loops + closed,
        )

    def trace_closure_loops(self) -> int:
        """Loop count after joining top k to bottom k for every strand."""
        partner = {}
        for a, b in self.pairs:
            partner[a] = b
            partner[b] = a
        return _closure_loops(partner, self.n) + self.loops


def _closure_loops(partner, n: int) -> int:
    """Closed loops of the trace closure of a diagram without free loops,
    given the partner of each of its 2n boundary points."""
    loops = 0
    seen = set()
    for start in range(2 * n):
        if start in seen:
            continue
        loops += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            via = partner[cur]
            seen.add(via)
            cur = via + n if via < n else via - n
    return loops


_DELTA0 = -A**2 - A**-2
_MINUS_A3 = -A**3


def _count_states(n: int, letters) -> dict[tuple[int, int], int]:
    """The state counts c[i][L] of the closure of a braid word given as
    (index, sign) letters on n strands: how many of its 2^m smoothings
    (m letters) make i positive identity plus negative cup-cap smoothings
    and close L loops in all.

    A state is a diagram without its free loops, stored as the tuple of
    partners of its 2n boundary points.  Its coefficient is one int that
    packs the table c[i][l] of the smoothings reaching it, with l the loops
    closed so far: digit i*(m+n+1) + l, each digit m+2 bits wide.  An i
    smoothing shifts the int by m+n+1 digits, a closed loop by one digit,
    and two smoothings that reach one state add their ints.  At the end
    the states are grouped by the loops of their trace closure, each group
    is shifted by that count, and the sum is unpacked once.

    Digits never carry.  Every one of the 2^m smoothings adds exactly 1 to
    exactly one digit of exactly one state, and to nothing else, so all
    digits of all states, before and after grouping, sum to 2^m: at most
    2^m smoothings contribute to any digit, and 2^m < 2^(m+2).  Neither
    index leaves its range: i <= m, and L <= m + n, since the closure of
    the all-identity smoothing has n loops and turning one identity
    smoothing into a cup-cap changes the loop count by one."""
    m = len(letters)
    width = m + 2
    step = width * (m + n + 1)
    acc = {tuple(range(n, 2 * n)) + tuple(range(n)): 1}
    for i, sign in letters:
        if not 1 <= i <= n - 1:
            raise PlanarityError(f"cup-cap index {i} out of range for {n} strands")
        id_shift, e_shift = (step, 0) if sign > 0 else (0, step)
        x, y = n + i - 1, n + i
        nxt: dict[tuple[int, ...], int] = {}
        for state, packed in acc.items():
            # e_i on top: a cap already at top points x, y closes one loop;
            # otherwise their partners are joined and x, y become a cap
            px, py = state[x], state[y]
            if px == y:
                e_state, e_packed = state, packed << (e_shift + width)
            else:
                joined = list(state)
                joined[px], joined[py], joined[x], joined[y] = py, px, y, x
                e_state, e_packed = tuple(joined), packed << e_shift
            # the identity smoothing leaves the state as it is
            nxt[state] = nxt.get(state, 0) + (packed << id_shift)
            nxt[e_state] = nxt.get(e_state, 0) + e_packed
        acc = nxt
    by_loops: dict[int, int] = {}
    for state, packed in acc.items():
        loops = _closure_loops(state, n)
        by_loops[loops] = by_loops.get(loops, 0) + packed
    total = sum(packed << (width * loops) for loops, packed in by_loops.items())
    counts = {}
    mask, slots = (1 << width) - 1, m + n + 1
    place = 0
    while total:
        if total & mask:
            counts[divmod(place, slots)] = total & mask
        total >>= width
        place += 1
    return counts


def bracket_state_sum(n: int, letters, a=A, b=A_INV, delta=_DELTA0):
    """Kauffman bracket of the trace closure of a braid word given as
    (index, sign) letters on n strands, unnormalized, with a positive
    letter smoothed as a * identity + b * cup-cap, a negative one as
    a^-1 * identity + b^-1 * cup-cap, and each closed loop but one worth
    delta.  With P positive and N negative letters it is

        sum over c[i][L] of c[i][L] * a^(i-N) * b^(P-i) * delta^(L-1),

    evaluated once in the ring of a, b and delta from the integer state
    counts of _count_states.  The default weights give the classical
    bracket in A, whose coefficients are read off directly:
    a^(i-N) * b^(P-i) = A^(2i-N-P), and delta0^(L-1) is expanded by the
    binomial theorem."""
    counts = _count_states(n, letters)
    pos = sum(sign > 0 for _, sign in letters)
    neg = len(letters) - pos
    if a is A and b is A_INV and delta is _DELTA0:
        coeffs: dict[int, int] = {}
        for (i, loops), c in counts.items():
            top = 2 * i - neg - pos + 2 * (loops - 1)
            signed = -c if loops % 2 == 0 else c
            for k in range(loops):
                e = top - 4 * k
                coeffs[e] = coeffs.get(e, 0) + signed * comb(loops - 1, k)
        return LaurentA({e: GaussRat(c) for e, c in coeffs.items() if c})
    by_i: dict[int, dict[int, int]] = {}
    for (i, loops), c in counts.items():
        by_i.setdefault(i, {})[loops - 1] = c
    a_pow, b_pow = _powers(a, -neg, pos), _powers(b, -neg, pos)
    total = None
    for i, poly in by_i.items():
        # the sum over L of c[i][L] * delta^(L-1), by Horner's rule
        q = None
        for e in range(max(poly), -1, -1):
            c = poly.get(e, 0)
            q = c if q is None else q * delta + c
        term = a_pow[i - neg] * b_pow[pos - i] * q
        total = term if total is None else total + term
    return total


def _powers(x, lo: int, hi: int) -> dict:
    """x^e for lo <= e <= hi, with lo <= 0 <= hi; x is inverted only when
    lo < 0."""
    out = {0: x**0}
    for e in range(1, hi + 1):
        out[e] = out[e - 1] * x
    if lo < 0:
        x_inv = x.inv()
        for e in range(-1, lo - 1, -1):
            out[e] = out[e + 1] * x_inv
    return out


def jones_polynomial(n: int, letters) -> LaurentA:
    """Writhe-normalized bracket: (-A^3)^(-writhe) * bracket.  The unknot
    gives 1; an n-component unlink gives delta0^(n-1)."""
    writhe = sum(sign for _, sign in letters)
    return _MINUS_A3 ** (-writhe) * bracket_state_sum(n, letters)
