"""Non-crossing matchings (Temperley-Lieb diagrams) and a purely
combinatorial Kauffman-bracket state sum.

This module deliberately avoids the linear-map machinery, so it serves as
an oracle for the braid-trace invariant, sharing no code path with it.
Diagrams are perfect non-crossing matchings of 2n boundary points with an
accumulated closed-loop count, multiplied by stacking.

The state sum counts before it evaluates (Kauffman, State models and the
Jones polynomial, Topology 26, 1987).  Each crossing is smoothed both ways,
into the identity or the cup-cap at its position, and each cup-cap is
stacked by a local update of the diagram's partner tuple.  The states of
each strand count are numbered the first time any word meets them, with
their closure loops and their moves under each cup-cap, and shared by
every later word, which then moves between numbers only.  A smoothing's
weight is a monomial a^(i-N) * b^(P-i) * delta^(L-1), fixed by two
integers: i, the positive identity plus negative cup-cap smoothings, and
L, the loops of the braid closure (top k joined to bottom k).  So the
counting pass adds up integer tables c[i][L], packed one int per state,
and `bracket_state_sum` evaluates the table once, in the ring of its
weights: rational-function weights over one denominator, normalised once.
The default weights a = A, b = A^-1, delta = delta0 = -A^2 - A^-2 give the
Kauffman bracket; writhe-normalized, it is the Jones polynomial in the A
variable, whose sign and shift are folded into the same coefficient loop.

Boundary points of an n-strand diagram: bottom 0..n-1 left to right, top
n..2n-1 left to right.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import SkeinlabError
from .scalars import A, A_INV, LaurentA, RatFunA


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


class _States:
    """The states of n-strand smoothings met so far, numbered in the order
    met (the identity is 0): each one's partner tuple, the loops of its
    trace closure, and, per generator i, the move of e_i on top of it, made
    the first time it is asked for.  A move is one int, 2*t + 1 when e_i
    closes a loop and leaves the state as it is (t its own number), and 2*t
    when it makes state t; -1 is a move not made yet."""

    def __init__(self, n: int):
        self.n = n
        self.ids: dict[tuple[int, ...], int] = {}
        self.partners: list[tuple[int, ...]] = []
        self.loops: list[int] = []
        self.moves: list[list[int]] = [[] for _ in range(n)]
        self.number(tuple(range(n, 2 * n)) + tuple(range(n)))

    def number(self, state: tuple[int, ...]) -> int:
        s = self.ids.get(state)
        if s is None:
            s = self.ids[state] = len(self.partners)
            self.partners.append(state)
            self.loops.append(_closure_loops(state, self.n))
            for move in self.moves:
                move.append(-1)
        return s

    def move(self, s: int, i: int) -> int:
        """The move of e_i on top of state s: a cap already at top points
        x, y closes one loop; otherwise their partners are joined and x, y
        become a cap."""
        state, x, y = self.partners[s], self.n + i - 1, self.n + i
        px, py = state[x], state[y]
        if px == y:
            code = 2 * s + 1
        else:
            joined = list(state)
            joined[px], joined[py], joined[x], joined[y] = py, px, y, x
            code = 2 * self.number(tuple(joined))
        self.moves[i][s] = code
        return code


# the numbered states of each strand count, shared by every word
_STATES: dict[int, _States] = {}


def _count_states(n: int, letters) -> dict[tuple[int, int], int]:
    """The state counts c[i][L] of the closure of a braid word given as
    (index, sign) letters on n strands: how many of its 2^m smoothings
    (m letters) make i positive identity plus negative cup-cap smoothings
    and close L loops in all.

    A state is a diagram without its free loops, the tuple of partners of
    its 2n boundary points, numbered once per strand count (_States): a
    word's smoothings move between state numbers, and a tuple is built
    only for a state or a move met for the first time.  Its coefficient is
    one int that packs the table c[i][l] of the smoothings reaching it,
    with l the loops closed so far: digit i*(m+n+1) + l, each digit m+2
    bits wide.  An i smoothing shifts the int by m+n+1 digits, a closed
    loop by one digit, and two smoothings that reach one state add their
    ints.  At the end the states are grouped by the loops of their trace
    closure, each group is shifted by that count, and the sum is unpacked
    once.

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
    table = _STATES.get(n)
    if table is None:
        table = _STATES[n] = _States(n)
    acc = {0: 1}
    for i, sign in letters:
        if not 1 <= i <= n - 1:
            raise PlanarityError(f"cup-cap index {i} out of range for {n} strands")
        id_shift, e_shift = (step, 0) if sign > 0 else (0, step)
        closed = e_shift + width
        moves = table.moves[i]
        nxt: dict[int, int] = {}
        for s, packed in acc.items():
            code = moves[s]
            if code < 0:
                code = table.move(s, i)
            # the identity smoothing leaves the state as it is
            nxt[s] = nxt.get(s, 0) + (packed << id_shift)
            t = code >> 1
            nxt[t] = nxt.get(t, 0) + (packed << (closed if code & 1 else e_shift))
        acc = nxt
    by_loops: dict[int, int] = {}
    loops_of = table.loops
    for s, packed in acc.items():
        loops = loops_of[s]
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
    counts of _count_states.  Rational-function weights are summed over
    one denominator (_over_one_denominator), and any others, the default
    weights in A included, by Horner's rule in delta."""
    counts = _count_states(n, letters)
    pos = sum(sign > 0 for _, sign in letters)
    neg = len(letters) - pos
    by_i: dict[int, dict[int, int]] = {}
    for (i, loops), c in counts.items():
        by_i.setdefault(i, {})[loops - 1] = c
    if a.__class__ is b.__class__ is delta.__class__ is RatFunA and not b.is_zero():
        return _over_one_denominator(by_i, pos, neg, a, b, delta)
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


def _bracket_in_A(counts, pos: int, neg: int, writhe: int) -> LaurentA:
    """(-A^3)^(-writhe) times the bracket at a = A, b = A^-1, delta =
    delta0, from the state counts: a^(i-N) * b^(P-i) = A^(2i-N-P),
    delta0^(L-1) = (-1)^(L-1) * (A^2 + A^-2)^(L-1) is expanded by the
    binomial theorem, and (-A^3)^(-writhe) = (-1)^writhe * A^(-3 writhe)
    is one sign and one shift of every exponent."""
    coeffs: dict[int, int] = {}
    shift = -neg - pos - 3 * writhe
    for (i, loops), c in counts.items():
        top = 2 * i + shift + 2 * (loops - 1)
        signed = c if (loops - 1 + writhe) % 2 == 0 else -c
        for k in range(loops):
            e = top - 4 * k
            coeffs[e] = coeffs.get(e, 0) + signed * comb(loops - 1, k)
    lo, hi = min(coeffs, default=0), max(coeffs, default=-1)
    return LaurentA.from_ints(lo, [(coeffs.get(e, 0), 0) for e in range(lo, hi + 1)])


def _over_one_denominator(by_i, pos: int, neg: int, a, b, delta) -> RatFunA:
    """The bracket at rational-function weights, from the counts
    by_i[i][L - 1], as one fraction.  As a^(i-N) * b^(P-i) = b^(P-N) *
    c^(i-N) with c = a/b, the bracket is b^(P-N) times the sum over c[i][L]
    of c[i][L] * c^(i-N) * delta^(L-1).  Write c = cn/cd, b = bn/bd and
    delta = dn/dd, let m = P + N and T the largest L - 1, and multiply that
    sum through by cn^N * cd^P * dd^T: the term of c[i][L] becomes cn^i *
    cd^(m-i) * c[i][L] * dn^(L-1) * dd^(T-L+1).  The numerator is summed in
    Laurent arithmetic, with no gcd, b^(P-N) joins the fraction as a power
    of its parts, and RatFunA normalises the one fraction once.  Weights
    a = A*f, b = A^-1*f give c = A^2, so no power of f's denominator is
    multiplied in only to be divided out again."""
    m = pos + neg
    top = max(e for poly in by_i.values() for e in poly)
    c = a * b.inv()
    dn, dd = delta.num, delta.den
    dn_pow, dd_pow = _powers(dn, 0, top), _powers(dd, 0, top)
    loop_terms = [dn_pow[e] * dd_pow[top - e] for e in range(top + 1)]
    cn_pow, cd_pow = _powers(c.num, 0, m), _powers(c.den, 0, m)
    num = None
    for i, poly in by_i.items():
        q = None
        for e, k in poly.items():
            term = loop_terms[e] * k
            q = term if q is None else q + term
        term = cn_pow[i] * cd_pow[m - i] * q
        num = term if num is None else num + term
    den = cn_pow[neg] * cd_pow[pos] * dd_pow[top]
    over, under = (b.num, b.den) if pos >= neg else (b.den, b.num)
    return RatFunA(num * over ** abs(pos - neg), den * under ** abs(pos - neg))


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
    """Writhe-normalized bracket: (-A^3)^(-writhe) * bracket, folded into
    the bracket's coefficients.  The unknot gives 1; an n-component unlink
    gives delta0^(n-1)."""
    pos = sum(sign > 0 for _, sign in letters)
    neg = len(letters) - pos
    return _bracket_in_A(_count_states(n, letters), pos, neg, pos - neg)
