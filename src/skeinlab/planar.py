"""Non-crossing matchings (Temperley-Lieb diagrams) and a purely
combinatorial Kauffman-bracket state sum.

This module deliberately avoids the linear-map machinery: diagrams are
perfect non-crossing matchings of 2n boundary points with an accumulated
closed-loop count, multiplied by stacking.  The state sum resolves each
positive crossing into A * (identity) + A^-1 * (cup-cap at that position),
each negative crossing with the two coefficients swapped, stacks each
cup-cap by a local update of the diagram's partner tuple, closes the braid
by joining top k to bottom k, and weights a state with L closed loops by
delta0^(L-1) where delta0 = -A^2 - A^-2.  The writhe-normalized bracket
is the Jones polynomial in the A variable.  It serves as an oracle for
the braid-trace invariant, sharing no code path with it.

Boundary points of an n-strand diagram: bottom 0..n-1 left to right, top
n..2n-1 left to right.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import A, A_INV, LAURENT, LaurentA


class PlanarityError(ValueError):
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


def bracket_state_sum(n: int, letters) -> LaurentA:
    """Unnormalized Kauffman bracket of the trace closure of a braid word
    given as (index, sign) letters on n strands.

    A state is a diagram without its free loops, stored as the tuple of
    partners of its 2n boundary points; loops closed while stacking are
    folded into the state's coefficient."""
    acc = {tuple(range(n, 2 * n)) + tuple(range(n)): LAURENT.one()}
    for i, sign in letters:
        if not 1 <= i <= n - 1:
            raise PlanarityError(f"cup-cap index {i} out of range for {n} strands")
        w_id, w_e = (A, A_INV) if sign > 0 else (A_INV, A)
        w_loop = w_e * _DELTA0
        x, y = n + i - 1, n + i
        nxt: dict[tuple[int, ...], LaurentA] = {}
        for state, coeff in acc.items():
            # e_i on top: a cap already at top points x, y closes one loop;
            # otherwise their partners are joined and x, y become a cap
            px, py = state[x], state[y]
            if px == y:
                e_state, e_weight = state, w_loop
            else:
                joined = list(state)
                joined[px], joined[py], joined[x], joined[y] = py, px, y, x
                e_state, e_weight = tuple(joined), w_e
            # the identity smoothing leaves the state as it is
            for key, weight in ((state, w_id), (e_state, e_weight)):
                v = coeff * weight
                prev = nxt.get(key)
                nxt[key] = v if prev is None else prev + v
        acc = {k: v for k, v in nxt.items() if not v.is_zero()}
    total = LAURENT.zero()
    for state, coeff in acc.items():
        total = total + coeff * _DELTA0 ** (_closure_loops(state, n) - 1)
    return total


def jones_polynomial(n: int, letters) -> LaurentA:
    """Writhe-normalized bracket: (-A^3)^(-writhe) * bracket.  The unknot
    gives 1; an n-component unlink gives delta0^(n-1)."""
    writhe = sum(sign for _, sign in letters)
    return _MINUS_A3 ** (-writhe) * bracket_state_sum(n, letters)
