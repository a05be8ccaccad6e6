"""The combinatorial oracle: planar matchings and the bracket state sum.

This module deliberately shares no linear algebra with the rest of the
package, so its values can anchor the braid-trace invariant.
"""

import random
from itertools import product

import pytest

from skeinlab import planar
from skeinlab.planar import (
    PlanarityError,
    PlanarMatching,
    _count_states,
    bracket_state_sum,
    jones_polynomial,
)
from skeinlab.scalars import RATFUN, GaussRat, LaurentA, parse_scalar, specialize

E = PlanarMatching.cup_cap
ID = PlanarMatching.identity


def _lp(text):
    from skeinlab.scalars import LAURENT

    return parse_scalar(text, LAURENT)


DELTA0 = _lp("-A^-2 - A^2")


def test_identity_is_neutral():
    for n in (2, 3, 4):
        for i in range(1, n):
            assert ID(n) * E(n, i) == E(n, i)
            assert E(n, i) * ID(n) == E(n, i)


def test_temperley_lieb_relations_on_diagrams():
    for n in (2, 3, 4, 5):
        for i in range(1, n):
            square = E(n, i) * E(n, i)
            assert square.loops == 1
            assert square.strip_loops() == E(n, i)
        for i in range(1, n - 1):
            assert E(n, i) * E(n, i + 1) * E(n, i) == E(n, i)
            assert E(n, i + 1) * E(n, i) * E(n, i + 1) == E(n, i + 1)
        for i in range(1, n):
            for j in range(i + 2, n):
                assert E(n, i) * E(n, j) == E(n, j) * E(n, i)


def test_multiplication_associative_on_e_words():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(2, 5)
        a, b, c = (E(n, rng.randint(1, n - 1)) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_crossing_matchings_rejected():
    # the strand swap 0<->top1, 1<->top0 crosses
    with pytest.raises(PlanarityError):
        PlanarMatching(2, frozenset([frozenset((0, 3)), frozenset((1, 2))]), 0)
    with pytest.raises(PlanarityError):
        PlanarMatching(
            3, frozenset([frozenset((0, 4)), frozenset((1, 3)), frozenset((2, 5))]), 0
        )
    # identity strands are planar
    PlanarMatching(2, frozenset([frozenset((0, 2)), frozenset((1, 3))]), 0)


def test_malformed_matchings_rejected():
    with pytest.raises(PlanarityError):
        PlanarMatching(2, frozenset([frozenset((0, 1))]), 0)  # 2 points unmatched
    with pytest.raises(PlanarityError):
        PlanarMatching(1, frozenset([frozenset((0, 5))]), 0)  # out of range


def test_trace_closure_loops():
    assert ID(1).trace_closure_loops() == 1
    assert ID(3).trace_closure_loops() == 3
    for n in (2, 3, 4):
        for i in range(1, n):
            assert E(n, i).trace_closure_loops() == n - 1


# ---------------------------------------------------------------------------
# state sum values (these anchor the braid invariant's acceptance tests)
# ---------------------------------------------------------------------------


def test_bracket_empty_words():
    assert jones_polynomial(1, []) == _lp("1")
    assert jones_polynomial(2, []) == DELTA0
    assert jones_polynomial(3, []) == DELTA0 * DELTA0


def test_single_crossing_closes_to_unknot():
    assert jones_polynomial(2, [(1, 1)]) == _lp("1")
    assert jones_polynomial(2, [(1, -1)]) == _lp("1")


def test_trefoil_and_mirror():
    trefoil = jones_polynomial(2, [(1, 1)] * 3)
    assert trefoil == _lp("-A^-16 + A^-12 + A^-4")
    mirror = jones_polynomial(2, [(1, -1)] * 3)
    assert mirror == _lp("A^4 + A^12 - A^16")
    # mirroring inverts A
    assert mirror == LaurentA(tuple((-k, c) for k, c in trefoil.terms))


def test_figure_eight_is_amphichiral():
    w = [(1, 1), (2, -1), (1, 1), (2, -1)]
    fig8 = jones_polynomial(3, w)
    assert fig8 == _lp("A^-8 - A^-4 + 1 - A^4 + A^8")
    mirror = jones_polynomial(3, [(i, -s) for i, s in w])
    assert mirror == fig8


def test_cinquefoil():
    assert jones_polynomial(2, [(1, 1)] * 5) == _lp(
        "-A^-28 + A^-24 - A^-20 + A^-16 + A^-8"
    )


def test_jones_at_unit_evaluations():
    # any knot's value is 1 at A = 1 and A = -1
    for letters, n in (
        ([(1, 1)] * 3, 2),
        ([(1, 1)] * 5, 2),
        ([(1, 1), (2, -1), (1, 1), (2, -1)], 3),
    ):
        v = jones_polynomial(n, letters)
        assert specialize(v, GaussRat(1)) == GaussRat(1)
        assert specialize(v, GaussRat(-1)) == GaussRat(1)


def _closure_loops(diagram):
    """Loops of the trace closure of a diagram, its free loops included.
    Joining top point n + k to bottom point k gives every boundary point
    two edges, so the loops are the connected components, found here by
    union-find rather than by the walk of the state sum."""
    n = diagram.n
    parent = list(range(2 * n))

    def root(p):
        while parent[p] != p:
            p = parent[p]
        return p

    for a, b in (*diagram.pairs, *((k, n + k) for k in range(n))):
        parent[root(a)] = root(b)
    return len({root(p) for p in range(2 * n)}) + diagram.loops


def _brute_force_sum(n, letters, a, b, delta):
    """Expand every smoothing choice by diagram products and fold in the
    loop values: a positive letter is a * id + b * e_i, a negative one
    a^-1 * id + b^-1 * e_i.  Shares no loop count with the state sum."""
    total = a * 0
    for choice in product((0, 1), repeat=len(letters)):
        coeff = a**0
        diagram = ID(n)
        for (i, sign), use_e in zip(letters, choice):
            weight = b if use_e else a
            coeff = coeff * (weight if sign > 0 else weight.inv())
            diagram = (E(n, i) if use_e else ID(n)) * diagram
        closed = _closure_loops(diagram)
        total = total + coeff * delta ** (closed - 1)
    return total


def _random_letters(rng, n, most):
    return [
        (rng.randint(1, n - 1), rng.choice((1, -1)))
        for _ in range(rng.randint(0, most))
    ]


def test_state_sum_equals_brute_force_enumeration():
    rng = random.Random(2)
    for _ in range(12):
        n = rng.randint(2, 6)
        letters = _random_letters(rng, n, 7)
        expected = _brute_force_sum(n, letters, _lp("A"), _lp("A^-1"), DELTA0)
        assert expected == bracket_state_sum(n, letters)


# a * b != 1: swapping a and b for a negative letter, instead of inverting
# them, agrees with the bracket's own weights but not with these
@pytest.mark.parametrize("a, b, delta", [
    (GaussRat(2), GaussRat(3), GaussRat(5)),
    (GaussRat(0, 1), GaussRat(2), GaussRat(-1)),
])
def test_state_sum_with_weights_equals_brute_force_enumeration(a, b, delta):
    rng = random.Random(4)
    words = [(n, _random_letters(rng, n, 10)) for n in (rng.randint(2, 6) for _ in range(8))]
    # one (i, L) digit of s1^10 collects C(10, 5) = 252 of its 1024 states
    words += [(2, [(1, 1)] * 10), (3, [(1, -1), (2, 1)] * 5)]
    for n, letters in words:
        expected = _brute_force_sum(n, letters, a, b, delta)
        assert bracket_state_sum(n, letters, a, b, delta) == expected


# rational-function weights are summed over one denominator: a and b with
# one denominator (a = A*f, b = A^-1*f, so a/b = A^2), with two coprime
# ones, and delta with a denominator of its own
def _rf(text):
    return parse_scalar(text, RATFUN)


@pytest.mark.parametrize("a, b, delta", [
    (_rf("( 2*A )/( 3 - i*A )"), _rf("( 2*A^-1 )/( 3 - i*A )"), _rf("-A^2 - A^-2")),
    (_rf("( A + 1 )/( 2 - A )"), _rf("( 3 )/( 1 + A^2 )"), _rf("( A - 1 )/( 1 + i*A )")),
])
def test_state_sum_at_rational_weights_equals_brute_force_enumeration(a, b, delta):
    rng = random.Random(6)
    words = [(n, _random_letters(rng, n, 6)) for n in (rng.randint(2, 5) for _ in range(6))]
    words += [(2, [(1, 1)] * 6), (3, [(2, -1), (1, -1)] * 2), (2, [])]
    for n, letters in words:
        expected = _brute_force_sum(n, letters, a, b, delta)
        assert bracket_state_sum(n, letters, a, b, delta) == expected


def test_counts_from_a_cold_state_table_equal_those_from_a_warm_one():
    # the states of each strand count are numbered once and shared by every
    # word, so no count may depend on which words met them first: count
    # words on 2-7 strands in two interleaved orders, each from a cleared
    # table and then again from the table that it left
    rng = random.Random(5)
    words = [(n, _random_letters(rng, n, 3 * n)) for n in range(2, 8) for _ in range(3)]
    rng.shuffle(words)
    runs = []
    for order in (words, words[::-1]):
        planar._STATES.clear()
        cold = {(n, tuple(w)): _count_states(n, w) for n, w in order}
        warm = {(n, tuple(w)): _count_states(n, w) for n, w in order}
        assert cold == warm
        runs.append(cold)
    assert runs[0] == runs[1]
    for (n, letters), counts in runs[0].items():
        # every smoothing is counted once
        assert sum(counts.values()) == 2 ** len(letters)


@pytest.mark.parametrize("letter", [(3, 1), (0, -1)])
def test_state_sum_rejects_out_of_range_letters(letter):
    with pytest.raises(
        PlanarityError, match=f"^cup-cap index {letter[0]} out of range for 3 strands$"
    ):
        bracket_state_sum(3, [letter])


def test_oracle_is_markov_invariant():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 3)
        letters = [
            (rng.randint(1, n - 1), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 5))
        ]
        base = jones_polynomial(n, letters)
        for g in range(1, n):
            for s in (1, -1):
                conj = [(g, s)] + letters + [(g, -s)]
                assert jones_polynomial(n, conj) == base
        for s in (1, -1):
            assert jones_polynomial(n + 1, letters + [(n, s)]) == base
