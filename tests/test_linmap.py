"""Tensor calculus and exact linear algebra over the scalar tower."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinlab.linmap import (
    LinearMap,
    ShapeMismatchError,
    apply_local,
    compose,
    dual_from_parts,
    dual_parts,
    equal,
    full_trace,
    invert_rows,
    map_apply,
    map_specialize,
    partial_trace,
    placed,
    rank,
    reshape,
    rref,
    swap,
    transpose,
)
from skeinlab.scalars import (
    GAUSS,
    LAURENT,
    RATFUN,
    GaussRat,
    RingMismatchError,
    dual,
    into_ring,
    parse_scalar,
)

from reference import kernel_basis, kron


def _rand_map(rng, d, p, q, ring=GAUSS):
    rows = [
        [ring.from_int(rng.randint(-5, 5)) for _ in range(d**p)]
        for _ in range(d**q)
    ]
    return LinearMap.from_rows(d, p, q, ring, rows)


def _map_into(f, ring):
    return map_apply(f, lambda x: into_ring(x, ring), ring)


def test_shape_and_entry_layout():
    f = _rand_map(random.Random(0), 2, 2, 1)
    assert f.shape.rows == 2 and f.shape.cols == 4
    # column index encodes basis tensors with the leftmost factor most significant
    g = LinearMap.zero(2, 2, 0, GAUSS)
    assert g.shape.cols == 4
    # every shape with p + q <= 3, arity 0 included: nonzeros walks the
    # nonzero cells of rows in row-major order and entry reads rows
    rng = random.Random(56)
    for d in (1, 2, 3):
        for p in range(4):
            for q in range(4 - p):
                body, slope = (LinearMap.from_rows(d, p, q, GAUSS, [
                    [GAUSS.from_int(rng.choice((0, 0, rng.randint(-5, 5))))
                     for _ in range(d**p)] for _ in range(d**q)
                ]) for _ in range(2))
                for m in (body, dual_from_parts(body, slope)):
                    cells = [(r, c, v) for r, row in enumerate(m.rows)
                             for c, v in enumerate(row)]
                    assert list(m.nonzeros()) == [x for x in cells if not x[2].is_zero()]
                    assert all(m.entry(r, c) == v for r, c, v in cells)
                    assert transpose(transpose(m)) == m


def test_entry_outside_the_matrix_is_refused():
    f = _rand_map(random.Random(3), 2, 1, 2)
    assert f.entry(3, 1) == f.rows[3][1]
    for i, j in [(-1, 0), (0, -1), (4, 0), (0, 2), (1, 2), (3, 2)]:
        with pytest.raises(ShapeMismatchError):
            f.entry(i, j)


def test_compose_shapes_and_identity():
    rng = random.Random(1)
    f = _rand_map(rng, 2, 2, 1)
    one2 = LinearMap.identity(2, 2, GAUSS)
    one1 = LinearMap.identity(2, 1, GAUSS)
    assert compose(one1, f) == f
    assert compose(f, one2) == f
    with pytest.raises(ShapeMismatchError):
        compose(f, f)


def test_interchange_law():
    rng = random.Random(2)
    for _ in range(10):
        f = _rand_map(rng, 2, 1, 1)
        g = _rand_map(rng, 2, 2, 1)
        h = _rand_map(rng, 2, 1, 1)
        k = _rand_map(rng, 2, 1, 2)
        lhs = compose(kron(f, g), kron(h, k))
        rhs = kron(compose(f, h), compose(g, k))
        assert lhs == rhs


def test_permutation_moves_factors():
    # X(e_i (x) e_j) = e_j (x) e_i: column i*d + j holds a single one, in row j*d + i
    for d in (2, 3):
        x = swap(d, GAUSS)
        for i in range(d):
            for j in range(d):
                image = [x.entry(r, i * d + j) for r in range(d * d)]
                expected = [GAUSS.zero()] * (d * d)
                expected[j * d + i] = GAUSS.one()
                assert image == expected
        assert compose(x, x) == LinearMap.identity(d, 2, GAUSS)


@pytest.mark.parametrize("d", [2, 3])
def test_reshape_keeps_the_flat_index(d):
    f = _rand_map(random.Random(d), d, 2, 0)
    m = reshape(f, 1, 1)
    assert (m.shape.p, m.shape.q) == (1, 1)
    for i in range(d):
        for j in range(d):
            assert m.entry(i, j) == f.entry(0, i * d + j)
    assert reshape(m, 2, 0) == f
    assert reshape(reshape(f, 0, 2), 2, 0) == f
    assert reshape(f, 2, 0) == f
    g = _rand_map(random.Random(d + 10), d, 2, 1)
    for p in range(4):
        assert reshape(reshape(g, p, 3 - p), 2, 1) == g


def test_transpose_swaps_rows_and_columns():
    f = _rand_map(random.Random(12), 2, 1, 2)
    t = transpose(f)
    assert (t.shape.p, t.shape.q) == (2, 1)
    assert all(t.entry(c, r) == f.entry(r, c) for r in range(4) for c in range(2))
    assert transpose(t) == f
    g = _rand_map(random.Random(13), 2, 2, 1)
    # (f g)^T = g^T f^T
    assert transpose(compose(f, g)) == compose(transpose(g), transpose(f))


def test_reshape_size_mismatch_is_an_error():
    f = _rand_map(random.Random(14), 2, 2, 0)
    with pytest.raises(ShapeMismatchError):
        reshape(f, 1, 2)
    with pytest.raises(ShapeMismatchError):
        reshape(f, 3, -1)


def test_reshape_and_transpose_keep_dual_entries():
    ring = dual(RATFUN)
    vals = [parse_scalar(x, ring) for x in ("0 + t*( 1 )", "A + t*( -A )", "0", "-1 + t*( 0 )")]
    f = LinearMap.from_rows(2, 2, 0, ring, [vals])
    m = reshape(f, 1, 1)
    assert m.ring is ring
    assert m.rows == ((vals[0], vals[1]), (vals[2], vals[3]))
    assert transpose(m).rows == ((vals[0], vals[2]), (vals[1], vals[3]))
    assert reshape(transpose(transpose(m)), 2, 0) == f
    assert all(not v.is_zero() for _, _, v in transpose(m).nonzeros())


def _unit(d, p, q, ring, row, col):
    """The matrix unit: one at (row, col), zero elsewhere."""
    z, o = ring.zero(), ring.one()
    return LinearMap.from_rows(d, p, q, ring, [
        [o if (r, c) == (row, col) else z for c in range(d**p)] for r in range(d**q)
    ])


def test_unit_is_one_hot():
    u = _unit(2, 0, 2, GAUSS, 3, 0)
    assert [(r, c) for r, c, _ in u.nonzeros()] == [(3, 0)]
    assert u.entry(3, 0) == GAUSS.one()
    with pytest.raises(ShapeMismatchError):
        LinearMap.from_rows(2, 0, 2, GAUSS, [[GAUSS.one(), GAUSS.zero()]] * 4)


def test_partial_trace_of_product_map():
    rng = random.Random(5)
    f = _rand_map(rng, 2, 1, 1)
    g = _rand_map(rng, 2, 1, 1)
    fg = kron(f, g)
    # tracing out one factor leaves the other scaled by the traced factor's trace
    assert partial_trace(fg, 1) == f.scale(full_trace(g))
    assert partial_trace(fg, 0) == g.scale(full_trace(f))
    assert full_trace(fg) == full_trace(f) * full_trace(g)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5))
def test_scale_is_linear(a, b):
    f = _rand_map(random.Random(7), 2, 1, 1)
    sa, sb = GAUSS.from_int(a), GAUSS.from_int(b)
    assert f.scale(sa) + f.scale(sb) == f.scale(sa + sb)


def test_rref_rank_kernel_solve():
    rng = random.Random(8)
    rows = [[GAUSS.from_int(rng.randint(-5, 5)) for _ in range(5)] for _ in range(3)]
    r = rank(rows, GAUSS)
    # the kernel read off the reduced form annihilates every row
    ker = kernel_basis(rows, GAUSS)
    assert r + len(ker) == 5
    for v in ker:
        for row in rows:
            acc = GAUSS.zero()
            for c, x in zip(row, v):
                acc = acc + c * x
            assert acc.is_zero()


def test_invert_rows():
    rng = random.Random(9)
    while True:
        rows = [[GAUSS.from_int(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        if rank(rows, GAUSS) == 3:
            break
    inv = invert_rows(rows, GAUSS)
    prod = [
        [sum((rows[i][k] * inv[k][j] for k in range(3)), GAUSS.zero()) for j in range(3)]
        for i in range(3)
    ]
    for i in range(3):
        for j in range(3):
            assert prod[i][j] == (GAUSS.one() if i == j else GAUSS.zero())
    singular = [rows[0], rows[0], rows[1]]
    assert invert_rows(singular, GAUSS) is None


def test_gaussian_elimination_requires_field():
    rows = [[parse_scalar("A", LAURENT)]]
    with pytest.raises(RingMismatchError):
        rref(rows, LAURENT)
    ok = [[parse_scalar("( A )/( 1 )", RATFUN)]]
    assert rank(ok, RATFUN) == 1
    # a ragged matrix, and a right-hand side of another length, are refused
    # rather than truncated
    one, zero = GAUSS.one(), GAUSS.zero()
    for ragged in ([[one], [one, one]], [[one, one], [zero]]):
        with pytest.raises(ShapeMismatchError, match="^elimination: row lengths differ"):
            rank(ragged, GAUSS)
    with pytest.raises(ShapeMismatchError, match="^inversion needs a square matrix$"):
        invert_rows([[one, zero]], GAUSS)


def _dense_rref(rows, ring):
    """Reduced row echelon form by whole-row operations: the reference for
    rref, which visits only the nonzeros of each pivot row."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not m[i][c].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inv()
        m[r] = [inv * v for v in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


# zero is drawn often, so matrices are sparse and often rank-deficient
ELIMINATION_POOLS = {
    "gauss": (GAUSS, ("0", "0", "0", "1", "-1", "2", "i", "1/2 - i", "-3/4")),
    "ratfun": (RATFUN, (
        "0", "0", "0", "( 1 )/( 1 )", "( A )/( 1 )", "( -1 )/( A )",
        "( 1 )/( 1 + A )", "( 2 - i*A^2 )/( 1 )",
    )),
}


@pytest.mark.parametrize("name", sorted(ELIMINATION_POOLS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rref_matches_dense_reference(name, data):
    ring, texts = ELIMINATION_POOLS[name]
    values = [parse_scalar(t, ring) for t in texts]
    draw_value = lambda: data.draw(st.sampled_from(values))  # noqa: E731
    nrows = data.draw(st.integers(min_value=0, max_value=5))
    ncols = data.draw(st.integers(min_value=1, max_value=6))
    rows = [[draw_value() for _ in range(ncols)] for _ in range(nrows)]
    if rows:
        # rank deficiency: a zero column, a zero row, a duplicate row and a
        # combination of two rows, each where drawn
        if data.draw(st.booleans()):
            c = data.draw(st.integers(min_value=0, max_value=ncols - 1))
            for row in rows:
                row[c] = ring.zero()
        if data.draw(st.booleans()):
            rows.append([ring.zero()] * ncols)
        if data.draw(st.booleans()):
            rows.append(list(data.draw(st.sampled_from(rows))))
        if data.draw(st.booleans()):
            a, b, x, y = rows[0], rows[-1], draw_value(), draw_value()
            rows.insert(1, [x * u + y * v for u, v in zip(a, b)])
        if data.draw(st.booleans()):
            # an augmented system: a right-hand side, consistent when it is
            # a combination of the columns
            x, y = draw_value(), draw_value()
            for row in rows:
                row.append(x * row[0] + y * row[-1] if data.draw(st.booleans()) else draw_value())
        data.draw(st.randoms(use_true_random=False)).shuffle(rows)
    before = [list(r) for r in rows]
    assert rref(rows, ring) == _dense_rref(rows, ring)
    assert rows == before


def test_ring_changing_maps():
    f = _rand_map(random.Random(10), 2, 1, 1)
    up = _map_into(f, RATFUN)
    assert up.ring is RATFUN
    assert map_specialize(_map_into(f, LAURENT), GaussRat(2)) == f
    emb = dual_from_parts(up, LinearMap.zero(2, 1, 1, RATFUN))
    assert emb.ring is dual(RATFUN)
    body, slope = dual_parts(emb)
    assert body == up and slope.is_zero()
    assert dual_parts(dual_from_parts(up, up.scale(-1))) == (up, -up)
    with pytest.raises(RingMismatchError):
        dual_parts(up)


def test_mixed_ring_map_arithmetic_rejected():
    f = _rand_map(random.Random(11), 2, 1, 1, GAUSS)
    g = _map_into(f, LAURENT)
    with pytest.raises(RingMismatchError):
        f + g


def test_equal_rejects_what_subtraction_rejects():
    rng = random.Random(12)
    f = _rand_map(rng, 2, 1, 1)
    assert equal(f, LinearMap.from_rows(2, 1, 1, GAUSS, f.rows))
    assert not equal(f, f + _unit(2, 1, 1, GAUSS, 1, 0))
    for other in (_rand_map(rng, 2, 1, 2), _rand_map(rng, 3, 1, 1)):
        with pytest.raises(ShapeMismatchError):
            equal(f, other)
        with pytest.raises(ShapeMismatchError):
            f - other
    with pytest.raises(RingMismatchError):
        equal(f, _map_into(f, LAURENT))
    with pytest.raises(RingMismatchError):
        f - _map_into(f, LAURENT)


# ---------------------------------------------------------------------------
# Sparse storage against a dense reference.  The reference below works on
# plain row lists and shares no code with linmap.
# ---------------------------------------------------------------------------

# entry pools per ring; zero is drawn often, and the dual pool has pure
# t-multiples whose products cancel (t*t = 0)
POOLS = {
    "laurent": (LAURENT, ("0", "0", "0", "1", "-1", "A", "-A", "A^-1", "2 - i*A^2")),
    "dual-ratfun": (dual(RATFUN), (
        "0", "0", "0", "0 + t*( 1 )", "0 + t*( -A )", "1 + t*( 0 )",
        "-1 + t*( A )", "A + t*( 0 )", "( 1 )/( 1 + A ) + t*( 0 )",
    )),
}
VALUES = {
    name: (ring, [parse_scalar(text, ring) for text in texts])
    for name, (ring, texts) in POOLS.items()
}


def _dense_sum(values, zero):
    acc = zero
    for v in values:
        acc = acc + v
    return acc


def _dense_compose(a, b, zero):
    return [
        [_dense_sum((a[i][t] * b[t][j] for t in range(len(b))), zero)
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _dense_tensor(a, b):
    return [
        [x * y for x in ra for y in rb]
        for ra in a for rb in b
    ]


def _dense_partial_trace(a, d, n, slot, zero):
    place = d ** (n - 1 - slot)

    def widen(idx, digit):
        # insert `digit` at `slot` into an (n-1)-digit base-d index
        return (idx // place) * place * d + digit * place + idx % place

    dim = d ** (n - 1)
    return [
        [_dense_sum((a[widen(r, b)][widen(c, b)] for b in range(d)), zero)
         for c in range(dim)]
        for r in range(dim)
    ]


def _draw_rows(data, name, p, q):
    _, values = VALUES[name]
    return [[data.draw(st.sampled_from(values)) for _ in range(2**p)] for _ in range(2**q)]


def _assert_matches(m, ref):
    """m equals the dense reference and stores no zero."""
    assert m.rows == tuple(tuple(r) for r in ref)
    assert all(not v.is_zero() for _, _, v in m.nonzeros())
    assert m.is_zero() == all(x.is_zero() for r in ref for x in r)


@pytest.mark.parametrize("name", sorted(POOLS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_sparse_ops_match_dense_reference(name, data):
    ring, values = VALUES[name]
    zero = ring.zero()
    p, k, q = (data.draw(st.integers(min_value=0, max_value=2)) for _ in range(3))
    a, c = _draw_rows(data, name, k, q), _draw_rows(data, name, k, q)
    b = _draw_rows(data, name, p, k)
    s = data.draw(st.sampled_from(values))
    fa, fc = LinearMap.from_rows(2, k, q, ring, a), LinearMap.from_rows(2, k, q, ring, c)
    fb = LinearMap.from_rows(2, p, k, ring, b)
    _assert_matches(fa, a)
    _assert_matches(compose(fa, fb), _dense_compose(a, b, zero))
    _assert_matches(kron(fa, fb), _dense_tensor(a, b))
    _assert_matches(fa + fc, [[x + y for x, y in zip(ra, rc)] for ra, rc in zip(a, c)])
    _assert_matches(fa - fc, [[x - y for x, y in zip(ra, rc)] for ra, rc in zip(a, c)])
    _assert_matches(-fa, [[-x for x in ra] for ra in a])
    assert equal(fa, fc) == (a == c)
    assert equal(fa - fc + fc, fa)
    _assert_matches(fa.scale(s), [[s * x for x in ra] for ra in a])
    # f: V^k -> V^q and g: V^q -> V^k
    g = _draw_rows(data, name, q, k)
    expected = _dense_sum(
        (a[i][j] * g[j][i] for i in range(len(a)) for j in range(len(g))), zero
    )
    assert full_trace(compose(fa, LinearMap.from_rows(2, q, k, ring, g))) == expected


@pytest.mark.parametrize("name", sorted(POOLS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sparse_traces_match_dense_reference(name, data):
    ring, _ = VALUES[name]
    zero = ring.zero()
    n = data.draw(st.integers(min_value=1, max_value=3))
    slot = data.draw(st.integers(min_value=0, max_value=n - 1))
    a = _draw_rows(data, name, n, n)
    f = LinearMap.from_rows(2, n, n, ring, a)
    _assert_matches(partial_trace(f, slot), _dense_partial_trace(a, 2, n, slot, zero))
    assert full_trace(f) == _dense_sum((a[i][i] for i in range(len(a))), zero)


# entry pools for apply_local at d = 1, 2, 3; the dual pool has pure
# t-multiples, so a placement can cancel (t*t = 0)
PLACE_POOLS = {
    "gauss": (GAUSS, ("0", "0", "0", "1", "-1", "i", "1/2 - i")),
    "dual-gauss": (dual(GAUSS), (
        "0", "0", "0", "0 + t*( 1 )", "0 + t*( -i )", "1 + t*( 0 )", "2 + t*( 1/2 )",
    )),
}


def _dense_identity(d, n, ring):
    return [[ring.one() if i == j else ring.zero() for j in range(d**n)] for i in range(d**n)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(PLACE_POOLS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_apply_local_matches_dense_padded_product(name, d, data):
    ring, texts = PLACE_POOLS[name]
    values = [parse_scalar(text, ring) for text in texts]
    k, l, p = (data.draw(st.integers(min_value=0, max_value=2)) for _ in range(3))
    q = k + data.draw(st.integers(min_value=0, max_value=3 - k))

    def rows(nin, nout):
        return [[data.draw(st.sampled_from(values)) for _ in range(d**nin)]
                for _ in range(d**nout)]

    a, b = rows(k, l), rows(p, q)
    f, g = LinearMap.from_rows(d, k, l, ring, a), LinearMap.from_rows(d, p, q, ring, b)
    _assert_matches(kron(f, g), _dense_tensor(a, b))
    for slot in range(q - k + 1):
        padded = _dense_tensor(
            _dense_tensor(_dense_identity(d, slot, ring), a),
            _dense_identity(d, q - k - slot, ring),
        )
        out = apply_local(f, slot, g)
        assert out.shape.p == p and out.shape.q == q - k + l
        _assert_matches(out, _dense_compose(padded, b, ring.zero()))


def test_apply_local_refusals():
    rng = random.Random(13)
    f, g = _rand_map(rng, 2, 2, 1), _rand_map(rng, 2, 1, 3)
    assert apply_local(f, 1, g).shape.q == 2
    for slot in (-1, 2):
        with pytest.raises(ShapeMismatchError, match="^apply_local: .* at slot"):
            apply_local(f, slot, g)
    with pytest.raises(ShapeMismatchError, match="^apply_local: d differs"):
        apply_local(_rand_map(rng, 3, 2, 1), 0, g)
    with pytest.raises(RingMismatchError, match="^apply_local: rings differ"):
        apply_local(_map_into(f, LAURENT), 0, g)


# entry pools for placed, one per ring the Temperley-Lieb and Turaev
# checks place maps over
SQUARE_POOLS = {
    "gauss": (GAUSS, ("0", "0", "1", "-1", "i", "1/2 - i")),
    "laurent": (LAURENT, ("0", "0", "A", "-A^-1", "2 + i*A^3")),
    "ratfun": (RATFUN, ("0", "0", "A^-1", "( 2*A )/( 3 - i*A )", "( -1/2 )/( 1 + A )")),
    "dual-ratfun": (dual(RATFUN), (
        "0", "0", "( 0 )/( 1 ) + t*( ( 1 )/( 1 ) )",
        "( A )/( 1 + A ) + t*( ( -2/3*A^-1 )/( 1 - 1/3i*A ) )",
        "( 2 )/( 1 ) + t*( ( 0 )/( 1 ) )",
    )),
}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SQUARE_POOLS))
def test_placed_is_apply_local_on_the_identity(name, d):
    ring, texts = SQUARE_POOLS[name]
    values = [parse_scalar(text, ring) for text in texts]
    rng = random.Random(f"{name}-{d}")
    for k in (0, 1, 2):
        f = LinearMap.from_rows(d, k, k, ring, [
            [rng.choice(values) for _ in range(d**k)] for _ in range(d**k)
        ])
        own = {id(v) for *_, v in f.nonzeros()}
        for n in range(k, 4):
            for slot in range(n - k + 1):
                out = placed(f, slot, n)
                by_product = apply_local(f, slot, LinearMap.identity(d, n, ring))
                padded = kron(kron(LinearMap.identity(d, slot, ring), f),
                              LinearMap.identity(d, n - k - slot, ring))
                assert (out.shape, out.ring) == (by_product.shape, ring)
                assert equal(out, by_product) and equal(out, padded)
                assert list(out.nonzeros()) == list(padded.nonzeros())
                assert all(id(v) in own for *_, v in out.nonzeros())


def test_placed_refusals():
    rng = random.Random(14)
    square = _rand_map(rng, 2, 2, 2)
    assert placed(square, 1, 3).shape.q == 3
    cases = [
        (_rand_map(rng, 2, 1, 2), 0, 3, "placed: (d=2, 1->2) is not square"),
        (_rand_map(rng, 2, 1, 0), 0, 1, "placed: (d=2, 1->0) is not square"),
        (square, -1, 3, "placed: (d=2, 2->2) does not fit at slot -1 of 3 strands"),
        (square, 2, 3, "placed: (d=2, 2->2) does not fit at slot 2 of 3 strands"),
        (square, 0, 1, "placed: (d=2, 2->2) does not fit at slot 0 of 1 strands"),
    ]
    for f, slot, n, message in cases:
        with pytest.raises(ShapeMismatchError) as got:
            placed(f, slot, n)
        assert str(got.value) == message


def test_scale_trace_and_dual_refusals():
    f = LinearMap.zero(2, 1, 2, GAUSS)
    square = LinearMap.zero(2, 2, 2, GAUSS)
    cases = [
        (RingMismatchError, "scalar ring laurent differs from map ring gauss",
         lambda: f.scale(parse_scalar("A", LAURENT))),
        (ShapeMismatchError, "partial trace needs square shape, got (d=2, 1->2)",
         lambda: partial_trace(f, 0)),
        (ShapeMismatchError, "partial trace needs square shape, got (d=2, 0->0)",
         lambda: partial_trace(LinearMap.zero(2, 0, 0, GAUSS), 0)),
        (ShapeMismatchError, "slot 2 out of range for arity 2", lambda: partial_trace(square, 2)),
        (ShapeMismatchError, "slot -1 out of range for arity 2", lambda: partial_trace(square, -1)),
        (ShapeMismatchError, "trace needs square shape, got (d=2, 1->2)", lambda: full_trace(f)),
        (RingMismatchError, "body over gauss but slope over ratfun",
         lambda: dual_from_parts(LinearMap.zero(2, 1, 1, GAUSS), LinearMap.zero(2, 1, 1, RATFUN))),
        (ShapeMismatchError, "body has shape (d=2, 1->1) but slope (d=2, 1->2)",
         lambda: dual_from_parts(LinearMap.zero(2, 1, 1, GAUSS), f)),
    ]
    for error, message, call in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


def test_cancelled_entries_are_dropped():
    ring = dual(RATFUN)
    t = parse_scalar("0 + t*( 1 )", ring)
    z = ring.zero()
    f = LinearMap.from_rows(2, 1, 1, ring, [[t, z], [z, t]])
    # t * t = 0 in every entry of the product
    assert compose(f, f) == LinearMap.zero(2, 1, 1, ring)
    assert kron(f, f).is_zero() and f.scale(t).is_zero()
    assert (f - f).is_zero() and not (f + f).is_zero()
    assert list(f.nonzeros()) == [(0, 0, t), (1, 1, t)]
