"""A tensor product for the tests, independent of linmap's product loop.

`kron` multiplies the stored entries of two maps pairwise, as a Kronecker
product of matrices; it calls no compose, apply_local or _place, so a test
that builds a padded map with it checks placement against something else.
"""

from skeinlab.linmap import LinearMap, MapShape


def kron(f: LinearMap, g: LinearMap) -> LinearMap:
    """f ⊗ g: V^(p_f+p_g) -> V^(q_f+q_g), f's factors the leftmost.  Row
    r*rows_g + s and column c*cols_g + u hold f[r][c] * g[s][u]; products
    that vanish (t*t over a dual ring) are dropped."""
    g_rows, g_cols = g.shape.rows, g.shape.cols
    g_entries = list(g.nonzeros())
    entries: dict[int, dict[int, object]] = {}
    for r, c, x in f.nonzeros():
        for s, u, y in g_entries:
            v = x * y
            if not v.is_zero():
                entries.setdefault(r * g_rows + s, {})[c * g_cols + u] = v
    shape = MapShape(f.shape.d, f.shape.p + g.shape.p, f.shape.q + g.shape.q)
    return LinearMap(shape, f.ring, entries)
