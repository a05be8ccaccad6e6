"""References for the tests, independent of the code they check.

`kron` multiplies the stored entries of two maps pairwise, as a Kronecker
product of matrices; it calls no compose, apply_local or _place, so a test
that builds a padded map with it checks placement against something else.
`conjugated` and `stabilized` make the two Markov moves of a braid word.
"""

from skeinlab.braid import BraidWord
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


def conjugated(w: BraidWord, i: int, sign: int = 1) -> BraidWord:
    """g w g^-1 for g = s_i^sign."""
    return BraidWord(w.n, ((i, sign), *w.letters, (i, -sign)))


def stabilized(w: BraidWord, sign: int = 1) -> BraidWord:
    """w . s_n^sign on one more strand."""
    return BraidWord(w.n + 1, (*w.letters, (w.n, sign)))
