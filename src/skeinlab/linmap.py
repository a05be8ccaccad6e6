"""Linear maps between tensor powers of a d-dimensional free module.

A LinearMap of shape (d, p, q) sends V^{⊗p} -> V^{⊗q}; it is a d^q x d^p
matrix over one ring of the scalar tower (rows index the codomain).  Basis
ordering contract: the basis vector e_{i_0} ⊗ ... ⊗ e_{i_{n-1}} has index
sum_k i_k * d^{n-1-k}, i.e. the leftmost tensor factor is the most
significant digit, so `apply_local(f, slot, g)` = (1^slot ⊗ f ⊗ 1^rest) ∘ g
acts on digits slot .. slot+k-1 of g's codomain index.  It is the one product
loop, and `compose` is it at slot 0.  On the identity, for a square f, it is
`placed(f, slot, n)`, which lays out f's own entries with no product.

Storage is sparse, and only this module knows its format: one flat dict
{row * cols + col: scalar}, where no stored scalar is an exact zero; the
packed kernel's lanes (_packed) use the same key.  `reshape` keeps the flat
key, so it shares the dict and changes only the shape, and `_place` pushes
each stored entry of g through the column of f that its digits select.
Every operation visits nonzero entries only, results that cancel are
dropped (over the dual numbers this includes products such as t*t), and
`is_zero` is O(1).  Read entries with `entry` or `nonzeros`; `rows` is a
dense read-only view, built on first read, for printing.

`equal(f, g)` compares the stored entries directly, and that is exact:
storage never holds a zero, and each ring of the scalar tower keeps its
values canonical (equal values have equal structure), so two maps are
equal exactly when their sparse entries are, and f - g is then zero.

Arity 0 is the ground ring: a map V^{⊗2} -> K is a 1 x d^2 matrix, a map
K -> V^{⊗2} is d^2 x 1.

Exact Gaussian elimination (rref / rank / invert_rows) is provided for
dense row lists over the field rings only (GaussRat and RatFunA).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from . import SkeinlabError
from .scalars import Dual, Ring, RingMismatchError, dual, ring_of, specialize

Scalar = object


class ShapeMismatchError(SkeinlabError):
    """Operands have incompatible shapes (reports both)."""


@dataclass(frozen=True)
class MapShape:
    d: int
    p: int
    q: int

    @property
    def rows(self) -> int:
        return self.d**self.q

    @property
    def cols(self) -> int:
        return self.d**self.p

    def __str__(self):
        return f"(d={self.d}, {self.p}->{self.q})"


@cache
def _zero(ring: Ring) -> Scalar:
    # scalars are immutable, so one zero per ring serves every map
    return ring.zero()


def _pruned(items) -> dict[int, Scalar]:
    """Sparse storage from (key, scalar) pairs, exact zeros dropped."""
    return {k: v for k, v in items if not v.is_zero()}


@dataclass(frozen=True)
class LinearMap:
    shape: MapShape
    ring: Ring
    # row * cols + col -> nonzero scalar; built only by this module
    _entries: dict[int, Scalar]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(d: int, p: int, q: int, ring: Ring, rows) -> "LinearMap":
        """From a dense list of d^q rows of d^p scalars."""
        shape = MapShape(d, p, q)
        rows = [tuple(r) for r in rows]
        if len(rows) != shape.rows or any(len(r) != shape.cols for r in rows):
            raise ShapeMismatchError(
                f"matrix is {len(rows)} x {len(rows[0]) if rows else 0}, "
                f"shape {shape} wants {shape.rows} x {shape.cols}"
            )
        cols = shape.cols
        return LinearMap(shape, ring, _pruned(
            (i * cols + j, v) for i, r in enumerate(rows) for j, v in enumerate(r)
        ))

    @staticmethod
    def zero(d: int, p: int, q: int, ring: Ring) -> "LinearMap":
        return LinearMap(MapShape(d, p, q), ring, {})

    @staticmethod
    def identity(d: int, n: int, ring: Ring) -> "LinearMap":
        o, size = ring.one(), d**n
        return LinearMap(MapShape(d, n, n), ring,
                         {i * (size + 1): o for i in range(size)})

    # -- reading ------------------------------------------------------------

    @cached_property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        """Dense read-only view: d^q rows of d^p scalars, zeros included."""
        cols = self.shape.cols
        empty = (_zero(self.ring),) * cols
        dense: dict[int, list] = {}
        for k, v in self._entries.items():
            r, c = divmod(k, cols)
            row = dense.get(r)
            if row is None:
                row = dense[r] = list(empty)
            row[c] = v
        out = [empty] * self.shape.rows
        for r, row in dense.items():
            out[r] = tuple(row)
        return tuple(out)

    def entry(self, i: int, j: int) -> Scalar:
        if not (0 <= i < self.shape.rows and 0 <= j < self.shape.cols):
            raise ShapeMismatchError(
                f"entry ({i}, {j}) is outside the {self.shape.rows} x "
                f"{self.shape.cols} matrix of shape {self.shape}"
            )
        return self._entries.get(i * self.shape.cols + j, _zero(self.ring))

    def nonzeros(self):
        """(row, col, scalar) for every nonzero entry, in row-major order."""
        cols = self.shape.cols
        for k in sorted(self._entries):
            yield *divmod(k, cols), self._entries[k]

    def is_zero(self) -> bool:
        return not self._entries

    # -- elementwise --------------------------------------------------------

    def _check_same(self, other: "LinearMap", what: str):
        if self.shape != other.shape:
            raise ShapeMismatchError(
                f"{what}: shapes differ, {self.shape} vs {other.shape}"
            )
        if self.ring != other.ring:
            raise RingMismatchError(
                f"{what}: rings differ, {self.ring} vs {other.ring}"
            )

    def _merged(self, other: "LinearMap", what: str, negate: bool) -> "LinearMap":
        """self + other, or self - other when negate, in one pass."""
        self._check_same(other, what)
        out = dict(self._entries)
        for k, v in other._entries.items():
            x = out.get(k)
            if x is None:
                out[k] = -v if negate else v
                continue
            s = x - v if negate else x + v
            if s.is_zero():
                del out[k]
            else:
                out[k] = s
        return LinearMap(self.shape, self.ring, out)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        return self._merged(other, "add", False)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self._merged(other, "subtract", True)

    def __neg__(self) -> "LinearMap":
        return LinearMap(self.shape, self.ring,
                         {k: -v for k, v in self._entries.items()})

    def scale(self, s: Scalar) -> "LinearMap":
        if not isinstance(s, int) and ring_of(s) != self.ring:
            raise RingMismatchError(
                f"scalar ring {ring_of(s)} differs from map ring {self.ring}"
            )
        return LinearMap(self.shape, self.ring,
                         _pruned((k, s * v) for k, v in self._entries.items()))


def equal(f: LinearMap, g: LinearMap) -> bool:
    """f == g, entry for entry.  Raises ShapeMismatchError or
    RingMismatchError where f - g would; exact, because storage is
    canonical (see the module docstring)."""
    f._check_same(g, "compare")
    return f._entries == g._entries


def _place(f: LinearMap, slot: int, g: LinearMap) -> LinearMap:
    """apply_local unchecked.  Each stored entry of g is pushed through the
    column of f that its digits select; cancelled entries are dropped at
    the end."""
    d, k, l, q = f.shape.d, f.shape.p, f.shape.q, g.shape.q
    span = d**k
    # place value, in g's flat key, of f's lowest digit
    step = d ** (q - k - slot) * g.shape.cols
    hi, out_hi = step * span, step * d**l
    moves: list[list] = [[] for _ in range(span)]
    for key, x in f._entries.items():
        fr, t = divmod(key, span)
        moves[t].append((fr * step, x))
    acc: dict[int, Scalar] = {}
    for key, v in g._entries.items():
        col = moves[key // step % span]
        if not col:
            continue
        base = key // hi * out_hi + key % step
        for off, x in col:
            o = base + off
            prev = acc.get(o)
            acc[o] = x * v if prev is None else prev + x * v
    return LinearMap(MapShape(d, g.shape.p, q - k + l), f.ring, _pruned(acc.items()))


def _check_pair(f: LinearMap, g: LinearMap, what: str):
    if f.shape.d != g.shape.d:
        raise ShapeMismatchError(f"{what}: d differs, {f.shape} vs {g.shape}")
    if f.ring != g.ring:
        raise RingMismatchError(f"{what}: rings differ, {f.ring} vs {g.ring}")


def apply_local(f: LinearMap, slot: int, g: LinearMap) -> LinearMap:
    """(1^slot ⊗ f ⊗ 1^rest) ∘ g: V^p -> V^(q-k+l) for f: V^k -> V^l and
    g: V^p -> V^q; needs 0 <= slot <= q - k."""
    _check_pair(f, g, "apply_local")
    if not 0 <= slot <= g.shape.q - f.shape.p:
        raise ShapeMismatchError(
            f"apply_local: {f.shape} does not fit at slot {slot} "
            f"of codomain arity {g.shape.q}"
        )
    return _place(f, slot, g)


def placed(f: LinearMap, slot: int, n: int) -> LinearMap:
    """1^slot ⊗ f ⊗ 1^rest on n strands, for a square f: V^k -> V^k with
    0 <= slot <= n - k.  It equals apply_local(f, slot, identity on n
    strands), but is laid out by index arithmetic: every stored entry is an
    entry of f itself, with no product and no zero test."""
    d, k = f.shape.d, f.shape.p
    if f.shape.q != k:
        raise ShapeMismatchError(f"placed: {f.shape} is not square")
    if not 0 <= slot <= n - k:
        raise ShapeMismatchError(
            f"placed: {f.shape} does not fit at slot {slot} of {n} strands"
        )
    low, span, size = d ** (n - k - slot), d**k, d**n
    hi = low * span
    # entry (rf, t) of f sits at row base + rf*low, column base + t*low,
    # for every base = a*hi + c with c < low
    local = [((key // span * size + key % span) * low, x)
             for key, x in f._entries.items()]
    out = {}
    for a in range(0, size, hi):
        for base in range(a, a + low):
            at = base * (size + 1)
            for off, x in local:
                out[at + off] = x
    return LinearMap(MapShape(d, n, n), f.ring, out)


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """f ∘ g (apply g first).  Requires domain of f = codomain of g."""
    if f.shape.p != g.shape.q:
        raise ShapeMismatchError(
            f"compose: domain arity {f.shape.p} != codomain arity {g.shape.q}"
        )
    _check_pair(f, g, "compose")
    return _place(f, 0, g)


def reshape(f: LinearMap, p: int, q: int) -> LinearMap:
    """The same coefficients regrouped as V^p -> V^q: the flat key
    row * d^p_f + col of each entry is kept, so the storage is shared.
    Bends a pairing V^2 -> K or a copairing K -> V^2 into its d x d
    matrix, and back."""
    if p + q != f.shape.p + f.shape.q or p < 0 or q < 0:
        raise ShapeMismatchError(
            f"reshape: {f.shape} has {f.shape.p + f.shape.q} slots, not {p}+{q}"
        )
    return LinearMap(MapShape(f.shape.d, p, q), f.ring, f._entries)


def transpose(f: LinearMap) -> LinearMap:
    """The transpose matrix, as a map V^q -> V^p."""
    rows, cols = f.shape.rows, f.shape.cols
    return LinearMap(MapShape(f.shape.d, f.shape.q, f.shape.p), f.ring, {
        k % cols * rows + k // cols: v for k, v in f._entries.items()
    })


def swap(d: int, ring: Ring) -> LinearMap:
    """The adjacent transposition e_i⊗e_j -> e_j⊗e_i on V ⊗ V."""
    o = ring.one()
    out = {(j * d + i) * d * d + i * d + j: o for i in range(d) for j in range(d)}
    return LinearMap(MapShape(d, 2, 2), ring, out)


def partial_trace(f: LinearMap, slot: int) -> LinearMap:
    """Contract domain slot `slot` with codomain slot `slot` (0-based)."""
    d, p, q = f.shape.d, f.shape.p, f.shape.q
    if p != q or p < 1:
        raise ShapeMismatchError(f"partial trace needs square shape, got {f.shape}")
    if not 0 <= slot < p:
        raise ShapeMismatchError(f"slot {slot} out of range for arity {p}")
    # place value of the traced digit; dropping it keeps the digits below
    # and shifts the ones above down by one place
    low, size = d ** (p - 1 - slot), f.shape.cols
    high, out_size = low * d, size // d
    acc: dict[int, Scalar] = {}
    for key, v in f._entries.items():
        r, c = divmod(key, size)
        if r // low % d != c // low % d:
            continue
        o = (r // high * low + r % low) * out_size + c // high * low + c % low
        prev = acc.get(o)
        acc[o] = v if prev is None else prev + v
    return LinearMap(MapShape(d, p - 1, p - 1), f.ring, _pruned(acc.items()))


def full_trace(f: LinearMap) -> Scalar:
    if f.shape.p != f.shape.q:
        raise ShapeMismatchError(f"trace needs square shape, got {f.shape}")
    # key r*size + c is a multiple of size + 1 exactly when r == c
    diag = f.shape.cols + 1
    return sum((v for k, v in f._entries.items() if not k % diag), _zero(f.ring))


# ---------------------------------------------------------------------------
# Exact elimination over the field rings
# ---------------------------------------------------------------------------


def _require_field(ring: Ring, what: str):
    if not ring.is_field:
        raise RingMismatchError(
            f"{what} needs a field; {ring} is not one (use gauss or ratfun)"
        )


def rref(rows: list[list[Scalar]], ring: Ring) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column list).

    Left of its pivot the pivot row is zero (every earlier column is a
    pivot column cleared from it, or was zero in all rows still below), so
    normalising and subtracting it touch only its nonzero columns from the
    pivot on."""
    _require_field(ring, "elimination")
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if any(len(row) != ncols for row in m):
        raise ShapeMismatchError(
            f"elimination: row lengths differ, {sorted({len(row) for row in m})}"
        )
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not m[i][c].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        inv = prow[c].inv()
        nz = [k for k in range(c, ncols) if not prow[k].is_zero()]
        for k in nz:
            prow[k] = inv * prow[k]
        for i in range(nrows):
            row = m[i]
            if i != r and not row[c].is_zero():
                f = row[c]
                for k in nz:
                    row[k] = row[k] - f * prow[k]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows, ring: Ring) -> int:
    return len(rref(rows, ring)[1])


def invert_rows(rows, ring: Ring) -> list[list[Scalar]] | None:
    """Inverse of a square matrix over a field ring, or None if singular."""
    _require_field(ring, "inversion")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeMismatchError("inversion needs a square matrix")
    z, o = ring.zero(), ring.one()
    aug = [list(r) + [o if i == j else z for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(aug, ring)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


# --- ring-changing entry maps -------------------------------------------

def map_apply(f: LinearMap, fn, ring: Ring) -> LinearMap:
    """fn applied to every entry; fn must send zero to zero."""
    return LinearMap(f.shape, ring, _pruned((k, fn(v)) for k, v in f._entries.items()))


def map_specialize(f: LinearMap, value) -> LinearMap:
    """Substitute a rational value for the Laurent variable in every entry."""
    ring = ring_of(specialize(_zero(f.ring), value))
    return map_apply(f, lambda x: specialize(x, value), ring)


def dual_parts(f: LinearMap) -> tuple[LinearMap, LinearMap]:
    """Split a map over a dual ring into (body, slope) over the base ring."""
    if f.ring.name != "dual":
        raise RingMismatchError(f"dual_parts wants a dual ring, got {f.ring}")
    base = f.ring.base
    body = map_apply(f, lambda x: x.body, base)
    slope = map_apply(f, lambda x: x.slope, base)
    return body, slope


def dual_from_parts(body: LinearMap, slope: LinearMap) -> LinearMap:
    """body + t*slope over the dual of their common ring (inverse of
    dual_parts)."""
    if body.ring is not slope.ring:
        raise RingMismatchError(
            f"body over {body.ring} but slope over {slope.ring}"
        )
    if body.shape != slope.shape:
        raise ShapeMismatchError(
            f"body has shape {body.shape} but slope {slope.shape}"
        )
    z = _zero(body.ring)
    b, s = body._entries, slope._entries
    return LinearMap(body.shape, dual(body.ring), {
        k: Dual(b.get(k, z), s.get(k, z)) for k in b.keys() | s.keys()
    })
