"""The four seeded workloads of the skeinlab benchmark.

A workload is a closed loop over whole *rounds*.  A round is a fixed list
of cells (kinds of input: strand count, ring, subcommand, ...) visited in
a fixed order.  The seed chooses the concrete input of every cell (braid
letters, gauges, cocycle scales, pairing matrices, CLI arguments), so runs
with different seeds measure different inputs in the same mix.  Whole
rounds keep that mix, and with it the latency quantiles, the same from run
to run.  README.md in this directory records why each workload and cell
was chosen.

Each workload splits an item into four steps:

* ``specs``  -- pure data (ints, strings, tuples) drawn from the seed; the
  corpus digest is taken over these, so it does not depend on the program;
* ``build``  -- program objects made from a spec (pairs, Turaev data);
  this is set-up, not item time;
* ``run``    -- the timed calls into the program;
* ``check``  -- verdicts computed by this file, never by trusting the
  program's own expected value.  It returns None or a failure reason.

All program calls go through module attributes (``braid.invariant``, not a
name imported from it), so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from pathlib import Path

import skeinlab
from skeinlab import braid, cli, identities, linmap, rmatrix, switchback
from skeinlab.scalars import (
    GAUSS,
    LAURENT,
    RATFUN,
    Dual,
    GaussRat,
    LaurentA,
    RatFunA,
    parse_scalar,
)

FIXTURES = Path(skeinlab.__file__).parent / "fixtures"
COCYCLES = ("xx", "xy", "yx", "yy")
# i^k for k = 0..3, as (re, im)
UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _laurent_monomial(exp: int, re: int, im: int) -> LaurentA:
    return LaurentA(((exp, GaussRat(re, im)),))


# ---------------------------------------------------------------------------
# Exact helpers the checks use instead of linmap
# ---------------------------------------------------------------------------


def _is_zero_rows(rows) -> bool:
    return all(x.is_zero() for row in rows for x in row)


def _matmul(a, b, zero):
    """Plain product of two row-lists of scalars, skipping zeros."""
    out = [[zero] * len(b[0]) for _ in a]
    for i, arow in enumerate(a):
        orow = out[i]
        for t, c in enumerate(arow):
            if c.is_zero():
                continue
            for s, g in enumerate(b[t]):
                if not g.is_zero():
                    orow[s] = orow[s] + c * g
    return out


def _apply(m, v, zero):
    """m . v for a row-list m and a coordinate list v."""
    return [r[0] for r in _matmul(m, [[x] for x in v], zero)]


def _row_times(v: dict, rows) -> dict:
    """Sparse row vector {col: scalar} times a dense row-list."""
    out: dict = {}
    for t, c in v.items():
        for s, g in enumerate(rows[t]):
            if not g.is_zero():
                out[s] = out[s] + c * g if s in out else c * g
    return {s: x for s, x in out.items() if not x.is_zero()}


def _pairing_matrices(pair):
    """The pairing and copairing as d x d matrices B[a][j], G[j][k]."""
    d = pair.d
    b = [[pair.pairing.rows[0][a * d + j] for j in range(d)] for a in range(d)]
    g = [[pair.copairing.rows[j * d + k][0] for k in range(d)] for j in range(d)]
    return b, g


def _zigzag_failure(pair) -> str | None:
    """Both zig-zags hold iff B.G = 1 and G.B = 1 (entries in slot order)."""
    b, g = _pairing_matrices(pair)
    zero, one = pair.ring.zero(), pair.ring.one()
    for name, prod in (("B.G", _matmul(b, g, zero)), ("G.B", _matmul(g, b, zero))):
        for i, row in enumerate(prod):
            for j, x in enumerate(row):
                if x != (one if i == j else zero):
                    return f"zig-zag {name} is not the identity at ({i}, {j})"
    return None


def _loop_value(pair):
    """delta0 = sum over slots of pairing times copairing."""
    n = pair.d * pair.d
    acc = pair.ring.zero()
    for k in range(n):
        acc = acc + pair.pairing.rows[0][k] * pair.copairing.rows[k][0]
    return acc


# ---------------------------------------------------------------------------
# knots: closed-braid invariant against the planar oracle
# ---------------------------------------------------------------------------


class Knots:
    """normalized_invariant and jones_oracle on random braid words."""

    name = "knots"
    # (strands, letters per strand, deformed by a bundled cocycle).  Fifteen
    # cells put p50 and p90 in the middle of a cell rather than on a
    # boundary, and the four 6-7 strand cells hold the slowest tenth.
    # Three letters per strand only up to five strands and one at seven: a
    # 7-strand 2-letter or 6-strand 3-letter word costs 0.6-3.5 s, and a
    # round must stay near 3 s so that a run holds at least 100 items.
    ROUND = (
        (3, 1, False), (7, 1, False), (4, 1, True), (6, 1, True),
        (3, 2, True), (6, 2, False), (4, 2, True), (5, 3, False),
        (3, 3, False), (7, 1, False), (5, 1, True), (4, 3, False),
        (6, 1, False), (5, 2, False), (4, 1, False),
    )
    POOL_ROUNDS = 32
    TRACE_ROUNDS = 3

    def spec(self, rng: random.Random, cell):
        n, per_strand, deformed = cell
        # every generator once in random order, then random letters: the
        # closure is connected, and the cost of a word depends on its size
        # far more than on its letters (7-strand cost varies 7-12% this way,
        # 22% with uniformly random letters)
        gens = rng.sample(range(1, n), n - 1)
        gens += [rng.randint(1, n - 1) for _ in range(n * per_strand - len(gens))]
        letters = tuple((i, rng.choice((1, -1))) for i in gens)
        cocycle = rng.choice(COCYCLES) if deformed else None
        return (n, letters, cocycle)

    def setup(self):
        pair = switchback.make_bracket_pair(RATFUN)
        a, b = parse_scalar("A", RATFUN), parse_scalar("A^-1", RATFUN)
        tds = {None: braid.make_turaev(pair, a, b)}
        for c in COCYCLES:
            phi = switchback.parse_cocycle_config(
                (FIXTURES / f"cocycle_{c}.cfg").read_text(), pair
            )
            pair_t = switchback.deform(pair, *phi)
            tds[c] = braid.make_turaev(
                pair_t, *rmatrix.solve_deformed_coefficients(pair_t)
            )
        return tds

    def build(self, tds, spec):
        n, letters, cocycle = spec
        return tds[cocycle], braid.BraidWord(n, letters), cocycle is not None

    def run(self, item):
        td, w, _ = item
        return braid.normalized_invariant(td, w), braid.jones_oracle(w)

    def check(self, item, result):
        _, w, deformed = item
        value, oracle = result
        if deformed != isinstance(value, Dual):
            return f"{w}: value lies in the wrong ring"
        body = value.body if deformed else value
        # the oracle is a Laurent polynomial; the t=0 body must be that
        # polynomial over the trivial denominator
        if not isinstance(body, RatFunA) or not isinstance(oracle, LaurentA):
            return f"{w}: unexpected scalar types"
        if body.den != LAURENT.one() or body.num != oracle:
            return f"{w}: invariant differs from the planar oracle"
        return None


# ---------------------------------------------------------------------------
# tl: Temperley-Lieb relations (and some Yang-Baxter residuals)
# ---------------------------------------------------------------------------


class TL:
    """tl_generators + tl_first_failure on gauge-transformed and deformed
    bracket pairs."""

    name = "tl"
    # (strands, ring, also check Yang-Baxter, bundled cocycle of a dual
    # pair).  Nine cells put p50 in the middle of a cell; the two slowest
    # cells (5-strand dual, 6-strand Laurent) cost about the same and hold
    # p90.  Each dual cell keeps one cocycle, because the cocycle sets the
    # sparsity of the deformed maps and with it the cost (xx costs ~20% more
    # than xy at 5 strands); the seed picks the cocycle's scale.
    ROUND = (
        (3, "laurent", True, None), (5, "dual", False, "xy"), (4, "laurent", False, None),
        (6, "laurent", False, None), (3, "dual", False, "xx"), (4, "laurent", True, None),
        (5, "laurent", False, None), (4, "dual", True, "yy"), (3, "dual", False, "yx"),
    )
    POOL_ROUNDS = 56
    TRACE_ROUNDS = 6

    def spec(self, rng: random.Random, cell):
        n, ring, ybe, cocycle = cell
        if ring == "laurent":
            # pairing(x, y) -> c * pairing(D x, D y) with D, c monomial units
            params = tuple(
                (rng.randint(-2, 2), *rng.choice(UNITS)) for _ in range(3)
            )
        else:
            params = (cocycle, rng.choice(((1, 0), (-1, 0), (2, 0), (0, 1))))
        picks = tuple(rng.randrange(1 << 16) for _ in range(n - 1))
        return (n, ring, ybe, params, picks)

    def setup(self):
        base = switchback.make_bracket_pair(LAURENT)
        rat = switchback.make_bracket_pair(RATFUN)
        cocycles = {
            c: switchback.parse_cocycle_config(
                (FIXTURES / f"cocycle_{c}.cfg").read_text(), rat
            )
            for c in COCYCLES
        }
        return base, rat, cocycles

    def _gauge(self, base, params):
        (e1, r1, i1), (e2, r2, i2), (ec, rc, ic) = params
        dg = [_laurent_monomial(e1, r1, i1), _laurent_monomial(e2, r2, i2)]
        c = _laurent_monomial(ec, rc, ic)
        b, g = _pairing_matrices(base)
        brow = [c * b[i][j] * dg[i] * dg[j] for i in range(2) for j in range(2)]
        gcol = [[c.inv() * g[i][j] * dg[i].inv() * dg[j].inv()]
                for i in range(2) for j in range(2)]
        return switchback.SwitchbackPair(
            2, LAURENT,
            linmap.LinearMap.from_rows(2, 2, 0, LAURENT, [brow]),
            linmap.LinearMap.from_rows(2, 0, 2, LAURENT, gcol),
        )

    def build(self, shared, spec):
        base, rat, cocycles = shared
        n, ring, ybe, params, picks = spec
        if ring == "laurent":
            pair = self._gauge(base, params)
        else:
            name, (re_, im) = params
            scale = RatFunA(_laurent_monomial(0, re_, im))
            phi1, phi2 = cocycles[name]
            pair = switchback.deform(rat, phi1.scale(scale), phi2.scale(scale))
        R = None
        if ybe:
            if ring == "laurent":
                a, b = parse_scalar("A", LAURENT), parse_scalar("A^-1", LAURENT)
            else:
                a, b = rmatrix.solve_deformed_coefficients(pair)
            R = rmatrix.build_R(pair, a, b).R
        return pair, n, R, picks

    def run(self, item):
        pair, n, R, _ = item
        gens = rmatrix.tl_generators(pair, n)
        failure = rmatrix.tl_first_failure(gens, switchback.delta0(pair))
        residual = None if R is None else rmatrix.ybe_residual(R)
        return gens, failure, residual

    def check(self, item, result):
        pair, n, R, picks = item
        gens, failure, residual = result
        if failure is not None:
            return f"tl n={n}: {failure}"
        if len(gens) != n - 1 or any(len(e.rows) != 2**n for e in gens):
            return f"tl n={n}: wrong generator count or size"
        delta = _loop_value(pair)
        # e_i^2 = delta e_i and e_i e_j e_i = e_i (|i-j| = 1) on one sampled
        # nonzero row of each e_i
        for i, e in enumerate(gens):
            nonzero = [r for r, row in enumerate(e.rows) if any(not x.is_zero() for x in row)]
            if not nonzero:
                return f"tl n={n}: e{i + 1} is zero"
            r = nonzero[picks[i] % len(nonzero)]
            row = {s: x for s, x in enumerate(e.rows[r]) if not x.is_zero()}
            if _row_times(row, e.rows) != {s: delta * x for s, x in row.items()}:
                return f"tl n={n}: e{i + 1}^2 != delta*e{i + 1} at row {r}"
            for j in (i - 1, i + 1):
                if 0 <= j < len(gens):
                    if _row_times(_row_times(row, gens[j].rows), e.rows) != row:
                        return f"tl n={n}: e{i + 1}e{j + 1}e{i + 1} != e{i + 1} at row {r}"
        if R is not None:
            if len(residual.rows) != len(R.rows) * 2 or not _is_zero_rows(residual.rows):
                return f"tl n={n}: Yang-Baxter residual is not zero"
        return None


# ---------------------------------------------------------------------------
# algebra: switchback cohomology of random pairs
# ---------------------------------------------------------------------------


class Algebra:
    """d2d1 check, cohomology, 2-cocycles, deformations and degree-2
    analysis of random switchback pairs."""

    name = "algebra"
    # (d, ring).  Two d=3 cells in fourteen: the slowest seventh, so p90
    # lies inside them; the six d=2 ratfun cells hold p50.  A round stays
    # near 3 s (a d=3 item costs 0.55-0.7 s, a d=2 item 0.13-0.18 s), so a
    # run holds at least 100 items.
    ROUND = (
        (2, "gauss"), (2, "ratfun"), (2, "gauss"), (2, "ratfun"), (2, "gauss"),
        (2, "ratfun"), (3, "gauss"),
        (2, "ratfun"), (2, "gauss"), (2, "ratfun"), (2, "gauss"), (2, "ratfun"),
        (2, "gauss"), (3, "ratfun"),
    )
    POOL_ROUNDS = 24
    TRACE_ROUNDS = 4

    def spec(self, rng: random.Random, cell):
        d, ring = cell
        # pairing = P . (1 + c E_ij) . D: the determinant is the product of
        # the monomial units in D, so set-up (the inverse) stays cheap, while
        # elimination still divides by non-monomial entries.  One
        # transvection caps the ratfun tail: with two or three, or with dense
        # random entries, a d=3 ratfun item took 0.5-22 s.
        def coeff():
            exp = rng.randint(-1, 1) if ring == "ratfun" else 0
            re_, im = rng.choice(((1, 0), (-1, 0), (0, 1), (2, 0), (1, 1)))
            return (exp, re_, im)

        trans = ((*rng.sample(range(d), 2), coeff()),)
        diag = tuple(
            (rng.randint(-1, 1) if ring == "ratfun" else 0, *rng.choice(UNITS))
            for _ in range(d)
        )
        perm = tuple(rng.sample(range(d), d))
        f = tuple(tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(d))
        return (d, ring, trans, diag, perm, f)

    def setup(self):
        return identities.parse_identity_file(
            (FIXTURES / "switchback.idl").read_text()
        ).identities

    def build(self, idents, spec):
        d, ring_name, trans, diag, perm, f = spec
        ring = GAUSS if ring_name == "gauss" else RATFUN

        def scalar(exp, re_, im):
            if ring is GAUSS:
                return GaussRat(re_, im)
            return RatFunA(_laurent_monomial(exp, re_, im))

        zero, one = ring.zero(), ring.one()
        m = [[one if i == j else zero for j in range(d)] for i in range(d)]
        for i, j, c in trans:
            c = scalar(*c)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        dg = [scalar(*x) for x in diag]
        m = [[m[perm[i]][j] * dg[j] for j in range(d)] for i in range(d)]
        pair = switchback.pair_from_matrix(m, ring)
        fmap = linmap.LinearMap.from_rows(
            d, 1, 1, ring, [[ring.from_int(x) for x in row] for row in f]
        )
        return pair, fmap, idents

    def run(self, item):
        pair, f, idents = item
        assignment = {"beta": pair.pairing, "gamma": pair.copairing}
        d2d1 = [identities.check_d2d1(ident, assignment, f) for ident in idents]
        dims = switchback.cohomology_dims(pair)
        matrices = (
            switchback.d1_matrix(pair),
            switchback.d2_matrix(pair),
            switchback.d3_matrix(pair),
        )
        cocycles = switchback.solve_2cocycles(pair)
        deformed = [switchback.deform(pair, *c) for c in cocycles]
        zigzags = [switchback.verify_switchback(p) for p in deformed]
        degree2 = switchback.degree2_analysis(pair, *cocycles[0]) if cocycles else None
        return d2d1, dims, matrices, cocycles, deformed, zigzags, degree2

    def check(self, item, result):
        pair, _, idents = item
        d2d1, dims, (m1, m2, m3), cocycles, deformed, zigzags, degree2 = result
        d, zero = pair.d, pair.ring.zero()
        n1, n2 = d * d, 2 * d * d
        if len(d2d1) != len(idents) or not all(d2d1):
            return "d2 d1 f != 0 for a switchback identity"
        if (dims.z1 + dims.b2, dims.z2 + dims.b3, dims.z3 + dims.b4) != (n1, n2, n2):
            return f"rank-nullity fails: {dims}"
        if (dims.h1, dims.h2, dims.h3) != (dims.z1, dims.z2 - dims.b2, dims.z3 - dims.b3):
            return f"cohomology is not kernel over image: {dims}"
        if [(len(m), len(m[0])) for m in (m1, m2, m3)] != [(n2, n1), (n2, n2), (n2, n2)]:
            return "differential matrices have the wrong shape"
        if not _is_zero_rows(_matmul(m2, m1, zero)):
            return "d2 . d1 != 0"
        if not _is_zero_rows(_matmul(m3, m2, zero)):
            return "d3 . d2 != 0"
        if len(cocycles) != dims.z2:
            return f"{len(cocycles)} cocycles for z2 = {dims.z2}"
        for k, ((phi1, phi2), pt, ok) in enumerate(zip(cocycles, deformed, zigzags)):
            coords = list(phi1.rows[0]) + [r[0] for r in phi2.rows]
            if any(not x.is_zero() for x in _apply(m2, coords, zero)):
                return f"cocycle {k} is not in the kernel of d2"
            failure = _zigzag_failure(pt)
            if failure is not None or not ok:
                return f"deformed pair {k}: {failure or 'verify_switchback said no'}"
        if degree2 is not None:
            # coordinates of Hom(V, V): input slot, then output slot
            psi = [m.rows[o][i] for m in (degree2.psi1, degree2.psi2)
                   for i in range(d) for o in range(d)]
            if not degree2.is_cocycle or any(not x.is_zero() for x in _apply(m3, psi, zero)):
                return "degree-2 residual is not a 3-cocycle"
            if degree2.extension is not None:
                e1, e2 = degree2.extension
                ext = list(e1.rows[0]) + [r[0] for r in e2.rows]
                if any(a + b != zero for a, b in zip(_apply(m2, ext, zero), psi)):
                    return "degree-2 extension does not solve d2 x = -psi"
        return None


# ---------------------------------------------------------------------------
# cli: in-process subcommands over the bundled fixtures
# ---------------------------------------------------------------------------


def _idl_identities(name: str) -> int:
    text = (FIXTURES / f"{name}.idl").read_text()
    return sum(1 for line in text.splitlines() if line.startswith("identity "))


def _word(rng: random.Random, n: int, length: int) -> str:
    return " ".join(
        f"s{rng.randint(1, n - 1)}" + ("^-1" if rng.random() < 0.5 else "")
        for _ in range(length)
    )


def _cmd_infiltrate(rng, records):
    name = rng.choice(("assoc", "bialgebra", "adjoint", "selfdist", "switchback"))
    k = _idl_identities(name)
    if records:
        return ["infiltrate", name], ((r"^plan\t", k), (r"^differential\t", k))
    return ["infiltrate", name], ((r"^identity ", k), (r"^  differential:$", k))


def _cmd_check_d2d1(rng, records):
    name, model = rng.choice((("switchback", "bracket"), ("assoc", "dualnumbers")))
    argv = ["check-d2d1", name, "--model", model, "--trials", "2",
            "--seed", str(rng.randrange(1000))]
    pat = r"^check-d2d1\t.*\tok=true$" if records else r"^check-d2d1 \S+: OK "
    return argv, ((pat, _idl_identities(name)),)


def _cmd_verify_switchback(rng, records):
    argv = ["verify-switchback"] + rng.choice(
        ([], ["--ring", "ratfun"], ["--specialize", f"A={rng.randint(2, 5)}"])
    )
    pat = r"^switchback\tcondition=\d\tok=true$" if records else r"^switchback .*: OK$"
    return argv, ((pat, 2),)


def _cmd_cohomology(rng, records):
    argv = ["cohomology"] + rng.choice(([], ["--specialize", f"A={rng.randint(2, 5)}"]))
    # the rank-nullity identities are checked on the printed numbers
    pat = r"^cohomology\t" if records else r"^z1 = \d+$"
    return argv, ((pat, 1),)


def _cmd_solve_cocycles(rng, records):
    argv = ["solve-cocycles"] + rng.choice(([], ["--specialize", f"A={rng.randint(2, 5)}"]))
    # eight coordinates per cocycle on the d=2 bracket pair
    coords = r", ".join([r"[^,\t]+"] * 8)
    pat = rf"^cocycle\tindex=\d+\tcoords={coords}$" if records else rf"^cocycle \d+: \[{coords}\]$"
    return argv, ((pat, None),)


def _cmd_deform(rng, records):
    argv = ["deform", "--cocycle", rng.choice(COCYCLES)] + rng.choice(([], ["--ring", "ratfun"]))
    pat = r"^switchback\tdeformed=true\tok=true$" if records else r"^deformed switchback: OK$"
    return argv, ((pat, 1),)


def _cmd_verify_ybe(rng, records):
    argv = ["verify-ybe", "--cocycle", rng.choice(COCYCLES)]
    pat = r"^ybe\tok=true$" if records else r"^ybe residual zero: true$"
    return argv, ((pat, 1),)


def _cmd_tl_check(rng, records):
    argv = ["tl-check", "--strands", "3", "--cocycle", rng.choice(COCYCLES)]
    pat = r"^tl\tstrands=\d\tok=true$" if records else r"^tl n=\d: OK$"
    return argv, ((pat, 2),)


def _cmd_invariant(rng, records):
    words = [_word(rng, 3, 4) for _ in range(2)]
    argv = ["invariant", "--compare-oracle"]
    for w in words:
        argv += ["--braid", w]
    pat = r"^oracle\tword=.*\tmatch=true$" if records else r"^oracle .*: match$"
    return argv, ((pat, len(words)),)


def _cmd_jones_oracle(rng, records):
    words = [_word(rng, 4, 4) for _ in range(3)]
    argv = ["jones-oracle"]
    for w in words:
        argv += ["--braid", w]
    pat = r"^invariant\tword=.*\tvalue=" if records else r"^s.*\t"
    return argv, ((pat, len(words)),)


def _cmd_compare(rng, records):
    words = [_word(rng, 3, 3) for _ in range(2)]
    argv = ["compare", "--cocycle", rng.choice(COCYCLES)]
    for w in words:
        argv += ["--braid", w]
    if records:
        expect = ((r"^compare\t.*\tmatch=true$", 2), (r"^summary\tok=true$", 1))
    else:
        expect = ((r"\toracle match$", 2), (r"^all checks: OK$", 1))
    return argv, expect


SUBCOMMANDS = (
    _cmd_infiltrate, _cmd_check_d2d1, _cmd_verify_switchback,
    _cmd_cohomology, _cmd_solve_cocycles, _cmd_deform, _cmd_verify_ybe,
    _cmd_tl_check, _cmd_invariant, _cmd_jones_oracle, _cmd_compare,
)


class Cli:
    """One skeinlab.cli.main(argv) call per item, stdout captured."""

    name = "cli"
    # every subcommand once in each output mode, and three cheap ones once
    # more: with 25 cells p50 and p90 fall inside a cell, not on a boundary
    ROUND = tuple((cmd, mode) for mode in ("text", "records") for cmd in SUBCOMMANDS) + (
        (_cmd_infiltrate, "records"), (_cmd_verify_switchback, "text"),
        (_cmd_deform, "records"),
    )
    POOL_ROUNDS = 100
    TRACE_ROUNDS = 12
    FORBIDDEN = re.compile(r"^fail\t|^FAIL|MISMATCH", re.M)

    def spec(self, rng: random.Random, cell):
        cmd, mode = cell
        argv, expect = cmd(rng, mode == "records")
        return (tuple(argv + ["--output", mode]), expect)

    def setup(self):
        return None

    def build(self, shared, spec):
        return spec

    def run(self, item):
        argv, _ = item
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    def check(self, item, result):
        argv, expect = item
        code, out = result
        label = " ".join(argv)
        if code != 0:
            return f"{label}: exit code {code}"
        if self.FORBIDDEN.search(out):
            return f"{label}: failure or mismatch reported"
        for pattern, count in expect:
            found = len(re.findall(pattern, out, re.M))
            if (found == 0) if count is None else (found != count):
                return f"{label}: {found} lines match {pattern!r}, want {count or 'some'}"
        if argv[0] == "cohomology":
            nums = dict(re.findall(r"\b(z\d|b\d|h\d)[= ]+(\d+)", out))
            dims = {k: int(v) for k, v in nums.items()}
            if len(dims) != 9:
                return f"{label}: cohomology output lacks a dimension"
            if (dims["z1"] + dims["b2"], dims["z2"] + dims["b3"], dims["z3"] + dims["b4"]) != (4, 8, 8):
                return f"{label}: rank-nullity fails"
            if (dims["h1"], dims["h2"], dims["h3"]) != (
                dims["z1"], dims["z2"] - dims["b2"], dims["z3"] - dims["b3"]
            ):
                return f"{label}: cohomology is not kernel over image"
        return None


WORKLOADS = {wl.name: wl for wl in (Knots(), TL(), Algebra(), Cli())}


def specs(workload, seed: int, rounds: int) -> list[list]:
    """The seeded corpus: `rounds` rounds of pure-data specs."""
    rng = random.Random(f"skeinlab-perfbench/{workload.name}/{seed}")
    return [[workload.spec(rng, cell) for cell in workload.ROUND] for _ in range(rounds)]
