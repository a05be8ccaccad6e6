"""Command-line surface.

Subcommands run the library's verifications and computations from small
config files (see the bundled fixtures for the formats) and print
deterministic reports.  `--output records` switches to line-oriented
tab-separated `key=value` records for golden-file testing.  The exit
status is 0 exactly when every requested verification passed; failures
end with a `fail` record naming the reason.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from pathlib import Path

from . import SkeinlabError
from .braid import (
    BraidWord,
    compare_with_oracle,
    jones_oracle,
    make_turaev,
    matches_oracle,
    normalized_invariant,
    parse_braid,
)
from .identities import (
    check_d2d1,
    elaborate,
    infiltrate,
    parse_identity_file,
    to_text,
)
from .linmap import LinearMap
from .rmatrix import (
    build_R,
    check_strands,
    solve_deformed_coefficients,
    tl_first_failure,
    tl_generators,
    ybe_residual,
)
from .scalars import (
    GAUSS,
    LAURENT,
    RATFUN,
    format_scalar,
    parse_scalar,
    ring_by_name,
)
from .switchback import (
    SwitchbackPair,
    cochain_coords,
    cohomology_dims,
    deform,
    deformation_obstruction,
    delta0,
    format_matrix,
    make_bracket_pair,
    parse_cocycle_config,
    parse_pair_config,
    solve_2cocycles,
    verify_switchback,
)

_FIXTURES = Path(__file__).parent / "fixtures"


class CliError(SkeinlabError):
    pass


class Out:
    """The report of one CLI run and the verdicts it has given.

    Every line is given in both forms: `text` for text mode, which prints
    prose, and `kind` with `fields` for records mode, which prints
    kind TAB k=v TAB ...  `verdict` prints an ok/FAIL line and remembers a
    failure; `exit_code` turns the remembered verdicts into the exit status,
    ending a failed run with the `fail` line.
    """

    def __init__(self, mode: str):
        self.records = mode == "records"
        self.failed = False

    def emit(self, kind: str, fields, text: str):
        if self.records:
            print("\t".join([kind] + [f"{k}={v}" for k, v in fields]))
        else:
            print(text)

    def verdict(self, ok: bool, kind: str, fields, text: str, key: str = "ok"):
        """Emit a line whose last field is `key` = true/false."""
        self.emit(kind, [*fields, (key, str(ok).lower())], text)
        self.failed = self.failed or not ok

    def exit_code(self, reason: str) -> int:
        if not self.failed:
            return 0
        self.fail(reason)
        return 1

    def fail(self, reason: str):
        self.emit("fail", [("reason", reason)], f"FAIL: {reason}")


def _resolve(name: str, suffix: str, prefix: str = "") -> Path:
    """The file `name`, else the bundled fixture `name` or `name` + suffix;
    then the same three for prefix + name."""
    for stem in (name, prefix + name):
        for cand in (Path(stem), _FIXTURES / stem, _FIXTURES / (stem + suffix)):
            if cand.is_file():
                return cand
    raise CliError(f"no such file or bundled fixture: {name}")


def _specialized_at(args):
    """The value of A given by --specialize, or None."""
    if not args.specialize:
        return None
    key, _, value = args.specialize.partition("=")
    if key.strip() != "A" or not value.strip():
        raise CliError(f"expected --specialize A=<rational>, got {args.specialize!r}")
    return parse_scalar(value.strip(), GAUSS)


def _load_pair(args) -> SwitchbackPair:
    """The pair file, brought into --ring and then specialized by
    --specialize; cocycles and coefficients follow it via pair.scalar."""
    path = _resolve(args.pair, ".pair")
    pair = parse_pair_config(path.read_text(), str(path))
    if args.ring:
        pair = pair.into_ring(ring_by_name(args.ring))
    at = _specialized_at(args)
    return pair if at is None else pair.specialize(at)


def _field_pair(pair: SwitchbackPair) -> SwitchbackPair:
    # cohomology / invariants divide by the loop value, so the Laurent
    # ring is silently widened to its fraction field
    return pair.into_ring(RATFUN) if pair.ring is LAURENT else pair


def _load_cocycle(args, pair: SwitchbackPair):
    path = _resolve(args.cocycle, ".cfg", "cocycle_")
    return parse_cocycle_config(path.read_text(), pair, str(path))


# ---------------------------------------------------------------------------
# models for check-d2d1
# ---------------------------------------------------------------------------


def _model_assignment(name: str):
    if name == "bracket":
        pair = make_bracket_pair()
        return {"beta": pair.pairing, "gamma": pair.copairing}, 2, pair.ring
    if name == "dualnumbers":
        # multiplication table of Q(i)[x]/(x^2) on basis (1, x)
        rows = [[1, 0, 0, 0], [0, 1, 1, 0]]
        mu = LinearMap.from_rows(
            2, 2, 1, GAUSS, [[GAUSS.from_int(e) for e in r] for r in rows]
        )
        return {"mu": mu}, 2, GAUSS
    raise CliError(f"unknown model {name!r} (want bracket or dualnumbers)")


def _random_f(d: int, ring, rng: random.Random) -> LinearMap:
    rows = [[ring.from_int(rng.randint(-9, 9)) for _ in range(d)] for _ in range(d)]
    return LinearMap.from_rows(d, 1, 1, ring, rows)


def _load_identities(args):
    path = _resolve(args.file, ".idl")
    idf = parse_identity_file(path.read_text())
    return idf.identities if not args.identity else (idf.identity(args.identity),)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_infiltrate(args, out: Out) -> int:
    for ident in _load_identities(args):
        plan = elaborate(ident)
        diff = infiltrate(plan).canonical()
        out.emit(
            "plan",
            [("identity", ident.label), ("lhs", to_text(plan.lhs)), ("rhs", to_text(plan.rhs))],
            f"identity {ident.label}: {to_text(ident.lhs)} = {to_text(ident.rhs)}\n"
            f"  plan lhs: {to_text(plan.lhs)}\n"
            f"  plan rhs: {to_text(plan.rhs)}",
        )
        terms = []
        for coeff, term in diff.terms:
            mag = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
            terms.append(f"    {'+' if coeff > 0 else '-'} {mag}{to_text(term)}")
        out.emit(
            "differential",
            [("identity", ident.label), ("sum", diff.to_text())],
            "\n".join(["  differential:", *(terms or ["    0"])]),
        )
    return 0


def cmd_check_d2d1(args, out: Out) -> int:
    if args.trials < 1:
        raise CliError(f"--trials must be at least 1, got {args.trials}")
    idents = _load_identities(args)
    assignment, d, ring = _model_assignment(args.model)
    rng = random.Random(args.seed)
    for ident in idents:
        ok = all(
            check_d2d1(ident, assignment, _random_f(d, ring, rng))
            for _ in range(args.trials)
        )
        out.verdict(
            ok, "check-d2d1", [("identity", ident.label)],
            f"check-d2d1 {ident.label}: {'OK' if ok else 'FAIL'} ({args.trials} random f)",
        )
    return out.exit_code("d2d1 residual nonzero")


def cmd_verify_switchback(args, out: Out) -> int:
    # over a commutative ring one product decides both zig-zags
    # (switchback module docstring), so both get its verdict
    ok = verify_switchback(_load_pair(args))
    for k, label in enumerate(("(beta x 1)(1 x gamma) = 1", "(1 x beta)(gamma x 1) = 1"), 1):
        out.verdict(
            ok, "switchback", [("condition", str(k))],
            f"switchback {label}: {'OK' if ok else 'FAIL'}",
        )
    return out.exit_code("switchback conditions violated")


def cmd_cohomology(args, out: Out) -> int:
    pair = _field_pair(_load_pair(args))
    dims = cohomology_dims(pair)
    fields = [
        ("z1", dims.z1), ("b2", dims.b2), ("z2", dims.z2), ("b3", dims.b3),
        ("z3", dims.z3), ("b4", dims.b4), ("h1", dims.h1), ("h2", dims.h2),
        ("h3", dims.h3),
    ]
    out.emit("cohomology", fields, "\n".join(f"{name} = {value}" for name, value in fields))
    return 0


def cmd_solve_cocycles(args, out: Out) -> int:
    pair = _field_pair(_load_pair(args))
    for k, (phi1, phi2) in enumerate(solve_2cocycles(pair), 1):
        coords = ", ".join(format_scalar(c) for c in cochain_coords(phi1, phi2))
        out.emit(
            "cocycle",
            [("index", k), ("coords", coords)],
            f"cocycle {k}: [{coords}]",
        )
    return 0


def cmd_deform(args, out: Out) -> int:
    pair = _load_pair(args)
    phi1, phi2 = _load_cocycle(args, pair)
    pt = deform(pair, phi1, phi2)
    beta_t, gamma_t = format_matrix(pt.pairing), format_matrix(pt.copairing)
    out.emit("deformed", [("beta", beta_t)], f"beta_t = {beta_t}")
    out.emit("deformed", [("gamma", gamma_t)], f"gamma_t = {gamma_t}")
    ok = verify_switchback(pt)
    out.verdict(
        ok, "switchback", [("deformed", "true")],
        f"deformed switchback: {'OK' if ok else 'FAIL'}",
    )
    if not ok:
        ob1, ob2 = map(format_matrix, deformation_obstruction(pair, phi1, phi2))
        out.emit("obstruction", [("xi1", ob1)], f"obstruction xi1 = {ob1}")
        out.emit("obstruction", [("xi2", ob2)], f"obstruction xi2 = {ob2}")
    return out.exit_code("deformation does not satisfy the switchback conditions")


def _skein_data(args):
    """(pair, a, b) for the skein R-matrix a*1 + b*cupcap: the pair widened
    to a field and --a, --b, or, with --cocycle, its first-order
    deformation with solved dual coefficients."""
    base = _field_pair(_load_pair(args))
    a, b = (base.scalar(parse_scalar(text)) for text in (args.a, args.b))
    if not args.cocycle:
        return base, a, b
    work = deform(base, *_load_cocycle(args, base))
    return (work, *solve_deformed_coefficients(work, a, b))


def cmd_verify_ybe(args, out: Out) -> int:
    # the equation reads R alone: no twist and no Turaev checks
    pair, a, b = _skein_data(args)
    check_strands(3, pair.d)
    rmx = build_R(pair, a, b)
    if args.cocycle:
        out.emit("coefficient", [("a", format_scalar(a))], f"a = {format_scalar(a)}")
        out.emit("coefficient", [("b", format_scalar(b))], f"b = {format_scalar(b)}")
    res = ybe_residual(rmx.R)
    ok = res.is_zero()
    out.verdict(ok, "ybe", [], f"ybe residual zero: {str(ok).lower()}")
    if not ok:
        for i, row in enumerate(res.rows):
            line = ", ".join(format_scalar(e) for e in row)
            out.emit("residual", [("row", i), ("entries", line)], f"row {i}: {line}")
    return out.exit_code("Yang-Baxter residual nonzero")


def cmd_tl_check(args, out: Out) -> int:
    if args.strands < 2:
        raise CliError(f"--strands must be at least 2, got {args.strands}")
    base = _load_pair(args)
    check_strands(args.strands, base.d)
    if args.cocycle:
        phi1, phi2 = _load_cocycle(args, base)
        work = deform(base, phi1, phi2)
    else:
        work = base
    delta = delta0(work)
    out.emit("delta0", [("value", format_scalar(delta))],
             f"delta0 = {format_scalar(delta)}")
    for n in range(2, args.strands + 1):
        failure = tl_first_failure(tl_generators(work, n), delta)
        out.verdict(
            failure is None, "tl", [("strands", n)], f"tl n={n}: {failure or 'OK'}"
        )
    return out.exit_code("Temperley-Lieb relations violated")


def _invariant_line(out: Out, word: str, value):
    # the report line format is the same in both modes: word TAB scalar
    out.emit("invariant", [("word", word), ("value", value)], f"{word}\t{value}")


def cmd_invariant(args, out: Out) -> int:
    td = make_turaev(*_skein_data(args))
    for text in args.braid:
        w = parse_braid(text)
        value = normalized_invariant(td, w)
        _invariant_line(out, str(w), format_scalar(value))
        if args.compare_oracle:
            ok = matches_oracle(td, value, w)
            out.verdict(
                ok, "oracle", [("word", str(w))],
                f"oracle {w}: {'match' if ok else 'MISMATCH'}", key="match",
            )
    return out.exit_code("invariant disagrees with the oracle")


def cmd_jones_oracle(args, out: Out) -> int:
    for text in args.braid:
        w = parse_braid(text)
        _invariant_line(out, str(w), format_scalar(jones_oracle(w)))
    return 0


_CORPUS = ("", "s1 s1 s1", "s1 s2^-1 s1 s2^-1", "s1 s1 s1 s1 s1")


def cmd_compare(args, out: Out) -> int:
    td = make_turaev(*_skein_data(args))
    if args.braid:
        corpus = [parse_braid(t) for t in args.braid]
    else:
        corpus = [BraidWord(1, ()), BraidWord(2, ())]
        corpus += [parse_braid(t) for t in _CORPUS if t]
    rep = compare_with_oracle(td, corpus)
    for e in rep.entries:
        out.verdict(
            e.matches, "compare", [("word", e.word), ("value", format_scalar(e.value))],
            f"{e.word}\t{format_scalar(e.value)}\toracle {'match' if e.matches else 'MISMATCH'}",
            key="match",
        )
    out.emit(
        "constants",
        [("ell2_eq_c4", str(rep.ell_squared_is_c4).lower()),
         ("loop_eq_minus_c_plus_cinv", str(rep.loop_is_minus_c_plus_cinv).lower())],
        f"ell^2 = c^4: {str(rep.ell_squared_is_c4).lower()}; "
        f"delta0 = -(c + c^-1): {str(rep.loop_is_minus_c_plus_cinv).lower()}",
    )
    for word, ok in rep.skein_ok:
        out.verdict(
            ok, "skein", [("word", word)],
            f"skein at first letter of {word}: {'OK' if ok else 'FAIL'}",
        )
    out.verdict(rep.all_ok, "summary", [], f"all checks: {'OK' if rep.all_ok else 'FAIL'}")
    return out.exit_code("oracle comparison failed")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls.
    # Options shared by several subcommands live on parent parsers, which
    # argparse copies into each subcommand without building them again
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=["text", "records"], default="text",
                        help="report style (records = tab-separated key=value)")
    paired = argparse.ArgumentParser(add_help=False, parents=[common])
    paired.add_argument("--pair", default="bracket",
                        help="pair config path or bundled name (default bracket)")
    paired.add_argument("--ring", choices=["gauss", "laurent", "ratfun"],
                        help="bring the pair into this ring")
    paired.add_argument("--specialize", metavar="A=<rational>",
                        help="substitute a rational value for A")
    turaev = argparse.ArgumentParser(add_help=False, parents=[paired])
    turaev.add_argument("--cocycle", help="deform by this cocycle config first")
    turaev.add_argument("--a", default="A", help="R-matrix coefficient a (default A)")
    turaev.add_argument("--b", default="A^-1", help="R-matrix coefficient b (default A^-1)")

    p = argparse.ArgumentParser(
        prog="skeinlab",
        description="exact-arithmetic workbench: cocycle conditions, "
        "switchback cohomology, deformed R-matrices, knot invariants",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, parent, **kw):
        sp = sub.add_parser(name, parents=[parent], **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("infiltrate", cmd_infiltrate, common,
             help="print elaborate plans and 2-differentials of a DSL file")
    sp.add_argument("file", help="identity DSL file or bundled name")
    sp.add_argument("--identity", help="restrict to one identity label")

    sp = add("check-d2d1", cmd_check_d2d1, common,
             help="verify the 2-differential kills 1-differentials on a model")
    sp.add_argument("file", help="identity DSL file or bundled name")
    sp.add_argument("--identity", help="restrict to one identity label")
    sp.add_argument("--model", required=True, help="bracket | dualnumbers")
    sp.add_argument("--trials", type=int, default=5, help="random f count")
    sp.add_argument("--seed", type=int, default=0)

    add("verify-switchback", cmd_verify_switchback, paired,
        help="check both zig-zag conditions of a pair")
    add("cohomology", cmd_cohomology, paired,
        help="kernel/image/cohomology dimensions of the pair's complex")
    add("solve-cocycles", cmd_solve_cocycles, paired,
        help="print a basis of the 2-cocycle space")

    sp = add("deform", cmd_deform, paired,
             help="deform a pair by a cochain and verify the result")
    sp.add_argument("--cocycle", required=True,
                    help="cocycle config path or bundled name")

    add("verify-ybe", cmd_verify_ybe, turaev,
        help="check the Yang-Baxter equation for the pair's R-matrix")

    sp = add("tl-check", cmd_tl_check, paired,
             help="check the Temperley-Lieb relations of the cup-cap maps")
    sp.add_argument("--cocycle", help="deform by this cocycle config first")
    sp.add_argument("--strands", type=int, default=5,
                    help="largest strand count to check (default 5)")

    sp = add("invariant", cmd_invariant, turaev,
             help="closed-braid invariant values (normalized to unknot = 1)")
    sp.add_argument("--braid", action="append", required=True,
                    help="braid word, e.g. \"s1 s2^-1 s1\"; repeatable")
    sp.add_argument("--compare-oracle", action="store_true", dest="compare_oracle",
                    help="also check the value against the planar oracle")

    sp = add("jones-oracle", cmd_jones_oracle, common,
             help="combinatorial state-sum value of a braid closure")
    sp.add_argument("--braid", action="append", required=True)

    sp = add("compare", cmd_compare, turaev,
             help="full invariant-versus-oracle report with skein checks")
    sp.add_argument("--braid", action="append",
                    help="braid words (default: a small standard corpus)")

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out = Out(args.output)
    try:
        return args.fn(args, out)
    except (SkeinlabError, OSError) as e:
        out.fail(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
