"""Golden transcript of the command line.

Replays a fixed list of `skeinlab` invocations in-process and compares
their stdout and exit codes, as one text, with `golden/cli_transcript.txt`.
Each block of that file is a `$ skeinlab ...` line, the invocation's
stdout, and an `[exit N]` line.  Input files that are not bundled fixtures
live next to the transcript and are written `@name` in the argument lists.

After a deliberate change of the CLI's output, regenerate the file from the
repository root with

    PYTHONPATH=src:tests python -c "import test_cli_golden as g; g.GOLDEN.write_text(g.transcript())"

and review the diff before committing it.
"""

import contextlib
import io
import shlex
from pathlib import Path

from skeinlab.cli import main

HERE = Path(__file__).resolve().parent / "golden"
GOLDEN = HERE / "cli_transcript.txt"

COCYCLES = ("xx", "xy", "yx", "yy")
IDL = ("adjoint", "assoc", "bialgebra", "selfdist", "switchback")

# every subcommand, run once in each output mode
_BOTH_MODES = [
    *(["infiltrate", name] for name in IDL),
    ["check-d2d1", "assoc", "--model", "dualnumbers", "--trials", "3"],
    ["check-d2d1", "switchback", "--model", "bracket", "--trials", "3"],
    ["verify-switchback"],
    ["verify-switchback", "--ring", "ratfun"],
    ["cohomology"],
    ["cohomology", "--specialize", "A=2"],
    ["cohomology", "--specialize", "A=3"],
    ["solve-cocycles"],
    ["solve-cocycles", "--specialize", "A=2"],
    *(["deform", "--cocycle", c] for c in COCYCLES),
    ["deform", "--cocycle", "xy", "--ring", "ratfun"],
    ["verify-ybe"],
    *(["verify-ybe", "--cocycle", c] for c in COCYCLES),
    ["tl-check", "--strands", "3"],
    ["tl-check", "--strands", "4", "--cocycle", "xy"],
    ["invariant", "--braid", "s1 s1 s1", "--compare-oracle"],
    ["invariant", "--braid", "s1 s2^-1 s1 s2^-1", "--braid", "s1 s1 s1 s1 s1"],
    ["jones-oracle", "--braid", "s1 s1 s1", "--braid", "s1 s2^-1 s1 s2^-1"],
    ["compare"],
    *(["compare", "--cocycle", c] for c in COCYCLES),
    ["invariant", "--specialize", "A=2", "--a", "2", "--b", "1/2",
     "--braid", "s1 s1 s1", "--compare-oracle"],
    ["compare", "--specialize", "A=2", "--a", "2", "--b", "1/2"],
    ["deform", "--specialize", "A=2", "--cocycle", "xy"],
    ["invariant", "--specialize", "A=2", "--braid", "s1 s1 s1", "--compare-oracle"],
    ["compare", "--specialize", "A=2", "--cocycle", "xy"],
    ["verify-ybe", "--specialize", "A=2", "--cocycle", "xy"],
    ["tl-check", "--specialize", "A=2", "--strands", "3", "--cocycle", "xy"],
    # exit 1: a verification fails
    ["verify-switchback", "--pair", "@broken.pair"],
    ["deform", "--cocycle", "@bad.cfg"],
    ["verify-ybe", "--pair", "@twisted.pair", "--a=1", "--b=1"],
    # exit 2: the input is refused
    ["verify-switchback", "--pair", "nope"],
    ["invariant", "--braid", "z9"],
    ["invariant", "--braid", "s30"],
    ["compare", "--braid", "s30"],
    ["tl-check", "--strands", "30"],
    ["invariant", "--braid", "s9"],
    ["invariant", "--braid", "s10"],
    ["tl-check", "--pair", "@three.pair", "--strands", "6"],
    ["tl-check", "--pair", "@three.pair", "--strands", "7"],
    ["check-d2d1", "assoc", "--model", "dualnumbers", "--trials", "0"],
    ["check-d2d1", "assoc", "--model", "dualnumbers", "--trials", "-3"],
    ["tl-check", "--strands", "1"],
    ["tl-check", "--strands", "-4"],
    ["check-d2d1", "assoc", "--identity", "nosuch", "--model", "dualnumbers"],
    ["check-d2d1", "assoc", "--model", "bracket", "--trials", "1"],
    ["deform", "--pair", "@broken.pair", "--cocycle", "@zero.cfg"],
    ["cohomology", "--specialize", "B=2"],
]

INVOCATIONS = [
    [*argv, *mode] for argv in _BOTH_MODES for mode in ([], ["--output", "records"])
]


def _run(argv) -> tuple[str, int]:
    real = [str(HERE / a[1:]) if a.startswith("@") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(real)
    return buf.getvalue(), code


def transcript() -> str:
    blocks = []
    for argv in INVOCATIONS:
        out, code = _run(argv)
        blocks.append(f"$ skeinlab {shlex.join(argv)}\n{out}[exit {code}]\n")
    return "".join(blocks)


def test_cli_transcript_matches_golden():
    expected = GOLDEN.read_text().split("$ skeinlab ")
    actual = transcript().split("$ skeinlab ")
    # block by block first, so that a failure names the invocation
    for want, got in zip(expected, actual):
        assert got == want
    assert len(actual) == len(expected)
