"""Checks on the program's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "skeinlab"


def test_program_has_no_assert_statements():
    # python -O strips assert statements, so an invariant the maths relies
    # on must raise a real exception instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []
