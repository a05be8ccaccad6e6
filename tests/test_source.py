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



def test_switchback_does_not_pad_to_three_tensor_factors():
    # the complex is computed on bent d x d matrices; reaching tensor or
    # tensor_all would let a zig-zag or differential pad to V^3 again
    tree = ast.parse((SRC / "switchback.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names}
            names |= {alias.asname for alias in node.names if alias.asname}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "compose" in names, "switchback.py no longer imports compose"
    assert names & {"tensor", "tensor_all"} == set()
