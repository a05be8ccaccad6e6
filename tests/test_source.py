"""Checks on the program's source text."""

import ast
import builtins
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


def _imports(path):
    """(module, name) for each name a module imports from a sibling."""
    return [
        (node.module or "", alias.name)
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]


def test_no_module_imports_a_private_name_of_another():
    found = [
        f"{path.name}: {module}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for module, name in _imports(path)
        if name.startswith("_")
    ]
    assert found == []


def test_specialization_lives_with_the_pair():
    # braid and cli take a pair's value of A from the pair (pair.scalar),
    # never by substituting it themselves
    for name in ("cli.py", "braid.py"):
        names = {n for _, n in _imports(SRC / name)}
        assert names, f"{name} imports nothing from skeinlab"
        assert names & {"specialize", "map_specialize"} == set(), name


def test_the_oracle_shares_no_code_with_the_trace():
    # planar is the independent side of every invariant-versus-oracle check:
    # it may use the scalars, but no module of the trace's pipeline
    pipeline = {"linmap", "_packed", "braid", "rmatrix", "switchback"}
    found = []
    for node in ast.walk(ast.parse((SRC / "planar.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names = {(node.module or "").rsplit(".", 1)[-1]}
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names = {part for alias in node.names for part in alias.name.split(".")}
        else:
            continue
        found += [f"planar.py:{node.lineno} {name}" for name in sorted(names & pipeline)]
    assert _imports(SRC / "planar.py"), "planar.py imports nothing from skeinlab"
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


def test_maps_are_compared_with_equal():
    # linmap.equal compares two maps without building their difference;
    # (x - y).is_zero() would build a negated copy and a difference map
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "is_zero"
        and isinstance(node.func.value, ast.BinOp)
        and isinstance(node.func.value.op, ast.Sub)
    ]
    assert found == []


def test_rings_change_only_through_into_ring():
    # scalars.into_ring is the one rule that moves a value between rings;
    # a second name for a move up or down would be a second rule
    moves = {"promote", "demote", "map_promote"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.asname or a.name.rsplit(".", 1)[-1] for a in node.names}
                names |= {a.name for a in node.names}
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                names = {node.id if isinstance(node, ast.Name) else node.attr}
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in sorted(names & moves)]
    assert found == []


def test_differential_matrices_are_written_by_placement():
    # d1_matrix, d2_matrix and d3_matrix copy entries of B and G into place;
    # no helper may build them by running a differential on unit cochains
    tree = ast.parse((SRC / "switchback.py").read_text())
    names = {
        node.name if isinstance(node, ast.FunctionDef) else node.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.Name))
    }
    assert {"d1_matrix", "d2_matrix", "d3_matrix"} <= names
    assert names & {"_matrix_of", "_basis_cochain"} == set()


def test_switchback_eliminates_only_for_ranks_and_inverses():
    # the cocycle rule gives the 2-cocycles and the degree-2 extension with
    # no elimination; switchback eliminates only for the ranks of
    # cohomology_dims and the inverse of pair_from_matrix.  The elimination
    # functions are rref and every linmap function that reaches it
    functions = {
        node.name: _referenced(node)
        for node in ast.parse((SRC / "linmap.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    eliminating = {"rref"}
    while grown := {f for f, names in functions.items() if names & eliminating} - eliminating:
        eliminating |= grown
    assert {"rank", "invert_rows"} < eliminating
    used = _referenced(ast.parse((SRC / "switchback.py").read_text()))
    assert used & eliminating <= {"rank", "invert_rows"}


def test_only_linmap_builds_tensor_products():
    # a map on a few strands is placed on a wide one by linmap.apply_local;
    # a tensor product would build the identity-padded map, so no module,
    # linmap included, defines or imports one (the tests keep their own
    # Kronecker reference)
    products = {"tensor", "tensor_all"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in products
        or isinstance(node, (ast.Import, ast.ImportFrom))
        and products & {a.name.rsplit(".", 1)[-1] for a in node.names}
    ]
    assert found == []


def test_only_linmap_reads_map_storage():
    # a map's storage format stays behind linmap: every other module reads
    # entries through entry, nonzeros or rows, and builds maps through
    # from_rows, zero, identity or the operations on maps, as a direct
    # LinearMap(...) call would have to know the key format; the placement
    # that placed records is read through unplaced alone
    storage = ("_entries", "_placement")
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "linmap.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in storage
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "LinearMap"
    ]
    assert all((SRC / "linmap.py").read_text().count(f".{name}") > 0 for name in storage)
    assert found == []


def test_only_scalars_reads_scalar_storage():
    # a scalar's stored form is one module's decision: every other module
    # reads a Laurent polynomial through as_ints or terms and a Gaussian
    # rational through re and im, and builds them through from_ints and
    # the constructors.  The slots are LaurentA's (v, p, m) and GaussRat's
    # (a, b, d)
    storage = ("_v", "_p", "_m", "_a", "_b", "_d")
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "scalars.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in storage
    ]
    assert all((SRC / "scalars.py").read_text().count(f".{name}") > 0 for name in storage)
    assert found == []


def _referenced(tree):
    """The names a tree reads or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def _program_names():
    """The names that the demos and the benchmark's workloads read."""
    root = SRC.parent.parent
    used = set()
    for path in [*sorted(root.glob("demos/*.py")), root / "perfbench" / "workloads.py"]:
        used |= _referenced(ast.parse(path.read_text(), str(path)))
    return used


def _statements():
    """The top-level statements of every source file."""
    return [
        stmt
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text(), str(path)).body
    ]


def test_every_public_name_is_used_by_the_program():
    # a public function or class that only tests reach is test code in the
    # library.  "The program" is src/ outside the definition itself, the
    # demos and the benchmark's workloads.
    kept = {
        # the brute-force reference of test_planar.py; the benchmark's tracer
        # hooks its __mul__, so it leaves with the next benchmark change
        "PlanarMatching",
    }
    used = _program_names()
    statements = _statements()
    referenced = [_referenced(stmt) for stmt in statements]
    unused = sorted(
        stmt.name
        for i, stmt in enumerate(statements)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in kept | used
        and not any(stmt.name in names for j, names in enumerate(referenced) if j != i)
    )
    assert statements, f"no sources under {SRC}"
    assert unused == []


def test_every_error_class_is_raised():
    # an error class that nothing raises is dead code: each *Error class
    # defined under src/ is raised there, or is the base of one that is
    statements = _statements()
    bases = {
        stmt.name: {base.id for base in stmt.bases if isinstance(base, ast.Name)}
        for stmt in statements
        if isinstance(stmt, ast.ClassDef) and stmt.name.endswith("Error")
    }
    live = set()
    for node in ast.walk(ast.Module(body=statements, type_ignores=[])):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                live.add(exc.id)
    todo = list(live)
    while todo:
        for base in bases.get(todo.pop(), ()):
            if base not in live:
                live.add(base)
                todo.append(base)
    assert bases, f"no error classes under {SRC}"
    assert sorted(set(bases) - live) == []


def test_every_public_method_is_used_by_the_program():
    # the same rule for the public methods of public classes: a method is
    # used when the program reads its name outside the method itself
    used = _program_names()
    statements = _statements()
    referenced = [_referenced(stmt) for stmt in statements]
    unused = []
    for i, cls in enumerate(statements):
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        if cls.name == "PlanarMatching":  # kept whole, as above
            continue
        for j, method in enumerate(cls.body):
            if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                continue
            elsewhere = [names for k, names in enumerate(referenced) if k != i]
            elsewhere += [_referenced(m) for k, m in enumerate(cls.body) if k != j]
            if method.name not in used and not any(method.name in n for n in elsewhere):
                unused.append(f"{cls.name}.{method.name}")
    assert any(isinstance(stmt, ast.ClassDef) for stmt in statements)
    assert unused == []


def test_every_error_class_derives_from_skeinlab_error():
    # cli.main reports a SkeinlabError as refused input, exit 2; an error
    # class with another root would end the run in a traceback.  A class
    # whose base is a built-in exception is a root, and SkeinlabError must
    # be the only one
    roots = [
        f"{path.name}: {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(base, ast.Name)
            and isinstance(getattr(builtins, base.id, None), type)
            and issubclass(getattr(builtins, base.id), BaseException)
            for base in node.bases
        )
    ]
    assert roots == ["__init__.py: SkeinlabError"]
