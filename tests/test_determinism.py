"""The package draws no randomness of its own, and reduces entries in one place.

Its checkers are deterministic; the only random code is the generator
random_invertible, which uses the rng its caller passes in.  Field entries are reduced mod p only by FieldSpec.
A rank alone is read through Matrix.rank, never off a full RREF.
The checkers of construct decide each submodule from Hom dimensions and ranks,
without building quotient modules or isomorphism bases.
"""

import ast
from pathlib import Path

import quivergrass
from quivergrass import quiverrep

SRC = Path(quivergrass.__file__).parent


def test_package_makes_no_random_source():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                found.append(f"{path.name}:{node.lineno}: from random import")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "random"):
                found.append(f"{path.name}:{node.lineno}: random.{node.func.attr}(...)")
    assert found == []


def test_package_imports_no_dataclasses():
    # dataclasses loads inspect, ast and dis, a cost every CLI child would pay
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "dataclasses" in modules:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _reduces_mod_p(node):
    """A `x % p`, `x % <expr>.p` or `x %= p` expression."""
    if isinstance(node, ast.BinOp):
        op, right = node.op, node.right
    elif isinstance(node, ast.AugAssign):
        op, right = node.op, node.value
    else:
        return False
    return isinstance(op, ast.Mod) and (
        isinstance(right, ast.Name) and right.id == "p"
        or isinstance(right, ast.Attribute) and right.attr == "p")


def test_only_fieldspec_reduces_entries():
    allowed = {"exactlinalg.py": {"FieldSpec", "_is_prime"}}
    found = []
    for path in sorted(SRC.glob("*.py")):
        stack = [ast.parse(path.read_text(), filename=str(path))]
        while stack:
            node = stack.pop()
            if (isinstance(node, (ast.ClassDef, ast.FunctionDef))
                    and node.name in allowed.get(path.name, ())):
                continue
            if _reduces_mod_p(node):
                found.append(f"{path.name}:{node.lineno}")
            stack.extend(ast.iter_child_nodes(node))
    assert found == []


def test_rank_reads_go_through_matrix_rank():
    # Matrix.rank has its own sparse kernel; rref(...).rank would run the
    # dense canonical one to read the same integer
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "rank"
                    and isinstance(node.value, ast.Call)):
                func = node.value.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "rref":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_isomorphism_search_is_exported():
    for name in ("is_isomorphic", "IsomorphismInconclusive"):
        assert not hasattr(quivergrass, name)
        assert not hasattr(quiverrep, name)


def test_checkers_build_no_quotients_or_power_bases():
    banned = {"quotient_representation", "image_point", "is_brick_power"}
    path = SRC / "construct.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in banned:
            found.append(f"{path.name}:{getattr(node, 'lineno', '?')}: {name}")
    assert found == []
