"""The package draws no randomness of its own.

Its checkers are deterministic; the only random code is the pair of
generators random_invertible and random_representation, which use the rng
their caller passes in.
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


def test_no_isomorphism_search_is_exported():
    for name in ("is_isomorphic", "IsomorphismInconclusive"):
        assert not hasattr(quivergrass, name)
        assert not hasattr(quiverrep, name)
