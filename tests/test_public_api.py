import ast
from pathlib import Path
from types import ModuleType

import isofractal

# every public name the package exports; a new name, or a removed one, is a
# deliberate change to this list
PUBLIC_NAMES = [
    "BinaryMatrix", "Block", "BudgetExceededError", "DEFAULT_BUDGET",
    "DecompositionReport", "FieldMatrix", "IndexTuple", "ParseError", "PermutationPair",
    "PluckerMatrix", "PointSet", "PrimeField", "bipartite_components", "contraction",
    "decompose", "deserialize", "expected_count", "fractal_matrix",
    "fractal_matrix_blockwise", "incidence_matrix", "index_tuples", "kernel_basis",
    "oracle_points", "pair_free_part", "permutation_equivalent", "plucker_matrix",
    "quadratic_relations", "rational_points", "row_partition", "rref", "serialize",
    "verify_configuration", "verify_fractal", "verify_incidence_fractal_match",
]


def test_public_names_pinned():
    # submodules become package attributes as they are imported, so they are left out
    names = sorted(name for name, value in vars(isofractal).items()
                   if not name.startswith("_") and not isinstance(value, ModuleType))
    assert names == PUBLIC_NAMES


def unused_imports(path):
    """Names a module imports and never reads, skipping lines marked ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    # __init__.py imports only to export
    modules = sorted(Path(isofractal.__file__).parent.glob("*.py"))
    found = {path.name: unused_imports(path) for path in modules if path.name != "__init__.py"}
    assert "fractal.py" in found
    assert {name: names for name, names in found.items() if names} == {}
