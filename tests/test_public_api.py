import ast
import os
import subprocess
import sys
import textwrap
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

# the submodules the package imports itself; star import has always bound them
SUBMODULES = ["bitmatrix", "combinat", "fractal", "gf", "incidence", "plucker", "variety"]

SRC = Path(isofractal.__file__).parent


def test_public_names_pinned():
    # dir, not vars: the point-route names enter vars only once variety loads;
    # submodules become package attributes as they are imported, so they are left out
    names = sorted(name for name in dir(isofractal) if not name.startswith("_")
                   and not isinstance(getattr(isofractal, name), ModuleType))
    assert names == PUBLIC_NAMES


def test_star_import_binds_the_public_names_and_submodules():
    namespace = {}
    exec("from isofractal import *", namespace)
    bound = sorted(name for name in namespace if not name.startswith("_"))
    assert bound == sorted(PUBLIC_NAMES + SUBMODULES)


def test_import_leaves_numpy_to_the_point_routes():
    # everything but the two point routes runs without variety, and so without numpy
    code = textwrap.dedent("""
        import sys
        import isofractal
        from isofractal import PrimeField, decompose, fractal_matrix, kernel_basis
        from isofractal import plucker_matrix, serialize
        serialize(fractal_matrix(6, 5), "alist")
        decompose(5, 4)
        kernel_basis(plucker_matrix(5, 5, signed=True).field_matrix(PrimeField(3)))
        assert {"variety", "rational_points", "DEFAULT_BUDGET"} <= set(dir(isofractal))
        assert "numpy" not in sys.modules and "isofractal.variety" not in sys.modules
        assert isofractal.variety.rational_points is isofractal.rational_points
        assert "numpy" in sys.modules
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr


def imported_modules(nodes):
    """Every module the import statements among ``nodes`` name, relative ones as ``.name``."""
    modules = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            modules.add(base)
            if node.module is None:
                modules.update(base + alias.name for alias in node.names)
    return modules


def test_only_variety_imports_numpy():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    numpy_users = {name for name, tree in trees.items()
                   if any(m.split(".")[0] == "numpy" for m in imported_modules(ast.walk(tree)))}
    assert numpy_users == {"variety.py"}
    # __getattr__ imports it on first access; the package's own statements must not
    assert not {".variety", "isofractal.variety"} & imported_modules(trees["__init__.py"].body)


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
    modules = sorted(SRC.glob("*.py"))
    found = {path.name: unused_imports(path) for path in modules if path.name != "__init__.py"}
    assert "fractal.py" in found
    assert {name: names for name, names in found.items() if names} == {}
