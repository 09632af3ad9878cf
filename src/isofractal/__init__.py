"""Recursive self-similar (0,1)-matrices, symplectic incidence structures, and
rational point enumeration on isotropic Grassmannians.

Importing the package loads neither ``isofractal.variety`` nor numpy, which
only the two point routes need.  ``isofractal.variety`` and the names it
exports here resolve on first access, which imports it, and numpy with it;
``isofractal.cli`` and ``from isofractal import *`` import it too.
"""

from .bitmatrix import (
    BinaryMatrix,
    ParseError,
    PermutationPair,
    bipartite_components,
    deserialize,
    permutation_equivalent,
    serialize,
)
from .combinat import (
    IndexTuple,
    index_tuples,
    pair_free_part,
    row_partition,
)
from .fractal import fractal_matrix, fractal_matrix_blockwise, verify_fractal
from .gf import (
    FieldMatrix,
    PrimeField,
    kernel_basis,
    rref,
)
from .incidence import (
    incidence_matrix,
    verify_configuration,
    verify_incidence_fractal_match,
)
from .plucker import (
    Block,
    DecompositionReport,
    PluckerMatrix,
    contraction,
    decompose,
    plucker_matrix,
)

__version__ = "0.1.0"

# without it `from isofractal import *` would skip the names not yet resolved;
# the submodules the package has always imported stay in it
__all__ = [
    "BinaryMatrix", "Block", "BudgetExceededError", "DEFAULT_BUDGET",
    "DecompositionReport", "FieldMatrix", "IndexTuple", "ParseError", "PermutationPair",
    "PluckerMatrix", "PointSet", "PrimeField", "bipartite_components", "contraction",
    "decompose", "deserialize", "expected_count", "fractal_matrix",
    "fractal_matrix_blockwise", "incidence_matrix", "index_tuples", "kernel_basis",
    "oracle_points", "pair_free_part", "permutation_equivalent", "plucker_matrix",
    "quadratic_relations", "rational_points", "row_partition", "rref", "serialize",
    "verify_configuration", "verify_fractal", "verify_incidence_fractal_match",
    "bitmatrix", "combinat", "fractal", "gf", "incidence", "plucker", "variety",
]


def __getattr__(name: str):
    # (PEP 562) of the names in __all__, only variety and the seven it exports
    # are missing from globals() until variety loads
    if name in __all__:
        from importlib import import_module

        # not `from . import variety`, which looks "variety" up here again
        variety = import_module(".variety", __name__)
        return variety if name == "variety" else getattr(variety, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
