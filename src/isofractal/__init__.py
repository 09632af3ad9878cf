"""Recursive self-similar (0,1)-matrices, symplectic incidence structures, and
rational point enumeration on isotropic Grassmannians."""

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
from .variety import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    PointSet,
    expected_count,
    oracle_points,
    quadratic_relations,
    rational_points,
)

__version__ = "0.1.0"
