from types import ModuleType

import isofractal

# every public name the package exports; a new name, or a removed one, is a
# deliberate change to this list
PUBLIC_NAMES = [
    "BinaryMatrix", "Block", "BudgetExceededError", "DEFAULT_BUDGET",
    "DecompositionReport", "FieldMatrix", "IndexTuple", "ParseError",
    "PermutationPair", "PluckerMatrix", "PointSet", "PrimeField",
    "bipartite_components", "contraction", "decompose", "deserialize",
    "direct_sum", "expected_count", "fractal_matrix", "fractal_matrix_blockwise",
    "incidence_matrix", "index_tuples", "kernel_basis", "oracle_points", "pair_free_part",
    "paste_right", "permutation_equivalent", "plucker_matrix",
    "quadratic_relations", "rational_points", "row_partition", "rref", "serialize",
    "stack_identity_below", "verify_configuration", "verify_fractal",
    "verify_incidence_fractal_match",
]


def test_public_names_pinned():
    # submodules become package attributes as they are imported, so they are left out
    names = sorted(name for name, value in vars(isofractal).items()
                   if not name.startswith("_") and not isinstance(value, ModuleType))
    assert names == PUBLIC_NAMES
