import types

import heegaard_lab

# The package's public names, in `__all__` order; adding or removing one
# changes the public API.
PUBLIC_NAMES = [
    "BudgetExhausted", "ClassificationVerdict", "CompressionDescriptor",
    "CurveClass", "CutSystem", "Destabilization", "DiskComplexGraph",
    "DistanceResult", "FlattenBudgetExhausted", "GHS", "HeegaardDiagram",
    "InessentialCurve", "InputError", "InvalidCoordinates", "InvalidCutSystem",
    "InvalidGHS", "InvalidMove", "InvalidSOG", "InventoryOracle",
    "LambdaGraph", "ModelSurface", "MulticurveReport", "SOG", "SOGStep",
    "SignedWord", "Slope", "SurfaceMismatch", "SymbolicBudget",
    "SymbolicOracle", "WeakReduction", "apply_move", "boundary_word",
    "bounds_disk", "build_gamma", "build_lambda", "canonical_triangulation",
    "classify", "compare_collections", "compare_ghs", "compare_sogs",
    "complexity", "component_distance", "components", "compress",
    "edge_distance", "emit_graph", "enumerate_disk_boundaries",
    "enumerate_essential_curves", "enumerate_moves", "find_destab_edge",
    "flatten", "geometric_intersection", "ghs_key", "intersection_at_most",
    "is_essential", "isolated_vertices", "lens_space", "max_key",
    "maximal_positions", "minimal_positions", "normalize",
    "quotient_by_symmetry", "s2_x_s1", "s3_genus1", "same_class",
    "splitting_distance", "stabilize", "standard_diagram",
    "validate_cut_system", "validate_ghs", "verify_single_maximal",
    "vertex_distance",
]


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 72
    assert heegaard_lab.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(heegaard_lab, name)
        assert not isinstance(value, types.ModuleType), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from heegaard_lab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC_NAMES)
