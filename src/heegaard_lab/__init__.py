"""Combinatorial engines for disk complexes, Heegaard diagrams, and
generalized Heegaard splittings."""

import types as _types

from .disk_complex import (
    ClassificationVerdict,
    DiskComplexGraph,
    DistanceResult,
    LambdaGraph,
    build_gamma,
    build_lambda,
    classify,
    component_distance,
    components,
    edge_distance,
    emit_graph,
    enumerate_disk_boundaries,
    find_destab_edge,
    isolated_vertices,
    quotient_by_symmetry,
    splitting_distance,
    vertex_distance,
)
from .errors import InputError
from .ghs import (
    GHS,
    CompressionDescriptor,
    Destabilization,
    InvalidGHS,
    InvalidMove,
    WeakReduction,
    apply_move,
    compare_collections,
    compare_ghs,
    complexity,
    compress,
    enumerate_moves,
    ghs_key,
    stabilize,
    validate_ghs,
)
from .handlebody import (
    CutSystem,
    HeegaardDiagram,
    InvalidCutSystem,
    SignedWord,
    boundary_word,
    bounds_disk,
    lens_space,
    s2_x_s1,
    s3_genus1,
    standard_diagram,
    validate_cut_system,
)
from .sog import (
    SOG,
    FlattenBudgetExhausted,
    InventoryOracle,
    InvalidSOG,
    SOGStep,
    SymbolicBudget,
    SymbolicOracle,
    compare_sogs,
    flatten,
    max_key,
    maximal_positions,
    minimal_positions,
    verify_single_maximal,
)
from .surface import (
    BudgetExhausted,
    CurveClass,
    InessentialCurve,
    InvalidCoordinates,
    ModelSurface,
    MulticurveReport,
    Slope,
    SurfaceMismatch,
    canonical_triangulation,
    enumerate_essential_curves,
    geometric_intersection,
    intersection_at_most,
    is_essential,
    normalize,
    same_class,
)

# Every public name bound above, and only those: submodules are excluded.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _types.ModuleType))
