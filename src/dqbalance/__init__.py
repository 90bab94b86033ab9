"""Balance checking for quaternion- and dual-quaternion-weighted digraphs.

A weighting of a directed graph is *balanced* (equivalently, a desired
relative configuration scheme is feasible) when the oriented weight product
around every simple cycle is the identity (unit weights) or a positive real
(general weights).  This package decides balance three ways -- a staged
Laplacian null-space solve, a Hermitian gain-graph reduction, and a
brute-force cycle oracle -- and recovers the certifying formation or
potential vector.
"""

from .algebra import (
    DualNumber,
    DualQuaternion,
    NotAppreciableError,
    NotPureError,
    NotUnitError,
    Quaternion,
    UnitDualQuaternion,
    random_udq,
    udq_from_motion,
)
from .balance import (
    BALANCE_TOL,
    BalanceReport,
    FailureStage,
    Method,
    NonInvertibleThetaError,
    NotConnectedError,
    NotUnitWeightTypeError,
    PotentialAssignment,
    Verdict,
    build_potential,
    check_balance,
    check_symmetry_pairs,
    cycle_oracle,
    direct_method,
    gain_graph_method,
    potential_certified,
    relative_configuration_residual,
    similarity_residual,
    symmetrized_gain_graph,
    wdg_similarity_check,
    wdg_similarity_method,
)
from .bench import BenchRecord, run_benchmark
from .generate import (
    apply_switching,
    cycle_arc,
    gen_cycle,
    gen_random_balanced,
    gen_tree,
    perturb,
    random_switching,
    random_weight,
)
from .graphs import (
    Digraph,
    OrientedCycle,
    WeightedDigraph,
    WeightType,
    build,
    enumerate_cycles,
    has_directed_spanning_tree,
    is_weakly_connected,
    laplacian,
    unweighted_laplacian,
    walk_weight,
)
from .serialize import graph_from_obj, graph_to_obj, load_graph, save_graph

__version__ = "0.1.0"
