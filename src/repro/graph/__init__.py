"""Dependency-graph construction and levelization (scheduling substrate).

The numeric phase consumes a :class:`~repro.graph.levelize.LevelSchedule`;
the paper's contribution is computing it *on the GPU* with dynamic
parallelism (:mod:`repro.core.levelize_gpu`), for which the functions here
are the CPU references and baselines.
"""

from .depgraph import DependencyGraph, build_dependency_graph, sub_column_counts
from .etree import (
    EliminationTree,
    elimination_tree,
    etree_height,
    etree_schedule,
)
from .sparsify import SparsifyStats, sparsify_for_levels
from .supernodes import (
    SupernodePartition,
    amalgamate_supernodes,
    detect_supernodes,
)
from .levelize import (
    LevelSchedule,
    PatternPlans,
    TYPE_A_MAX_SUBCOLS,
    TYPE_C_WARP_TEAMS,
    kahn_levels,
)

__all__ = [
    "DependencyGraph",
    "build_dependency_graph",
    "sub_column_counts",
    "EliminationTree",
    "elimination_tree",
    "etree_schedule",
    "etree_height",
    "SupernodePartition",
    "amalgamate_supernodes",
    "detect_supernodes",
    "sparsify_for_levels",
    "SparsifyStats",
    "LevelSchedule",
    "PatternPlans",
    "kahn_levels",
    "TYPE_A_MAX_SUBCOLS",
    "TYPE_C_WARP_TEAMS",
]
