"""Spectral and degree-based invariants of directed graphs.

Computes the trace-norm energy of a digraph, per-vertex outer/inner
energies and the directed Randic index, certifies the bound chain
2R(G) <= E(G) <= 2 sqrt(max_degree) R(G), and structurally classifies both
equality cases via bipartite doubling and sink-source splittings.  An
exhaustive small-graph oracle re-verifies every supported property.
"""

from .classify import (
    ComponentKind,
    ComponentTag,
    SplitPart,
    classify_component,
    classify_lower_equality,
    classify_upper_equality,
    find_splitting,
    verify_splitting,
)
from .densela import SymEigen, adjacency, psd_sqrt, singular_values, sym_eigen
from .digraph import (
    DegreeProfile,
    Digraph,
    degree_profile,
    disjoint_union,
    gen_cycle,
    gen_kbip,
    gen_path,
    gen_random,
    new_digraph,
    reverse,
    weak_components,
)
from .energy import (
    EnergyReport,
    adjacent_pair_check,
    edge_energy,
    energy_report,
    mcclelland_bound,
    vertex_degree_bound_check,
)
from .hermitian import (
    UndirectedGraph,
    double,
    undirected_energy,
    undirected_randic,
)
from .oracle import CheckOutcome, SweepSummary, check_graph, enumerate_digraphs, sweep
from .randic import BoundsCertificate, bounds_certificate, randic_index

__version__ = "0.1.0"

__all__ = [
    "BoundsCertificate",
    "CheckOutcome",
    "ComponentKind",
    "ComponentTag",
    "DegreeProfile",
    "Digraph",
    "EnergyReport",
    "SplitPart",
    "SweepSummary",
    "SymEigen",
    "UndirectedGraph",
    "adjacency",
    "adjacent_pair_check",
    "bounds_certificate",
    "check_graph",
    "classify_component",
    "classify_lower_equality",
    "classify_upper_equality",
    "degree_profile",
    "disjoint_union",
    "double",
    "edge_energy",
    "energy_report",
    "enumerate_digraphs",
    "find_splitting",
    "gen_cycle",
    "gen_kbip",
    "gen_path",
    "gen_random",
    "mcclelland_bound",
    "new_digraph",
    "psd_sqrt",
    "randic_index",
    "reverse",
    "singular_values",
    "sweep",
    "sym_eigen",
    "undirected_energy",
    "undirected_randic",
    "verify_splitting",
    "vertex_degree_bound_check",
    "weak_components",
]
