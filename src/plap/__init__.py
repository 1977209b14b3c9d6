"""Spectral toolkit for the generalized graph p-Laplacian.

Exact tree/forest spectra by eigenvalue counting, a dense p = 2 reference
route, nodal-domain counting with position bounds, and eigenpair-preserving
graph surgery with interlacing checks.
"""

from .core import (P_MIN, EigenpairCertificate, Operator, VertexFunction,
                   WeightedGraph, apply, connected_components, first_eigenpair,
                   induced_subgraph, is_forest, p_normalized, phi, phi_inv,
                   rayleigh, residual, residuals, spectral_bound,
                   technical_R)
from .nodal import (BoundReport, NodalReport, analyze, check_lower,
                    check_upper, is_bipartite, nodal_domains)
from .oracle import SymmetricMatrix, assemble_p2, eig_sym, p2_spectrum
from .surgery import (CheckReport, ReductionReport, SurgeryStep,
                      reduce_to_forest, reduce_to_nodal_union, remove_edge,
                      remove_node, verify_weyl_edge, verify_weyl_nodes)
from .treespec import (RootedTree, Spectrum, SpectrumEntry, eigenbasis,
                       forest_eigenbasis, tree_eigenpairs, tree_spectrum)

__version__ = "0.1.0"

__all__ = [
    "P_MIN", "BoundReport", "CheckReport", "EigenpairCertificate",
    "NodalReport", "Operator", "ReductionReport", "RootedTree", "Spectrum",
    "SpectrumEntry", "SurgeryStep", "SymmetricMatrix", "VertexFunction",
    "WeightedGraph", "analyze", "apply", "assemble_p2", "check_lower",
    "check_upper", "connected_components", "eig_sym", "eigenbasis",
    "first_eigenpair", "forest_eigenbasis", "induced_subgraph",
    "is_bipartite", "is_forest", "nodal_domains", "p2_spectrum",
    "p_normalized", "phi", "phi_inv", "rayleigh", "reduce_to_forest",
    "reduce_to_nodal_union", "remove_edge", "remove_node", "residual",
    "residuals", "spectral_bound", "technical_R", "tree_eigenpairs",
    "tree_spectrum", "verify_weyl_edge", "verify_weyl_nodes",
]
