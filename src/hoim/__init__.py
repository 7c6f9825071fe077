"""Phase-dynamics solver for higher-order Ising problems.

Minimizes Ising Hamiltonians with interactions beyond pairwise by
integrating oscillator-style phase dynamics whose Lyapunov energy encodes
the discrete objective.  Two problem families are supported end to end:
NAE-K-SAT (binary spins, second-harmonic pinning) and hypergraph
Max-K-Cut (K-state spins, K-th-harmonic pinning).  Brute-force oracles
provide ground truth at desk scale.
"""

from .instances import (
    CnfInstance,
    Hypergraph,
    InstanceError,
    count_cut,
    count_satisfied,
    format_dimacs,
    format_hypergraph,
    generate_planted_nae,
    generate_random_hypergraph,
    parse_dimacs,
    parse_hypergraph,
)
from .polynomial import (
    InteractionPolynomial,
    build_objective,
    evaluate,
    expand_clause,
)
from .naesat import NaeSystem, snap_to_spins
from .hypercut import CutSystem, snap_to_labels
from .engine import AuditReport, SolveResult, SolverConfig, TraceRecord, lyapunov_audit, run
from . import oracle

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "CnfInstance",
    "CutSystem",
    "Hypergraph",
    "InstanceError",
    "InteractionPolynomial",
    "NaeSystem",
    "SolveResult",
    "SolverConfig",
    "TraceRecord",
    "build_objective",
    "count_cut",
    "count_satisfied",
    "evaluate",
    "expand_clause",
    "format_dimacs",
    "format_hypergraph",
    "generate_planted_nae",
    "generate_random_hypergraph",
    "lyapunov_audit",
    "oracle",
    "parse_dimacs",
    "parse_hypergraph",
    "run",
    "snap_to_labels",
    "snap_to_spins",
]
