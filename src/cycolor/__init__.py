"""Cyclically-interval proper edge colorings: construction, verification,
exact search, CNF export, and the arithmetic audit of why the hub-and-grid
family escapes the class once m reaches 8."""

from .audit import AuditParams, AuditReport, AuditStep, RangeSummary, audit, audit_range
from .cnf import CnfEncoding, encode, export_cnf
from .coloring import (
    Coloring,
    Failure,
    Verdict,
    check_cyclically_interval,
    check_proper,
    palette,
)
from .errors import CycolorError
from .families import (
    gen_complete_bipartite,
    gen_cycle,
    gen_gm,
    gen_path,
    gen_random_tree,
    gen_star,
)
from .graphs import (
    Bipartition,
    Graph,
    NotBipartite,
    bipartition,
    build_graph,
)
from .intervals import (
    ColorSet,
    CyclicIntervalSpec,
    cyclic_span,
    intcyc_contains,
    is_cyclic_interval,
)
from .solver import (
    BUDGET_EXCEEDED,
    COLORABLE,
    NOT_COLORABLE,
    SearchOutcome,
    SolverConfig,
    SpectrumResult,
    brute_force_decide,
    chromatic_index,
    count_colorings,
    decide,
    spectrum,
)

__all__ = [
    "AuditParams",
    "AuditReport",
    "AuditStep",
    "BUDGET_EXCEEDED",
    "Bipartition",
    "COLORABLE",
    "CnfEncoding",
    "ColorSet",
    "Coloring",
    "CycolorError",
    "CyclicIntervalSpec",
    "Failure",
    "Graph",
    "NOT_COLORABLE",
    "NotBipartite",
    "RangeSummary",
    "SearchOutcome",
    "SolverConfig",
    "SpectrumResult",
    "Verdict",
    "audit",
    "audit_range",
    "bipartition",
    "brute_force_decide",
    "build_graph",
    "check_cyclically_interval",
    "check_proper",
    "chromatic_index",
    "count_colorings",
    "cyclic_span",
    "decide",
    "encode",
    "export_cnf",
    "gen_complete_bipartite",
    "gen_cycle",
    "gen_gm",
    "gen_path",
    "gen_random_tree",
    "gen_star",
    "intcyc_contains",
    "is_cyclic_interval",
    "palette",
    "spectrum",
]

__version__ = "0.1.0"
