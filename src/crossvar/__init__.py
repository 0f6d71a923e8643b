"""Exact crossing-count statistics of graphs under random vertex layouts."""

from .arrangements import (
    chebyshev_pvalue_bound,
    count_crossings,
    exhaustive_distribution,
    monte_carlo,
    zscore,
)
from .census import CensusReport, fast_census
from .errors import (
    CrossvarError,
    DegenerateStatisticsError,
    EdgeListParseError,
    InternalInconsistencyError,
    NotAForestError,
    OracleBudgetError,
    ValidationError,
)
from .frequencies import (
    ExpectationTable,
    FrequencyVector,
    builtin_rla_table,
    classify_pair,
    frequencies_brute,
    frequencies_from_census,
    frequencies_from_subgraph_counts,
    load_layout_table,
)
from .graph import Graph, compute_q, load_graph, parse_edge_list
from .variance import (
    VarianceResult,
    compute_variance,
    variance_forest,
    variance_general,
    variance_general_reuse,
    variance_naive,
    variance_rla_closed,
)

__version__ = "0.1.0"

__all__ = [
    "CensusReport",
    "CrossvarError",
    "DegenerateStatisticsError",
    "EdgeListParseError",
    "ExpectationTable",
    "FrequencyVector",
    "Graph",
    "InternalInconsistencyError",
    "NotAForestError",
    "OracleBudgetError",
    "ValidationError",
    "VarianceResult",
    "builtin_rla_table",
    "chebyshev_pvalue_bound",
    "classify_pair",
    "compute_q",
    "compute_variance",
    "count_crossings",
    "exhaustive_distribution",
    "fast_census",
    "frequencies_brute",
    "frequencies_from_census",
    "frequencies_from_subgraph_counts",
    "load_graph",
    "load_layout_table",
    "monte_carlo",
    "parse_edge_list",
    "variance_forest",
    "variance_general",
    "variance_general_reuse",
    "variance_naive",
    "variance_rla_closed",
    "zscore",
]
