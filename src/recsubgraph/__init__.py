"""Budgeted link selection on bipartite graphs.

Given candidate links from sources L to targets R, keep at most ``c`` links
per source so that as many targets as possible receive at least ``a`` links.
The package bundles three strategies (uniform sampling, capacity-aware
greedy, window matching), closed-form coverage bounds, an exact oracle, and
a seeded sweep harness.
"""

from .bounds import (
    concentration_bound,
    greedy_expected_bound,
    required_ck,
    sampling_approx_ratio,
    sampling_lower_bound,
    upper_bound_estimate,
)
from .experiment import (
    CSV_HEADER,
    CellAggregate,
    ExperimentRow,
    ExperimentSpec,
    aggregate_rows,
    emit_csv,
    emit_plotdata,
    mix_seed,
    run_experiment,
)
from .generate import (
    ErdosRenyiSpec,
    FixedDegreeSpec,
    gen_erdos_renyi,
    gen_fixed_degree,
    generate_instance,
)
from .graph import (
    BipartiteGraph,
    CoverageReport,
    GraphError,
    ProblemParams,
    RecSubgraph,
    SubgraphValidationError,
    build_graph,
    coverage,
    simplify,
    validate,
)
from .io import (
    EdgeListError,
    read_edge_list,
    read_subgraph,
    write_edge_list,
    write_subgraph,
)
from .matching import Matching, bounded_matching, hopcroft_karp
from .oracle import SIZE_GUARD, OracleSizeError, exact_opt
from .solvers import (
    ALGORITHMS,
    ConfigError,
    SolveStats,
    SolverConfig,
    greedy_with_stats,
    partition_with_stats,
    sampling_with_stats,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BipartiteGraph",
    "CSV_HEADER",
    "CellAggregate",
    "ConfigError",
    "CoverageReport",
    "EdgeListError",
    "ErdosRenyiSpec",
    "ExperimentRow",
    "ExperimentSpec",
    "FixedDegreeSpec",
    "GraphError",
    "Matching",
    "OracleSizeError",
    "ProblemParams",
    "RecSubgraph",
    "SIZE_GUARD",
    "SolveStats",
    "SolverConfig",
    "SubgraphValidationError",
    "aggregate_rows",
    "bounded_matching",
    "build_graph",
    "concentration_bound",
    "coverage",
    "emit_csv",
    "emit_plotdata",
    "exact_opt",
    "gen_erdos_renyi",
    "gen_fixed_degree",
    "generate_instance",
    "greedy_expected_bound",
    "greedy_with_stats",
    "hopcroft_karp",
    "mix_seed",
    "partition_with_stats",
    "read_edge_list",
    "read_subgraph",
    "required_ck",
    "run_experiment",
    "sampling_approx_ratio",
    "sampling_lower_bound",
    "sampling_with_stats",
    "simplify",
    "solve",
    "upper_bound_estimate",
    "validate",
    "write_edge_list",
    "write_subgraph",
]
