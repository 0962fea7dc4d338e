"""Minimum-cluster-count partitioning under an R-squared threshold.

Given an n x m data matrix and a target ratio of between-group to total
variance, the solvers return a partition with as few groups as they can
manage whose R^2 meets the target: a greedy agglomeration, a search over
the k of k-means (k = 2, 4, 8, ... until feasible, then bisection), and a
variable neighborhood search wrapped around either.
"""

from .bench import (
    ALGORITHMS,
    BenchRow,
    OracleResult,
    gc_brute_force,
    preset_specs,
    render_table,
    rows_to_csv,
    run_algorithm,
    run_suite,
    set_partitions,
)
from .dataset import (
    Dataset,
    Distribution,
    InstanceSpec,
    generate,
    instance_name,
    load_csv,
    standardize,
    write_csv,
)
from .errors import DataError, DegenerateDataError, InfeasibleStartError, SolverError
from .kmeans import (
    BisectionProbe,
    KmeansResult,
    MedoidSolution,
    kmeans_gc,
    pmedian_greedy,
    pmedian_local_search,
)
from .stats import (
    Partition,
    SstSummary,
    VarianceSummary,
    apply_merge,
    apply_removal,
    evaluate,
    r2,
    sst,
)
from .vns import Starter, Termination, VnsConfig, VnsTrace, shake, vns_gc
from .ward import wards_gc, wards_gc_from

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BenchRow",
    "BisectionProbe",
    "DataError",
    "Dataset",
    "DegenerateDataError",
    "Distribution",
    "InfeasibleStartError",
    "InstanceSpec",
    "KmeansResult",
    "MedoidSolution",
    "OracleResult",
    "Partition",
    "SolverError",
    "SstSummary",
    "Starter",
    "Termination",
    "VarianceSummary",
    "VnsConfig",
    "VnsTrace",
    "apply_merge",
    "apply_removal",
    "evaluate",
    "gc_brute_force",
    "generate",
    "instance_name",
    "kmeans_gc",
    "load_csv",
    "pmedian_greedy",
    "pmedian_local_search",
    "preset_specs",
    "r2",
    "render_table",
    "rows_to_csv",
    "run_algorithm",
    "run_suite",
    "set_partitions",
    "shake",
    "sst",
    "standardize",
    "vns_gc",
    "wards_gc",
    "wards_gc_from",
    "write_csv",
]
