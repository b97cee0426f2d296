"""Computing and minimizing the two-party efficiency-gap measure."""

from .core import (
    PARTY_A,
    PARTY_B,
    AttainableValue,
    PlanStats,
    VoteCounts,
    attainable_values,
    district_effgap,
    margin_identity,
    total_effgap,
    wasted_votes,
    winner,
)
from .grid import (
    GridPartition,
    GridPolygon,
    HardnessInstance,
    brute_force_opt,
    enumerate_equipartitions,
    gen_hardness_instance,
    population_window,
    read_instance,
    subset_sum_oracle,
    validate_partition,
    validate_polygon,
    write_instance,
)
from .yconvex import solve_yconvex
from .canonical import build_decomposition, solve_canonical, solve_case1, solve_two_near_stable
from .county import CountyGraph, ingest, plan_stats
from .localsearch import SearchConfig, run

__version__ = "0.1.0"

__all__ = [
    "PARTY_A",
    "PARTY_B",
    "AttainableValue",
    "CountyGraph",
    "GridPartition",
    "GridPolygon",
    "HardnessInstance",
    "PlanStats",
    "SearchConfig",
    "VoteCounts",
    "attainable_values",
    "brute_force_opt",
    "build_decomposition",
    "district_effgap",
    "enumerate_equipartitions",
    "gen_hardness_instance",
    "ingest",
    "margin_identity",
    "plan_stats",
    "population_window",
    "read_instance",
    "run",
    "solve_canonical",
    "solve_case1",
    "solve_two_near_stable",
    "solve_yconvex",
    "subset_sum_oracle",
    "total_effgap",
    "validate_partition",
    "validate_polygon",
    "wasted_votes",
    "winner",
    "write_instance",
]
