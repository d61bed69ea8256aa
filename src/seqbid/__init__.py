"""Solvers and simulators for bidding in a known sequence of sealed-bid auctions."""

from .continuous import (
    DeltaLedger,
    GridSolution,
    HybridValueFunction,
    UniformFixed,
    Vg1,
    Vg2,
    error_bound,
    solve_grid,
    solve_grids,
)
from .core import (
    BidDistribution,
    Bundle,
    DiscreteMultinomial,
    ProblemSpec,
    TruncatedGaussian,
    discretize_distribution,
    ensure_valid,
    holdings_mask,
    terminal_value,
    to_discrete,
    useful_resources,
    validate_problem,
)
from .discrete import (
    Bidder,
    DiscreteSolution,
    evaluate_policy_exact,
    solve_discrete,
)
from .experiment import (
    ExperimentConfig,
    GeneratorParams,
    RunSpec,
    generate_instance,
    run_experiment_suite,
)
from .pwl import PwlFunction, RefinementBudget, vg1_refine, vg2_refine
from .simulate import (
    ErrorReport,
    compare_all,
    compare_solutions,
    estimate_policy_value,
    relative_sq_error,
    simulate_round,
)

__all__ = [name for name in dir() if not name.startswith("_")]
