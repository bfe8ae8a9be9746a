"""Risk-aware minimum principle toolkit.

Simulation of measure-controlled SDEs, law-invariant risk functions with
pointwise derivatives, regression Monte Carlo adjoint solvers, Hamiltonian
minimization with damped successive approximation, and a portfolio
allocation benchmark.
"""

from .adjoint import (
    AdjointProcesses,
    MartingaleReport,
    RegressionBasis,
    martingale_diagnostics,
    solve_adjoint,
    solve_adjoint_system,
    solve_risk_adjustment,
)
from .control import (
    IterationRecord,
    MsaConfig,
    SolveReport,
    msa_solve,
    objective,
)
from .errors import (
    AlphaOutOfRange,
    ConfigInvalid,
    DegenerateSample,
    InvalidBounds,
    InvalidPolicyWeights,
    NonPositiveAdjustment,
    NonPositiveHorizon,
    NumericalBlowup,
    RankDeficient,
    RiskmpError,
    ZeroSteps,
)
from .portfolio import (
    BruteForceResult,
    PortfolioParams,
    brute_force_constant_policy,
    build_portfolio_model,
    merton_allocation,
    optimal_allocation_from_adjoints,
    risk_premium,
)
from .risk import (
    DirectionalCheck,
    EmpiricalSample,
    RiskFunction,
    bootstrap_indices,
    bootstrap_standard_error,
    directional_derivative_check,
    evaluate,
    l_derivative,
)
from .sde import (
    BrownianDriver,
    FeasibilityConfig,
    FeasibilityReport,
    MeasurePolicy,
    ModelSpec,
    PathEnsemble,
    TimeGrid,
    build_time_grid,
    check_feasibility,
    convex_combine,
    dirac_initial,
    sample_brownian,
    simulate_forward,
    simulate_variational,
    total_cost,
    validate_gradients,
)

__version__ = "0.1.0"
