"""Log-wealth portfolio allocation with a risk-aware objective.

An agent splits wealth between a bond with rate r and a stock with drift mu
and volatility sigma; the control is the stock fraction phi on a bounded
interval, the state is log-wealth, and the total cost is -log N_T.  The
measure-controlled log-wealth drift is affine in the measure but quadratic in
the atom, so defining the coefficients per atom makes measure averaging in
the simulator exact.
"""

import math
from dataclasses import dataclass

import numpy as np

from .control import objective
from .errors import InvalidBounds, NonPositiveAdjustment
from .sde import FeasibilityConfig, MeasurePolicy, ModelSpec, dirac_initial

__all__ = [
    "PortfolioParams",
    "BruteForceResult",
    "build_portfolio_model",
    "merton_allocation",
    "risk_premium",
    "optimal_allocation_from_adjoints",
    "brute_force_constant_policy",
]


@dataclass(frozen=True)
class PortfolioParams:
    """Market and constraint parameters of the allocation problem."""

    r: float = 0.02
    mu: float = 0.08
    sigma: float = 0.3
    phi_low: float = 0.1
    phi_high: float = 1.5
    x0: float = 0.0
    horizon: float = 1.0

    def __post_init__(self):
        """Validate; each message starts with the name of a field at fault."""
        if self.sigma <= 0.0:
            raise InvalidBounds("sigma must be > 0")
        if self.horizon <= 0.0:
            raise InvalidBounds("horizon must be > 0")
        if not (0.0 < self.phi_low < self.phi_high and math.isfinite(self.phi_high)):
            raise InvalidBounds(
                "phi_low and phi_high need 0 < phi_low < phi_high < inf, "
                f"got [{self.phi_low}, {self.phi_high}]"
            )
        # The drift squares sigma and phi, and Python's float ** raises
        # OverflowError where * gives inf.
        for name in ("sigma", "phi_high"):
            value = getattr(self, name)
            if not math.isfinite(value * value):
                raise InvalidBounds(f"{name} must have a finite square, got {value!r}")
        if not math.isfinite(_coefficient_bound(self)):
            raise InvalidBounds(
                "mu, r, sigma and phi_high must give finite coefficients, got "
                f"mu={self.mu!r}, r={self.r!r}, sigma={self.sigma!r}, "
                f"phi_high={self.phi_high!r}"
            )


def _coefficient_bound(p):
    """Bound on the drift and diffusion of every atom in [0, phi_high]."""
    return max(
        abs(p.r) + abs(p.mu - p.r) * p.phi_high + 0.5 * p.sigma**2 * p.phi_high**2,
        p.sigma * p.phi_high,
        1.0,
    )


def _model_on_atoms(params, atoms):
    """Log-wealth ModelSpec on an explicit allocation atom array."""
    p = params

    def drift(t, x, a):
        phi = a[0]
        val = p.r + (p.mu - p.r) * phi - 0.5 * p.sigma**2 * phi**2
        return np.full((x.shape[0], 1), val)

    def diffusion(t, x, a):
        return np.full((x.shape[0], 1, 1), p.sigma * a[0])

    growth = FeasibilityConfig(
        L=_coefficient_bound(p),
        pbar1=0.0,
        pbar2=0.0,
        pbar3=math.inf,
        pbar=8.0,
        p1=1.0,
        p2=0.0,
        p1_prime=0.0,
        p2_prime=0.0,
        p=2.0,
    )
    return ModelSpec(
        dim_x=1,
        dim_w=1,
        dim_a=1,
        drift=drift,
        diffusion=diffusion,
        cost=lambda t, x, a: np.zeros(x.shape[0]),
        terminal=lambda x: -x[:, 0],
        drift_dx=lambda t, x, a: np.zeros((x.shape[0], 1, 1)),
        diffusion_dx=lambda t, x, a: np.zeros((x.shape[0], 1, 1, 1)),
        cost_dx=lambda t, x, a: np.zeros((x.shape[0], 1)),
        terminal_dx=lambda x: -np.ones((x.shape[0], 1)),
        initial=dirac_initial(p.x0),
        action_grid=atoms,
        growth=growth,
        constant_coefficients=True,
    )


def build_portfolio_model(params, n_actions):
    """ModelSpec for log-wealth under a uniform allocation grid.

    Per-atom drift r + (mu - r) phi - sigma^2 phi^2 / 2 and diffusion
    sigma phi; cost rate zero and terminal cost -x (so total cost is
    -log N_T).  n_actions uniform atoms span [phi_low, phi_high].
    """
    if n_actions < 2:
        raise InvalidBounds("need at least 2 allocation atoms")
    atoms = np.linspace(params.phi_low, params.phi_high, int(n_actions))[:, None]
    return _model_on_atoms(params, atoms)


def merton_allocation(params):
    """Risk-neutral optimal allocation (mu - r) / sigma^2, clipped to bounds."""
    return float(
        np.clip((params.mu - params.r) / params.sigma**2, params.phi_low, params.phi_high)
    )


def risk_premium(yprime, zprime, sigma):
    """Risk premium iota = sigma z' / y' per (path, step).

    Uses the left-endpoint y' slice at each step.  Raises
    NonPositiveAdjustment when any used y' is not strictly positive.
    """
    yprime = np.asarray(yprime, float)
    zprime = np.asarray(zprime, float)
    n_steps = zprime.shape[1]
    base = yprime[:, :n_steps]
    if np.any(base <= 0.0):
        raise NonPositiveAdjustment(
            f"y' must be > 0, min is {float(base.min()):.3e}"
        )
    return sigma * zprime[:, :, 0] / base


def optimal_allocation_from_adjoints(yprime, zprime, params):
    """Allocation (mu - r + iota) / sigma^2 clipped to the bounds, per entry."""
    iota = risk_premium(yprime, zprime, params.sigma)
    phi = (params.mu - params.r + iota) / params.sigma**2
    return np.clip(phi, params.phi_low, params.phi_high)


@dataclass(frozen=True)
class BruteForceResult:
    best_phi: float
    best_value: float
    phis: np.ndarray
    values: np.ndarray


def brute_force_constant_policy(params, risk, phi_grid, driver, grid):
    """Sweep constant Dirac allocations over phi_grid on a shared driver.

    Oracle for the solver: each candidate phi is simulated as a single-atom
    Dirac policy with exactly that allocation, sharing the driver so values
    are comparable across the sweep.  Returns the argmin with the full table.
    """
    phi_grid = np.asarray(phi_grid, float).reshape(-1)
    if np.any(phi_grid < params.phi_low - 1e-12) or np.any(
        phi_grid > params.phi_high + 1e-12
    ):
        raise InvalidBounds("phi_grid must stay inside [phi_low, phi_high]")
    values = np.empty(phi_grid.size)
    for i, phi in enumerate(phi_grid):
        model = _model_on_atoms(params, np.array([[phi]]))
        values[i] = objective(model, risk, MeasurePolicy.dirac(0, 1), driver, grid)
    best = int(np.argmin(values))
    return BruteForceResult(
        best_phi=float(phi_grid[best]),
        best_value=float(values[best]),
        phis=phi_grid,
        values=values,
    )
