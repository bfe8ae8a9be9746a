"""Hamiltonian evaluation, pointwise minimization, and the solver iteration.

The Hamiltonian H = y.b + y'.c + tr[z sigma] is linear in the control
measure, so its infimum over measures on the action grid is attained on
atoms; ties within a tolerance are resolved by uniform mixing, which is what
lets a zero-diffusion fixed point sit on a genuinely mixed measure.

msa_solve iterates the coupled system to a fixed point: simulate forward,
differentiate the risk at the cost law, solve the two backward regressions,
minimize H pointwise at every (path, step), fit the minimizers back into a
feedback policy, and damp the update.  The Brownian driver is frozen across
iterations (common random numbers) so the objective trace is comparable
between iterations.
"""

from dataclasses import dataclass, field

import numpy as np

from .adjoint import (
    _slice_regressions,
    martingale_diagnostics,
    solve_adjoint_system,
)
from .risk import EmpiricalSample, bootstrap_standard_error, evaluate, l_derivative
from .sde import (
    MeasurePolicy,
    coefficient_tables,
    convex_combine,
    simulate_forward,
    total_cost,
)

__all__ = [
    "MsaConfig",
    "IterationRecord",
    "SolveReport",
    "objective",
    "policy_entropy",
    "msa_solve",
]


def _hamiltonian_atoms(model, t, states, y, yprime, z):
    """H at every action atom; shapes (n, dim_x), (n,), (n, dim_w, dim_x).

    The (n, n_atoms) result is the transpose of an atom-major array, the
    layout einsum gave full per-atom tables: the per-path reductions over
    atoms that follow run about twice as fast on it.
    """
    tabs = coefficient_tables(model, t, states, ("drift", "cost", "diffusion"))
    out = np.einsum("ni,ani->an", y, tabs["drift"])
    out += np.einsum("n,an->an", yprime, tabs["cost"])
    out += np.einsum("nwi,aniw->an", z, tabs["diffusion"])
    return out.T


def _near_min_weights(table, eta):
    """Uniform mixture over atoms within eta * (1 + |H_min|) of the minimum."""
    hmin = table.min(axis=1)
    thresh = hmin + eta * (1.0 + np.abs(hmin))
    mask = table <= thresh[:, None]
    return mask / mask.sum(axis=1, keepdims=True)


def policy_entropy(weights):
    """Path mean of the Shannon entropy of (n, n_atoms) policy weights.

    Zero weights contribute 0 log 0 = 0: the log is taken only where w > 0.
    The log's output array copies the layout of the mask, which is the
    layout an elementwise ufunc gives (C order for a broadcast row, where
    zeros_like(weights) would pick F order), since the row sums round
    differently by layout.
    """
    positive = weights > 0.0
    wlogw = np.log(
        weights, out=np.zeros_like(positive, dtype=float), where=positive
    )
    wlogw *= weights
    return float(np.mean(-wlogw.sum(axis=1)))


def objective(model, risk, policy, driver, grid):
    """Risk of the total-cost sample from a fresh forward simulation."""
    ens = simulate_forward(model, policy, driver, grid)
    return evaluate(risk, EmpiricalSample(total_cost(ens, model)))


@dataclass(frozen=True)
class MsaConfig:
    """Iteration controls for msa_solve.

    The damping schedule is alpha_k = damping_base / (1 + k / damping_scale),
    nonincreasing in k.  eta is the relative Hamiltonian tie tolerance, tol
    the convergence threshold on the objective change, and seed drives the
    bootstrap standard errors recorded in the report.
    """

    max_iters: int = 25
    damping_base: float = 0.5
    damping_scale: float = 10.0
    eta: float = 1e-9
    tol: float = 1e-4
    n_boot: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (0.0 < self.damping_base <= 1.0) or self.damping_scale <= 0.0:
            raise ValueError("damping schedule must start in (0, 1] and decay")
        if self.eta <= 0.0 or self.tol < 0.0:
            raise ValueError("eta must be > 0 and tol >= 0")
        if self.n_boot < 2:
            raise ValueError(f"n_boot must be >= 2, got {self.n_boot}")

    def alpha(self, k):
        return self.damping_base / (1.0 + k / self.damping_scale)


@dataclass(frozen=True)
class IterationRecord:
    """One solver iteration; its fields are the columns of objective_trace.csv."""

    iter: int
    objective: float
    objective_se: float
    hamiltonian_gap: float
    policy_change: float
    policy_entropy: float
    martingale_max_drift: float


@dataclass
class SolveReport:
    """The solver's iterations, one record each, and whether it converged.

    Everything else about the iterations is derived from the records.
    """

    records: list = field(default_factory=list)
    converged: bool = False

    @property
    def n_iters(self):
        return len(self.records)

    @property
    def max_iters_exceeded(self):
        return not self.converged

    @property
    def best_iter(self):
        """First iteration with the lowest objective."""
        return min(range(self.n_iters), key=lambda i: self.records[i].objective)

    @property
    def non_monotone_iters(self):
        """Iterations whose objective exceeds the previous one by over 2 SE."""
        r = self.records
        return [
            i for i in range(1, len(r))
            if r[i].objective > r[i - 1].objective + 2.0 * r[i - 1].objective_se
        ]


def msa_solve(model, risk, init, cfg, driver, basis, grid):
    """Damped successive approximation of the coupled optimality system.

    Each iteration simulates under the current policy, evaluates the risk and
    its derivative at the empirical cost law, solves the backward regressions
    for (y', z') and (y, z), minimizes the Hamiltonian at every (path, step),
    fits the minimizing weights into a feedback policy q*, and updates
    pi <- (1 - alpha_k) pi + alpha_k q*.  Stops when the objective change
    drops below cfg.tol or after cfg.max_iters iterations, returning the
    policy of the report's best_iter in the latter case.

    Returns:
      (policy, SolveReport)
    """
    report = SolveReport()
    policies = [init]  # the policy simulated at each iteration
    n_steps = grid.n_steps

    for it in range(cfg.max_iters):
        policy = policies[-1]
        ens = simulate_forward(model, policy, driver, grid, keep_weights=True)
        costs = total_cost(ens, model)
        sample = EmpiricalSample(costs)
        obj = evaluate(risk, sample)
        se = bootstrap_standard_error(risk, sample, cfg.n_boot, cfg.seed)
        deriv = l_derivative(risk, sample)
        slices = _slice_regressions(ens, basis)
        adj = solve_adjoint_system(model, ens, deriv, basis, slices)
        mart = martingale_diagnostics(adj.yprime)

        gap_sum = 0.0
        change_sum = 0.0
        entropy_sum = 0.0
        fitted_steps = []
        for k in range(n_steps):
            t = grid.nodes[k]
            xk = ens.states[:, k]
            # Pinned layout: the gap's sum over atoms and the mean of
            # |wstar - wpi| round differently on a C-ordered table, so output
            # bits must not depend on the layout _hamiltonian_atoms returns.
            table = np.asfortranarray(
                _hamiltonian_atoms(
                    model, t, xk, adj.y[:, k], adj.yprime[:, k], adj.z[:, k]
                )
            )
            wstar = _near_min_weights(table, cfg.eta)
            wpi = ens.weights_at(k)
            gap_sum += float(
                np.mean(np.einsum("na,na->n", wpi, table) - table.min(axis=1))
            )
            change_sum += float(np.mean(np.abs(wstar - wpi)))
            entropy_sum += policy_entropy(wpi)
            fitted_steps.append(slices[k].fit_coefficients(wstar))

        report.records.append(IterationRecord(
            it, obj, se, gap_sum / n_steps, change_sum / n_steps,
            entropy_sum / n_steps, mart.max_drift,
        ))
        if it > 0 and abs(obj - report.records[-2].objective) < cfg.tol:
            report.converged = True
            return policy, report

        qstar = MeasurePolicy.fitted(fitted_steps, basis, model.n_atoms)
        policies.append(convex_combine(policy, qstar, cfg.alpha(it)))

    return policies[report.best_iter], report
