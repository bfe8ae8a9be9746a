"""Portfolio model construction, Merton baseline, premium, and the oracle."""

import numpy as np
import pytest

from riskmp import (
    EmpiricalSample,
    InvalidBounds,
    MeasurePolicy,
    NonPositiveAdjustment,
    RegressionBasis,
    RiskFunction,
    bootstrap_standard_error,
    brute_force_constant_policy,
    build_portfolio_model,
    build_time_grid,
    check_feasibility,
    l_derivative,
    merton_allocation,
    optimal_allocation_from_adjoints,
    risk_premium,
    sample_brownian,
    simulate_forward,
    solve_adjoint_system,
    solve_risk_adjustment,
    total_cost,
    validate_gradients,
)
from riskmp.portfolio import MAX_X0, PortfolioParams

PARAMS = PortfolioParams()


def _entropic_closed_form(params, phi, theta):
    drift = params.r + (params.mu - params.r) * phi - 0.5 * params.sigma**2 * phi**2
    return (
        -params.x0
        - drift * params.horizon
        + 0.5 * theta * params.sigma**2 * phi**2 * params.horizon
    )


# -------------------------------------------------------------------- model

def test_per_atom_drift_values():
    p = PortfolioParams(phi_low=0.5, phi_high=1.0)
    model = build_portfolio_model(p, 2)
    x = np.zeros((3, 1))
    assert model.drift(0.0, x, model.action_grid[0])[0, 0] == pytest.approx(
        p.r + 0.5 * (p.mu - p.r) - 0.125 * p.sigma**2
    )
    assert model.drift(0.0, x, model.action_grid[1])[0, 0] == pytest.approx(
        p.r + (p.mu - p.r) - 0.5 * p.sigma**2
    )


def test_per_atom_diffusion_is_sigma_phi():
    model = build_portfolio_model(PARAMS, 8)
    x = np.zeros((2, 1))
    for atom in model.action_grid:
        assert model.diffusion(0.0, x, atom)[0, 0, 0] == pytest.approx(
            PARAMS.sigma * atom[0]
        )


def test_model_metadata_and_feasibility():
    model = build_portfolio_model(PARAMS, 5)
    assert model.n_atoms == 5
    assert check_feasibility(model.growth).feasible
    assert validate_gradients(model, seed=3, n_probes=5)["ok"]


def test_bounds_validation():
    with pytest.raises(InvalidBounds):
        PortfolioParams(phi_low=0.0)  # the lower bound is strict
    with pytest.raises(InvalidBounds):
        PortfolioParams(phi_low=1.0, phi_high=0.5)
    with pytest.raises(InvalidBounds):
        PortfolioParams(sigma=0.0)
    with pytest.raises(InvalidBounds):
        build_portfolio_model(PARAMS, 1)
    for x0 in (-MAX_X0, 0.0, MAX_X0):
        assert PortfolioParams(x0=x0).x0 == x0
    for x0 in (np.nextafter(MAX_X0, np.inf), -1e308, np.nan):
        with pytest.raises(InvalidBounds, match="x0 must be in"):
            PortfolioParams(x0=x0)


# ------------------------------------------------------------------- merton

def test_merton_allocation_interior():
    p = PortfolioParams(mu=0.08, r=0.02, sigma=0.3, phi_low=0.1, phi_high=1.5)
    assert merton_allocation(p) == pytest.approx(2.0 / 3.0)


def test_merton_allocation_clipped_high():
    p = PortfolioParams(mu=1.02, r=0.02, sigma=0.5, phi_low=0.1, phi_high=1.5)
    assert merton_allocation(p) == 1.5


def test_merton_allocation_clipped_low():
    p = PortfolioParams(mu=0.02, r=0.02, sigma=0.3, phi_low=0.1, phi_high=1.5)
    assert merton_allocation(p) == 0.1


# ------------------------------------------------------------------ premium

def test_risk_premium_zero_for_zero_zprime():
    yp = np.ones((5, 4))
    zp = np.zeros((5, 3, 1))
    assert np.all(risk_premium(yp, zp, 0.3) == 0.0)


def test_risk_premium_arithmetic():
    yp = np.ones((2, 3))
    zp = np.full((2, 2, 1), 0.1)
    np.testing.assert_allclose(risk_premium(yp, zp, 0.2), 0.02)


def test_risk_premium_requires_positive_adjustment():
    yp = np.ones((2, 3))
    yp[1, 1] = -0.5
    with pytest.raises(NonPositiveAdjustment):
        risk_premium(yp, np.zeros((2, 2, 1)), 0.3)


def test_risk_neutral_premium_vanishes():
    model = build_portfolio_model(PARAMS, 15)
    grid = build_time_grid(1.0, 30)
    driver = sample_brownian(grid, 4000, 1, seed=41)
    ens = simulate_forward(model, MeasurePolicy.uniform(15), driver, grid)
    yp, zp, _ = solve_risk_adjustment(ens, np.ones(4000), RegressionBasis(degree=3))
    iota = risk_premium(yp, zp, PARAMS.sigma)
    assert np.abs(iota).max() <= 1e-8


def test_allocation_from_adjoints_clipping():
    yp = np.ones((3, 3))
    # iota = 0 -> merton point
    phi = optimal_allocation_from_adjoints(yp, np.zeros((3, 2, 1)), PARAMS)
    np.testing.assert_allclose(phi, merton_allocation(PARAMS))
    # iota = -(mu - r) -> zero numerator, clipped at the lower bound
    zp = np.full((3, 2, 1), -(PARAMS.mu - PARAMS.r) / PARAMS.sigma)
    np.testing.assert_allclose(
        optimal_allocation_from_adjoints(yp, zp, PARAMS), PARAMS.phi_low
    )
    # large positive premium -> clipped at the upper bound
    zp = np.full((3, 2, 1), 10.0)
    np.testing.assert_allclose(
        optimal_allocation_from_adjoints(yp, zp, PARAMS), PARAMS.phi_high
    )


def test_positive_adjustment_for_monotone_risks():
    model = build_portfolio_model(PARAMS, 15)
    grid = build_time_grid(1.0, 30)
    driver = sample_brownian(grid, 6000, 1, seed=42)
    ens = simulate_forward(model, MeasurePolicy.dirac(7, 15), driver, grid)
    costs = total_cost(ens, model)
    basis = RegressionBasis(degree=3)
    for risk in (
        RiskFunction.smoothed_semideviation(0.5, 0.1),
        RiskFunction.entropic(1.0),
    ):
        deriv = l_derivative(risk, EmpiricalSample(costs))
        adj = solve_adjoint_system(model, ens, deriv, basis)
        assert np.all(adj.yprime > 0.0)


# ------------------------------------------------------------- brute force

def test_brute_force_single_point():
    grid = build_time_grid(1.0, 10)
    driver = sample_brownian(grid, 200, 1, seed=43)
    res = brute_force_constant_policy(
        PARAMS, RiskFunction.expectation(), [0.4], driver, grid
    )
    assert res.best_phi == 0.4
    assert res.values.shape == (1,)


def test_brute_force_rejects_out_of_bounds():
    grid = build_time_grid(1.0, 10)
    driver = sample_brownian(grid, 100, 1, seed=43)
    with pytest.raises(InvalidBounds):
        brute_force_constant_policy(
            PARAMS, RiskFunction.expectation(), [0.05], driver, grid
        )


def test_brute_force_finds_merton_under_expectation():
    grid = build_time_grid(1.0, 50)
    driver = sample_brownian(grid, 10_000, 1, seed=44)
    phis = np.linspace(0.1, 1.5, 15)
    res = brute_force_constant_policy(
        PARAMS, RiskFunction.expectation(), phis, driver, grid
    )
    spacing = phis[1] - phis[0]
    assert abs(res.best_phi - merton_allocation(PARAMS)) <= spacing + 1e-12
    # cross-check against the analytic mean cost curve
    analytic = np.array([_entropic_closed_form(PARAMS, p, 0.0) for p in phis])
    assert abs(phis[np.argmin(analytic)] - merton_allocation(PARAMS)) <= spacing


def test_brute_force_entropic_matches_closed_form():
    theta = 1.0
    risk = RiskFunction.entropic(theta)
    grid = build_time_grid(1.0, 50)
    driver = sample_brownian(grid, 10_000, 1, seed=45)
    phis = np.linspace(0.1, 1.5, 11)
    res = brute_force_constant_policy(PARAMS, risk, phis, driver, grid)
    model = build_portfolio_model(PARAMS, 15)
    for phi, value in zip(res.phis, res.values):
        closed = _entropic_closed_form(PARAMS, phi, theta)
        # bootstrap SE of the simulated entropic estimate at this phi
        from riskmp.portfolio import _model_on_atoms

        m = _model_on_atoms(PARAMS, np.array([[phi]]))
        ens = simulate_forward(m, MeasurePolicy.dirac(0, 1), driver, grid)
        se = bootstrap_standard_error(
            risk, EmpiricalSample(total_cost(ens, m)), n_boot=100, seed=1
        )
        assert abs(value - closed) <= 3 * se, (phi, value, closed, se)


def test_entropic_optimum_below_risk_neutral():
    grid = build_time_grid(1.0, 50)
    driver = sample_brownian(grid, 10_000, 1, seed=46)
    phis = np.linspace(0.1, 1.5, 29)
    neutral = brute_force_constant_policy(
        PARAMS, RiskFunction.expectation(), phis, driver, grid
    )
    averse = brute_force_constant_policy(
        PARAMS, RiskFunction.entropic(1.0), phis, driver, grid
    )
    assert averse.best_phi <= neutral.best_phi
