"""Hamiltonian evaluation, minimization, objective, and the solver loop."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmp import (
    MeasurePolicy,
    MsaConfig,
    RegressionBasis,
    RiskFunction,
    build_time_grid,
    merton_allocation,
    msa_solve,
    objective,
    sample_brownian,
    simulate_forward,
)
from riskmp.control import _hamiltonian_atoms, _near_min_weights, policy_entropy
from riskmp.portfolio import PortfolioParams, build_portfolio_model
from riskmp.models import sign_volatility_model

from conftest import TABLE_LAYOUTS, make_model


def _table(model, t=0.0, x=0.0, y=0.0, yprime=1.0, z=0.0):
    """H at every atom for one scalar (t, x, y, y', z) point: a (1, A) table."""
    return _hamiltonian_atoms(
        model,
        t,
        np.full((1, 1), x),
        np.full((1, 1), y),
        np.full(1, yprime),
        np.full((1, 1, 1), z),
    )


def _minimizer(table):
    """Near-min weights of a one-path table, beside a uniform policy."""
    uniform = np.full(table.shape, 1.0 / table.shape[1])
    return _near_min_weights(table, 1e-9, uniform)[0][0]


# ---------------------------------------------------------------- hamiltonian

def test_hamiltonian_reduces_to_cost_rate():
    model = make_model([2.0], cost=lambda t, x, a: np.full(x.shape[0], 7.5))
    assert _table(model, y=0.0, yprime=1.0, z=0.0)[0, 0] == 7.5


def test_hamiltonian_reduces_to_drift_pairing():
    model = make_model([3.0], drift=lambda t, x, a: np.full((x.shape[0], 1), a[0]))
    assert _table(model, y=2.0, yprime=0.0, z=0.0)[0, 0] == 6.0


def test_hamiltonian_portfolio_hand_value():
    # y = -1, y' = 1, z = 0.3, market sigma = 0.2, action 0.5:
    # b = 0.02 + 0.06*0.5 - 0.5*0.04*0.25 = 0.045, c = 0, tr[z sigma] = 0.03,
    # so H = -0.045 + 0.03 = -0.015.
    params = PortfolioParams(r=0.02, mu=0.08, sigma=0.2, phi_low=0.1, phi_high=1.5)
    model = build_portfolio_model(params, 15)
    assert model.action_grid[4, 0] == 0.5
    val = _table(model, y=-1.0, yprime=1.0, z=0.3)[0, 4]
    assert val == pytest.approx(-0.015, abs=1e-15)


def test_hamiltonian_risk_neutral_form():
    # With y' = 1 the Hamiltonian is the classical c + y.b + tr[z sigma].
    model = make_model(
        [1.5],
        drift=lambda t, x, a: np.full((x.shape[0], 1), a[0]),
        diffusion=lambda t, x, a: np.full((x.shape[0], 1, 1), 0.4),
        cost=lambda t, x, a: np.full(x.shape[0], 0.3),
    )
    got = _table(model, y=2.0, yprime=1.0, z=0.5)[0, 0]
    assert got == pytest.approx(0.3 + 2.0 * 1.5 + 0.5 * 0.4, abs=1e-15)


# ---------------------------------------------------------------- minimizer

def test_minimize_unique_minimum_is_dirac():
    model = build_portfolio_model(PortfolioParams(), 15)
    w = _minimizer(_table(model, y=-1.0, yprime=1.0, z=0.0))
    assert np.count_nonzero(w) == 1
    best = model.action_grid[np.argmax(w), 0]
    assert abs(best - merton_allocation(PortfolioParams())) <= 1.4 / 14 / 2 + 1e-12


def test_minimize_sign_sensitive():
    model = sign_volatility_model()
    w = _minimizer(_table(model, y=0.0, yprime=1.0, z=-1.0))
    np.testing.assert_array_equal(w, [0.0, 1.0])  # H(a) = z*a minimized at +1


def _reference_step(table, eta, wpi):
    """wstar, gap, change and entropy of one step, from their formulas."""
    hmin = table.min(axis=1)
    mask = table <= (hmin + eta * (1.0 + np.abs(hmin)))[:, None]
    wstar = mask / mask.sum(axis=1, keepdims=True)
    gap = float(np.mean((wpi * table).sum(axis=1) - hmin))
    return wstar, gap, float(np.mean(np.abs(wstar - wpi))), policy_entropy(wpi)


def _tied_table(rng, n, n_atoms, eta):
    """Random H with exact ties, entries on the tie threshold and just above."""
    table = rng.standard_normal((n, n_atoms)) * 10.0 ** rng.integers(-3, 4, (n, 1))
    table[rng.random(n) < 0.3] = 0.0  # every atom tied at zero
    hmin = table.min(axis=1)
    thresh = hmin + eta * (1.0 + np.abs(hmin))
    rows = np.arange(n)
    for values in (hmin, thresh, np.nextafter(thresh, np.inf)):
        cols = rng.integers(0, n_atoms, n)
        keep = table[rows, cols] != hmin  # do not move the minimum itself
        table[rows[keep], cols[keep]] = values[keep]
    return table


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 300),
    n_atoms=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_kernel_matches_reference_in_every_layout(n, n_atoms, seed):
    rng = np.random.default_rng(seed)
    eta = 1e-9
    table = _tied_table(rng, n, n_atoms, eta)
    scale = max(1.0, float(np.abs(table).max()))
    w = rng.random((n, n_atoms)) * (rng.random((n, n_atoms)) < 0.7)
    w[:, 0] += 1e-9
    w /= w.sum(axis=1, keepdims=True)
    row = w[0]
    policies = {
        "varying": {"C": np.ascontiguousarray(w), "F": np.asfortranarray(w)},
        "one row": {
            "C": np.ascontiguousarray(np.broadcast_to(row, w.shape)),
            "F": np.asfortranarray(np.broadcast_to(row, w.shape)),
            "broadcast": np.broadcast_to(row, w.shape),
        },
    }
    for kind, layouts in policies.items():
        results = {}
        for (t_name, t_layout), (w_name, wpi) in itertools.product(
            TABLE_LAYOUTS.items(), layouts.items()
        ):
            wstar, *diagnostics = _near_min_weights(t_layout(table), eta, wpi)
            ref_wstar, *ref = _reference_step(table, eta, wpi)
            assert np.array_equal(wstar, ref_wstar), (kind, t_name, w_name)
            np.testing.assert_allclose(diagnostics, ref, rtol=1e-12, atol=1e-12 * scale)
            results[t_name, w_name] = diagnostics
        # gap, change and entropy are the same bits in every layout
        assert len({tuple(d) for d in results.values()}) == 1, (kind, results)


def test_step_kernel_writes_into_out():
    rng = np.random.default_rng(3)
    table = _tied_table(rng, 64, 7, 1e-9)
    wpi = np.broadcast_to(np.full(7, 1.0 / 7.0), table.shape)
    out = np.empty((2, 7, 64))
    wstar, *diagnostics = _near_min_weights(table, 1e-9, wpi, out=out)
    assert np.shares_memory(wstar, out[0])
    fresh, *fresh_diagnostics = _near_min_weights(table, 1e-9, wpi)
    assert np.array_equal(wstar, fresh) and diagnostics == fresh_diagnostics


def test_step_kernel_mixes_the_sign_volatility_tie():
    # At zero adjoints H = 0 on both volatility atoms: an exact tie.
    table = _table(sign_volatility_model(), y=0.0, yprime=1.0, z=0.0)
    wpi = np.array([[1.0, 0.0]])
    wstar, gap, change, entropy = _near_min_weights(table, 1e-9, wpi)
    assert np.array_equal(wstar, [[0.5, 0.5]])
    assert (gap, change, entropy) == (0.0, 0.5, 0.0)


# ----------------------------------------------------------------- objective

def test_objective_zero_cost_model():
    model = make_model([0.0])
    grid = build_time_grid(1.0, 10)
    driver = sample_brownian(grid, 50, 1, seed=0)
    for risk in (RiskFunction.expectation(), RiskFunction.entropic(2.0)):
        assert objective(model, risk, MeasurePolicy.dirac(0, 1), driver, grid) == 0.0


def test_objective_deterministic_dynamics_ignores_risk():
    # sigma = 0 and a point-mass start: the cost is constant, and every
    # translation-invariant risk returns that constant.
    model = make_model(
        [1.0],
        drift=lambda t, x, a: np.full((x.shape[0], 1), 0.5),
        cost=lambda t, x, a: np.full(x.shape[0], 0.2),
        terminal=lambda x: x[:, 0],
        x0=1.0,
    )
    grid = build_time_grid(1.0, 40)
    driver = sample_brownian(grid, 30, 1, seed=1)
    pol = MeasurePolicy.dirac(0, 1)
    expected = 0.2 + (1.0 + 0.5)  # running cost + terminal g(x_T)
    for risk in (
        RiskFunction.expectation(),
        RiskFunction.mean_deviation(0.5),
        RiskFunction.entropic(1.0),
    ):
        got = objective(model, risk, pol, driver, grid)
        assert got == pytest.approx(expected, abs=1e-12)
    # smoothed semideviation is translation invariant but not normalized:
    # at constants it sits above by its value at zero, within eps*beta*ln2
    smooth = objective(
        model, RiskFunction.smoothed_semideviation(0.5, 0.1), pol, driver, grid
    )
    assert 0.0 < smooth - expected <= 0.5 * 0.1 * math.log(2.0) + 1e-15


def test_objective_portfolio_matches_analytic_mean():
    params = PortfolioParams()
    model = build_portfolio_model(params, 15)
    grid = build_time_grid(1.0, 50)
    n = 20_000
    driver = sample_brownian(grid, n, 1, seed=5)
    phi = float(model.action_grid[7, 0])
    got = objective(
        model, RiskFunction.expectation(), MeasurePolicy.dirac(7, 15), driver, grid
    )
    mean = -(params.x0 + (params.r + (params.mu - params.r) * phi
                          - 0.5 * params.sigma**2 * phi**2) * params.horizon)
    se = params.sigma * phi * math.sqrt(params.horizon) / math.sqrt(n)
    assert abs(got - mean) <= 3 * se


# ------------------------------------------------------------------- solver

def test_msa_config_validation():
    with pytest.raises(ValueError):
        MsaConfig(max_iters=0)
    with pytest.raises(ValueError):
        MsaConfig(damping_base=1.5)
    with pytest.raises(ValueError):
        MsaConfig(eta=0.0)
    for n_boot in (-1, 0, 1):
        with pytest.raises(ValueError, match="n_boot"):
            MsaConfig(n_boot=n_boot)
    cfg = MsaConfig()
    alphas = [cfg.alpha(k) for k in range(30)]
    assert all(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:]))


def test_msa_zero_cost_stays_at_zero():
    model = make_model([0.0, 1.0], diffusion=lambda t, x, a: np.full(
        (x.shape[0], 1, 1), 0.1 * a[0]
    ))
    grid = build_time_grid(1.0, 10)
    driver = sample_brownian(grid, 500, 1, seed=3)
    pol, report = msa_solve(
        model,
        RiskFunction.expectation(),
        MeasurePolicy.uniform(2),
        MsaConfig(max_iters=4, tol=0.0),
        driver,
        RegressionBasis(degree=2),
        grid,
    )
    assert all(r.objective == 0.0 for r in report.records)
    assert [r.iter for r in report.records] == list(range(report.n_iters))


def test_msa_recovers_merton_small():
    params = PortfolioParams()
    model = build_portfolio_model(params, 15)
    grid = build_time_grid(1.0, 25)
    driver = sample_brownian(grid, 5000, 1, seed=8)
    pol, report = msa_solve(
        model,
        RiskFunction.expectation(),
        MeasurePolicy.uniform(15),
        MsaConfig(max_iters=20, tol=1e-5),
        driver,
        RegressionBasis(degree=3),
        grid,
    )
    ens = simulate_forward(model, pol, driver, grid)
    atoms = model.action_grid[:, 0]
    for k in range(grid.n_steps):
        w = pol.weights_at(k, grid.nodes[k], ens.states[:, k])
        assert abs(float((w @ atoms).mean()) - 2.0 / 3.0) <= 0.06
    # near-strict final policy: per-step entropy close to Dirac
    assert report.records[-1].policy_entropy <= 0.15
    assert report.records[-1].hamiltonian_gap <= 1e-3


def test_msa_tie_mixing_recovers_mixed_volatility_control():
    # Pure-diffusion sign model: the mixed control is the fixed point; from a
    # uniform start the solver's tie handling keeps it exactly.
    model = sign_volatility_model()
    grid = build_time_grid(1.0, 10)
    driver = sample_brownian(grid, 1000, 1, seed=9)
    pol, report = msa_solve(
        model,
        RiskFunction.expectation(),
        MeasurePolicy.uniform(2),
        MsaConfig(max_iters=5, tol=1e-12),
        driver,
        RegressionBasis(degree=2),
        grid,
    )
    w = pol.weights_at(0, 0.0, np.zeros((4, 1)))
    np.testing.assert_allclose(w, 0.5, atol=1e-12)
    assert all(r.objective == 0.0 for r in report.records)
