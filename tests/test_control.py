"""Hamiltonian evaluation, minimization, objective, and the solver loop."""

import itertools
import json
import math
import os

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
from riskmp import cli, control
from riskmp.control import (
    _hamiltonian_atoms,
    _minimize_step,
    _near_min_weights,
    _step_is_path_constant,
    policy_entropy,
)
from riskmp.portfolio import PortfolioParams, build_portfolio_model
from riskmp.models import model_from_tables, sign_volatility_model

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


# ------------------------------------------------------- path-constant steps

def _constant_step(n, y, yprime, z, row, seed=0):
    """A step's inputs, the same on all n paths but for the states."""
    states = np.random.default_rng(seed).standard_normal((n, 1))
    return (
        states,
        np.full((n, 1), y),
        np.full(n, yprime),
        np.full((n, 1, 1), z),
        np.broadcast_to(np.asarray(row, float), (n, len(row))),
    )


def _full_width_step(model, states, y, yprime, z, wpi, eta=1e-9):
    return _near_min_weights(
        _hamiltonian_atoms(model, 0.25, states, y, yprime, z), eta, wpi
    )


_PORTFOLIO = build_portfolio_model(PortfolioParams(), 31)
_RNG = np.random.default_rng(11)
_ROW = _RNG.random(31) * (_RNG.random(31) < 0.6)
_ROW /= _ROW.sum()
_CONSTANT_STEPS = {
    # model, y, y', z, policy row
    "portfolio risk-neutral": (_PORTFOLIO, -1.0, 1.0, 0.0, np.full(31, 1 / 31)),
    "portfolio adjoints": (_PORTFOLIO, -0.93, 1.07, 0.021, _ROW),
    "sign-volatility tie": (sign_volatility_model(), 0.0, 1.0, 0.0, [1.0, 0.0]),
    "sign-volatility": (sign_volatility_model(), 0.0, 1.0, -0.7, [0.5, 0.5]),
}


@pytest.mark.parametrize("n", [2, 3, 1000, 4099])
@pytest.mark.parametrize("case", list(_CONSTANT_STEPS))
def test_collapsed_step_matches_the_full_kernel(case, n):
    model, *values, row = _CONSTANT_STEPS[case]
    states, y, yprime, z, wpi = _constant_step(n, *values, row)
    assert _step_is_path_constant(model, 0.25, states, y, yprime, z, wpi)
    buffers = np.full((3, model.n_atoms, n), np.nan)
    wstar, *diagnostics = _minimize_step(
        model, 0.25, states, y, yprime, z, wpi, 1e-9, buffers
    )
    ref_wstar, *ref = _full_width_step(model, states, y, yprime, z, wpi)
    assert wstar.shape == ref_wstar.shape and wstar.strides[0] == 0
    assert np.array_equal(wstar, ref_wstar)
    assert diagnostics == ref  # gap, change and entropy, bit for bit
    assert np.isnan(buffers).all()  # the collapsed step leaves them alone
    if case == "sign-volatility tie":
        assert np.array_equal(wstar[0], [0.5, 0.5])


def test_a_differing_or_nan_path_disables_the_collapse():
    n = 401
    model = _PORTFOLIO
    states, y, yprime, z, wpi = _constant_step(n, -1.0, 1.0, 0.0, _ROW)
    assert _step_is_path_constant(model, 0.0, states, y, yprime, z, wpi)
    for name, value in (("yprime", yprime), ("y", y), ("z", z)):
        # path 0 and the last path agree: only the full compare sees these
        for bad in (np.nextafter(value.flat[0], np.inf), np.nan):
            arrays = {"y": y, "yprime": yprime, "z": z}
            arrays[name] = value.copy()
            arrays[name][n // 2] = bad
            assert not _step_is_path_constant(
                model, 0.0, states, wpi=wpi, **arrays
            ), (name, bad)
        nan_everywhere = {"y": y, "yprime": yprime, "z": z}
        nan_everywhere[name] = np.full_like(value, np.nan)
        assert not _step_is_path_constant(
            model, 0.0, states, wpi=wpi, **nan_everywhere
        ), name
    # the same weights on every path, but not one broadcast row
    assert not _step_is_path_constant(
        model, 0.0, states, y, yprime, z, np.ascontiguousarray(wpi)
    )
    # tables that depend on the state: the custom problem's drift
    custom = model_from_tables({
        "dim_x": 1, "dim_w": 1, "action_grid": [-1.0, 1.0],
        "drift": {"const": [[-1.0], [1.0]], "x": [[-0.5]]},
        "diffusion": {"const": [[[0.2]], [[0.2]]]},
    })
    assert not _step_is_path_constant(
        custom, 0.0, states, y, yprime, z, wpi[:, :2] * 0 + 0.5
    )


def _solve_config(tmp_path, problem, risk, init_policy="uniform"):
    cfg = {
        "problem": problem,
        "risk": risk,
        "sim": {"n_steps": 8, "n_paths": 600, "n_actions": 9},
        "basis": {"degree": 2, "ridge": 1e-08},
        "msa": {"max_iters": 4, "tol": 1e-12, "n_boot": 20},
        "init_policy": init_policy,
        "seed": 23,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize(
    "problem, risk",
    [
        ({"type": "portfolio"}, {"type": "expectation"}),
        ({"type": "example1"}, {"type": "expectation"}),
    ],
    ids=["portfolio-risk-neutral", "example1"],
)
def test_solve_bits_do_not_depend_on_the_collapse(tmp_path, monkeypatch, problem, risk):
    path = _solve_config(tmp_path, problem, risk)
    collapsed = []
    is_constant = control._step_is_path_constant
    monkeypatch.setattr(
        control, "_step_is_path_constant",
        lambda *args: collapsed.append(is_constant(*args)) or collapsed[-1],
    )
    runs = {}
    for collapse in (True, False):
        if not collapse:
            monkeypatch.setattr(control, "_path_constant", lambda a: False)
        exp = cli.build_experiment(cli.load_config(path))
        model, grid = exp["model"], exp["grid"]
        driver = sample_brownian(grid, exp["n_paths"], model.dim_w, exp["seed"])
        policy, report = msa_solve(
            model, exp["risk"], exp["init"], exp["msa"], driver, exp["basis"], grid
        )
        kept = simulate_forward(model, policy, driver, grid, keep_weights=True)
        out = tmp_path / f"out-{collapse}"
        assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
        files = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
        runs[collapse] = (report.records, kept.policy_weights, files)
        if collapse:
            assert all(collapsed) and len(collapsed) >= report.n_iters * grid.n_steps
            collapsed.clear()
    assert not any(collapsed)
    (records, weights, files), (ref_records, ref_weights, ref_files) = (
        runs[True], runs[False]
    )
    assert records == ref_records
    assert len(weights) == len(ref_weights)
    assert all(np.array_equal(a, b) for a, b in zip(weights, ref_weights))
    assert files == ref_files


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
