"""Hamiltonian evaluation, minimization, objective, and the solver loop."""

import collections
import csv
import dataclasses
import functools
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
    convex_combine,
    merton_allocation,
    msa_solve,
    objective,
    sample_brownian,
    simulate_forward,
    solve_adjoint_system,
)
from riskmp import adjoint, cli, control, sde
from riskmp import risk as risk_module
from riskmp.adjoint import MAX_RIDGE
from riskmp.control import (
    _hamiltonian_atoms,
    _minimize_step,
    _near_min_weights,
    _step_is_path_constant,
    policy_entropy,
)
from riskmp.portfolio import PortfolioParams, build_portfolio_model
from riskmp.models import model_from_tables, sign_volatility_model
from riskmp.risk import EmpiricalSample, l_derivative
from riskmp.sde import _averaged_coefficients, total_cost

from conftest import TABLE_LAYOUTS, _constant_2d_model, make_model


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


def _step_means(wstar, gap, change, entropy):
    """A step's gap, change and entropy as msa_solve records them."""
    n_atoms = wstar.shape[1]
    return (
        float(np.mean(gap)),
        float(np.mean(change)) / n_atoms,
        float(np.mean(entropy)),
    )


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
            wstar, *per_path = _near_min_weights(t_layout(table), eta, wpi)
            diagnostics = _step_means(wstar, *per_path)
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
    assert np.array_equal(wstar, fresh)
    assert all(map(np.array_equal, diagnostics, fresh_diagnostics))


def test_step_kernel_mixes_the_sign_volatility_tie():
    # At zero adjoints H = 0 on both volatility atoms: an exact tie.
    table = _table(sign_volatility_model(), y=0.0, yprime=1.0, z=0.0)
    wpi = np.array([[1.0, 0.0]])
    wstar, *diagnostics = _near_min_weights(table, 1e-9, wpi)
    assert np.array_equal(wstar, [[0.5, 0.5]])
    assert _step_means(wstar, *diagnostics) == (0.0, 0.5, 0.0)


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
    # gap, change and entropy, per path and as msa_solve records them
    assert all(map(np.array_equal, diagnostics, ref))
    assert _step_means(wstar, *diagnostics) == _step_means(ref_wstar, *ref)
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
    # the same weights on every path as a dense array are path-constant
    # too, but not with one differing or NaN middle row
    dense = np.ascontiguousarray(wpi)
    assert _step_is_path_constant(model, 0.0, states, y, yprime, z, dense)
    for bad in (np.roll(_ROW, 1), np.full(31, np.nan)):
        varying = dense.copy()
        varying[n // 2] = bad
        assert not _step_is_path_constant(model, 0.0, states, y, yprime, z, varying)
    # tables that depend on the state: the custom problem's drift
    custom = model_from_tables({
        "dim_x": 1, "dim_w": 1, "action_grid": [-1.0, 1.0],
        "drift": {"const": [[-1.0], [1.0]], "x": [[-0.5]]},
        "diffusion": {"const": [[[0.2]], [[0.2]]]},
    })
    assert not _step_is_path_constant(
        custom, 0.0, states, y, yprime, z, wpi[:, :2] * 0 + 0.5
    )


def _rows(rng, n_atoms):
    """Policy rows on n_atoms atoms: uniform, a Dirac, sparse and spread."""
    sparse = rng.uniform(size=n_atoms) * (rng.uniform(size=n_atoms) < 0.4)
    sparse[-1] += 0.1
    return (
        np.full(n_atoms, 1.0 / n_atoms),
        np.eye(n_atoms)[n_atoms // 2],
        sparse / sparse.sum(),
        rng.dirichlet(np.ones(n_atoms)),
    )


def _collapsible_calls(site, n, rng):
    """Calls of one site of the path-constant rule on inputs the same on all
    n paths, with the weights as a broadcast row and as a dense array."""
    calls = []
    if site == "minimize_step":
        for model, *values, row in _CONSTANT_STEPS.values():
            states, y, yprime, z, wpi = _constant_step(n, *values, row)
            buffers = np.empty((3, model.n_atoms, n))
            for w in (wpi, np.ascontiguousarray(wpi)):
                calls.append(functools.partial(
                    _minimize_step, model, 0.25, states, y, yprime, z, w, 1e-9,
                    buffers,
                ))
    elif site == "averaged_coefficients":
        for model in (_PORTFOLIO, _constant_2d_model(), sign_volatility_model()):
            x = rng.standard_normal((n, model.dim_x))
            for row in _rows(rng, model.n_atoms):
                w = np.broadcast_to(row, (n, model.n_atoms))
                for weights in (w, np.ascontiguousarray(w)):
                    calls.append(functools.partial(
                        _averaged_coefficients, model, 0.4, x, weights
                    ))
    elif site == "backward":
        # With a constant D, y' is path-constant, and so is y for these
        # models under a constant policy.  n copies of 3.7 need not sum,
        # divided by n, to 3.7: the last increment of y' is then not zero.
        grid = build_time_grid(1.0, 4)
        custom = model_from_tables(_CUSTOM_1D)
        for model, policy in (
            (_PORTFOLIO, MeasurePolicy.dirac(12, 31)),
            (custom, MeasurePolicy.uniform(3)),
        ):
            driver = sample_brownian(grid, n, model.dim_w, seed=11)
            ens = simulate_forward(model, policy, driver, grid, keep_weights=True)
            for value in (1.0, 3.7):
                calls.append(functools.partial(
                    _backward_solve, model, ens, np.full(n, value)
                ))
    else:
        for row in _rows(rng, 31):
            w = np.broadcast_to(row, (n, 31))
            for weights in (w, np.ascontiguousarray(w)):
                calls.append(lambda weights=weights: [policy_entropy(weights)])
    return calls


def _backward_solve(model, ensemble, derivative_values):
    """The four adjoints and both residual lists of the backward solves."""
    adj = solve_adjoint_system(
        model, ensemble, derivative_values, RegressionBasis(degree=2)
    )
    return [adj.y, adj.z, adj.yprime, adj.zprime,
            np.array(adj.residuals_y), np.array(adj.residuals_yprime)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 1000, 4097])
@pytest.mark.parametrize(
    "site", ["minimize_step", "averaged_coefficients", "policy_entropy"]
)
def test_collapsed_evaluation_has_the_full_width_bits(monkeypatch, rng, site, n):
    # Each site evaluates a path-constant input on its first paths and hands
    # the results back for all n; with the one predicate patched to False it
    # evaluates them on every path.  Both must give the same bits.
    calls = _collapsible_calls(site, n, rng)
    collapsed = [call() for call in calls]
    monkeypatch.setattr(sde, "_path_constant", lambda a: False)
    for results, full in zip(collapsed, [call() for call in calls]):
        assert len(results) == len(full)
        for got, ref in zip(results, full):
            if np.ndim(got) == 0:
                assert repr(got) == repr(ref), site
                continue
            assert got.shape == ref.shape and np.array_equal(got, ref), site
            if n > 1:
                assert got.strides[0] == 0, site  # evaluated once, broadcast
        if site == "minimize_step":
            assert _step_means(*results) == _step_means(*full)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 1000, 4097])
def test_backward_fits_have_the_full_width_bits(monkeypatch, rng, n):
    # A path-constant target fits to its mean without a factorization, and
    # an increment that is exactly zero is not fitted; with the one
    # predicate patched to False every target is solved in full.  Both must
    # give the same bits, signed zeros included.
    calls = _collapsible_calls("backward", n, rng)
    collapsed = [call() for call in calls]
    monkeypatch.setattr(sde, "_path_constant", lambda a: False)
    for results, full in zip(collapsed, [call() for call in calls]):
        for got, ref in zip(results, full):
            assert got.shape == ref.shape
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


def _solve_config(tmp_path, problem, risk, init_policy="uniform", sim=(),
                  **msa):
    cfg = {
        "problem": problem,
        "risk": risk,
        "sim": {"n_steps": 8, "n_paths": 600, "n_actions": 9, **dict(sim)},
        "basis": {"degree": 2, "ridge": 1e-08},
        "msa": {"max_iters": 4, "tol": 1e-12, "n_boot": 20, **msa},
        "init_policy": init_policy,
        "seed": 23,
    }
    if problem["type"] != "portfolio":  # only the portfolio has atoms to count
        del cfg["sim"]["n_actions"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# The custom problem of configs/custom_linear.json: its drift table depends
# on x, so no Hamiltonian step collapses.
_CUSTOM_1D = {
    "type": "custom",
    "dim_x": 1,
    "dim_w": 1,
    "action_grid": [-1.0, 0.0, 1.0],
    "drift": {"const": [[-1.0], [0.0], [1.0]], "x": [[-0.5]]},
    "diffusion": {"const": [[[0.2]], [[0.2]], [[0.2]]]},
    "cost": {"const": [0.1, 0.0, 0.1], "x": [0.0]},
    "terminal": {"const": 0.0, "x": [1.0]},
    "x0": [0.5],
}


@pytest.mark.parametrize(
    "problem, risk, init_policy, hamiltonian_collapses",
    [
        ({"type": "portfolio"}, {"type": "expectation"}, "uniform", True),
        ({"type": "example1"}, {"type": "expectation"}, "uniform", True),
        (
            _CUSTOM_1D,
            {"type": "smoothed_semideviation", "beta": 0.5, "epsilon": 0.1},
            {"type": "constant", "weights": [0.25, 0.5, 0.25]},
            False,
        ),
    ],
    ids=["portfolio-risk-neutral", "example1", "custom-constant-policy"],
)
def test_solve_bits_do_not_depend_on_the_collapse(
    tmp_path, monkeypatch, problem, risk, init_policy, hamiltonian_collapses
):
    # Patching the one predicate turns off every use of the path-constant
    # rule: the forward averaging, the Hamiltonian step, the q* fit and the
    # post-solve entropy.
    path = _solve_config(tmp_path, problem, risk, init_policy)
    collapsed, constant = [], []
    is_step_constant, is_constant = control._step_is_path_constant, sde._path_constant
    monkeypatch.setattr(
        control, "_step_is_path_constant",
        lambda *args: collapsed.append(is_step_constant(*args)) or collapsed[-1],
    )
    monkeypatch.setattr(
        sde, "_path_constant",
        lambda a: constant.append(is_constant(a)) or constant[-1],
    )
    runs = {}
    for collapse in (True, False):
        if not collapse:
            monkeypatch.setattr(sde, "_path_constant", lambda a: False)
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
            assert any(constant)
            assert len(collapsed) >= report.n_iters * grid.n_steps
            assert set(collapsed) == {hamiltonian_collapses}
            collapsed.clear()
    assert not any(collapsed)
    (records, weights, files), (ref_records, ref_weights, ref_files) = (
        runs[True], runs[False]
    )
    assert records == ref_records
    assert len(weights) == len(ref_weights)
    assert all(np.array_equal(a, b) for a, b in zip(weights, ref_weights))
    assert files == ref_files


def _solve(path):
    """msa_solve on the experiment of a config file."""
    exp = cli.build_experiment(cli.load_config(path))
    model, grid = exp["model"], exp["grid"]
    driver = sample_brownian(grid, exp["n_paths"], model.dim_w, exp["seed"])
    return msa_solve(
        model, exp["risk"], exp["init"], exp["msa"], driver, exp["basis"], grid
    )


def test_risk_neutral_solve_confirms_no_path_constant_input_by_compare(
    tmp_path, monkeypatch
):
    # With risk function E, l = 1, so y' = 1 and z' = 0, and on the Merton
    # portfolio every adjoint slice and every Hamiltonian step is the same
    # on all paths.  That is known where each value is made: D and grad g
    # are broadcast rows, the backward solves record the steps they make
    # path-constant, and a constant policy's weights are broadcast rows.
    # So every True verdict of the rule must come from the row stride, and
    # none from a compare over paths.
    path = _solve_config(tmp_path, {"type": "portfolio"}, {"type": "expectation"})
    verdicts, steps = [], []
    is_constant, is_step_constant = sde._path_constant, control._step_is_path_constant

    def spy(a):
        verdicts.append((is_constant(a), a.shape[0] == 1 or a.strides[0] == 0))
        return verdicts[-1][0]

    monkeypatch.setattr(sde, "_path_constant", spy)
    monkeypatch.setattr(
        control, "_step_is_path_constant",
        lambda *args: steps.append(is_step_constant(*args)) or steps[-1],
    )
    _, report = _solve(path)
    assert len(steps) == report.n_iters * 8 and all(steps)
    assert sum(verdict for verdict, _ in verdicts) >= 4 * len(steps)
    compared = [by_stride for verdict, by_stride in verdicts if verdict]
    assert all(compared), f"{compared.count(False)} True verdicts by compare"


def _assert_trace_without_the_table(tmp_path, monkeypatch, path):
    """Solve path twice: with the index table kept, then with none.

    Every bootstrap of the first solve must be handed the table, and every
    bootstrap of the second, with the byte budget at 0, draws its own
    indices.  The traces must have the same bytes.
    """
    tables = []
    bootstrap = control.bootstrap_standard_error

    def spy(risk, sample, n_boot, seed, indices=None):
        tables.append(indices is not None)
        return bootstrap(risk, sample, n_boot, seed, indices)

    monkeypatch.setattr(control, "bootstrap_standard_error", spy)
    traces = []
    for budget in (None, 0):
        if budget is not None:
            monkeypatch.setattr(risk_module, "_INDEX_TABLE_BYTES", budget)
        out = tmp_path / f"out-{budget}"
        assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
        traces.append((out / "objective_trace.csv").read_bytes())
        assert set(tables) == {budget is None}
        tables.clear()
    assert traces[0] == traces[1]


@pytest.mark.parametrize(
    "risk",
    [
        {"type": "expectation"},
        {"type": "mean_deviation", "beta": 0.5},
        {"type": "smoothed_semideviation", "beta": 0.5, "epsilon": 0.1},
        {"type": "entropic", "theta": 1.0},
    ],
    ids=[
        "risk-neutral", "mean-deviation", "smoothed-semideviation", "entropic"
    ],
)
def test_solve_bits_do_not_depend_on_the_index_table(tmp_path, monkeypatch, risk):
    path = _solve_config(tmp_path, {"type": "portfolio"}, risk)
    _assert_trace_without_the_table(tmp_path, monkeypatch, path)


def test_a_20k_path_solve_keeps_its_index_table(tmp_path, monkeypatch):
    # 200 uint16 resamples of 20,000 paths, 8 MB, fit the byte budget, so a
    # solve at that size, as the custom-wide benchmark runs, draws its
    # resamples once.
    path = _solve_config(
        tmp_path, _CUSTOM_1D,
        {"type": "smoothed_semideviation", "beta": 0.5, "epsilon": 0.1},
        sim={"n_steps": 3, "n_paths": 20_000}, max_iters=2, n_boot=200,
    )
    _assert_trace_without_the_table(tmp_path, monkeypatch, path)


def test_a_solve_fits_no_z_prime(monkeypatch):
    # The Hamiltonian reads y', y and z, not z'.  Inside msa_solve the
    # risk-adjustment solve has nowhere to put z', so with a derivative
    # that varies over paths (entropic) it fits y' alone: one fit of D per
    # step.  Without a destination, z' has the bits of a fresh
    # solve_risk_adjustment.
    targets, fits = collections.Counter(), []
    fit, adjust = adjoint._SliceRegression.fit, adjoint.solve_risk_adjustment

    def counting_fit(self, target):
        targets[np.ndim(target)] += 1
        return fit(self, target)

    def counting_adjust(*args, **kwargs):
        before = targets.copy()
        result = adjust(*args, **kwargs)
        fits.append(targets - before)
        return result

    monkeypatch.setattr(adjoint._SliceRegression, "fit", counting_fit)
    monkeypatch.setattr(adjoint, "solve_risk_adjustment", counting_adjust)
    model = model_from_tables(_CUSTOM_1D)
    grid = build_time_grid(1.0, 5)
    driver = sample_brownian(grid, 400, 1, seed=13)
    risk = RiskFunction.entropic(1.0)
    _, report = msa_solve(
        model, risk, MeasurePolicy.uniform(3),
        MsaConfig(max_iters=3, tol=0.0, n_boot=20), driver,
        RegressionBasis(degree=2), grid,
    )
    assert report.n_iters == len(fits) == 3
    assert all(counts == {1: grid.n_steps} for counts in fits)
    monkeypatch.undo()

    ens = simulate_forward(
        model, MeasurePolicy.uniform(3), driver, grid, keep_weights=True
    )
    deriv = l_derivative(risk, EmpiricalSample(total_cost(ens, model)))
    assert not sde._path_constant(deriv)
    basis = RegressionBasis(degree=2)
    zprime = solve_adjoint_system(model, ens, deriv, basis).zprime
    fresh = adjoint.solve_risk_adjustment(ens, deriv, basis)[1]
    assert zprime.shape == fresh.shape == (400, 5, 1)
    assert np.abs(fresh).max() > 0.0
    assert zprime.tobytes() == fresh.tobytes()


def _read_column(path, name):
    """One column of a stamped CSV, as floats."""
    with open(path) as fh:
        fh.readline()
        return [float(row[name]) for row in csv.DictReader(fh)]


@pytest.mark.parametrize(
    "risk",
    [{"type": "expectation"}, {"type": "entropic", "theta": 1.0}],
    ids=["risk-neutral", "entropic"],
)
def test_post_solve_entropy_averages_to_the_solver_entropy(tmp_path, risk):
    # A converged solve returns the policy its last iteration simulated, and
    # the post-solve pass takes each step's entropy by the solver's formula:
    # their mean over steps, summed in order, is the last trace entry.
    path = _solve_config(
        tmp_path, {"type": "portfolio"}, risk, max_iters=25, tol=1e-4
    )
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 0
    assert json.loads((out / "solve_summary.json").read_text())["converged"]
    steps = _read_column(out / "policy_mean.csv", "entropy")
    total = 0.0
    for entropy in steps:
        total += entropy
    trace = _read_column(out / "objective_trace.csv", "policy_entropy")
    assert total / len(steps) == trace[-1]


_CUSTOM_2D = {
    "type": "custom",
    "dim_x": 2,
    "dim_w": 2,
    "action_grid": [-1.0, 0.0, 1.0],
    "drift": {
        "const": [[-1.0, 0.5], [0.0, 0.0], [1.0, -0.5]],
        "x": [[-0.5, 0.1], [0.2, -0.3]],
    },
    "diffusion": {
        "const": [
            [[0.2, 0.1], [0.0, 0.3]],
            [[0.3, 0.0], [0.1, 0.2]],
            [[0.2, -0.1], [0.0, 0.1]],
        ],
    },
    "cost": {"const": [0.1, 0.0, 0.1], "x": [0.0, 0.2]},
    "terminal": {"const": 0.0, "x": [1.0, -0.5]},
    "x0": [0.5, -0.2],
}


@pytest.mark.parametrize(
    "problem, risk",
    [
        ({"type": "portfolio"}, {"type": "entropic", "theta": 1.0}),
        (_CUSTOM_2D, {"type": "smoothed_semideviation", "beta": 0.5, "epsilon": 0.1}),
    ],
    ids=["portfolio-entropic", "custom-2d"],
)
def test_solve_bits_do_not_depend_on_the_driver_layout(tmp_path, problem, risk):
    # sample_brownian stores increments step-major; a path-major C copy of
    # the same values must solve to the same records and kept weights.
    exp = cli.build_experiment(cli.load_config(_solve_config(tmp_path, problem, risk)))
    model, grid = exp["model"], exp["grid"]
    step_major = sample_brownian(grid, exp["n_paths"], model.dim_w, exp["seed"])
    path_major = dataclasses.replace(
        step_major, increments=np.ascontiguousarray(step_major.increments)
    )
    assert step_major.increments[:, 0].flags.c_contiguous
    assert not path_major.increments[:, 0].flags.c_contiguous
    runs = []
    for driver in (step_major, path_major):
        policy, report = msa_solve(
            model, exp["risk"], exp["init"], exp["msa"], driver, exp["basis"], grid
        )
        kept = simulate_forward(model, policy, driver, grid, keep_weights=True)
        runs.append(([repr(dataclasses.astuple(r)) for r in report.records],
                     kept.policy_weights))
    (records, weights), (ref_records, ref_weights) = runs
    assert records == ref_records
    assert len(weights) == len(ref_weights) == grid.n_steps
    assert all(np.array_equal(a, b) for a, b in zip(weights, ref_weights))


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
    assert MsaConfig(eta=control.MAX_ETA).eta == control.MAX_ETA
    for eta in (0.0, np.nextafter(control.MAX_ETA, np.inf), np.nan):
        with pytest.raises(ValueError, match="eta must be in"):
            MsaConfig(eta=eta)
    for n_boot in (-1, 0, 1):
        with pytest.raises(ValueError, match="n_boot"):
            MsaConfig(n_boot=n_boot)
    cfg = MsaConfig()
    alphas = [cfg.alpha(k) for k in range(30)]
    assert all(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:]))


def test_bootstrap_and_ridge_bounds():
    assert MsaConfig(n_boot=control.MAX_N_BOOT).n_boot == control.MAX_N_BOOT
    with pytest.raises(ValueError, match="n_boot must be at most"):
        MsaConfig(n_boot=control.MAX_N_BOOT + 1)
    assert RegressionBasis(ridge=MAX_RIDGE).ridge == MAX_RIDGE
    with pytest.raises(ValueError, match="ridge must be in"):
        RegressionBasis(ridge=np.nextafter(MAX_RIDGE, np.inf))


@pytest.mark.parametrize(
    "risk, risk_neutral",
    [({"type": "expectation"}, True), ({"type": "entropic", "theta": 1.0}, False)],
    ids=["risk-neutral", "entropic"],
)
def test_slice_designs_are_built_only_for_targets_that_vary(
    tmp_path, monkeypatch, risk, risk_neutral
):
    # Every backward target and q* fit of the risk-neutral portfolio is
    # path-constant, so no slice builds its design.  An entropic solve
    # builds each step's once per iteration; basis.design, which a fitted
    # policy calls in the forward pass, makes one design_rows call of its own.
    path = _solve_config(tmp_path, {"type": "portfolio"}, risk)
    exp = cli.build_experiment(cli.load_config(path))
    model, grid = exp["model"], exp["grid"]
    driver = sample_brownian(grid, exp["n_paths"], model.dim_w, exp["seed"])
    calls = collections.Counter()
    for name in ("design", "design_rows"):
        method = getattr(RegressionBasis, name)
        monkeypatch.setattr(
            RegressionBasis, name,
            lambda self, x, name=name, method=method:
                calls.update([name]) or method(self, x),
        )
    _, report = msa_solve(
        model, exp["risk"], exp["init"], exp["msa"], driver, exp["basis"], grid
    )
    if risk_neutral:
        assert calls["design_rows"] == 0
    else:
        slice_designs = calls["design_rows"] - calls["design"]
        assert slice_designs == report.n_iters * grid.n_steps > 0


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


# ---------------------------------------------- per-solve destinations

def _workspace_policy(model, n_steps, rng):
    """A mixture of uniform weights and three fitted components on two
    bases, so the kernel mixes two basis batches."""
    n_atoms = model.n_atoms
    policy = MeasurePolicy.uniform(n_atoms)
    for degree, alpha in ((2, 0.5), (3, 0.4), (2, 0.3)):
        basis = RegressionBasis(degree=degree)
        steps = [
            (rng.normal(0.1, 0.3, n_atoms), rng.normal(0.0, 0.3, (degree, n_atoms)))
            for _ in range(n_steps)
        ]
        policy = convex_combine(
            policy, MeasurePolicy.fitted(steps, basis, n_atoms), alpha
        )
    assert len(policy.components) == 4
    return policy


def _run_into(model, policy, driver, grid, risk, forward=None, backward=None):
    """The ensemble and adjoints of one forward and backward pass."""
    ens = simulate_forward(
        model, policy, driver, grid, keep_weights=True, out=forward
    )
    deriv = l_derivative(risk, EmpiricalSample(total_cost(ens, model)))
    adj = solve_adjoint_system(
        model, ens, deriv, RegressionBasis(degree=2), out=backward
    )
    return ens, adj


def _nan_filled(arrays, names):
    """arrays, with each of its arrays named in names set to NaN."""
    for name in names:
        getattr(arrays, name).fill(np.nan)
    return arrays


_FORWARD = ("states", "running_cost", "step_weights", "weights")
_BACKWARD = ("yprime", "y", "z")


@pytest.mark.parametrize(
    "risk", [RiskFunction.expectation(), RiskFunction.entropic(1.0)],
    ids=["expectation", "entropic"],
)
@pytest.mark.parametrize("problem", ["portfolio", "custom"])
def test_workspace_runs_have_the_fresh_allocation_bits(problem, risk):
    # Every array of the given destinations starts as NaN, so an entry the
    # passes do not write (the running cost at step 0, the zeros of z where
    # an increment is exactly zero, the kernel's zero fill) shows.  The
    # backward destinations hold no z', and a run into them hands back none.
    if problem == "portfolio":
        model = build_portfolio_model(PortfolioParams(phi_low=0.1), 7)
    else:
        model = model_from_tables(_CUSTOM_1D)
    grid = build_time_grid(1.0, 6)
    n = 300
    driver = sample_brownian(grid, n, model.dim_w, seed=41)
    policy = _workspace_policy(model, grid.n_steps, np.random.default_rng(5))
    fwd = _nan_filled(
        sde.ForwardArrays(n, grid.n_steps, model.dim_x, model.n_atoms), _FORWARD
    )
    bwd = _nan_filled(
        adjoint.AdjointArrays(n, grid.n_steps, model.dim_x, model.dim_w),
        _BACKWARD,
    )

    fresh_ens, fresh_adj = _run_into(model, policy, driver, grid, risk)
    ens, adj = _run_into(model, policy, driver, grid, risk, fwd, bwd)
    pairs = [
        (ens.states, fresh_ens.states, fwd.states),
        (ens.running_cost, fresh_ens.running_cost, fwd.running_cost),
        (np.stack(ens.policy_weights), np.stack(fresh_ens.policy_weights), None),
        (adj.yprime, fresh_adj.yprime, bwd.yprime),
        (adj.y, fresh_adj.y, bwd.y),
        (adj.z, fresh_adj.z, bwd.z),
    ]
    for got, ref, dest in pairs:
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        if dest is not None:
            assert got is dest
    # The kept weights' varying columns fill a prefix of the given store, and
    # nothing past it is written.  A pass given no destinations packs its
    # kept weights the same way into a store of its own.
    used = _packed_prefix(ens.policy_weights, fwd.weights)
    assert 0 < used < fwd.weights.size
    assert not np.isnan(fwd.weights[:used]).any()
    assert np.isnan(fwd.weights[used:]).all()
    fresh_store = fresh_ens.policy_weights._store
    assert fresh_store.size == fwd.weights.size
    assert not np.may_share_memory(fresh_store, fwd.weights)
    assert _packed_prefix(fresh_ens.policy_weights, fresh_store) == used
    assert adj.residuals_y == fresh_adj.residuals_y
    assert adj.residuals_yprime == fresh_adj.residuals_yprime
    assert not hasattr(bwd, "zprime")
    assert adj.zprime is None and fresh_adj.zprime is not None


def _address(a):
    return a.__array_interface__["data"][0]


def _packed_prefix(kept, store):
    """The elements of store that kept weights take: each step's block of
    varying columns, n * v_k elements, packed back to back from its start.
    A step the policy handed out as a broadcast row takes none."""
    used = 0
    for k in range(len(kept)):
        w = kept[k]
        _, cols, block = kept.columns(k)
        if w.strides[0] == 0:
            assert cols.size == 0 and not np.may_share_memory(w, store)
            continue
        assert block.shape == (w.shape[0], cols.size)
        assert _address(block) == _address(store) + store.itemsize * used
        used += block.size
    assert kept.used == used
    return used


def test_every_forward_pass_of_a_solve_writes_one_workspace(monkeypatch):
    # Once the policy is a mixture, its kept weights are packed into the
    # store of the solve's one set of forward destinations, from its start.
    # The backward solves write one set of adjoints, and none of them is a z'.
    passes, solves, made = [], [], []
    forward, backward = control.simulate_forward, control.solve_adjoint_system

    def spy(cls):
        def make(*args):
            made.append(cls(*args))
            return made[-1]
        return make

    def spy_forward(model, policy, *args, **kwargs):
        ens = forward(model, policy, *args, **kwargs)
        fwd = next(a for a in made if isinstance(a, sde.ForwardArrays))
        passes.append((
            isinstance(policy, sde._MixturePolicy),
            _address(ens.states),
            _address(ens.running_cost),
            _packed_prefix(ens.policy_weights, fwd.weights),
        ))
        return ens

    def spy_backward(*args, **kwargs):
        adj = backward(*args, **kwargs)
        assert adj.zprime is None
        solves.append(tuple(_address(a) for a in (adj.yprime, adj.y, adj.z)))
        return adj

    monkeypatch.setattr(control, "ForwardArrays", spy(sde.ForwardArrays))
    monkeypatch.setattr(control, "AdjointArrays", spy(adjoint.AdjointArrays))
    monkeypatch.setattr(control, "simulate_forward", spy_forward)
    monkeypatch.setattr(control, "solve_adjoint_system", spy_backward)
    model = build_portfolio_model(PortfolioParams(phi_low=0.1), 7)
    grid = build_time_grid(1.0, 5)
    driver = sample_brownian(grid, 400, 1, seed=13)
    _, report = msa_solve(
        model, RiskFunction.entropic(1.0), MeasurePolicy.uniform(7),
        MsaConfig(max_iters=5, tol=0.0, n_boot=20), driver,
        RegressionBasis(degree=2), grid,
    )
    assert len(passes) == report.n_iters == 5
    assert [type(a) for a in made] == [sde.ForwardArrays, adjoint.AdjointArrays]
    assert len({(states, cost) for _, states, cost, _ in passes}) == 1
    assert sum(mixture for mixture, *_ in passes) >= 3
    assert all((used > 0) == mixture for mixture, *_, used in passes)
    assert len(solves) == 5 and len(set(solves)) == 1
