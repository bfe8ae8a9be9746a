"""Slice regressions and the backward adjoint solvers."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from riskmp import (
    BrownianDriver,
    MeasurePolicy,
    RankDeficient,
    RegressionBasis,
    build_time_grid,
    martingale_diagnostics,
    sample_brownian,
    simulate_forward,
    solve_adjoint,
    solve_adjoint_system,
    solve_risk_adjustment,
)
from riskmp.adjoint import _norm, _SliceRegression
from riskmp.models import model_from_tables
from riskmp.portfolio import PortfolioParams, build_portfolio_model
from conftest import make_model, python_in_subprocess


# ---------------------------------------------------------- slice regression

def _predict(reg, basis, targets, new_states):
    """The fitted conditional mean of one target column at new states."""
    intercept, coef = reg.fit_coefficients(np.asarray(targets, float)[:, None])
    return (intercept + basis.design(new_states) @ coef)[:, 0]


def test_fit_constant_targets_is_exact(rng):
    states = rng.standard_normal((500, 1))
    basis = RegressionBasis(degree=3)
    targets = np.full(500, 4.2)
    reg = _SliceRegression(states, basis)
    fitted = reg.fit(targets)
    np.testing.assert_allclose(fitted, 4.2, atol=1e-12)
    assert _norm(targets - fitted) <= 1e-10
    np.testing.assert_allclose(
        _predict(reg, basis, targets, np.array([[9.9]])), 4.2, atol=1e-9
    )


def _explicit_solve(reg, targets):
    """fit and (intercept, coef) of (n, r) targets through the full solve.

    The zero-target shortcut must give these bits: the right-hand side, the
    solve and the fitted values beta.T @ design + ybar, each computed.
    """
    rows = np.array(targets.T, order="C")
    ybar = np.add.reduce(rows, axis=1) / reg.n
    rows -= ybar[:, None]
    rhs = np.einsum("in,rn->ir", reg._phi_rows, rows)
    beta = np.linalg.solve(reg._solve_mat, rhs)
    coef = beta / reg._scale[:, None]
    fitted = (beta.T @ reg._phi_rows).T
    fitted += ybar
    return fitted, ybar - reg._mu @ coef, coef


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("kind", ["constant", "zeros with -0.0"])
def test_zero_target_fit_matches_the_explicit_solve(rng, monkeypatch, kind):
    n = 700
    reg = _SliceRegression(rng.standard_normal((n, 1)), RegressionBasis(degree=3))
    if kind == "constant":
        # values whose n copies sum, and divide by n, exactly
        targets = np.tile([1.0, -1.0, 0.25], (n, 1))
    else:
        # 0 * dW / dt: a signed zero per path, as the risk-neutral z' target
        targets = np.zeros((n, 3))
        targets[:, 0] = 0.0 * rng.standard_normal(n)
        targets[:, 1] = -0.0
        targets[::3, 2] = -0.0
    expected = _explicit_solve(reg, targets)
    monkeypatch.setattr(np.linalg, "solve", None)  # the shortcut never solves
    fitted = reg.fit(targets)
    _, _, coef, intercept = reg._solve(targets)
    assert _bits(fitted) == _bits(expected[0])
    assert _bits(intercept) == _bits(expected[1])
    assert _bits(coef) == _bits(expected[2])
    for j in range(targets.shape[1]):
        assert _bits(reg.fit(targets[:, j])) == _bits(expected[0][:, j])
    if kind != "constant":
        assert np.signbit(targets).any() and not np.signbit(fitted).any()


def test_target_centered_to_zero_on_the_last_path_is_still_solved(rng):
    n = 400
    reg = _SliceRegression(rng.standard_normal((n, 1)), RegressionBasis(degree=3))
    targets = np.zeros((n, 1))
    targets[:199] = 1.0
    targets[-2:] = 0.5  # the mean, 200 / 400: the last centered entry is 0
    fitted = reg.fit(targets)
    assert fitted.tobytes() == _explicit_solve(reg, targets)[0].tobytes()
    assert np.ptp(fitted) > 0.0


@pytest.mark.parametrize(
    "row",
    [[0.0, 1.0, 0.0, 0.0], [0.25] * 4, [0.5, 0.0, 0.5, 0.0], [0.1, 0.2, 0.3, 0.4]],
    ids=["dirac", "uniform", "tie", "spread"],
)
def test_broadcast_weights_fit_like_dense_ones(rng, row):
    # A collapsed step's near-min weights are one row broadcast to all paths.
    reg = _SliceRegression(rng.standard_normal((500, 1)), RegressionBasis(degree=3))
    broadcast = np.broadcast_to(np.asarray(row), (500, 4))
    got = reg.fit_coefficients(broadcast)
    ref = reg.fit_coefficients(np.ascontiguousarray(broadcast))
    assert all(_bits(a) == _bits(b) for a, b in zip(got, ref))


def test_fit_recovers_exact_linear_relation(rng):
    states = rng.standard_normal((300, 1))
    targets = 2.0 * states[:, 0] - 1.0
    basis = RegressionBasis(degree=1, ridge=0.0)
    reg = _SliceRegression(states, basis)
    assert _norm(targets - reg.fit(targets)) / _norm(targets) <= 1e-10
    np.testing.assert_allclose(
        _predict(reg, basis, targets, np.array([[0.5]])), [0.0], atol=1e-10
    )


def test_degree_zero_two_points_predicts_mean():
    # Normal equations with only an intercept: prediction is the target mean.
    states = np.array([[0.0], [1.0]])
    targets = np.array([1.0, 3.0])
    basis = RegressionBasis(degree=0)
    reg = _SliceRegression(states, basis)
    np.testing.assert_allclose(reg.fit(targets), 2.0)
    np.testing.assert_allclose(_predict(reg, basis, targets, np.array([[7.0]])), 2.0)


def test_rank_deficient_raises_without_ridge():
    states = np.array([[1.0], [1.0], [1.0]])
    with pytest.raises(RankDeficient):
        _SliceRegression(states, RegressionBasis(degree=1, ridge=0.0)).fit(
            np.arange(3.0)
        )


def test_higher_degree_never_increases_residual(rng):
    states = rng.standard_normal((200, 1))
    targets = np.tanh(states[:, 0]) + 0.1 * rng.standard_normal(200)
    residuals = []
    for d in range(5):
        reg = _SliceRegression(states, RegressionBasis(degree=d, ridge=0.0))
        residuals.append(_norm(targets - reg.fit(targets)))
    assert all(residuals[i + 1] <= residuals[i] + 1e-12 for i in range(4))


def test_multi_target_fit_matches_column_fits(rng):
    states = rng.standard_normal((150, 1))
    targets = rng.standard_normal((150, 3))
    reg = _SliceRegression(states, RegressionBasis(degree=2))
    stacked = reg.fit(targets)
    for j in range(3):
        single = reg.fit(targets[:, j])
        np.testing.assert_allclose(stacked[:, j], single, atol=1e-12)


@pytest.mark.parametrize("dim_x", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 3])
def test_design_rows_are_the_monomial_columns(rng, dim_x, degree):
    # Each monomial is its factors multiplied left to right, the same bits
    # as a product taken column by column; design is the (n, m) transpose.
    states = rng.standard_normal((40, dim_x))
    cols = [
        math.prod((states[:, i] for i in expo), start=np.ones(40))
        for total in range(1, degree + 1)
        for expo in itertools.combinations_with_replacement(range(dim_x), total)
    ]
    rows = RegressionBasis(degree=degree).design_rows(states)
    assert rows.flags.c_contiguous and rows.shape == (len(cols), 40)
    assert all(np.array_equal(row, col) for row, col in zip(rows, cols))
    design = RegressionBasis(degree=degree).design(states)
    assert design.flags.c_contiguous and np.array_equal(design, rows.T)


def _weight_table(rng, n, n_atoms):
    """Atom-major near-min weights as msa_solve hands them to the q* fit:
    the (n, n_atoms) transpose of a C-ordered (n_atoms, n) array, with whole
    zero columns."""
    w = rng.random((n_atoms, n)) * (rng.random((n_atoms, n)) < 0.3)
    w[rng.random(n_atoms) < 0.5] = 0.0
    w[0] += 1e-9
    w /= np.add.reduce(w, axis=0)
    return w.T


def test_slice_bits_do_not_depend_on_the_layout_of_states(rng):
    # The states a slice is built from are a strided [:, k] view of the
    # path-major (n, K+1, dim_x) ensemble states.
    n = 700
    path_major = rng.standard_normal((n, 6, 1))
    states = {
        "strided": path_major[:, 3],
        "C": np.ascontiguousarray(path_major[:, 3]),
        "F": np.asfortranarray(path_major[:, 3]),
    }
    targets = rng.standard_normal((n, 2))
    weights = _weight_table(rng, n, 9)
    basis = RegressionBasis(degree=3)
    results = {}
    for name, x in states.items():
        reg = _SliceRegression(x, basis)
        results[name] = (reg.fit(targets[:, 0]), reg.fit(targets),
                         *reg.fit_coefficients(weights))
    for name, got in results.items():
        for a, b in zip(got, results["strided"]):
            assert np.array_equal(a, b), name


def test_slice_fits_never_write_the_targets(rng):
    n = 400
    reg = _SliceRegression(rng.standard_normal((n, 1)), RegressionBasis(degree=3))
    targets = {
        "(n, 1) C": rng.standard_normal((n, 1)) + 2.0,
        "(n, 3) C": rng.standard_normal((n, 3)) + 2.0,
        "F": np.asfortranarray(rng.standard_normal((n, 3)) + 2.0),
        "atom-major": _weight_table(rng, n, 7),
    }
    for name, t in targets.items():
        for method in (reg.fit, reg.fit_coefficients, reg._solve):
            before = t.copy()
            method(t)
            assert np.array_equal(t, before), (name, method.__name__)


_SLICE_SCRIPT = """
import hashlib
import numpy as np
from riskmp.adjoint import RegressionBasis, _SliceRegression

rng = np.random.default_rng(5)
n = 20_000
states = rng.standard_normal((n, 1))
reg = _SliceRegression(states, RegressionBasis(degree=3))
y = np.sin(states[:, 0]) + 0.3 * rng.standard_normal(n)
w = rng.random((31, n)) * (rng.random((31, n)) < 0.2)
w[rng.random(31) < 0.5] = 0.0
w[0] += 1e-9
w /= np.add.reduce(w, axis=0)
for out in (
    reg.fit(y),
    reg.fit(np.stack([y, y * states[:, 0]], axis=1)),
    *reg.fit_coefficients(w.T),
):
    print(hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest())
"""


def test_slice_regression_is_blas_thread_independent():
    # 20k paths are above the 10,000-entry size where OpenBLAS splits a
    # product across threads.
    runs = [python_in_subprocess(["-c", _SLICE_SCRIPT], n) for n in (1, 2)]
    assert runs[0].count("\n") == 4
    assert runs[0] == runs[1]


# ---------------------------------------------------- risk adjustment solve

def _brownian_ensemble(n_paths=4000, n_steps=20, seed=31):
    model = make_model(
        [1.0], diffusion=lambda t, x, a: np.ones((x.shape[0], 1, 1))
    )
    grid = build_time_grid(1.0, n_steps)
    driver = sample_brownian(grid, n_paths, 1, seed=seed)
    ens = simulate_forward(model, MeasurePolicy.dirac(0, 1), driver, grid)
    return model, ens


def test_constant_derivative_collapses_exactly():
    _, ens = _brownian_ensemble()
    basis = RegressionBasis(degree=3)
    yprime, zprime, _ = solve_risk_adjustment(ens, np.ones(ens.n_paths), basis)
    assert np.abs(yprime - 1.0).max() <= 1e-10
    assert np.abs(zprime).max() <= 1e-10
    yprime, zprime, _ = solve_risk_adjustment(ens, np.full(ens.n_paths, 3.7), basis)
    assert np.abs(yprime - 3.7).max() <= 1e-10
    assert np.abs(zprime).max() <= 1e-10


def test_lattice_surrogate_branch_average():
    # Two-step binary lattice: four paths enumerate the increment signs, so
    # the step-1 conditional mean of D is the exact average over the two
    # branches that share the step-1 state.
    grid = build_time_grid(1.0, 2)
    root = math.sqrt(grid.dt)
    inc = np.array(
        [
            [[+root], [+root]],
            [[+root], [-root]],
            [[-root], [+root]],
            [[-root], [-root]],
        ]
    )
    driver = BrownianDriver(increments=inc, seed=0)
    model = make_model([1.0], diffusion=lambda t, x, a: np.ones((x.shape[0], 1, 1)))
    ens = simulate_forward(model, MeasurePolicy.dirac(0, 1), driver, grid)
    d = np.array([4.0, 1.0, -2.0, 6.0])
    # Tiny ridge: the step-0 slice is deterministic (all paths at x0), which
    # plain least squares would reject as rank deficient.
    basis = RegressionBasis(degree=1, ridge=1e-12)
    yprime, _, _ = solve_risk_adjustment(ens, d, basis)
    np.testing.assert_allclose(yprime[:, 2], d)
    np.testing.assert_allclose(yprime[:2, 1], (4.0 + 1.0) / 2.0, atol=1e-10)
    np.testing.assert_allclose(yprime[2:, 1], (-2.0 + 6.0) / 2.0, atol=1e-10)
    np.testing.assert_allclose(yprime[:, 0], d.mean(), atol=1e-10)


def test_martingale_property_of_yprime():
    _, ens = _brownian_ensemble(n_paths=8000)
    d = np.tanh(ens.states[:, -1, 0]) + 1.5
    yprime, _, _ = solve_risk_adjustment(ens, d, RegressionBasis(degree=3))
    report = martingale_diagnostics(yprime)
    assert not report.insufficient_sample
    assert np.all(report.within_3se)


# ------------------------------------------------------------- adjoint solve

def test_driverless_bsde_constant_y():
    # Zero state-gradients and a deterministic terminal state: y stays at its
    # terminal value and z vanishes.
    model = make_model(
        [1.0],
        drift=lambda t, x, a: np.ones((x.shape[0], 1)),
        terminal_dx=lambda x: np.full((x.shape[0], 1), 2.5),
    )
    grid = build_time_grid(1.0, 10)
    driver = sample_brownian(grid, 200, 1, seed=33)
    ens = simulate_forward(model, MeasurePolicy.dirac(0, 1), driver, grid)
    y, z, _ = solve_adjoint(model, ens, np.ones((200, 11)), RegressionBasis())
    np.testing.assert_allclose(y, 2.5, atol=1e-9)
    assert np.abs(z).max() <= 1e-9


def test_linear_cost_gradient_gives_time_to_go():
    # b = 0, sigma = 1, c = x, g = 0, y' = 1: grad H = 1 so y_k = T - t_k.
    model = make_model(
        [1.0],
        diffusion=lambda t, x, a: np.ones((x.shape[0], 1, 1)),
        cost=lambda t, x, a: x[:, 0],
        cost_dx=lambda t, x, a: np.ones((x.shape[0], 1)),
    )
    grid = build_time_grid(1.0, 25)
    driver = sample_brownian(grid, 5000, 1, seed=34)
    ens = simulate_forward(model, MeasurePolicy.dirac(0, 1), driver, grid)
    y, z, _ = solve_adjoint(model, ens, np.ones((5000, 26)), RegressionBasis(degree=3))
    expected = grid.horizon - grid.nodes
    assert np.abs(y[:, :, 0] - expected).max() <= 1e-2
    assert np.abs(z).max() <= 1e-2


def test_terminal_slices_are_exact(rng):
    model = make_model(
        [1.0],
        diffusion=lambda t, x, a: np.ones((x.shape[0], 1, 1)),
        terminal=lambda x: x[:, 0] ** 2,
        terminal_dx=lambda x: 2.0 * x,
    )
    grid = build_time_grid(1.0, 5)
    driver = sample_brownian(grid, 300, 1, seed=31)
    ens = simulate_forward(model, MeasurePolicy.dirac(0, 1), driver, grid)
    d = rng.standard_normal(300) + 2.0
    adj = solve_adjoint_system(model, ens, d, RegressionBasis(degree=2))
    assert np.array_equal(adj.yprime[:, -1], d)
    np.testing.assert_array_equal(
        adj.y[:, -1], d[:, None] * (2.0 * ens.states[:, -1])
    )


def _zero_jacobian_portfolio():
    return build_portfolio_model(PortfolioParams(), 5)


def _affine_drift_model():
    return model_from_tables({
        "dim_x": 1, "dim_w": 1, "action_grid": [0.0, 0.5, 1.0, 1.5, 2.0],
        "drift": {"const": [[-1.0], [-0.5], [0.0], [0.5], [1.0]], "x": [[-0.3]]},
        "diffusion": {"const": [[[0.2]], [[0.3]], [[0.4]], [[0.5]], [[0.6]]]},
        "terminal": {"const": 0.0, "x": [1.0]},
    })


def _atom_loop_portfolio():
    model = _zero_jacobian_portfolio()
    return dataclasses.replace(model, constant_coefficients=False)


@pytest.mark.parametrize(
    "build, evaluations",
    [
        (_zero_jacobian_portfolio, 0),
        (_affine_drift_model, 6),
        (_atom_loop_portfolio, 6),
    ],
    ids=["zero-jacobians", "affine-drift", "atom-loop"],
)
def test_adjoint_evaluates_the_policy_only_when_it_reads_the_weights(
    build, evaluations
):
    # Without kept weights each read re-evaluates the policy.  All-zero
    # Jacobian tables read none; a nonzero table reads them for the average
    # and the per-atom loop to pick its atoms, once per step.
    model = build()
    grid = build_time_grid(1.0, 6)
    driver = sample_brownian(grid, 400, 1, seed=12)
    calls = []

    def rule(k, t, x):
        calls.append(k)
        logits = np.outer(np.tanh(x[:, 0]), np.arange(model.n_atoms))
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        return w / w.sum(axis=1, keepdims=True)

    policy = MeasurePolicy.feedback(rule, model.n_atoms)
    kept = simulate_forward(model, policy, driver, grid, keep_weights=True)
    lazy = simulate_forward(model, policy, driver, grid)
    yprime = np.ones((400, 7))
    basis = RegressionBasis(degree=2)
    y_kept, z_kept, _ = solve_adjoint(model, kept, yprime, basis)
    calls.clear()
    y, z, _ = solve_adjoint(model, lazy, yprime, basis)
    assert len(calls) == evaluations
    assert np.array_equal(y, y_kept) and np.array_equal(z, z_kept)


# ---------------------------------------------------------------- diagnostics

def test_adjoint_arrays_are_step_major(rng):
    # Shapes stay path-major, and every time slice a[:, k] is one
    # contiguous block.
    n, dim_x, dim_w = 40, 2, 3
    model = make_model([0.0, 1.0], dim_x=dim_x, dim_w=dim_w)
    grid = build_time_grid(1.0, 4)
    ens = simulate_forward(
        model, MeasurePolicy.uniform(2), sample_brownian(grid, n, dim_w, seed=5), grid
    )
    adj = solve_adjoint_system(
        model, ens, rng.standard_normal(n), RegressionBasis(degree=1)
    )
    arrays = {
        "yprime": (adj.yprime, (n, 5)),
        "zprime": (adj.zprime, (n, 4, dim_w)),
        "y": (adj.y, (n, 5, dim_x)),
        "z": (adj.z, (n, 4, dim_w, dim_x)),
    }
    for name, (a, shape) in arrays.items():
        assert a.shape == shape, name
        assert all(a[:, k].flags.c_contiguous for k in range(shape[1])), name


def test_martingale_diagnostics_flat_input():
    report = martingale_diagnostics(np.ones((50, 8)))
    np.testing.assert_array_equal(report.drift, 0.0)
    assert np.all(report.within_3se)


def test_martingale_diagnostics_single_path():
    report = martingale_diagnostics(np.ones((1, 8)))
    assert report.insufficient_sample
    assert np.all(np.isnan(report.standard_error))
