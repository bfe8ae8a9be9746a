"""Coefficient tables: hooks and constant tables against the per-atom loop,
consumers against the per-atom loops they replaced."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from riskmp import (
    MeasurePolicy,
    build_time_grid,
    sample_brownian,
    simulate_forward,
    simulate_variational,
)
from riskmp.adjoint import _policy_grad_hamiltonian
from riskmp.control import _hamiltonian_atoms
from riskmp.errors import ConfigInvalid
from riskmp.models import (
    model_from_tables,
    on_off_volatility_model,
    sign_volatility_model,
)
from riskmp.portfolio import PortfolioParams, build_portfolio_model
from riskmp.sde import (
    TABLE_KEYS,
    ModelSpec,
    _averaged_coefficients,
    _coef,
    _trailing_shapes,
    coefficient_tables,
    dirac_initial,
)
from conftest import make_model

RTOL = 1e-12


def _adapter(model):
    """The same model without its hook or constant tables: a loop over atoms."""
    return dataclasses.replace(model, tables=None, constant_coefficients=False)


def _full_tables(model, t, x):
    tabs = coefficient_tables(model, t, x)
    lead = (model.n_atoms, x.shape[0])
    shapes = _trailing_shapes(model)
    return {k: np.broadcast_to(tabs[k], lead + shapes[k]) for k in TABLE_KEYS}


def _assert_close(new, old):
    scale = max(1.0, float(np.abs(old).max())) if np.size(old) else 1.0
    np.testing.assert_allclose(new, old, rtol=RTOL, atol=RTOL * scale)


def _affine_tables(rng, dim_x, dim_w, n_atoms):
    return {
        "dim_x": dim_x,
        "dim_w": dim_w,
        "action_grid": list(np.linspace(-1.0, 1.0, n_atoms)),
        "drift": {
            "const": rng.standard_normal((n_atoms, dim_x)).tolist(),
            "x": rng.standard_normal((dim_x, dim_x)).tolist(),
        },
        "diffusion": {"const": rng.standard_normal((n_atoms, dim_x, dim_w)).tolist()},
        "cost": {
            "const": rng.standard_normal(n_atoms).tolist(),
            "x": rng.standard_normal(dim_x).tolist(),
        },
        "terminal": {"const": 0.5, "x": rng.standard_normal(dim_x).tolist()},
        "x0": rng.standard_normal(dim_x).tolist(),
    }


def _states(dim_x):
    return hnp.arrays(
        float,
        st.tuples(st.integers(1, 6), st.just(dim_x)),
        elements=st.floats(-50.0, 50.0),
    )


# ------------------------------- hooks and constant tables against callables

@settings(max_examples=40, deadline=None)
@given(
    t=st.floats(0.0, 5.0),
    x=_states(1),
    n_actions=st.integers(2, 41),
    mu=st.floats(-0.5, 0.5),
    sigma=st.floats(0.01, 2.0),
)
def test_portfolio_tables_equal_adapter_exactly(t, x, n_actions, mu, sigma):
    # The constant tables are taken at t = 0, x = 0; the callables must not
    # depend on (t, x) anywhere else either.
    model = build_portfolio_model(PortfolioParams(mu=mu, sigma=sigma), n_actions)
    const, loop = _full_tables(model, t, x), _full_tables(_adapter(model), t, x)
    for key in TABLE_KEYS:
        assert np.array_equal(const[key], loop[key]), key


@settings(max_examples=40, deadline=None)
@given(
    t=st.floats(0.0, 5.0),
    x=_states(1),
    build=st.sampled_from([sign_volatility_model, on_off_volatility_model]),
)
def test_pure_diffusion_tables_equal_adapter_exactly(t, x, build):
    model = build()
    const, loop = _full_tables(model, t, x), _full_tables(_adapter(model), t, x)
    for key in TABLE_KEYS:
        assert np.array_equal(const[key], loop[key]), key


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    dim_x=st.integers(1, 3),
    dim_w=st.integers(1, 2),
    n_atoms=st.integers(1, 4),
    t=st.floats(0.0, 5.0),
)
def test_affine_tables_match_adapter(data, seed, dim_x, dim_w, n_atoms, t):
    rng = np.random.default_rng(seed)
    model = model_from_tables(_affine_tables(rng, dim_x, dim_w, n_atoms))
    x = data.draw(_states(dim_x))
    hook, loop = _full_tables(model, t, x), _full_tables(_adapter(model), t, x)
    for key in TABLE_KEYS:
        _assert_close(hook[key], loop[key])


# ---------------------------------------- consumers against per-atom loops

def _old_averaged(model, t, x, w):
    n = x.shape[0]
    bbar = np.zeros((n, model.dim_x))
    sbar = np.zeros((n, model.dim_x, model.dim_w))
    cbar = np.zeros(n)
    for j in np.flatnonzero(w.max(axis=0) > 0.0):
        a = model.action_grid[j]
        bbar += w[:, j, None] * _coef(model.drift, t, x, a, bbar.shape)
        sbar += w[:, j, None, None] * _coef(model.diffusion, t, x, a, sbar.shape)
        cbar += w[:, j] * _coef(model.cost, t, x, a, cbar.shape)
    return bbar, sbar, cbar


def _old_hamiltonian(model, t, x, y, yprime, z):
    n, dx, dw = x.shape[0], model.dim_x, model.dim_w
    b_tab = np.empty((model.n_atoms, n, dx))
    c_tab = np.empty((model.n_atoms, n))
    s_tab = np.empty((model.n_atoms, n, dx, dw))
    for j, a in enumerate(model.action_grid):
        b_tab[j] = model.drift(t, x, a)
        c_tab[j] = model.cost(t, x, a)
        s_tab[j] = model.diffusion(t, x, a)
    out = np.einsum("ni,jni->nj", y, b_tab)
    out += yprime[:, None] * c_tab.T
    out += np.einsum("nwi,jniw->nj", z, s_tab)
    return out


def _old_grad(model, t, x, y, yprime, z, w):
    n, dx, dw = x.shape[0], model.dim_x, model.dim_w
    grad = np.zeros((n, dx))
    for j in np.flatnonzero(w.max(axis=0) > 0.0):
        a = model.action_grid[j]
        term = np.einsum("ni,nil->nl", y, _coef(model.drift_dx, t, x, a, (n, dx, dx)))
        term += yprime[:, None] * _coef(model.cost_dx, t, x, a, (n, dx))
        term += np.einsum(
            "nwi,niwl->nl", z, _coef(model.diffusion_dx, t, x, a, (n, dx, dw, dx))
        )
        grad += w[:, j, None] * term
    return grad


def _old_variational(model, ens, q):
    grid, pi, n = ens.grid, ens.policy, ens.n_paths
    dx, dw = model.dim_x, model.dim_w
    delta = np.zeros((n, grid.n_steps + 1, dx))
    delta_p = np.zeros((n, grid.n_steps + 1))
    for k in range(grid.n_steps):
        t, xk, dk = grid.nodes[k], ens.states[:, k], delta[:, k]
        wpi = pi.weights_at(k, t, xk)
        wdiff = q.weights_at(k, t, xk) - wpi
        jac_b = np.zeros((n, dx, dx))
        jac_s = np.zeros((n, dx, dw, dx))
        jac_c = np.zeros((n, dx))
        for j, a in enumerate(model.action_grid):
            wj = wpi[:, j]
            if wj.max() > 0.0:
                jac_b += wj[:, None, None] * _coef(model.drift_dx, t, xk, a, jac_b.shape)
                jac_s += wj[:, None, None, None] * _coef(
                    model.diffusion_dx, t, xk, a, jac_s.shape
                )
                jac_c += wj[:, None] * _coef(model.cost_dx, t, xk, a, jac_c.shape)
        b_diff, s_diff, c_diff = np.zeros((n, dx)), np.zeros((n, dx, dw)), np.zeros(n)
        for j in np.flatnonzero(np.abs(wdiff).max(axis=0) > 0.0):
            a, dj = model.action_grid[j], wdiff[:, j]
            b_diff += dj[:, None] * _coef(model.drift, t, xk, a, b_diff.shape)
            s_diff += dj[:, None, None] * _coef(model.diffusion, t, xk, a, s_diff.shape)
            c_diff += dj * _coef(model.cost, t, xk, a, c_diff.shape)
        drift_term = np.einsum("nil,nl->ni", jac_b, dk) + b_diff
        diff_term = np.einsum("niwl,nl->niw", jac_s, dk) + s_diff
        delta[:, k + 1] = (
            dk + drift_term * grid.dt
            + np.einsum("niw,nw->ni", diff_term, ens.driver.increments[:, k])
        )
        delta_p[:, k + 1] = delta_p[:, k] + (
            np.einsum("ni,ni->n", jac_c, dk) + c_diff
        ) * grid.dt
    return delta, delta_p


def _nonlinear_model():
    """dim_x = dim_w = 2, every coefficient and Jacobian depends on (t, x, a).

    Atom 2 evaluates to NaN everywhere: it must never receive weight.
    """

    def nan_guard(a, val):
        return val if a[0] < 1.5 else np.full_like(val, np.nan)

    def drift(t, x, a):
        return nan_guard(a, np.stack([a[0] * np.sin(x[:, 0]), t * x[:, 1] ** 2], axis=1))

    def drift_dx(t, x, a):
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = a[0] * np.cos(x[:, 0])
        out[:, 1, 1] = 2.0 * t * x[:, 1]
        return nan_guard(a, out)

    def diffusion(t, x, a):
        out = np.empty((x.shape[0], 2, 2))
        out[:, 0, 0] = 1.0 + a[0] * x[:, 0]
        out[:, 0, 1] = x[:, 1] ** 2
        out[:, 1, 0] = 0.3
        out[:, 1, 1] = a[0] * x[:, 0] * x[:, 1]
        return nan_guard(a, out)

    def diffusion_dx(t, x, a):
        out = np.zeros((x.shape[0], 2, 2, 2))
        out[:, 0, 0, 0] = a[0]
        out[:, 0, 1, 1] = 2.0 * x[:, 1]
        out[:, 1, 1, 0] = a[0] * x[:, 1]
        out[:, 1, 1, 1] = a[0] * x[:, 0]
        return nan_guard(a, out)

    def cost(t, x, a):
        return nan_guard(a, a[0] ** 2 + x[:, 0] * x[:, 1])

    def cost_dx(t, x, a):
        return nan_guard(a, np.stack([x[:, 1], x[:, 0]], axis=1))

    return ModelSpec(
        dim_x=2,
        dim_w=2,
        dim_a=1,
        drift=drift,
        diffusion=diffusion,
        cost=cost,
        terminal=lambda x: x[:, 0] ** 2,
        drift_dx=drift_dx,
        diffusion_dx=diffusion_dx,
        cost_dx=cost_dx,
        terminal_dx=lambda x: np.stack([2.0 * x[:, 0], 0.0 * x[:, 1]], axis=1),
        initial=dirac_initial([0.1, -0.2]),
        action_grid=np.array([[-0.5], [0.7], [2.0]]),
    )


def _affine_model():
    return model_from_tables(_affine_tables(np.random.default_rng(3), 2, 2, 4))


def _portfolio_model():
    return build_portfolio_model(PortfolioParams(), 11)


MODELS = {
    "nonlinear-adapter": _nonlinear_model,
    "affine-hook": _affine_model,
    "portfolio-constant": _portfolio_model,
}


def _random_case(model, rng, n=64):
    x = rng.standard_normal((n, model.dim_x))
    y = rng.standard_normal((n, model.dim_x))
    yprime = rng.standard_normal(n)
    z = rng.standard_normal((n, model.dim_w, model.dim_x))
    w = rng.random((n, model.n_atoms))
    if model.n_atoms > 2:
        w[:, -1] = 0.0  # an unused atom (NaN in the nonlinear model)
    w /= w.sum(axis=1, keepdims=True)
    return x, y, yprime, z, w


@pytest.mark.parametrize("name", sorted(MODELS))
def test_averaged_coefficients_match_atom_loop(name, rng):
    model = MODELS[name]()
    x, _, _, _, w = _random_case(model, rng)
    new = _averaged_coefficients(model, 0.4, x, w)
    old = _old_averaged(model, 0.4, x, w)
    for a, b in zip(new, old):
        assert np.isfinite(a).all()
        _assert_close(a, b)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_hamiltonian_table_matches_atom_loop(name, rng):
    model = MODELS[name]()
    if name == "nonlinear-adapter":
        model = dataclasses.replace(model, action_grid=model.action_grid[:2])
    x, y, yprime, z, _ = _random_case(model, rng)
    new = _hamiltonian_atoms(model, 0.4, x, y, yprime, z)
    assert new.shape == (x.shape[0], model.n_atoms)
    _assert_close(new, _old_hamiltonian(model, 0.4, x, y, yprime, z))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_policy_grad_hamiltonian_matches_atom_loop(name, rng):
    model = MODELS[name]()
    x, y, yprime, z, w = _random_case(model, rng)
    new = _policy_grad_hamiltonian(model, 0.4, x, y, yprime, z, lambda: w)
    assert np.isfinite(new).all()
    _assert_close(new, _old_grad(model, 0.4, x, y, yprime, z, w))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_variational_matches_atom_loop(name):
    model = MODELS[name]()
    n_live = 2 if name == "nonlinear-adapter" else model.n_atoms
    grid = build_time_grid(0.5, 6)
    driver = sample_brownian(grid, 100, model.dim_w, seed=41)

    def tilted(k, t, states):
        logits = np.outer(np.tanh(states[:, 0]), np.arange(n_live)) + 0.1 * k
        w = np.zeros((states.shape[0], model.n_atoms))
        w[:, :n_live] = np.exp(logits - logits.max(axis=1, keepdims=True))
        return w / w.sum(axis=1, keepdims=True)

    pi = MeasurePolicy.feedback(tilted, model.n_atoms)
    q_row = np.zeros(model.n_atoms)
    q_row[0] = 1.0
    q = MeasurePolicy.constant(q_row)
    ens = simulate_forward(model, pi, driver, grid)
    new = simulate_variational(model, ens, q)
    old = _old_variational(model, ens, q)
    for a, b in zip(new, old):
        assert np.isfinite(a).all()
        _assert_close(a, b)


def test_sign_model_half_half_diffusion_is_exactly_zero():
    # Criterion 02 through the table hook: +1/-1 volatility mixed half/half
    # averages to exactly zero noise, on every path.
    model = sign_volatility_model()
    x = np.linspace(-3.0, 3.0, 101)[:, None]
    w = np.full((101, 2), 0.5)
    _, sbar, _ = _averaged_coefficients(model, 0.2, x, w)
    assert np.all(sbar == 0.0)


def test_constant_tables_call_each_callable_once_per_atom():
    model = build_portfolio_model(PortfolioParams(), 5)
    calls = []

    def drift(t, x, a):
        calls.append(a[0])
        return model.drift(t, x, a)

    counted = dataclasses.replace(model, drift=drift)
    x = np.zeros((7, 1))
    first = coefficient_tables(counted, 0.3, x, ("drift",))["drift"]
    again = coefficient_tables(counted, 0.9, x + 1.0, ("drift",))["drift"]
    assert first is again and first.shape == (5, 1, 1)
    assert calls == list(model.action_grid[:, 0])
    assert not first.flags.writeable
    # A replaced callable is never served the tables of the model it came from.
    doubled = dataclasses.replace(
        counted, drift=lambda t, x, a: 2.0 * model.drift(t, x, a)
    )
    assert np.array_equal(
        coefficient_tables(doubled, 0.0, x, ("drift",))["drift"], 2.0 * first
    )


def test_repeated_atoms_are_rejected():
    tables = _affine_tables(np.random.default_rng(5), 1, 1, 3)
    tables["action_grid"] = [0.0, 1.0, 0.0]
    with pytest.raises(ConfigInvalid, match="repeats an atom"):
        model_from_tables(tables)


def test_affine_hook_computes_only_the_requested_tables(rng):
    model = _affine_model()
    x = rng.standard_normal((9, model.dim_x))
    full = model.tables(0.3, x, TABLE_KEYS)
    for n_keys in range(1, len(TABLE_KEYS) + 1):
        for keys in (TABLE_KEYS[:n_keys], TABLE_KEYS[-n_keys:]):
            tabs = model.tables(0.3, x, keys)
            assert set(tabs) == set(keys)
            assert all(np.array_equal(tabs[k], full[k]) for k in keys)
    # The Jacobians are constants: asking for them alone never reads x.
    jacobians = ("drift_dx", "cost_dx", "diffusion_dx")
    assert set(model.tables(0.3, None, jacobians)) == set(jacobians)


def _constant_2d_model():
    """Constant coefficients with dim_x = dim_w = 2 and 5 atoms."""

    def drift(t, x, a):
        return np.tile([a[0], -0.3 * a[0] ** 2], (x.shape[0], 1))

    def diffusion(t, x, a):
        sigma = [[0.2 + a[0], 0.1], [0.05 * a[0], 0.3 - 0.1 * a[0]]]
        return np.broadcast_to(sigma, (x.shape[0], 2, 2))

    model = make_model(
        np.linspace(-1.0, 1.3, 5), drift=drift, diffusion=diffusion,
        cost=lambda t, x, a: np.full(x.shape[0], a[0] ** 2 / 3.0),
        dim_x=2, dim_w=2,
    )
    return dataclasses.replace(model, constant_coefficients=True)


@pytest.mark.parametrize("build", [_portfolio_model, _constant_2d_model])
def test_broadcast_weights_average_once_with_the_bits_of_all_paths(build, rng):
    model = build()
    row = rng.random(model.n_atoms)
    row[0] = 0.0
    row /= row.sum()
    x = rng.standard_normal((301, model.dim_x))
    broadcast = np.broadcast_to(row, (301, model.n_atoms))
    collapsed = _averaged_coefficients(model, 0.4, x, broadcast)
    dense = _averaged_coefficients(model, 0.4, x, np.ascontiguousarray(broadcast))
    for a, b in zip(collapsed, dense):
        assert a.strides[0] == 0  # averaged once, then broadcast
        assert np.array_equal(a, b)

    # The forward pass: a constant policy against a rule that returns the
    # same rows as a dense array, which is averaged path by path.
    grid = build_time_grid(1.0, 12)
    driver = sample_brownian(grid, 301, model.dim_w, seed=4)
    constant = simulate_forward(model, MeasurePolicy.constant(row), driver, grid)
    dense_rule = MeasurePolicy.feedback(
        lambda k, t, states: np.tile(row, (states.shape[0], 1)), model.n_atoms
    )
    ref = simulate_forward(model, dense_rule, driver, grid)
    assert np.array_equal(constant.states, ref.states)
    assert np.array_equal(constant.running_cost, ref.running_cost)
