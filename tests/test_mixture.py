"""Policy mixtures: the block kernel against the per-component formula, weight
validation, layout-independent solver bits, and one mixture evaluation per
forward pass."""

import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmp import MeasurePolicy, build_time_grid, convex_combine, sample_brownian
from riskmp import cli, control, sde
from riskmp.adjoint import RegressionBasis, _SliceRegression
from riskmp.control import msa_solve, policy_entropy
from riskmp.errors import NumericalBlowup
from riskmp.models import sign_volatility_model
from riskmp.portfolio import PortfolioParams, build_portfolio_model
from riskmp.sde import (
    _BLOCK_ELEMENTS,
    _WEIGHT_TOL,
    _ConstantPolicy,
    _eval_affine_batch,
    _FittedComponent,
    _MixturePolicy,
    simulate_forward,
)

from conftest import TABLE_LAYOUTS

TOL = 1e-12


# ------------------------------------------------------------ references

def _component_weights(phi, intercept, coef):
    """One clipped-affine component, the per-component formula the kernel replaced."""
    raw = intercept + phi @ coef if phi.shape[1] else np.tile(intercept, (len(phi), 1))
    raw = np.clip(raw, 0.0, None)
    mass = raw.sum(axis=1, keepdims=True)
    empty = mass[:, 0] <= 1e-300
    raw[empty] = 1.0
    return raw / raw.sum(axis=1, keepdims=True)


def _reference(policy, k, states):
    """Weights of policy at step k, one component at a time."""
    if isinstance(policy, _MixturePolicy):
        return sum(s * _reference(c, k, states) for s, c in policy.components)
    if isinstance(policy, _FittedComponent):
        intercept, coef = policy.steps[k]
        return _component_weights(policy.basis.design(states), intercept, coef)
    if isinstance(policy, _ConstantPolicy):
        return np.broadcast_to(policy.row(k), (len(states), policy.n_atoms))
    return policy.weights_at(k, 0.0, states)


def _check_rows(w):
    assert (w >= 0.0).all()
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0.0, atol=_WEIGHT_TOL)


# ---------------------------------------------------- strategies and builders

def _fitted(rng, basis, n_atoms, n_steps, vanish=False, half=False, dead=None):
    """Fitted mixture component with random steps.

    vanish makes every pre-weight negative.  half keeps a random atom subset
    live with pre-weights -c x (c > 0), which clip away on every path with
    x >= 0 (on every path at degree 0).  dead, a mask of atoms, zeroes their
    intercepts and coefficients.
    """
    m = basis.design(np.zeros((1, 1))).shape[1]
    steps = []
    for _ in range(n_steps):
        intercept = rng.normal(0.1, 0.3, n_atoms)
        coef = rng.normal(0.0, 0.3, (m, n_atoms))
        if vanish:
            intercept, coef = -1.0 - np.abs(intercept), np.zeros_like(coef)
        if half:
            live = rng.random(n_atoms) < 0.5
            live[rng.integers(n_atoms)] = True
            coef[:] = 0.0
            if m:
                intercept = np.zeros(n_atoms)
                coef[0, live] = -rng.uniform(0.5, 2.0, live.sum())
            else:
                intercept = np.where(live, -1.0, 0.0)
        if dead is not None:
            intercept[dead] = 0.0
            coef[:, dead] = 0.0
        steps.append((intercept, coef))
    return _FittedComponent(basis, steps)


def _live_atoms(policies, k):
    """Atoms with a nonzero intercept or coefficient in some fitted component."""
    live = 0
    for p in policies:
        if isinstance(p, _FittedComponent):
            intercept, coef = p.steps[k]
            live = live | (intercept != 0.0) | coef.any(axis=0)
    return int(np.count_nonzero(live))


def _constant(rng, n_atoms, n_steps):
    rows = rng.random((n_steps, n_atoms)) * (rng.random((n_steps, n_atoms)) < 0.7)
    rows[:, 0] += 1e-3
    return MeasurePolicy.constant(rows / rows.sum(axis=1, keepdims=True))


def _rule(n_atoms):
    def rule(k, t, x):
        w = np.zeros((x.shape[0], n_atoms))
        w[np.arange(x.shape[0]), (x[:, 0] > 0).astype(int) % n_atoms] = 1.0
        return w

    return MeasurePolicy.feedback(rule, n_atoms)


def _row_counts(block):
    return (1, block - 1, block, block + 1, 3 * block + block // 2 + 1)


@settings(max_examples=80, deadline=None)
@given(
    n_fitted=st.integers(1, 12),
    n_const=st.integers(0, 2),
    n_atoms=st.integers(1, 9),
    degree=st.integers(0, 3),
    which_n=st.integers(0, 4),
    n_vanish=st.integers(0, 2),
    n_half=st.integers(0, 2),
    dead=st.sampled_from(["none", "random", "all"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixture_kernel_matches_per_component_formula(
    n_fitted, n_const, n_atoms, degree, which_n, n_vanish, n_half, dead, seed
):
    # dead: "none" leaves every atom live (U == A without half components),
    # "random" zeroes a random atom subset per component and every atom of
    # the first (a component with no live atom), "all" every atom (U == 0).
    rng = np.random.default_rng(seed)
    basis = RegressionBasis(degree=degree)
    masks = {
        "none": lambda i: None,
        "random": lambda i: np.full(n_atoms, i == 0) | (rng.random(n_atoms) < rng.random()),
        "all": lambda i: np.ones(n_atoms, dtype=bool),
    }[dead]
    comps = [
        _fitted(
            rng, basis, n_atoms, 2, vanish=i < n_vanish,
            half=n_vanish <= i < n_vanish + n_half, dead=masks(i),
        )
        for i in range(n_fitted)
    ] + [_constant(rng, n_atoms, 2) for _ in range(n_const)]
    n_live = _live_atoms(comps, 0)
    if dead == "all":
        assert n_live == 0
    if dead == "none" and n_half == 0:
        assert n_live == n_atoms
    block = max(1, _BLOCK_ELEMENTS // (n_fitted * max(n_live, 1)))
    n = max(1, _row_counts(block)[which_n])
    states = rng.normal(0.0, 1.5, (n, 1))
    order = rng.permutation(len(comps))
    scales = rng.random(len(comps)) + 0.05
    scales /= scales.sum()
    policy = _MixturePolicy([(scales[i], comps[i]) for i in order], n_atoms)

    for k in range(2):
        w = policy.weights_at(k, 0.0, states)
        assert w.shape == (n, n_atoms)
        np.testing.assert_allclose(w, _reference(policy, k, states), rtol=0.0, atol=TOL)
        _check_rows(w)


@pytest.mark.parametrize(
    "parts", [("fitted",), ("fitted", "constant"), ("rule", "fitted", "constant"),
              ("rule",), ("constant",)],
)
def test_mixture_weights_into_out_have_the_fresh_bits(parts):
    # out starts as NaN, so an entry the evaluation does not write shows.
    # Two bases give two kernel batches; a rule is evaluated on its own.
    rng = np.random.default_rng(17)
    n, n_atoms = 700, 5
    comps = []
    if "rule" in parts:
        comps.append(_rule(n_atoms))
    if "fitted" in parts:
        comps += [
            _fitted(rng, RegressionBasis(degree=d), n_atoms, 2) for d in (2, 3, 2)
        ] + [_fitted(rng, RegressionBasis(degree=1), n_atoms, 2, vanish=True)]
    if "constant" in parts:
        comps.append(_constant(rng, n_atoms, 2))
    scales = rng.random(len(comps)) + 0.05
    policy = _MixturePolicy(list(zip(scales / scales.sum(), comps)), n_atoms)
    states = rng.normal(0.0, 1.5, (n, 1))
    for k in range(2):
        fresh = policy.weights_at(k, 0.0, states)
        out = np.full((n, n_atoms), np.nan)
        w = policy.weights_at(k, 0.0, states, out=out)
        assert w.tobytes() == fresh.tobytes()
        if parts == ("constant",):
            assert w.strides[0] == 0 and np.isnan(out).all()
        else:
            assert w is out


def test_kernel_uniform_fallback_rows():
    basis = RegressionBasis(degree=1)
    states = np.array([[-2.0], [0.5], [2.0]])
    # Pre-weights 1 - x and x - 1 on two atoms: the row at x = 1 would clip
    # to zero mass; here all pre-weights of the first component are negative.
    w = _eval_affine_batch(
        basis, states, [0.5, 0.5],
        [np.array([-1.0, -1.0]), np.array([1.0, 0.0])],
        [np.zeros((1, 2)), np.array([[0.0, 1.0]])],
        2,
    )
    comp2 = _component_weights(states, np.array([1.0, 0.0]), np.array([[0.0, 1.0]]))
    np.testing.assert_allclose(w, 0.5 * 0.5 + 0.5 * comp2, rtol=0.0, atol=TOL)
    _check_rows(w)


# ------------------------------------------------------------ fitted policies

def _steps(rng, basis, n_atoms, n_steps, coef_scale):
    m = basis.design(np.zeros((1, 1))).shape[1]
    return [
        (
            rng.normal(0.1, 0.3, n_atoms),
            coef_scale * rng.normal(0.0, 0.3, (m, n_atoms)),
        )
        for _ in range(n_steps)
    ]


@pytest.mark.parametrize("degree", [0, 2])
def test_fit_without_coefficients_is_the_clipped_constant(degree):
    rng = np.random.default_rng(degree)
    steps = _steps(rng, RegressionBasis(degree=degree), 7, 5, 0.0)
    policy = MeasurePolicy.fitted(steps, RegressionBasis(degree=degree), 7)
    assert isinstance(policy, _ConstantPolicy)
    rows = np.stack([intercept for intercept, _ in steps])
    rows = np.clip(rows, 0.0, None)
    rows /= rows.sum(axis=1, keepdims=True)
    assert np.array_equal(policy.weights, rows)


def test_vanished_constant_row_is_uniform():
    basis = RegressionBasis(degree=1)
    steps = [
        (np.array([0.2, -0.1, 0.6]), np.zeros((1, 3))),
        (np.array([-0.2, 0.0, -1e-3]), np.zeros((1, 3))),
    ]
    policy = MeasurePolicy.fitted(steps, basis, 3)
    assert isinstance(policy, _ConstantPolicy)
    clipped = np.array([0.2, 0.0, 0.6])
    assert np.array_equal(policy.weights[0], clipped / clipped.sum())
    assert np.array_equal(policy.weights[1], np.full(3, 1.0 / 3.0))
    # the kernel's fallback on the same step with a tiny coefficient that
    # keeps every pre-weight nonpositive at x >= 0
    states = np.linspace(0.0, 1.0, 5)[:, None]
    kernel = _eval_affine_batch(
        basis, states, [1.0], [steps[1][0]], [np.full((1, 3), -1e-30)], 3
    )
    assert np.array_equal(kernel, np.broadcast_to(policy.weights[1], (5, 3)))


def test_fit_with_coefficients_is_one_mixture_component():
    rng = np.random.default_rng(3)
    basis = RegressionBasis(degree=2)
    steps = _steps(rng, basis, 6, 4, 1.0)
    policy = MeasurePolicy.fitted(steps, basis, 6)
    assert isinstance(policy, _MixturePolicy)
    [(scale, comp)] = policy.components
    assert scale == 1.0 and comp.basis is basis and comp.steps is steps
    states = rng.normal(0.0, 1.5, (300, 1))
    for k, (intercept, coef) in enumerate(steps):
        expected = _eval_affine_batch(basis, states, [1.0], [intercept], [coef], 6)
        assert np.array_equal(policy.weights_at(k, 0.0, states), expected)


def test_degraded_fit_keeps_broadcast_weights():
    model = sign_volatility_model()
    grid = build_time_grid(1.0, 6)
    driver = sample_brownian(grid, 500, 1, seed=2)
    basis = RegressionBasis(degree=2)
    policy = MeasurePolicy.fitted(
        _steps(np.random.default_rng(4), basis, 2, 6, 0.0), basis, 2
    )
    ens = simulate_forward(model, policy, driver, grid, keep_weights=True)
    for k, w in enumerate(ens.policy_weights):
        assert w.shape == (500, 2) and w.strides[0] == 0
        assert np.shares_memory(w, policy.weights[k])


@pytest.mark.parametrize("kind", ["fitted", "feedback"])
def test_path_constant_step_weights_are_a_broadcast_row(monkeypatch, kind):
    # Step k's weights are the same on every path: the fit's step-k
    # coefficients are all zero, or the rule tiles one row over the paths.
    # The policy hands them out as a broadcast row with the bits of the
    # dense evaluation, so neither the forward averaging nor the entropy
    # compares them over paths.
    model = sign_volatility_model()
    grid = build_time_grid(1.0, 4)
    driver = sample_brownian(grid, 500, 1, seed=6)
    basis = RegressionBasis(degree=2)
    k = 2
    steps = _steps(np.random.default_rng(8), basis, 2, grid.n_steps, 1.0)
    steps[k] = (steps[k][0], np.zeros_like(steps[k][1]))
    if kind == "fitted":
        policy = MeasurePolicy.fitted(steps, basis, 2)
        assert isinstance(policy, _MixturePolicy)

        def dense(states):
            intercept, coef = steps[k]
            return _eval_affine_batch(basis, states, [1.0], [intercept], [coef], 2)
    else:
        def dense(states):
            return np.tile([0.25, 0.75], (states.shape[0], 1))

        def rule(j, t, x):
            return dense(x) if j == k else np.hstack([x > 0, x <= 0]) * 1.0

        policy = MeasurePolicy.feedback(rule, 2)
    verdicts = []
    is_constant = sde._path_constant

    def spy(a):
        verdict = is_constant(a)
        verdicts.append((sys._getframe(1).f_code.co_name, verdict, a.strides[0] == 0))
        return verdict

    monkeypatch.setattr(sde, "_path_constant", spy)
    ens = simulate_forward(model, policy, driver, grid, keep_weights=True)
    w, ref = ens.policy_weights[k], dense(ens.states[:, k])
    assert not is_constant(ens.states[:, k])
    assert w.strides[0] == 0 and w.tobytes() == ref.tobytes()
    averaging = [v for v in verdicts if v[0] == "_averaged_coefficients"]
    assert len(averaging) == grid.n_steps and averaging[k][1:] == (True, True)
    verdicts.clear()
    assert policy_entropy(w) == policy_entropy(ref)
    assert verdicts[0][1:] == (True, True)


def _random_tree(rng, depth, basis, n_atoms, n_steps, root=True):
    """A leaf policy, or (left, right, alpha); the root always combines."""
    if depth == 0 or (not root and rng.random() < 0.4):
        kind = rng.integers(0, 3)
        if kind == 0:
            return _constant(rng, n_atoms, n_steps)
        if kind == 1:
            return _fitted(rng, basis, n_atoms, n_steps, vanish=rng.random() < 0.2)
        return _rule(n_atoms)
    left = _random_tree(rng, depth - 1, basis, n_atoms, n_steps, root=False)
    right = _random_tree(rng, depth - 1, basis, n_atoms, n_steps, root=False)
    return left, right, float(rng.choice([0.0, 1.0, rng.random()]))


def _combine(tree):
    if isinstance(tree, _FittedComponent):
        # The policy goes through the public constructor, which degrades a
        # fit without coefficients to a constant; the reference does not.
        n_atoms = tree.steps[0][0].size
        return MeasurePolicy.fitted(tree.steps, tree.basis, n_atoms), tree
    if not isinstance(tree, tuple):
        return tree, tree
    (left, ref_left), (right, ref_right) = _combine(tree[0]), _combine(tree[1])
    alpha = tree[2]
    return convex_combine(left, right, alpha), (ref_left, ref_right, alpha)


def _tree_reference(ref, k, states):
    if not isinstance(ref, tuple):
        return _reference(ref, k, states)
    left, right, alpha = ref
    return (1.0 - alpha) * _tree_reference(left, k, states) + alpha * _tree_reference(
        right, k, states
    )


@settings(max_examples=80, deadline=None)
@given(
    depth=st.integers(1, 5),
    n_atoms=st.integers(2, 7),
    degree=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_nested_convex_combinations_are_measures(depth, n_atoms, degree, seed):
    rng = np.random.default_rng(seed)
    basis = RegressionBasis(degree=degree)
    policy, ref = _combine(_random_tree(rng, depth, basis, n_atoms, 3))
    states = rng.normal(0.0, 1.5, (257, 1))
    for k in range(3):
        w = policy.weights_at(k, 0.0, states)
        np.testing.assert_allclose(
            w, _tree_reference(ref, k, states), rtol=0.0, atol=TOL
        )
        _check_rows(w)


# ------------------------------------------------------------- kept weights

def _signed_zero_rule(n_atoms, flat_step):
    """Feedback weights on atoms 0 and 1 that depend on the sign of x, and
    a last atom's weight of +0.0 on paths with x > 0 and -0.0 elsewhere; at
    flat_step they are the same on every path."""

    def rule(k, t, x):
        up = x[:, :1] > 0.0 if k != flat_step else np.ones((len(x), 1), bool)
        w = np.zeros((len(x), n_atoms))
        w[:, :1] = np.where(up, 0.75, 0.25)
        w[:, 1:2] = 1.0 - w[:, :1]
        w[:, -1:] = np.where(up, 0.0, -0.0)
        return w

    return MeasurePolicy.feedback(rule, n_atoms)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 1000])
def test_varying_columns_compare_every_path_by_its_bits(n, layout):
    # One differing path, anywhere (the blocked head or the tail), puts its
    # column among the varying ones; so does a -0.0 among +0.0.
    rng = np.random.default_rng(n)
    n_atoms = 7
    base = np.tile(rng.random(n_atoms), (n, 1))
    base[:, 3] = 0.0
    # 1000 paths: the ends of the blocked head (992 paths) and of the tail
    rows = range(n) if n <= 64 else (0, 31, 32, 991, 992, n - 1)
    for row in rows:
        for col, value in ((1, np.nextafter(base[0, 1], 2.0)), (3, -0.0)):
            w = base.copy()
            w[row, col] = value
            if layout == "F":
                w = np.asfortranarray(w)
            elif layout == "strided":
                w = np.repeat(w, 2, axis=1)[:, ::2]
            expected = [col] if n > 1 else []
            assert list(sde._varying_columns(w)) == expected, (row, col)
    assert list(sde._varying_columns(base)) == []


@pytest.mark.parametrize("workspace", [False, True], ids=["fresh", "workspace"])
@pytest.mark.parametrize("kind", ["fitted-rule-constant", "signed-zeros", "feedback"])
def test_kept_weights_have_the_bits_the_policy_gave(kind, workspace):
    # Kept weights store path 0's row and the columns whose bits vary over
    # paths.  Every step must come back as the policy's own weights, bit for
    # bit: a vanished fitted row's uniform fallback, and a column of zeros
    # whose sign differs between paths, included.  A broadcast row comes
    # back as one exactly where the policy handed one out: at step 0, where
    # every path starts at x = 0, and at the flat step.
    model = build_portfolio_model(PortfolioParams(phi_low=0.1), 7)
    grid = build_time_grid(1.0, 5)
    driver = sample_brownian(grid, 400, 1, seed=3)
    rng = np.random.default_rng(7)
    flat = 2
    rule = _signed_zero_rule(7, flat)
    basis = RegressionBasis(degree=2)
    # pre-weights -c x on a random atom subset: they vanish where x >= 0
    fitted = _fitted(rng, basis, 7, grid.n_steps, half=True)
    fitted.steps[flat] = (np.zeros(7), np.zeros_like(fitted.steps[flat][1]))
    if kind == "fitted-rule-constant":
        policy = _MixturePolicy(
            [(0.5, fitted), (0.3, rule), (0.2, _constant(rng, 7, grid.n_steps))], 7
        )
    elif kind == "signed-zeros":
        row = np.append(np.full(6, 1.0 / 6.0), -0.0)
        policy = _MixturePolicy([(0.5, rule), (0.5, MeasurePolicy.constant(row))], 7)
    else:
        policy = rule
    out = None
    if workspace:
        out = sde.ForwardArrays(
            driver.n_paths, grid.n_steps, model.dim_x, model.n_atoms
        )
        for name in ("states", "running_cost", "step_weights", "weights"):
            getattr(out, name).fill(np.nan)
    ens = simulate_forward(model, policy, driver, grid, keep_weights=True, out=out)
    broadcast, vanished, signed = [], [], []
    for k in range(grid.n_steps):
        x = ens.states[:, k]
        fresh = policy.weights_at(k, grid.nodes[k], x)
        w = ens.weights_at(k)
        assert w.shape == fresh.shape == (400, 7)
        assert (w.strides[0] == 0) == (fresh.strides[0] == 0)
        assert w.strides[0] == 0 or w.flags.c_contiguous
        assert np.array_equal(w.view(np.uint64), fresh.view(np.uint64))
        if w.strides[0] == 0:
            broadcast.append(k)
        intercept, coef = fitted.steps[k]
        mass = np.clip(intercept + basis.design(x) @ coef, 0.0, None).sum(axis=1)
        vanished.append(0 < np.count_nonzero(mass <= 1e-300) < len(x))
        last = np.signbit(w[:, -1])
        if last.any() and not last.all():
            assert not w[:, -1].any() and 6 in ens.weight_columns(k)[1]
            signed.append(k)
    assert broadcast == [0, flat]
    assert any(vanished)
    assert bool(signed) == (kind != "fitted-rule-constant")


def test_kept_weights_need_an_out_with_a_store():
    # Arrays made without a kept-weights store cannot keep weights that vary
    # over paths; the pair is refused before anything is simulated.
    model = build_portfolio_model(PortfolioParams(), 7)
    grid = build_time_grid(1.0, 3)
    driver = sample_brownian(grid, 50, 1, seed=3)
    out = sde.ForwardArrays(50, grid.n_steps, 1, 7, keep_weights=False)
    out.states.fill(np.nan)
    policy = _signed_zero_rule(7, 1)
    with pytest.raises(ValueError, match="keep_weights"):
        simulate_forward(model, policy, driver, grid, keep_weights=True, out=out)
    assert np.isnan(out.states).all()


# ------------------------------------------------------- weight validation

def test_nan_feedback_weights_blow_up_at_their_step():
    model = sign_volatility_model()
    grid = build_time_grid(1.0, 6)
    driver = sample_brownian(grid, 8, 1, seed=4)

    def rule(k, t, x):
        w = np.full((x.shape[0], 2), 0.5)
        if k == 3:
            w[2] = np.nan
        return w

    with pytest.raises(NumericalBlowup) as err:
        simulate_forward(model, MeasurePolicy.feedback(rule, 2), driver, grid)
    assert (err.value.step, err.value.what) == (3, "policy weights")


def test_nan_constant_weights_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        MeasurePolicy.constant([np.nan, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        MeasurePolicy.constant([[0.5, 0.5], [np.inf, 0.0]])


def _tiny_config(tmp_path, **overrides):
    cfg = {
        "problem": {"type": "portfolio", "phi_low": 0.1, "phi_high": 1.5},
        "risk": {"type": "entropic", "theta": 1.0},
        "sim": {"n_steps": 8, "n_paths": 300, "n_actions": 5},
        "basis": {"degree": 2, "ridge": 1e-08},
        "msa": {"max_iters": 4, "tol": 1e-06, "n_boot": 20},
        "init_policy": "uniform",
        "seed": 5,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def test_cli_nan_constant_init_policy_is_config_error(tmp_path):
    path, _ = _tiny_config(
        tmp_path, init_policy={"type": "constant", "weights": [float("nan")] + [1.0] * 4}
    )
    with open(path) as fh:
        assert "NaN" in fh.read()  # the JSON literal json.load accepts
    assert cli.main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_cli_nan_feedback_weights_are_a_runtime_error(tmp_path, monkeypatch):
    # A bad feedback row at a time step is a run-time fault, whether it holds
    # a NaN, a negative weight or does not sum to 1: exit 1 with error.json.
    cases = [
        (3, np.nan, "NumericalBlowup", "non-finite policy weights at time step 3"),
        (
            2,
            [-0.1, 0.3, 0.3, 0.3, 0.2],
            "InvalidPolicyWeights",
            "negative policy weight at feedback policy, step 2",
        ),
        (
            1,
            [0.3] * 5,
            "InvalidPolicyWeights",
            "policy weights at feedback policy, step 1 sum off by 5.00e-01",
        ),
    ]
    path, _ = _tiny_config(tmp_path)
    for i, (step, row, error, message) in enumerate(cases):
        def rule(k, t, x, step=step, row=row):
            return np.broadcast_to(row if k == step else 0.2, (x.shape[0], 5))

        monkeypatch.setattr(
            cli,
            "_init_policy",
            lambda spec, n_atoms, rule=rule: MeasurePolicy.feedback(rule, n_atoms),
        )
        out = str(tmp_path / f"o{i}")
        assert cli.main(["solve", "--config", path, "--out", out]) == 1
        with open(os.path.join(out, "error.json")) as fh:
            record = json.load(fh)
        assert (record["error"], record["message"]) == (error, message)


# ----------------------------------------------------------- layout and bits

def _solve(tmp_path, overrides):
    path, _ = _tiny_config(tmp_path, **overrides)
    exp = cli.build_experiment(cli.load_config(path))
    model, grid = exp["model"], exp["grid"]
    driver = sample_brownian(grid, exp["n_paths"], model.dim_w, exp["seed"])
    policy, report = msa_solve(
        model, exp["risk"], exp["init"], exp["msa"], driver, exp["basis"], grid
    )
    ens = simulate_forward(model, policy, driver, grid, keep_weights=True)
    return report, ens.policy_weights


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {
            "problem": {"type": "example2"},
            "risk": {"type": "expectation"},
            "sim": {"n_steps": 10, "n_paths": 400},
        },
    ],
    ids=["portfolio-entropic", "example2"],
)
def test_solve_bits_do_not_depend_on_table_layout(tmp_path, monkeypatch, overrides):
    report, weights = _solve(tmp_path, overrides)
    table = control._hamiltonian_atoms
    for name, layout in TABLE_LAYOUTS.items():
        monkeypatch.setattr(
            control,
            "_hamiltonian_atoms",
            lambda *args, layout=layout, **kwargs: layout(table(*args, **kwargs)),
        )
        other_report, other_weights = _solve(tmp_path, overrides)
        assert other_report == report, name
        assert all(np.array_equal(a, b) for a, b in zip(other_weights, weights)), name


def _layouts(w):
    return {
        "C": np.ascontiguousarray(w),
        "F": np.asfortranarray(w),
        "broadcast": np.broadcast_to(w[1], w.shape),
    }


def _old_entropy(weights):
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = np.where(weights > 0.0, np.log(np.maximum(weights, 1e-300)), 0.0)
    return float(np.mean(-(weights * logw).sum(axis=1)))


def _entropy_in_atom_order(weights):
    """Path mean of -sum_a w log w, each path's sum taken in atom order."""
    total = np.zeros(weights.shape[0])
    for w in weights.T:
        total += w * np.log(np.where(w > 0.0, w, 1.0))
    return float(np.mean(-total))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 400),
    n_atoms=st.integers(1, 40),
    degree=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_coefficient_fit_and_entropy_match_old_bits(n, n_atoms, degree, seed):
    rng = np.random.default_rng(seed)
    w = rng.random((n, n_atoms)) * (rng.random((n, n_atoms)) < 0.6)
    w[:, 0] += 1e-9
    w /= w.sum(axis=1, keepdims=True)
    w = np.vstack([np.eye(n_atoms)[:1], w])
    w[:, rng.random(n_atoms) < rng.random()] = 0.0  # whole zero columns
    basis = RegressionBasis(degree=degree)
    states = rng.normal(size=(len(w), 1))
    reg = _SliceRegression(states, basis)
    for name, v in _layouts(w).items():
        intercept, coef = reg.fit_coefficients(v)
        np.testing.assert_allclose(
            intercept + basis.design(states) @ coef, reg.fit(v), rtol=0, atol=1e-12,
            err_msg=name,
        )
        # zero columns are skipped and fit to exact zeros; the others match
        # the dense solve up to the rounding of a solve with fewer right-hand
        # sides, which a near-singular slice amplifies by its condition number
        dead = ~v.any(axis=0)
        assert not intercept[dead].any() and not coef[:, dead].any(), name
        _, _, dense_coef, dense_intercept = reg._solve(np.asfortranarray(v))
        cond = np.linalg.cond(reg._solve_mat) if reg.m else 1.0
        for got, dense in ((intercept, dense_intercept), (coef, dense_coef)):
            scale = np.abs(dense).max(initial=0.0)
            tol = max(1e-12, 4.0 * cond * np.finfo(float).eps * scale)
            np.testing.assert_allclose(got, dense, rtol=0, atol=tol, err_msg=name)
        # msa_solve's entropy, whose sums over atoms run in atom order in
        # every layout; the old row sums differ from it in the last digits
        assert policy_entropy(v) == _entropy_in_atom_order(v), name
        assert policy_entropy(v) == pytest.approx(_old_entropy(v), rel=0, abs=1e-13)
        # the fit pins its own layout: C and F copies of v give the same bits
        for order in "CF":
            copy_intercept, copy_coef = reg.fit_coefficients(np.array(v, order=order))
            assert np.array_equal(intercept, copy_intercept), (name, order)
            assert np.array_equal(coef, copy_coef), (name, order)


# ------------------------------------------- one evaluation per forward pass

def test_one_mixture_evaluation_per_forward_step(tmp_path, monkeypatch):
    path, cfg = _tiny_config(tmp_path)
    calls = {"weights_at": 0, "mixture_passes": 0}
    weights_at = _MixturePolicy.weights_at

    def spy_weights_at(self, *args):
        calls["weights_at"] += 1
        return weights_at(self, *args)

    def spy_forward(forward):
        def wrapped(model, policy, *args, **kwargs):
            if isinstance(policy, _MixturePolicy):
                calls["mixture_passes"] += 1
            return forward(model, policy, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(_MixturePolicy, "weights_at", spy_weights_at)
    for module in (cli, control):
        monkeypatch.setattr(module, "simulate_forward", spy_forward(module.simulate_forward))
    assert cli.main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 0

    # The post-solve pass runs under the final mixture too.
    assert calls["mixture_passes"] >= 2
    assert calls["weights_at"] == calls["mixture_passes"] * cfg["sim"]["n_steps"]
