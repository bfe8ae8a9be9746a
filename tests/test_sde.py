"""Grid, driver, forward simulation, policy algebra, and feasibility."""

import math

import numpy as np
import pytest

from riskmp import (
    AlphaOutOfRange,
    FeasibilityConfig,
    InvalidPolicyWeights,
    MeasurePolicy,
    NonPositiveHorizon,
    NumericalBlowup,
    RegressionBasis,
    ZeroSteps,
    build_time_grid,
    check_feasibility,
    convex_combine,
    sample_brownian,
    simulate_forward,
    simulate_variational,
    total_cost,
    validate_gradients,
)
from riskmp import sde
from riskmp.models import sign_volatility_model

from conftest import make_model


# ---------------------------------------------------------------- time grid

def test_build_time_grid_uniform_partition():
    grid = build_time_grid(1.0, 4)
    np.testing.assert_allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.dt == 0.25


def test_build_time_grid_single_step():
    grid = build_time_grid(2.0, 1)
    np.testing.assert_allclose(grid.nodes, [0.0, 2.0])


def test_build_time_grid_errors():
    with pytest.raises(ZeroSteps):
        build_time_grid(1.0, 0)
    with pytest.raises(NonPositiveHorizon):
        build_time_grid(0.0, 4)
    with pytest.raises(NonPositiveHorizon):
        build_time_grid(-1.0, 4)


# ------------------------------------------------------------------- driver

def test_sample_brownian_deterministic():
    grid = build_time_grid(1.0, 8)
    d1 = sample_brownian(grid, 50, 2, seed=9)
    d2 = sample_brownian(grid, 50, 2, seed=9)
    assert np.array_equal(d1.increments, d2.increments)
    d3 = sample_brownian(grid, 50, 2, seed=10)
    assert not np.array_equal(d1.increments, d3.increments)


def test_sample_brownian_per_path_streams_extend():
    # Path i must not depend on how many paths are requested.
    grid = build_time_grid(1.0, 5)
    small = sample_brownian(grid, 10, 1, seed=3)
    large = sample_brownian(grid, 40, 1, seed=3)
    assert np.array_equal(large.increments[:10], small.increments)


def test_sample_brownian_variance():
    grid = build_time_grid(2.0, 100)  # dt = 0.02
    driver = sample_brownian(grid, 100_000, 1, seed=77)
    dt = grid.dt
    n = driver.n_paths
    se = dt * math.sqrt(2.0 / (n - 1))
    step_var = driver.increments[:, :, 0].var(axis=0, ddof=1)
    assert np.all(np.abs(step_var - dt) <= 3.0 * se)


def test_sample_brownian_shape():
    grid = build_time_grid(1.0, 1)
    driver = sample_brownian(grid, 7, 1, seed=0)
    assert driver.increments.shape == (7, 1, 1)


@pytest.mark.parametrize(
    "blocks, extra", [(0, 1), (1, -1), (1, 1), (3, 1)],
    ids=["1", "B-1", "B+1", "3B+1"],
)
def test_blocked_driver_draws_each_path_from_its_stream(monkeypatch, blocks, extra):
    # Paths are drawn a block of B at a time; each must still hold its own
    # stream's draws times sqrt(dt), on either side of a block edge.
    monkeypatch.setattr(sde, "_BLOCK_ELEMENTS", 40)
    grid = build_time_grid(2.0, 5)
    block = sde._BLOCK_ELEMENTS // (grid.n_steps * 2)
    assert block == 4
    n = blocks * block + extra
    driver = sample_brownian(grid, n, 2, seed=11)
    assert driver.increments.shape == (n, 5, 2)
    for i in range(n):
        draws = sde._path_stream(11, i).standard_normal((5, 2)) * math.sqrt(grid.dt)
        assert np.array_equal(driver.increments[i], draws)


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1, 2**64 + 11])
@pytest.mark.parametrize("dim_w", [1, 3])
def test_driver_draws_each_path_from_its_stream_at_any_seed(seed, dim_w):
    # The re-keyed generator takes the seed mod 2**64, as _path_stream does:
    # a zero key word, a set top bit, the largest key and a wrapped seed.
    grid = build_time_grid(1.0, 4)
    driver = sample_brownian(grid, 9, dim_w, seed)
    for i in range(9):
        stream = sde._path_stream(seed, i)
        draws = stream.standard_normal((4, dim_w)) * math.sqrt(grid.dt)
        assert np.array_equal(driver.increments[i], draws)


@pytest.mark.parametrize("width", [1, 3, 40, sde._BLOCK_ELEMENTS + 1])
def test_row_blocks_match_the_blocked_loops_arithmetic(width):
    # The blocked loops' arithmetic: range(0, total, rows) with min() edges
    # and a buffer of min(rows, total) rows.  The bootstrap's generator
    # draws follow these edges, so they must not move.
    rows = max(1, sde._BLOCK_ELEMENTS // width)
    for total in (1, rows - 1, rows, rows + 1, 3 * rows + 1):
        edges = [(lo, min(lo + rows, total)) for lo in range(0, total, rows)]
        assert sde._row_blocks(total, width) == (min(rows, total), edges)


def test_path_arrays_are_step_major():
    # Shapes stay path-major, and every time slice a[:, k] is one
    # contiguous block.
    n, dim_x, dim_w = 7, 2, 3
    model = make_model([0.0, 1.0], dim_x=dim_x, dim_w=dim_w)
    grid = build_time_grid(1.0, 4)
    driver = sample_brownian(grid, n, dim_w, seed=5)
    ens = simulate_forward(model, MeasurePolicy.uniform(2), driver, grid)
    delta, delta_p = simulate_variational(model, ens, MeasurePolicy.dirac(1, 2))
    arrays = {
        "increments": (driver.increments, (n, 4, dim_w)),
        "states": (ens.states, (n, 5, dim_x)),
        "running_cost": (ens.running_cost, (n, 5)),
        "delta": (delta, (n, 5, dim_x)),
        "delta_p": (delta_p, (n, 5)),
    }
    for name, (a, shape) in arrays.items():
        assert a.shape == shape, name
        assert all(a[:, k].flags.c_contiguous for k in range(shape[1])), name


# ------------------------------------------------------------- forward sim

def test_simulate_zero_coefficients_freezes_state():
    model = make_model([0.0], cost=lambda t, x, a: np.full(x.shape[0], 2.0), x0=1.5)
    grid = build_time_grid(1.0, 10)
    driver = sample_brownian(grid, 20, 1, seed=1)
    ens = simulate_forward(model, MeasurePolicy.dirac(0, 1), driver, grid)
    assert np.all(ens.states == 1.5)
    np.testing.assert_allclose(ens.running_cost[:, -1], 2.0)
    assert np.all(ens.running_cost[:, 0] == 0.0)


def test_dirac_constant_drift_hits_one():
    model = make_model([1.0], drift=lambda t, x, a: np.full((x.shape[0], 1), a[0]))
    grid = build_time_grid(1.0, 64)
    driver = sample_brownian(grid, 5, 1, seed=2)
    ens = simulate_forward(model, MeasurePolicy.dirac(0, 1), driver, grid)
    np.testing.assert_allclose(ens.states[:, -1, 0], 1.0, rtol=0, atol=1e-12)


def test_simulate_detects_blowup_with_step_index():
    model = make_model(
        [1.0],
        drift=lambda t, x, a: np.where(t < 0.45, 1.0, np.inf) * np.ones((x.shape[0], 1)),
    )
    grid = build_time_grid(1.0, 10)
    driver = sample_brownian(grid, 3, 1, seed=0)
    with pytest.raises(NumericalBlowup) as err:
        simulate_forward(model, MeasurePolicy.dirac(0, 1), driver, grid)
    assert err.value.step == 6  # first step whose left endpoint is t >= 0.45


def test_simulate_repeats_bit_identically():
    model = sign_volatility_model()
    grid = build_time_grid(1.0, 20)
    driver = sample_brownian(grid, 100, 1, seed=11)
    pol = MeasurePolicy.constant([0.25, 0.75])
    a = simulate_forward(model, pol, driver, grid)
    b = simulate_forward(model, pol, driver, grid)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.running_cost, b.running_cost)


def test_strict_control_equals_direct_substitution():
    # A Dirac policy must reproduce, bit for bit, the paths of the model
    # restricted to that atom.
    def drift(t, x, a):
        return a[0] * np.ones((x.shape[0], 1)) - 0.3 * x

    def diffusion(t, x, a):
        return (0.2 + 0.1 * a[0]) * np.ones((x.shape[0], 1, 1))

    two_atom = make_model([-1.0, 1.0], drift=drift, diffusion=diffusion)
    one_atom = make_model([1.0], drift=drift, diffusion=diffusion)
    grid = build_time_grid(1.0, 30)
    driver = sample_brownian(grid, 50, 1, seed=13)
    via_policy = simulate_forward(two_atom, MeasurePolicy.dirac(1, 2), driver, grid)
    direct = simulate_forward(one_atom, MeasurePolicy.dirac(0, 1), driver, grid)
    assert np.array_equal(via_policy.states, direct.states)


def test_policy_weights_validated():
    model = sign_volatility_model()
    grid = build_time_grid(1.0, 4)
    driver = sample_brownian(grid, 8, 1, seed=4)
    bad = MeasurePolicy.feedback(lambda k, t, x: np.full((x.shape[0], 2), 0.6), 2)
    with pytest.raises(InvalidPolicyWeights, match="step 0 sum off"):
        simulate_forward(model, bad, driver, grid)
    with pytest.raises(ValueError, match="negative"):
        MeasurePolicy.constant([1.5, -0.5])


@pytest.mark.parametrize(
    "row, error, message",
    [
        (
            [-0.1, 1.1],
            InvalidPolicyWeights,
            "negative policy weight at feedback policy, step 2",
        ),
        ([np.nan, 1.0], NumericalBlowup, "non-finite policy weights at time step 2"),
        (
            [0.6, 0.6],
            InvalidPolicyWeights,
            "policy weights at feedback policy, step 2 sum off by 2.00e-01",
        ),
    ],
    ids=["negative", "nan", "off-sum"],
)
def test_bad_weight_row_is_caught_broadcast_or_dense(row, error, message):
    # A broadcast row is checked once; a dense array with the same rows, or
    # with only its last row bad, gets the same verdict and message.
    model = sign_volatility_model()
    grid = build_time_grid(1.0, 4)
    driver = sample_brownian(grid, 8, 1, seed=4)
    good = np.full((8, 2), 0.5)
    last_bad = good.copy()
    last_bad[-1] = row
    layouts = {
        "broadcast": lambda x: np.broadcast_to(row, (x.shape[0], 2)),
        "dense": lambda x: np.tile(row, (x.shape[0], 1)),
        "last row": lambda x: last_bad,
    }
    for name, bad in layouts.items():
        policy = MeasurePolicy.feedback(
            lambda k, t, x, bad=bad: bad(x) if k == 2 else good, 2
        )
        with pytest.raises(error) as err:
            simulate_forward(model, policy, driver, grid)
        assert str(err.value) == message, name
        if error is NumericalBlowup:
            assert (err.value.step, err.value.what) == (2, "policy weights"), name


def test_nan_fitted_coefficient_is_caught_at_its_step():
    # Mixture weights skip the row check, since the kernel normalizes them,
    # but a NaN coefficient still stops the simulation at its step.
    model = sign_volatility_model()
    grid = build_time_grid(1.0, 4)
    driver = sample_brownian(grid, 8, 1, seed=4)
    steps = [(np.array([0.5, 0.5]), np.array([[0.1, -0.1]])) for _ in range(4)]
    steps[2] = (steps[2][0], np.array([[np.nan, 0.0]]))
    policy = MeasurePolicy.fitted(steps, RegressionBasis(degree=1), 2)
    with pytest.raises(NumericalBlowup) as err:
        simulate_forward(model, policy, driver, grid)
    assert (err.value.step, err.value.what) == (2, "policy weights")


def test_nan_fitted_coefficient_is_caught_outside_a_forward_pass():
    # The mixture checks its own weights, so a blend toward a q with a NaN
    # coefficient stops at that step, not one step later in the state.
    model = sign_volatility_model()
    grid = build_time_grid(1.0, 4)
    driver = sample_brownian(grid, 8, 1, seed=4)
    ens = simulate_forward(model, MeasurePolicy.uniform(2), driver, grid)
    steps = [(np.array([0.5, 0.5]), np.array([[0.1, -0.1]])) for _ in range(4)]
    steps[2] = (steps[2][0], np.array([[np.nan, 0.0]]))
    q = MeasurePolicy.fitted(steps, RegressionBasis(degree=1), 2)
    with pytest.raises(NumericalBlowup) as err:
        simulate_variational(model, ens, q)
    assert (err.value.step, err.value.what) == (2, "policy weights")


def _count_weight_checks(monkeypatch):
    calls = []
    check = sde._check_weight_rows

    def spy(w, where, step=None):
        calls.append(step)
        return check(w, where, step)

    monkeypatch.setattr(sde, "_check_weight_rows", spy)
    return calls


def test_forward_pass_checks_no_constant_weights(monkeypatch):
    # Constant rows are checked once, when the policy is built.
    model = sign_volatility_model()
    grid = build_time_grid(1.0, 4)
    driver = sample_brownian(grid, 8, 1, seed=4)
    for policy in (MeasurePolicy.uniform(2), MeasurePolicy.constant([[0.3, 0.7]] * 4)):
        calls = _count_weight_checks(monkeypatch)
        simulate_forward(model, policy, driver, grid)
        assert calls == []


def test_forward_pass_checks_feedback_weights_once_per_step(monkeypatch):
    model = sign_volatility_model()
    grid = build_time_grid(1.0, 4)
    driver = sample_brownian(grid, 8, 1, seed=4)
    policy = MeasurePolicy.feedback(
        lambda k, t, x: np.where(x > 0.0, [0.2, 0.8], [0.6, 0.4]), 2
    )
    calls = _count_weight_checks(monkeypatch)
    simulate_forward(model, policy, driver, grid)
    assert calls == [0, 1, 2, 3]


# -------------------------------------------------------------- total cost

def test_total_cost_terminal_state_only():
    model = make_model(
        [1.0],
        diffusion=lambda t, x, a: np.ones((x.shape[0], 1, 1)),
        terminal=lambda x: x[:, 0],
    )
    grid = build_time_grid(1.0, 16)
    driver = sample_brownian(grid, 40, 1, seed=6)
    ens = simulate_forward(model, MeasurePolicy.dirac(0, 1), driver, grid)
    np.testing.assert_allclose(total_cost(ens, model), ens.states[:, -1, 0])


def test_total_cost_unit_rate():
    model = make_model([0.0], cost=lambda t, x, a: np.ones(x.shape[0]))
    grid = build_time_grid(1.0, 25)
    driver = sample_brownian(grid, 10, 1, seed=6)
    ens = simulate_forward(model, MeasurePolicy.dirac(0, 1), driver, grid)
    np.testing.assert_allclose(total_cost(ens, model), 1.0)


def test_total_cost_negative_terminal_wealth():
    model = make_model(
        [1.0],
        drift=lambda t, x, a: 0.04 * np.ones((x.shape[0], 1)),
        diffusion=lambda t, x, a: 0.2 * np.ones((x.shape[0], 1, 1)),
        terminal=lambda x: -x[:, 0],
    )
    grid = build_time_grid(1.0, 10)
    driver = sample_brownian(grid, 30, 1, seed=8)
    ens = simulate_forward(model, MeasurePolicy.dirac(0, 1), driver, grid)
    np.testing.assert_allclose(total_cost(ens, model), -ens.states[:, -1, 0])


# ----------------------------------------------------------- policy algebra

def test_convex_combine_endpoints_and_midpoint():
    pi = MeasurePolicy.dirac(0, 2)
    q = MeasurePolicy.dirac(1, 2)
    states = np.zeros((3, 1))
    np.testing.assert_array_equal(
        convex_combine(pi, q, 0.0).weights_at(0, 0.0, states)[0], [1.0, 0.0]
    )
    np.testing.assert_array_equal(
        convex_combine(pi, q, 1.0).weights_at(0, 0.0, states)[0], [0.0, 1.0]
    )
    np.testing.assert_allclose(
        convex_combine(pi, q, 0.5).weights_at(0, 0.0, states)[0], [0.5, 0.5]
    )


def test_convex_combine_rejects_bad_alpha():
    pi = MeasurePolicy.dirac(0, 2)
    with pytest.raises(AlphaOutOfRange):
        convex_combine(pi, pi, 1.5)
    with pytest.raises(AlphaOutOfRange):
        convex_combine(pi, pi, -0.1)


def test_convex_combine_mixes_feedback_policies():
    const = MeasurePolicy.constant([0.5, 0.5])
    fb = MeasurePolicy.feedback(
        lambda k, t, x: np.where(x[:, :1] > 0, [1.0, 0.0], [0.0, 1.0]), 2
    )
    mix = convex_combine(const, fb, 0.25)
    states = np.array([[1.0], [-1.0]])
    w = mix.weights_at(0, 0.0, states)
    np.testing.assert_allclose(w[0], [0.625, 0.375])
    np.testing.assert_allclose(w[1], [0.375, 0.625])
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-15)


# ------------------------------------------------------- variational system

def _linear_model():
    return make_model(
        [-1.0, 1.0],
        drift=lambda t, x, a: x + a[0],
        diffusion=lambda t, x, a: 0.1 * np.ones((x.shape[0], 1, 1)),
        cost=lambda t, x, a: x[:, 0],
        drift_dx=lambda t, x, a: np.ones((x.shape[0], 1, 1)),
        cost_dx=lambda t, x, a: np.ones((x.shape[0], 1)),
    )


def test_variational_zero_for_identical_policies():
    model = _linear_model()
    grid = build_time_grid(1.0, 20)
    driver = sample_brownian(grid, 30, 1, seed=21)
    pol = MeasurePolicy.constant([0.3, 0.7])
    ens = simulate_forward(model, pol, driver, grid)
    delta, delta_p = simulate_variational(model, ens, pol)
    assert np.all(delta == 0.0)
    assert np.all(delta_p == 0.0)


def test_variational_matches_finite_difference_on_linear_model():
    # With drift affine in x and constant diffusion the response is exactly
    # linear in alpha, so (x^{pi(a,q)} - x^pi)/alpha equals delta.
    model = _linear_model()
    grid = build_time_grid(1.0, 40)
    driver = sample_brownian(grid, 200, 1, seed=22)
    pi = MeasurePolicy.dirac(0, 2)
    q = MeasurePolicy.dirac(1, 2)
    ens = simulate_forward(model, pi, driver, grid)
    delta, delta_p = simulate_variational(model, ens, q)

    alpha = 1e-3
    blend = convex_combine(pi, q, alpha)
    bumped = simulate_forward(model, blend, driver, grid)
    fd = (bumped.states - ens.states) / alpha
    fd_p = (bumped.running_cost - ens.running_cost) / alpha

    scale = np.abs(delta).max()
    assert np.abs(fd - delta).max() <= 1e-2 * scale
    assert np.abs(fd_p - delta_p).max() <= 1e-2 * max(np.abs(delta_p).max(), 1.0)


def test_gradient_maps_match_finite_differences():
    report = validate_gradients(_linear_model(), seed=1, n_probes=10)
    assert report["ok"], report


# --------------------------------------------------------------- feasibility

def test_portfolio_exponents_feasible():
    cfg = FeasibilityConfig(
        L=1.0, pbar1=0.0, pbar2=0.0, pbar3=math.inf, pbar=8.0,
        p1=1.0, p2=0.0, p1_prime=0.0, p2_prime=0.0, p=2.0,
    )
    report = check_feasibility(cfg)
    assert report.feasible, report.failures()


def test_feasibility_requires_strict_p_less_pbar():
    cfg = FeasibilityConfig(
        L=1.0, pbar1=0.0, pbar2=0.0, pbar3=math.inf, pbar=2.0,
        p1=0.0, p2=0.0, p1_prime=0.0, p2_prime=0.0, p=2.0,
    )
    report = check_feasibility(cfg)
    assert not report.feasible
    assert any(name == "p < pbar" for name, ok, _ in report.checks if not ok)


def test_feasibility_boundary_growth_is_infeasible():
    # p1 exactly at pbar/p - 1 violates the strict inequality.
    cfg = FeasibilityConfig(
        L=1.0, pbar1=0.0, pbar2=0.0, pbar3=math.inf, pbar=8.0,
        p1=3.0, p2=0.0, p1_prime=0.0, p2_prime=0.0, p=2.0,
    )
    report = check_feasibility(cfg)
    assert not report.feasible
    failed = [name for name, ok, _ in report.checks if not ok]
    assert "p1 < pbar/p - 1" in failed
