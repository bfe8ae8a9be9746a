"""One catalogue of the toolkit's named invariants.

Each check is a plain function of its sample (an rng, a seed and a path
count, or an ensemble and its adjoints) that returns named pass/fail
CheckResult rows, with the check's tolerance fixed inside it.  `riskmp
verify` runs CHECKS in order on one seeded rng; the acceptance criteria call
them too.  The perturbation bound and the 200,000-path adjoint checks run at
acceptance size, the others trimmed.  Every sample is seeded, so the table
is reproducible across runs and machines with the same numpy version.
"""

import math
from dataclasses import dataclass

import numpy as np

from .adjoint import (
    RegressionBasis,
    _norm,
    martingale_diagnostics,
    solve_adjoint_system,
    solve_risk_adjustment,
)
from .control import MsaConfig, _hamiltonian_atoms, _near_min_weights, msa_solve
from .errors import DegenerateSample
from .models import on_off_volatility_model, sign_volatility_model
from .portfolio import (
    PortfolioParams,
    brute_force_constant_policy,
    build_portfolio_model,
    merton_allocation,
    risk_premium,
)
from .risk import (
    EmpiricalSample,
    RiskFunction,
    directional_derivative_check,
    evaluate,
    l_derivative,
)
from .sde import (
    MeasurePolicy,
    ModelSpec,
    build_time_grid,
    check_feasibility,
    convex_combine,
    dirac_initial,
    sample_brownian,
    simulate_forward,
    simulate_variational,
    total_cost,
    validate_gradients,
)

SEED = 1_000_003


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _risk_trio():
    return (
        RiskFunction.mean_deviation(0.5),
        RiskFunction.smoothed_semideviation(0.5, 0.1),
        RiskFunction.entropic(1.0),
    )


# ------------------------------------------------------------- risk axioms

def risk_translation_invariance(rng):
    worst = 0.0
    x = rng.standard_normal(400)
    for risk in _risk_trio():
        base = evaluate(risk, EmpiricalSample(x))
        for _ in range(20):
            a = float(rng.uniform(-5, 5))
            worst = max(
                worst,
                abs(evaluate(risk, EmpiricalSample(x + a)) - base - a),
            )
    return _result("risk_translation_invariance", worst <= 1e-12, f"worst {worst:.2e}")


def risk_positive_homogeneity(rng):
    x = rng.standard_normal(400)
    worst = 0.0
    md = RiskFunction.mean_deviation(0.5)
    for lam in (0.5, 2.0, 10.0):
        lhs = evaluate(md, EmpiricalSample(lam * x))
        worst = max(worst, abs(lhs - lam * evaluate(md, EmpiricalSample(x))) / lam)
        # Smoothed semideviation is homogeneous jointly with its width.
        s1 = RiskFunction.smoothed_semideviation(0.5, 0.1)
        s2 = RiskFunction.smoothed_semideviation(0.5, 0.1 * lam)
        lhs = evaluate(s2, EmpiricalSample(lam * x))
        worst = max(worst, abs(lhs - lam * evaluate(s1, EmpiricalSample(x))) / lam)
    return _result("risk_positive_homogeneity", worst <= 1e-12, f"worst {worst:.2e}")


def risk_monotonicity(rng):
    ok = True
    for risk in _risk_trio()[1:]:
        for _ in range(50):
            x = rng.standard_normal(200)
            y = x + rng.uniform(0, 1, 200)
            ok &= evaluate(risk, EmpiricalSample(x)) <= evaluate(
                risk, EmpiricalSample(y)
            ) + 1e-12
    return _result("risk_monotonicity", ok, "smoothed semidev + entropic, 100 pairs")


def risk_convexity(rng):
    worst = -math.inf
    for risk in _risk_trio():
        for _ in range(100):
            x = rng.standard_normal(200)
            y = rng.standard_normal(200)
            for lam in (0.25, 0.5, 0.75):
                lhs = evaluate(risk, EmpiricalSample(lam * x + (1 - lam) * y))
                rhs = lam * evaluate(risk, EmpiricalSample(x)) + (1 - lam) * evaluate(
                    risk, EmpiricalSample(y)
                )
                worst = max(worst, lhs - rhs)
    return _result("risk_convexity", worst <= 1e-12, f"worst violation {worst:.2e}")


def risk_semideviation_sandwich(rng):
    beta, eps = 0.5, 0.1
    risk = RiskFunction.smoothed_semideviation(beta, eps)
    ok = True
    for _ in range(100):
        x = rng.standard_normal(int(rng.integers(2, 400)))
        m = x.mean()
        plain = m + beta * np.maximum(x - m, 0.0).mean()
        gap = evaluate(risk, EmpiricalSample(x)) - plain
        ok &= 0.0 < gap <= eps * beta * math.log(2.0)
    return _result("risk_semideviation_sandwich", ok, "0 < smoothed - plain <= eps*beta*ln2")


def risk_derivative_range(rng):
    x = EmpiricalSample(rng.standard_normal(5000))
    d_s = l_derivative(RiskFunction.smoothed_semideviation(0.5, 0.1), x)
    d_e = l_derivative(RiskFunction.entropic(1.0), x)
    ok = (
        np.all(d_s > 0.5)
        and np.all(d_s < 1.5)
        and abs(float(x.weights @ d_e) - 1.0) <= 1e-10
        and np.all(d_e > 0)
    )
    return _result("risk_derivative_range", ok, "smoothed in (1-b,1+b); entropic mean 1")


def risk_law_invariance(rng):
    """Risk values, and the sorted derivative values, ignore path order."""
    x = EmpiricalSample(rng.standard_normal(500))
    shuffled = EmpiricalSample(x.values[rng.permutation(500)])
    worst = 0.0
    for risk in (RiskFunction.expectation(),) + _risk_trio():
        d1 = np.sort(l_derivative(risk, x))
        d2 = np.sort(l_derivative(risk, shuffled))
        worst = max(
            worst,
            abs(evaluate(risk, x) - evaluate(risk, shuffled)),
            float(np.abs(d1 - d2).max()),
        )
    return _result("risk_law_invariance", worst <= 1e-12, f"worst {worst:.2e}")


def risk_degenerate_guard():
    try:
        l_derivative(RiskFunction.mean_deviation(0.5), EmpiricalSample([2.0, 2.0]))
        return _result("risk_degenerate_guard", False, "no error at constant sample")
    except DegenerateSample:
        return _result("risk_degenerate_guard", True, "constant sample refused")


def derivative_fd(rng):
    """Directional derivatives against finite differences, one row per risk."""
    sample = EmpiricalSample(rng.standard_normal(10_000))
    rows = []
    for risk, name in zip(_risk_trio(), ("mean_dev", "smoothed", "entropic")):
        worst = 0.0
        for _ in range(20):
            d = rng.standard_normal(10_000)
            d /= np.linalg.norm(d)
            worst = max(
                worst, directional_derivative_check(risk, sample, d, 1e-4).abs_error
            )
        rows.append(
            _result(f"derivative_fd_{name}", worst <= 1e-6, f"worst {worst:.2e}")
        )
    return rows


# ------------------------------------------------- dynamics and examples

def example1_mixed_volatility(seed, n_paths):
    grid = build_time_grid(1.0, 50)
    model = sign_volatility_model()
    driver = sample_brownian(grid, n_paths, 1, seed=seed)
    mixed = simulate_forward(model, MeasurePolicy.constant([0.5, 0.5]), driver, grid)
    strict = simulate_forward(model, MeasurePolicy.dirac(1, 2), driver, grid)
    xt2 = strict.states[:, -1, 0] ** 2
    se = xt2.std(ddof=1) / math.sqrt(len(xt2))
    dev = abs(xt2.mean() - grid.horizon)
    return [
        _result(
            "example1_mixed_paths_zero",
            np.all(mixed.states == 0.0),
            "half/half mixture yields identically zero paths",
        ),
        _result(
            "example1_strict_variance",
            dev <= 3 * se,
            f"|E[x_T^2] - T| = {dev:.2e} <= 3SE = {3 * se:.2e}",
        ),
    ]


def example2_perturbation_bound(seed, n_paths):
    """Blending in q moves the paths by at most 4 T eps^2 in mean square."""
    grid = build_time_grid(1.0, 50)
    model = on_off_volatility_model()
    driver = sample_brownian(grid, n_paths, 1, seed=seed)
    pi = MeasurePolicy.dirac(0, 2)
    q = MeasurePolicy.dirac(1, 2)
    base = simulate_forward(model, pi, driver, grid)
    ok = True
    worst = 0.0
    for eps in (0.1, 0.05, 0.025):
        pert = simulate_forward(model, convex_combine(pi, q, eps), driver, grid)
        peak = float(np.max(np.mean((pert.states - base.states) ** 2, axis=0)))
        bound = 4.0 * grid.horizon * eps**2
        ok &= peak <= bound
        worst = max(worst, peak / bound)
    return _result(
        "example2_perturbation_bound",
        ok,
        f"max ratio to 4*T*eps^2 bound: {worst:.3f}",
    )


def _variational_model():
    """Two-atom scalar model with state-dependent drift and diffusion."""

    def drift(t, x, a):
        return a[0] - 0.5 * np.sin(x)

    def drift_dx(t, x, a):
        return (-0.5 * np.cos(x))[:, :, None]

    def diffusion(t, x, a):
        return (0.3 * a[0] + 0.1 * np.sin(x))[:, :, None]

    def diffusion_dx(t, x, a):
        return (0.1 * np.cos(x))[:, :, None, None]

    return ModelSpec(
        dim_x=1,
        dim_w=1,
        dim_a=1,
        drift=drift,
        diffusion=diffusion,
        cost=lambda t, x, a: np.zeros(x.shape[0]),
        terminal=lambda x: np.zeros(x.shape[0]),
        drift_dx=drift_dx,
        diffusion_dx=diffusion_dx,
        cost_dx=lambda t, x, a: np.zeros((x.shape[0], 1)),
        terminal_dx=lambda x: np.zeros((x.shape[0], 1)),
        initial=dirac_initial(0.2),
        action_grid=np.array([[0.5], [1.0]]),
    )


def variational_linearization(seed, n_paths):
    """sup_t RMS(x^alpha - x - alpha delta) / alpha falls as alpha halves."""
    model = _variational_model()
    grid = build_time_grid(1.0, 40)
    driver = sample_brownian(grid, n_paths, 1, seed=seed)
    pi = MeasurePolicy.dirac(0, 2)
    q = MeasurePolicy.dirac(1, 2)
    ens = simulate_forward(model, pi, driver, grid)
    delta, _ = simulate_variational(model, ens, q)
    ratios = []
    for alpha in (0.2, 0.1, 0.05):
        pert = simulate_forward(model, convex_combine(pi, q, alpha), driver, grid)
        resid = pert.states - ens.states - alpha * delta
        ratios.append(float(np.sqrt(np.mean(resid[:, :, 0] ** 2, axis=0)).max()) / alpha)
    ok = ratios[1] <= ratios[0] and ratios[2] <= ratios[1]
    return _result(
        "variational_linearization",
        ok,
        "residual/alpha = " + ", ".join(f"{r:.5f}" for r in ratios),
    )


# ----------------------------------------------------------- Hamiltonian

def hamiltonian_checks(rng):
    """Linearity in the measure, minimizer optimality, and tie mixing."""
    model = build_portfolio_model(PortfolioParams(), 11)
    states = rng.standard_normal((64, 1))
    y = rng.standard_normal((64, 1))
    yprime = rng.uniform(0.5, 1.5, 64)
    z = rng.standard_normal((64, 1, 1))
    table = _hamiltonian_atoms(model, 0.3, states, y, yprime, z)

    w1 = rng.dirichlet(np.ones(11), size=64)
    w2 = rng.dirichlet(np.ones(11), size=64)
    linearity = 0.0
    for lam in (0.0, 0.35, 1.0):
        lhs = np.einsum("na,na->n", lam * w1 + (1 - lam) * w2, table)
        rhs = lam * np.einsum("na,na->n", w1, table) + (1 - lam) * np.einsum(
            "na,na->n", w2, table
        )
        linearity = max(linearity, float(np.abs(lhs - rhs).max()))

    w, *_ = _near_min_weights(table, 1e-9, w1)
    excess = float(np.max(np.einsum("na,na->n", w, table) - table.min(axis=1)))

    # The +1/-1 volatility atoms tie exactly at zero adjoints.
    tie_table = _hamiltonian_atoms(
        sign_volatility_model(),
        0.0,
        np.zeros((1, 1)),
        np.zeros((1, 1)),
        np.ones(1),
        np.zeros((1, 1, 1)),
    )
    w_tie = _near_min_weights(tie_table, 1e-9, np.array([[1.0, 0.0]]))[0][0]
    return [
        _result(
            "hamiltonian_measure_linearity",
            linearity <= 1e-12,
            f"worst {linearity:.2e}",
        ),
        _result(
            "hamiltonian_minimizer_optimality",
            excess <= 1e-12,
            f"worst measure value above atom min {excess:.2e}, 64 rows",
        ),
        _result(
            "hamiltonian_tie_mixing",
            np.array_equal(w_tie, [0.5, 0.5]),
            f"tied weights {w_tie}",
        ),
    ]


# ------------------------------------------------------- adjoint processes

def riskneutral_collapse(ensemble, basis):
    """A constant risk derivative gives y' = 1 and z' = 0."""
    yp, zp, _ = solve_risk_adjustment(ensemble, np.ones(ensemble.n_paths), basis)
    dy, dz = np.abs(yp - 1.0).max(), np.abs(zp).max()
    return _result(
        "riskneutral_collapse",
        dy <= 1e-8 and dz <= 1e-8,
        f"|y'-1| {dy:.1e}, |z'| {dz:.1e}",
    )


def martingale_property(yprime):
    mart = martingale_diagnostics(yprime)
    return _result(
        "martingale_diagnostics",
        np.all(mart.within_3se),
        f"max drift {mart.max_drift:.2e}",
    )


def positive_risk_adjustment(yprime):
    return _result(
        "positive_risk_adjustment", np.all(yprime > 0.0), f"min y' {yprime.min():.3f}"
    )


def portfolio_adjoint_identity(adj):
    """y = -y' and z = -z' in relative norm; the norms are fixed-order sums,
    so the ratios do not depend on the BLAS thread count."""
    rel_y = _norm(adj.y[:, :, 0] + adj.yprime) / _norm(adj.yprime)
    rel_z = _norm(adj.z[:, :, 0, 0] + adj.zprime[:, :, 0]) / _norm(adj.zprime)
    return _result(
        "portfolio_adjoint_identity",
        rel_y <= 1e-2 and rel_z <= 1e-2,
        f"rel y {rel_y!r}, rel z {rel_z!r}",
    )


def _entropic_allocation(params, theta):
    """phi* = (mu - r) / ((1 + theta) sigma^2), clipped to the bounds: the
    optimal allocation under entropic risk of -log N_T."""
    phi = (params.mu - params.r) / ((1.0 + theta) * params.sigma**2)
    return float(np.clip(phi, params.phi_low, params.phi_high))


def _half_spacing(model):
    return 0.5 * float(np.diff(model.action_grid[:, 0]).max())


def entropic_allocation_closed_form(params, theta, model, ensemble):
    """Each step's path-mean allocation sum_a w_a phi_a is within half an atom
    spacing of the entropic optimum phi*."""
    atoms = model.action_grid[:, 0]
    target = _entropic_allocation(params, theta)
    worst = max(
        abs(float((ensemble.weights_at(k) @ atoms).mean()) - target)
        for k in range(ensemble.grid.n_steps)
    )
    tol = _half_spacing(model)
    return _result(
        "entropic_allocation_closed_form",
        worst <= tol,
        f"worst |mean phi - phi*| {worst:.4f}, phi* {target:.4f}, tol {tol:.4f}",
    )


def entropic_premium_closed_form(params, theta, model, phi, adj):
    """Under a constant allocation phi, the entropic y' is the exponential
    martingale of -theta sigma phi W, so iota = sigma z' / y' = -theta
    sigma^2 phi.  Each step's path-mean iota is within sigma^2 times half an
    atom spacing of it, the premium error of half a spacing in phi."""
    target = -theta * params.sigma**2 * phi
    iota = risk_premium(adj.yprime, adj.zprime, params.sigma).mean(axis=0)
    worst = float(np.abs(iota - target).max())
    tol = params.sigma**2 * _half_spacing(model)
    return _result(
        "entropic_premium_closed_form",
        worst <= tol,
        f"worst |mean iota - iota*| {worst:.5f}, iota* {target:.4f}, tol {tol:.5f}",
    )


def _verify_adjoints():
    params = PortfolioParams()
    model = build_portfolio_model(params, 15)
    grid = build_time_grid(1.0, 30)
    driver = sample_brownian(grid, 6000, 1, seed=SEED + 4)
    basis = RegressionBasis(degree=3)
    pol = MeasurePolicy.uniform(15)
    collapse = riskneutral_collapse(simulate_forward(model, pol, driver, grid), basis)

    risk = RiskFunction.entropic(1.0)
    cfg = MsaConfig(max_iters=6, tol=1e-4, seed=SEED)
    final, _ = msa_solve(model, risk, pol, cfg, driver, basis, grid)
    ens = simulate_forward(model, final, driver, grid)
    deriv = l_derivative(risk, EmpiricalSample(total_cost(ens, model)))
    adj = solve_adjoint_system(model, ens, deriv, basis)

    # Identity y = -y', z = -z' needs a large sample: both sides are noisy
    # regression estimates, so the check runs on a dedicated wide ensemble
    # with a low-variance quadratic basis.
    model31 = build_portfolio_model(params, 31)
    grid50 = build_time_grid(1.0, 50)
    wide = sample_brownian(grid50, 200_000, 1, seed=SEED + 7)
    atom = int(np.argmin(np.abs(model31.action_grid[:, 0] - 1.0 / 3.0)))
    ens3 = simulate_forward(model31, MeasurePolicy.dirac(atom, 31), wide, grid50)
    deriv3 = l_derivative(risk, EmpiricalSample(total_cost(ens3, model31)))
    adj3 = solve_adjoint_system(model31, ens3, deriv3, RegressionBasis(degree=2))
    phi = float(model31.action_grid[atom, 0])
    return [
        collapse,
        martingale_property(adj.yprime),
        positive_risk_adjustment(adj.yprime),
        portfolio_adjoint_identity(adj3),
        entropic_premium_closed_form(params, 1.0, model31, phi, adj3),
    ]


# ---------------------------------------------------------------- portfolio

def portfolio_checks():
    rows = []
    params = PortfolioParams()
    model = build_portfolio_model(params, 15)
    report = check_feasibility(model.growth)
    rows.append(
        _result(
            "portfolio_feasibility",
            report.feasible,
            "; ".join(n for n, ok, _ in report.checks if not ok) or "all inequalities hold",
        )
    )
    grads = validate_gradients(model, seed=SEED, n_probes=10)
    rows.append(
        _result(
            "portfolio_gradient_consistency",
            grads["ok"],
            f"worst rel err {max(v for k, v in grads.items() if k != 'ok'):.1e}",
        )
    )
    grid = build_time_grid(1.0, 50)
    driver = sample_brownian(grid, 10_000, 1, seed=SEED + 5)
    bf = brute_force_constant_policy(
        params, RiskFunction.expectation(), np.linspace(0.1, 1.5, 15), driver, grid
    )
    spacing = (1.5 - 0.1) / 14
    rows.append(
        _result(
            "brute_force_merton",
            abs(bf.best_phi - merton_allocation(params)) <= spacing + 1e-12,
            f"argmin {bf.best_phi:.3f} vs merton {merton_allocation(params):.3f}",
        )
    )
    return rows


def simulation_determinism():
    model = build_portfolio_model(PortfolioParams(), 7)
    grid = build_time_grid(1.0, 20)
    driver = sample_brownian(grid, 500, 1, seed=SEED + 6)
    pol = MeasurePolicy.uniform(7)
    a = simulate_forward(model, pol, driver, grid)
    b = simulate_forward(model, pol, driver, grid)
    same = np.array_equal(a.states, b.states) and np.array_equal(
        sample_brownian(grid, 500, 1, seed=SEED + 6).increments, driver.increments
    )
    return _result("simulation_determinism", same, "bit-identical resimulation")


# The runners of `riskmp verify`, in order: run(rng) -> row(s) at its sizes.
CHECKS = (
    risk_translation_invariance,
    risk_positive_homogeneity,
    risk_monotonicity,
    risk_convexity,
    risk_semideviation_sandwich,
    risk_derivative_range,
    risk_law_invariance,
    lambda rng: risk_degenerate_guard(),
    derivative_fd,
    lambda rng: example1_mixed_volatility(SEED + 1, 4000),
    lambda rng: example2_perturbation_bound(SEED + 2, 10_000),
    lambda rng: variational_linearization(SEED + 3, 3000),
    hamiltonian_checks,
    lambda rng: _verify_adjoints(),
    lambda rng: portfolio_checks(),
    lambda rng: simulation_determinism(),
)


def run_checks():
    """Run CHECKS in order on one seeded rng; returns the CheckResult rows."""
    rng = np.random.default_rng(SEED)
    rows = []
    for run in CHECKS:
        got = run(rng)
        rows.extend(got if isinstance(got, list) else [got])
    return rows
