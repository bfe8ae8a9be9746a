"""Acceptance criteria, one test per criterion, at their stated tolerances.

Shared expensive runs (the three portfolio solves and the wide adjoint
ensemble) live in module-scoped fixtures.  Each test prints a single
PASS/FAIL line; run with `pytest -s` to see them inline.
"""

import json
import math
import time

import numpy as np
import pytest

from riskmp import (
    EmpiricalSample,
    MeasurePolicy,
    MsaConfig,
    RegressionBasis,
    RiskFunction,
    bootstrap_standard_error,
    brute_force_constant_policy,
    build_time_grid,
    convex_combine,
    directional_derivative_check,
    evaluate,
    l_derivative,
    martingale_diagnostics,
    msa_solve,
    risk_premium,
    sample_brownian,
    simulate_forward,
    simulate_variational,
    solve_adjoint_system,
    solve_risk_adjustment,
    total_cost,
)
from riskmp.cli import main as cli_main
from riskmp.models import on_off_volatility_model, sign_volatility_model
from riskmp.portfolio import PortfolioParams, build_portfolio_model, merton_allocation

from conftest import make_model, solve_in_subprocess

SEED = 20240817
N_PATHS = 20_000
N_STEPS = 50
N_ACTIONS = 31


def _conclude(num, label, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def setup():
    params = PortfolioParams()
    model = build_portfolio_model(params, N_ACTIONS)
    grid = build_time_grid(params.horizon, N_STEPS)
    driver = sample_brownian(grid, N_PATHS, 1, seed=SEED)
    basis = RegressionBasis(degree=3)
    return {
        "params": params,
        "model": model,
        "grid": grid,
        "driver": driver,
        "basis": basis,
    }


def _solve(setup, risk):
    cfg = MsaConfig(max_iters=25, tol=3e-5, seed=SEED)
    start = time.perf_counter()
    policy, report = msa_solve(
        setup["model"],
        risk,
        MeasurePolicy.uniform(N_ACTIONS),
        cfg,
        setup["driver"],
        setup["basis"],
        setup["grid"],
    )
    elapsed = time.perf_counter() - start
    ens = simulate_forward(
        setup["model"], policy, setup["driver"], setup["grid"], keep_weights=True
    )
    return {
        "risk": risk,
        "policy": policy,
        "report": report,
        "ensemble": ens,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def riskneutral_run(setup):
    return _solve(setup, RiskFunction.expectation())


@pytest.fixture(scope="module")
def mean_dev_run(setup):
    return _solve(setup, RiskFunction.mean_deviation(0.5))


@pytest.fixture(scope="module")
def entropic_run(setup):
    return _solve(setup, RiskFunction.entropic(1.0))


@pytest.fixture(scope="module")
def wide_entropic_adjoint(setup, entropic_run):
    # Both adjoint solves are noisy estimators; the identity check gets a
    # dedicated wide ensemble under the solved policy with a low-variance
    # quadratic basis (the criteria fix tolerances, not sample sizes).
    grid = setup["grid"]
    driver = sample_brownian(grid, 200_000, 1, seed=SEED + 7)
    ens = simulate_forward(setup["model"], entropic_run["policy"], driver, grid)
    risk = entropic_run["risk"]
    deriv = l_derivative(risk, EmpiricalSample(total_cost(ens, setup["model"])))
    adj = solve_adjoint_system(
        setup["model"], ens, deriv, RegressionBasis(degree=2)
    )
    return {"ensemble": ens, "adjoint": adj}


def test_criterion_01_risk_neutral_merton_recovery(setup, riskneutral_run):
    run = riskneutral_run
    model, grid = setup["model"], setup["grid"]
    atoms = model.action_grid[:, 0]
    target = merton_allocation(setup["params"])
    worst = 0.0
    for k in range(grid.n_steps):
        w = run["ensemble"].policy_weights[k]
        worst = max(worst, abs(float((w @ atoms).mean()) - target))

    deriv = np.ones(N_PATHS)
    yprime, zprime, _ = solve_risk_adjustment(
        run["ensemble"], deriv, setup["basis"]
    )
    iota = risk_premium(yprime, zprime, setup["params"].sigma)
    iota_mean = abs(float(iota.mean()))

    ok = worst <= 0.05 and iota_mean <= 1e-3 and run["elapsed"] <= 60.0
    _conclude(
        1,
        "risk-neutral Merton recovery",
        ok,
        f"max |mean alloc - 2/3| = {worst:.4f}, |iota mean| = {iota_mean:.2e}, "
        f"solver {run['elapsed']:.1f}s",
    )


def test_criterion_02_mixed_volatility_reproduction():
    model = sign_volatility_model()
    grid = build_time_grid(1.0, N_STEPS)
    driver = sample_brownian(grid, N_PATHS, 1, seed=SEED + 1)
    mixed = simulate_forward(
        model, MeasurePolicy.constant([0.5, 0.5]), driver, grid
    )
    exact_zero = bool(np.all(mixed.states == 0.0))
    strict = simulate_forward(model, MeasurePolicy.dirac(1, 2), driver, grid)
    sq = strict.states[:, -1, 0] ** 2
    se = sq.std(ddof=1) / math.sqrt(sq.size)
    dev = abs(float(sq.mean()) - grid.horizon)
    ok = exact_zero and dev <= 3 * se
    _conclude(
        2,
        "mixed-volatility example",
        ok,
        f"mixed paths identically zero: {exact_zero}; |E[x_T^2] - T| = {dev:.4f} "
        f"vs 3SE = {3 * se:.4f}",
    )


def test_criterion_03_perturbation_quadratic_bound():
    model = on_off_volatility_model()
    grid = build_time_grid(1.0, N_STEPS)
    driver = sample_brownian(grid, 10_000, 1, seed=SEED + 2)
    pi = MeasurePolicy.dirac(0, 2)
    q = MeasurePolicy.dirac(1, 2)
    base = simulate_forward(model, pi, driver, grid)
    details = []
    ok = True
    for eps in (0.1, 0.05, 0.025):
        pert = simulate_forward(model, convex_combine(pi, q, eps), driver, grid)
        peak = float(np.max(np.mean((pert.states - base.states) ** 2, axis=0)))
        bound = 4.0 * grid.horizon * eps**2
        ok &= peak <= bound
        details.append(f"eps={eps}: {peak:.2e} <= {bound:.2e}")
    _conclude(3, "O(eps^2) perturbation bound", ok, "; ".join(details))


def test_criterion_04_derivative_directional_checks():
    rng = np.random.default_rng(SEED + 3)
    sample = EmpiricalSample(rng.standard_normal(10_000))
    risks = {
        "mean_deviation(0.5)": RiskFunction.mean_deviation(0.5),
        "smoothed_semideviation(0.5,0.1)": RiskFunction.smoothed_semideviation(0.5, 0.1),
        "entropic(1)": RiskFunction.entropic(1.0),
    }
    worst = {}
    for name, risk in risks.items():
        errs = []
        for _ in range(20):
            d = rng.standard_normal(10_000)
            d /= np.linalg.norm(d)
            errs.append(directional_derivative_check(risk, sample, d, 1e-4).abs_error)
        worst[name] = max(errs)
    ok = all(v <= 1e-6 for v in worst.values())
    _conclude(
        4,
        "derivative finite-difference agreement",
        ok,
        "; ".join(f"{k}: {v:.2e}" for k, v in worst.items()),
    )


def test_criterion_05_coherence_axioms():
    rng = np.random.default_rng(SEED + 4)
    beta, eps = 0.5, 0.1
    md = RiskFunction.mean_deviation(beta)
    sm = RiskFunction.smoothed_semideviation(beta, eps)
    en = RiskFunction.entropic(1.0)

    x = rng.standard_normal(300)
    trans = 0.0
    for risk in (md, sm, en):
        base = evaluate(risk, EmpiricalSample(x))
        for _ in range(20):
            a = float(rng.uniform(-4, 4))
            trans = max(trans, abs(evaluate(risk, EmpiricalSample(x + a)) - base - a))

    homog = 0.0
    for lam in (0.5, 2.0, 10.0):
        homog = max(
            homog,
            abs(
                evaluate(md, EmpiricalSample(lam * x))
                - lam * evaluate(md, EmpiricalSample(x))
            )
            / lam,
        )
        # smoothed variant: homogeneous jointly with its smoothing width
        sm_l = RiskFunction.smoothed_semideviation(beta, eps * lam)
        homog = max(
            homog,
            abs(
                evaluate(sm_l, EmpiricalSample(lam * x))
                - lam * evaluate(sm, EmpiricalSample(x))
            )
            / lam,
        )

    convexity = -math.inf
    for _ in range(100):
        u = rng.standard_normal(200)
        v = rng.standard_normal(200)
        for risk in (md, sm, en):
            for lam in (0.25, 0.5, 0.75):
                lhs = evaluate(risk, EmpiricalSample(lam * u + (1 - lam) * v))
                rhs = lam * evaluate(risk, EmpiricalSample(u)) + (1 - lam) * evaluate(
                    risk, EmpiricalSample(v)
                )
                convexity = max(convexity, lhs - rhs)

    sandwich_ok = True
    for _ in range(100):
        y = rng.standard_normal(int(rng.integers(2, 400)))
        m = y.mean()
        plain = m + beta * np.maximum(y - m, 0.0).mean()
        gap = evaluate(sm, EmpiricalSample(y)) - plain
        sandwich_ok &= 0.0 < gap <= eps * beta * math.log(2.0)

    ok = trans <= 1e-12 and homog <= 1e-12 and convexity <= 1e-12 and sandwich_ok
    _conclude(
        5,
        "coherence axioms",
        ok,
        f"translation {trans:.1e}, homogeneity {homog:.1e}, "
        f"convexity violation {convexity:.1e}, sandwich {sandwich_ok}",
    )


def test_criterion_06_martingale_property(setup, wide_entropic_adjoint):
    adj = wide_entropic_adjoint["adjoint"]
    mart = martingale_diagnostics(adj.yprime)
    risk_aware_ok = bool(np.all(mart.within_3se))

    ens = wide_entropic_adjoint["ensemble"]
    yprime, zprime, _ = solve_risk_adjustment(
        ens, np.ones(ens.n_paths), RegressionBasis(degree=2)
    )
    neutral_ok = np.abs(yprime - 1.0).max() <= 1e-8 and np.abs(zprime).max() <= 1e-8
    ok = risk_aware_ok and neutral_ok
    _conclude(
        6,
        "martingale property of y'",
        ok,
        f"risk-aware max drift {mart.max_drift:.2e} (all within 3SE: {risk_aware_ok}); "
        f"risk-neutral |y'-1| {np.abs(yprime - 1.0).max():.1e}, "
        f"|z'| {np.abs(zprime).max():.1e}",
    )


def test_criterion_07_adjoint_identity(wide_entropic_adjoint):
    adj = wide_entropic_adjoint["adjoint"]
    rel_y = float(
        np.linalg.norm(adj.y[:, :, 0] + adj.yprime) / np.linalg.norm(adj.yprime)
    )
    rel_z = float(
        np.linalg.norm(adj.z[:, :, 0, 0] + adj.zprime[:, :, 0])
        / np.linalg.norm(adj.zprime)
    )
    ok = rel_y <= 1e-2 and rel_z <= 1e-2
    _conclude(
        7,
        "adjoint identity y=-y', z=-z'",
        ok,
        f"rel y {rel_y:.2e}, rel z {rel_z:.2e}",
    )


def test_criterion_08_variational_linearization():
    def drift(t, x, a):
        return a[0] - 0.5 * np.sin(x)

    def drift_dx(t, x, a):
        return (-0.5 * np.cos(x))[:, :, None]

    def diffusion(t, x, a):
        return (0.3 * a[0] + 0.1 * np.sin(x))[:, :, None]

    def diffusion_dx(t, x, a):
        return (0.1 * np.cos(x))[:, :, None, None]

    model = make_model(
        [0.5, 1.0],
        drift=drift,
        drift_dx=drift_dx,
        diffusion=diffusion,
        diffusion_dx=diffusion_dx,
        x0=0.2,
    )
    grid = build_time_grid(1.0, 40)
    driver = sample_brownian(grid, 4000, 1, seed=SEED + 5)
    pi = MeasurePolicy.dirac(0, 2)
    q = MeasurePolicy.dirac(1, 2)
    ens = simulate_forward(model, pi, driver, grid)
    delta, _ = simulate_variational(model, ens, q)
    ratios = []
    for alpha in (0.2, 0.1, 0.05):
        pert = simulate_forward(model, convex_combine(pi, q, alpha), driver, grid)
        resid = pert.states - ens.states - alpha * delta
        ratios.append(
            float(np.sqrt(np.mean(resid[:, :, 0] ** 2, axis=0)).max()) / alpha
        )
    ok = ratios[1] <= ratios[0] and ratios[2] <= ratios[1]
    _conclude(
        8,
        "variational o(alpha) evidence",
        ok,
        "residual/alpha = " + ", ".join(f"{r:.5f}" for r in ratios),
    )


def test_criterion_09_risk_aware_optimality(setup, mean_dev_run, entropic_run):
    params, grid, driver = setup["params"], setup["grid"], setup["driver"]
    phis = np.linspace(params.phi_low, params.phi_high, N_ACTIONS)
    details = []
    ok = True
    for run, label in ((mean_dev_run, "mean_deviation"), (entropic_run, "entropic")):
        bf = brute_force_constant_policy(params, run["risk"], phis, driver, grid)
        final_obj = run["report"].objectives[-1]
        se = run["report"].objective_ses[-1]
        ok &= final_obj <= bf.best_value + 2.0 * se
        details.append(
            f"{label}: msa {final_obj:.6f} vs best {bf.best_value:.6f} "
            f"(+2SE {2 * se:.1e})"
        )

    # entropic value table against the closed-form log-normal cost values
    theta = 1.0
    risk = entropic_run["risk"]
    bf = brute_force_constant_policy(params, risk, phis, driver, grid)
    worst_sigma = 0.0
    from riskmp.portfolio import _model_on_atoms

    for phi, value in zip(bf.phis, bf.values):
        drift_phi = (
            params.r + (params.mu - params.r) * phi - 0.5 * params.sigma**2 * phi**2
        )
        closed = (
            -params.x0
            - drift_phi * params.horizon
            + 0.5 * theta * params.sigma**2 * phi**2 * params.horizon
        )
        m = _model_on_atoms(params, np.array([[phi]]))
        ens = simulate_forward(m, MeasurePolicy.dirac(0, 1), driver, grid)
        se = bootstrap_standard_error(
            risk, EmpiricalSample(total_cost(ens, m)), n_boot=100, seed=1
        )
        worst_sigma = max(worst_sigma, abs(value - closed) / se)
    ok &= worst_sigma <= 3.0
    details.append(f"entropic table worst dev {worst_sigma:.2f} SE")
    _conclude(9, "risk-aware optimality vs oracle", ok, "; ".join(details))


def test_criterion_10_byte_identical_solves(tmp_path):
    cfg = {
        "problem": {"type": "portfolio", "phi_low": 0.1, "phi_high": 1.5},
        "risk": {"type": "entropic", "theta": 1.0},
        "sim": {"n_steps": 25, "n_paths": 4000, "n_actions": 15},
        "basis": {"degree": 3, "ridge": 1e-08},
        "msa": {"max_iters": 8, "tol": 1e-06},
        "init_policy": "uniform",
        "seed": SEED,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    # Runs with OpenBLAS on one thread and on two, each in a fresh process
    # since the BLAS thread count is fixed when numpy loads, and two repeats
    # in this process, which must not carry state from one solve to the next.
    outs = [tmp_path / d for d in ("a", "b", "c", "d")]
    names = [solve_in_subprocess(path, outs[0], 1)]
    for out in outs[1:3]:
        assert cli_main(["solve", "--config", str(path), "--out", str(out)]) == 0
        names.append(sorted(p.name for p in out.iterdir()))
    names.append(solve_in_subprocess(path, outs[3], 2))
    all_names = sorted(set().union(*names))
    mismatched = [
        name
        for name in all_names
        if len({
            (out / name).read_bytes() if (out / name).exists() else None
            for out in outs
        }) != 1
    ]
    _conclude(
        10,
        "byte-identical repeated solves",
        not mismatched,
        f"compared {len(all_names)} files at 1 and 2 OpenBLAS threads"
        " and across two solves in one process"
        + (f"; mismatched: {mismatched}" if mismatched else ""),
    )
