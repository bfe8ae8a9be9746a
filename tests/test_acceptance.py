"""Acceptance criteria, one test per criterion, at their stated tolerances.

Criteria 02-08 run checks of the invariant catalogue in
`riskmp.verification`, which `riskmp verify` runs at trimmed sizes, here at
full size.  Shared expensive runs (the three portfolio solves and the wide
adjoint ensemble) live in module-scoped fixtures.  Each test prints a single
PASS/FAIL line; run with `pytest -s` to see them inline.
"""

import json
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
    l_derivative,
    msa_solve,
    risk_premium,
    sample_brownian,
    simulate_forward,
    solve_adjoint_system,
    solve_risk_adjustment,
    total_cost,
)
from riskmp.cli import main as cli_main
from riskmp.portfolio import PortfolioParams, build_portfolio_model, merton_allocation
from riskmp.verification import (
    derivative_fd,
    example1_mixed_volatility,
    example2_perturbation_bound,
    martingale_property,
    portfolio_adjoint_identity,
    risk_convexity,
    risk_positive_homogeneity,
    risk_semideviation_sandwich,
    risk_translation_invariance,
    riskneutral_collapse,
    variational_linearization,
)

from conftest import solve_in_subprocess

SEED = 20240817
N_PATHS = 20_000
N_STEPS = 50
N_ACTIONS = 31


def _conclude(num, label, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _conclude_all(num, label, results):
    """Conclude a criterion made of several catalogue rows."""
    _conclude(
        num,
        label,
        all(r.passed for r in results),
        "; ".join(f"{r.name}: {r.detail}" for r in results),
    )


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
    _conclude_all(
        2, "mixed-volatility example", example1_mixed_volatility(SEED + 1, N_PATHS)
    )


def test_criterion_03_perturbation_quadratic_bound():
    result = example2_perturbation_bound(SEED + 2, 10_000)
    _conclude(3, "O(eps^2) perturbation bound", result.passed, result.detail)


def test_criterion_04_derivative_directional_checks():
    rows = derivative_fd(np.random.default_rng(SEED + 3))
    _conclude_all(4, "derivative finite-difference agreement", rows)


def test_criterion_05_coherence_axioms():
    rng = np.random.default_rng(SEED + 4)
    checks = (
        risk_translation_invariance,
        risk_positive_homogeneity,
        risk_convexity,
        risk_semideviation_sandwich,
    )
    _conclude_all(5, "coherence axioms", [check(rng) for check in checks])


def test_criterion_06_martingale_property(wide_entropic_adjoint):
    ens = wide_entropic_adjoint["ensemble"]
    rows = [
        martingale_property(wide_entropic_adjoint["adjoint"].yprime),
        riskneutral_collapse(ens, RegressionBasis(degree=2)),
    ]
    _conclude_all(6, "martingale property of y'", rows)


def test_criterion_07_adjoint_identity(wide_entropic_adjoint):
    result = portfolio_adjoint_identity(wide_entropic_adjoint["adjoint"])
    _conclude(7, "adjoint identity y=-y', z=-z'", result.passed, result.detail)


def test_criterion_08_variational_linearization():
    result = variational_linearization(SEED + 5, 4000)
    _conclude(8, "variational o(alpha) evidence", result.passed, result.detail)


def test_criterion_09_risk_aware_optimality(setup, mean_dev_run, entropic_run):
    params, grid, driver = setup["params"], setup["grid"], setup["driver"]
    phis = np.linspace(params.phi_low, params.phi_high, N_ACTIONS)
    details = []
    ok = True
    for run, label in ((mean_dev_run, "mean_deviation"), (entropic_run, "entropic")):
        bf = brute_force_constant_policy(params, run["risk"], phis, driver, grid)
        final_obj = run["report"].records[-1].objective
        se = run["report"].records[-1].objective_se
        ok &= final_obj <= bf.best_value + 2.0 * se
        details.append(
            f"{label}: msa {final_obj:.6f} vs best {bf.best_value:.6f} "
            f"(+2SE {2 * se:.1e})"
        )

    # entropic value table against the closed-form log-normal cost values;
    # the loop's last bf is the entropic brute force
    theta = 1.0
    risk = entropic_run["risk"]
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
