"""Workload configs, the constant-policy oracle and the per-run output check.

Each workload is one of the bundled problems (`configs/*.json`) copied here,
so that editing a bundled config does not silently change the benchmark.
Path counts are cut (20k -> 4k, 3k for the entropic solve whose cost grows
fastest; 100k -> 20k), which keeps a solve under 10 seconds, so that one run
can repeat it at least three times and report a median.  The config seed
is the benchmark's `--seed`.
"""

import copy
import json
import os

from riskmp import cli
from riskmp.control import objective
from riskmp.sde import MeasurePolicy

_PORTFOLIO = {
    "type": "portfolio",
    "r": 0.02,
    "mu": 0.08,
    "sigma": 0.3,
    "phi_low": 0.1,
    "phi_high": 1.5,
    "x0": 0.0,
    "horizon": 1.0,
}
_PORTFOLIO_MSA = {
    "max_iters": 25,
    "damping_base": 0.5,
    "damping_scale": 10.0,
    "eta": 1e-09,
    "tol": 0.0001,
    "n_boot": 200,
}
_CUSTOM = {
    "type": "custom",
    "horizon": 1.0,
    "dim_x": 1,
    "dim_w": 1,
    "action_grid": [-1.0, 0.0, 1.0],
    "drift": {"const": [[-1.0], [0.0], [1.0]], "x": [[-0.5]]},
    "diffusion": {"const": [[[0.2]], [[0.2]], [[0.2]]]},
    "cost": {"const": [0.1, 0.0, 0.1], "x": [0.0]},
    "terminal": {"const": 0.0, "x": [1.0]},
    "x0": [0.5],
    "growth": {
        "L": 2.0, "pbar1": 1.0, "pbar2": 1.0, "pbar3": "inf", "pbar": 8.0,
        "p1": 1.0, "p2": 1.0, "p1_prime": 1.0, "p2_prime": 0.0, "p": 2.0,
    },
}

WORKLOADS = {
    # configs/portfolio_riskneutral.json: fits degrade to constants, so the
    # mixture stays at one component and the 31-atom tables dominate.
    "portfolio-rn": {
        "problem": _PORTFOLIO,
        "risk": {"type": "expectation"},
        "sim": {"n_steps": 50, "n_paths": 4000, "n_actions": 31},
        "basis": {"degree": 3, "ridge": 1e-08},
        "msa": _PORTFOLIO_MSA,
        "init_policy": "uniform",
    },
    # configs/portfolio_entropic.json: state-dependent fits pile up into a
    # growing mixture, so forward simulation, post-solve recompute and kept
    # weights dominate.
    "portfolio-entropic": {
        "problem": _PORTFOLIO,
        "risk": {"type": "entropic", "theta": 1.0},
        "sim": {"n_steps": 50, "n_paths": 3000, "n_actions": 31},
        "basis": {"degree": 3, "ridge": 1e-08},
        "msa": _PORTFOLIO_MSA,
        "init_policy": "uniform",
    },
    # configs/custom_linear.json at 20k paths: 3 atoms, real state Jacobians,
    # bootstrap SE of the smoothed semideviation and the largest driver.
    "custom-wide": {
        "problem": _CUSTOM,
        "risk": {"type": "smoothed_semideviation", "beta": 0.5, "epsilon": 0.1},
        "sim": {"n_steps": 25, "n_paths": 20000},
        "basis": {"degree": 2, "ridge": 1e-08},
        "msa": {"max_iters": 10, "tol": 0.0001},
        "init_policy": "uniform",
    },
}

# criterion 09: a converged solve is within 2 standard errors of the oracle
EXCESS_LIMIT_SE = 2.0


def make_config(workload, seed):
    """The config document of a workload at a seed."""
    cfg = copy.deepcopy(WORKLOADS[workload])
    cfg["seed"] = int(seed)
    return cfg


def write_config(cfg, path):
    with open(path, "w") as fh:
        json.dump(cfg, fh, sort_keys=True, indent=2)
        fh.write("\n")


def set_up(config_path):
    """The solve's own set-up, timed as `setup_s`: config, experiment, driver."""
    cfg = cli.load_config(config_path)
    exp = cli.build_experiment(cfg)
    driver = cli.sample_brownian(
        exp["grid"], exp["n_paths"], exp["model"].dim_w, exp["seed"]
    )
    return cfg, exp, driver


def oracle_best(exp, driver):
    """Objective of the best constant Dirac policy on the solve's driver."""
    model = exp["model"]
    return min(
        objective(model, exp["risk"], MeasurePolicy.dirac(j, model.n_atoms),
                  driver, exp["grid"])
        for j in range(model.n_atoms)
    )


def _read_stamp(path):
    if path.endswith(".csv"):
        with open(path) as fh:
            first = fh.readline().split()
        if len(first) != 3 or first[0] != "#":
            return None
        try:
            return first[1].split("=", 1)[1], int(first[2].split("=", 1)[1])
        except (IndexError, ValueError):
            return None
    with open(path) as fh:
        doc = json.load(fh)
    return doc.get("config_hash"), doc.get("seed")


def check_run(rc, out_dir, stamp, oracle, reference_objective=None):
    """Check one solve's outputs.

    Returns (problems, summary): a list of failed checks (empty when the run
    is correct) and the solve summary with `objective_excess_se` added, or
    None when no summary could be read.
    """
    if rc != 0:
        return [f"exit code {rc}"], None
    summary_path = os.path.join(out_dir, "solve_summary.json")
    try:
        with open(summary_path) as fh:
            summary = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"solve_summary.json unreadable: {exc}"], None

    problems = []
    wanted = [
        "objective_trace.csv",
        "policy_mean.csv",
        "policy_table.csv",
        "adjoint_summary.csv",
        "solve_summary.json",
    ]
    if isinstance(summary.get("risk_premium"), dict) and (
        "iota_mean" in summary["risk_premium"]
    ):
        wanted.append("risk_premium.csv")
    for name in wanted:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"{name} missing")
        elif _read_stamp(path) != tuple(stamp):
            problems.append(f"{name} stamp {_read_stamp(path)} != {tuple(stamp)}")
    run_config = os.path.join(out_dir, "run_config.json")
    if not os.path.exists(run_config):
        problems.append("run_config.json missing")
    elif _read_stamp(run_config)[0] != stamp[0]:
        problems.append("run_config.json config_hash mismatch")

    final = summary["final_objective"]
    summary["objective_excess_se"] = (final - oracle) / summary["final_objective_se"]
    if reference_objective is not None and final != reference_objective:
        problems.append(
            f"final objective {final!r} differs from the first repeat's "
            f"{reference_objective!r}"
        )
    if summary["converged"] and summary["objective_excess_se"] > EXCESS_LIMIT_SE:
        problems.append(
            f"converged {summary['objective_excess_se']:.3f} SE above the "
            f"best constant policy (limit {EXCESS_LIMIT_SE})"
        )
    return problems, summary
