"""Command-line entry point: simulate, solve, verify, report.

Configuration is a single JSON document; outputs are CSV tables with a
one-line `# config_hash=... seed=...` header plus JSON summaries carrying the
same stamp, so any result file can be traced to the exact configuration and
seed that produced it.  Runs are deterministic: all randomness flows from the
config seed through counter-based per-path streams, reductions are
fixed-order, and no timestamps or host data are written.

Exit codes: 0 success, 1 runtime failure (with error.json in the output
directory), 2 configuration error.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .adjoint import RegressionBasis, martingale_diagnostics, solve_adjoint_system
from .control import IterationRecord, MsaConfig, msa_solve, policy_entropy
from .errors import (
    ConfigInvalid,
    InvalidBounds,
    NonPositiveAdjustment,
    RiskmpError,
)
from .models import (
    CUSTOM_TABLE_KEYS,
    model_from_tables,
    on_off_volatility_model,
    sign_volatility_model,
)
from .portfolio import PortfolioParams, build_portfolio_model, risk_premium
from .risk import EmpiricalSample, RiskFunction, evaluate, l_derivative
from .sde import (
    MeasurePolicy,
    build_time_grid,
    check_feasibility,
    sample_brownian,
    simulate_forward,
    total_cost,
)
from .verification import run_checks

# The config schema.  Every key a config may set is listed here; anything
# else is a typo that would change config_hash without changing the run, so
# load_config rejects it.  load_config fills in the `_DEFAULTS` sections, so
# their values are part of the effective config and its hash; problem and
# risk defaults are applied only when the experiment is built.
_DEFAULTS = {
    "sim": {"n_steps": 50, "n_paths": 20_000, "n_actions": 31},
    "basis": {f.name: f.default for f in dataclasses.fields(RegressionBasis)},
    "msa": {
        f.name: f.default for f in dataclasses.fields(MsaConfig) if f.name != "seed"
    },
}
# Problem types and their keys.  The portfolio takes its defaults from
# PortfolioParams; the other problems default only `horizon`, to 1.0.
_PORTFOLIO_DEFAULTS = {f.name: f.default for f in dataclasses.fields(PortfolioParams)}
_PROBLEMS = {
    "portfolio": set(_PORTFOLIO_DEFAULTS),
    "example1": {"horizon"},
    "example2": {"horizon"},
    "custom": {"horizon", *CUSTOM_TABLE_KEYS},
}
# Risk types, each a RiskFunction constructor, with its parameters' defaults.
_BETA = {"beta": 0.5}
_RISKS = {
    "expectation": {},
    "mean_deviation": _BETA,
    "smoothed_semideviation": {**_BETA, "epsilon": 0.1},
    "entropic": {"theta": 1.0},
}
_INIT_POLICY_KEYS = {"dirac": {"atom"}, "constant": {"weights"}}


def config_hash(cfg):
    """Short stable hash of the effective configuration."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _fail(msg):
    raise ConfigInvalid(msg)


def _type_of(section):
    """The "type" of a config section when it is a string, else None.

    A list or object would be unhashable, so it must not reach a lookup in
    a dict of types.
    """
    kind = section.get("type") if isinstance(section, dict) else None
    return kind if isinstance(kind, str) else None


def _check_keys(section, allowed, where):
    """Reject a non-object section or any key outside allowed."""
    if not isinstance(section, dict):
        _fail(f"{where} must be an object")
    for key in sorted(set(section) - set(allowed)):
        _fail(f"unknown config key '{where + '.' if where else ''}{key}'")


def _check_known_keys(cfg):
    _check_keys(cfg, {"problem", "risk", "init_policy", "seed", *_DEFAULTS}, "")
    for name, defaults in _DEFAULTS.items():
        _check_keys(cfg.get(name, {}), defaults, name)
    problem = cfg["problem"]
    _check_keys(problem, {"type"} | _PROBLEMS[problem["type"]], "problem")
    if problem["type"] == "custom":
        for name, allowed in CUSTOM_TABLE_KEYS.items():
            if allowed is not None and name in problem:
                _check_keys(problem[name], allowed, f"problem.{name}")
    risk = cfg["risk"]
    _check_keys(risk, {"type", *_RISKS[risk["type"]]}, "risk")
    init = cfg["init_policy"]
    if _type_of(init) in _INIT_POLICY_KEYS:
        allowed = {"type"} | _INIT_POLICY_KEYS[init["type"]]
        _check_keys(init, allowed, "init_policy")


def load_config(path, seed_override=None):
    """Parse, default-fill, and validate an experiment configuration."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        _fail(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        _fail(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        _fail("config root must be an object")

    cfg.setdefault("init_policy", "uniform")
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    if "seed" not in cfg:
        _fail("config must set an explicit seed")

    for name, kinds in (("problem", _PROBLEMS), ("risk", _RISKS)):
        if _type_of(cfg.get(name)) not in kinds:
            _fail(f"{name}.type must be one of {tuple(kinds)}")
    _check_known_keys(cfg)

    for name, defaults in _DEFAULTS.items():
        cfg[name] = {**defaults, **cfg.get(name, {})}
    return cfg


def _integer(key, value):
    """value as an int; anything but an integral number is a config error."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        _fail(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(key, value):
    """value as a float; a bool, a non-number or NaN/inf is a config error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{key} must be a number, got {value!r}")
    # An exact comparison: NaN fails it, and an int too large for a float
    # fails it instead of overflowing.
    if not -sys.float_info.max <= value <= sys.float_info.max:
        _fail(f"{key} must be finite, got {value!r}")
    return float(value)


_CASTS = {int: _integer, float: _real}


def _cast(section, where, defaults):
    """section without its type, each value cast to the type of its default."""
    return {
        k: _CASTS[type(defaults[k])](f"{where}.{k}", v)
        for k, v in section.items() if k != "type"
    }


def _section(cfg, name):
    """A filled-in `_DEFAULTS` section, cast by `_cast`."""
    return _cast(cfg[name], name, _DEFAULTS[name])


def _section_dataclass(cls, cfg, name, **extra):
    """cls built from the cast `_DEFAULTS` section name, and extra.

    Its ValueErrors start with the name of a field, which becomes the dotted
    key.
    """
    try:
        return cls(**_section(cfg, name), **extra)
    except ValueError as exc:
        _fail(f"{name}.{exc}")


def _table_numbers(key, value):
    """Check each number in value, through lists and objects, with `_real`.

    problem.growth.pbar3 may also be +inf, as a number or as the string
    "inf" or "Infinity".
    """
    if isinstance(value, dict):
        for sub, item in value.items():
            _table_numbers(f"{key}.{sub}", item)
    elif isinstance(value, list):
        for item in value:
            _table_numbers(key, item)
    elif not (
        key == "problem.growth.pbar3" and value in ("inf", "Infinity", math.inf)
    ):
        _real(key, value)


def _custom_tables(problem):
    """The custom problem with integer dims and finite numbers in its tables.

    The growth exponent pbar3 may also be +inf.
    """
    dims = {
        k: _integer(f"problem.{k}", problem[k])
        for k in ("dim_x", "dim_w") if k in problem
    }
    for k, value in problem.items():
        if k in CUSTOM_TABLE_KEYS and k not in dims:
            _table_numbers(f"problem.{k}", value)
    return {**problem, **dims}


def _portfolio_params(problem):
    """PortfolioParams of a portfolio problem.

    Its errors start with the name of a field, which becomes the dotted key.
    """
    try:
        return PortfolioParams(**_cast(problem, "problem", _PORTFOLIO_DEFAULTS))
    except InvalidBounds as exc:
        _fail(f"problem.{exc}")


# The most elements one path array of a solve may hold.  The largest arrays a
# solve allocates hold a value per path and time node for each atom (the kept
# policy weights) or for each of dim_x * dim_w entries (the adjoint z).  At
# 2**30 float64 such an array takes 8 GiB, and a solve holds several at once,
# so a larger run cannot finish in memory; far larger ones failed inside numpy
# with errors that named no config key.
MAX_PATH_ARRAY_ELEMENTS = 2**30


def _check_sim_sizes(sim, width, width_key):
    """Reject too few steps or paths, and path arrays past their bound.

    width is the values per path and time node, named width_key.
    """
    n_steps, n_paths = sim["n_steps"], sim["n_paths"]
    if n_steps < 1:
        _fail(f"sim.n_steps must be >= 1, got {n_steps}")
    if n_paths < 2:
        _fail(f"sim.n_paths must be >= 2, got {n_paths}")
    if n_paths * (n_steps + 1) * width > MAX_PATH_ARRAY_ELEMENTS:
        _fail(
            f"sim.n_paths * (sim.n_steps + 1) * {width_key} must be at most "
            f"{MAX_PATH_ARRAY_ELEMENTS} path-array elements, got "
            f"{n_paths} * {n_steps + 1} * {width}"
        )


def build_experiment(cfg):
    """Instantiate model, grid, driver, risk, basis, and policies from config.

    Raises ConfigInvalid on any invalid parameter, including feasibility
    violations of the problem's growth exponents.
    """
    problem = cfg["problem"]
    try:
        sim = _section(cfg, "sim")
        seed = _integer("seed", cfg["seed"])
        params = None
        if problem["type"] == "portfolio":
            params = _portfolio_params(problem)
            if sim["n_actions"] < 2:
                _fail(f"sim.n_actions must be >= 2, got {sim['n_actions']}")
            _check_sim_sizes(sim, sim["n_actions"], "sim.n_actions")
            model = build_portfolio_model(params, sim["n_actions"])
        elif problem["type"] == "example1":
            model = sign_volatility_model()
        elif problem["type"] == "example2":
            model = on_off_volatility_model()
        else:
            model = model_from_tables(_custom_tables(problem))
        if params is None:
            width = max(model.n_atoms, model.dim_x * model.dim_w)
            _check_sim_sizes(sim, width, "max(atoms, dim_x * dim_w)")
        horizon = (
            params.horizon if params
            else _real("problem.horizon", problem.get("horizon", 1.0))
        )

        kind = cfg["risk"]["type"]
        values = {**_RISKS[kind], **_cast(cfg["risk"], "risk", _RISKS[kind])}
        try:
            risk = getattr(RiskFunction, kind)(**values)
        except ValueError as exc:  # its message starts with the field name
            _fail(f"risk.{exc}")

        grid = build_time_grid(horizon, sim["n_steps"])
        n_paths = sim["n_paths"]
        basis = _section_dataclass(RegressionBasis, cfg, "basis")
        # The feature count comb(dim_x + degree, degree) - 1 grows with the
        # degree, and exceeds n_paths at degree n_paths + 1 already, so it is
        # counted at no higher degree: the design would not fit in memory.
        degree = min(basis.degree, n_paths + 1)
        if math.comb(model.dim_x + degree, degree) - 1 > n_paths:
            _fail(
                "basis.degree must give at most sim.n_paths = "
                f"{n_paths} regression features, got {cfg['basis']['degree']!r}"
            )
        msa_cfg = _section_dataclass(MsaConfig, cfg, "msa", seed=seed)
        init = _init_policy(cfg["init_policy"], model.n_atoms)
        table = getattr(init, "weights", None)  # a constant policy's rows
        allowed = {(1, model.n_atoms), (grid.n_steps, model.n_atoms)}
        if table is not None and table.shape not in allowed:
            _fail(
                f"init_policy.weights must be 1 or {grid.n_steps} rows of "
                f"{model.n_atoms} atoms, got shape {table.shape}"
            )
    except RiskmpError as exc:
        raise ConfigInvalid(str(exc)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad configuration value: {exc}") from exc

    if model.growth is not None:
        report = check_feasibility(model.growth)
        if not report.feasible:
            bad = "; ".join(name for name, ok, _ in report.checks if not ok)
            _fail(f"problem exponents are infeasible: {bad}")

    return {
        "model": model,
        "params": params,
        "risk": risk,
        "grid": grid,
        "basis": basis,
        "msa": msa_cfg,
        "init": init,
        "n_paths": n_paths,
        "seed": seed,
    }


def _init_policy(spec, n_atoms):
    if spec == "uniform":
        return MeasurePolicy.uniform(n_atoms)
    if isinstance(spec, dict) and spec.get("type") == "dirac":
        atom = spec["atom"]
        if isinstance(atom, bool) or not isinstance(atom, int):
            _fail(f"init_policy.atom must be an integer, got {atom!r}")
        try:
            return MeasurePolicy.dirac(atom, n_atoms)
        except ValueError as exc:
            _fail(f"init_policy.atom: {exc}")
    if isinstance(spec, dict) and spec.get("type") == "constant":
        return MeasurePolicy.constant(spec["weights"])
    _fail(f"unsupported init_policy {spec!r}")


# ------------------------------------------------------------------ file IO

def _fmt(v):
    if isinstance(v, float):
        return repr(float(v))  # shortest round-trip form, numpy scalars included
    return str(v)


def _write_csv(path, stamp, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={stamp[0]} seed={stamp[1]}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path, stamp, payload):
    doc = {"config_hash": stamp[0], "seed": stamp[1]}
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_stamp(path):
    with open(path) as fh:
        line = fh.readline().strip()
    if not line.startswith("# config_hash="):
        _fail(f"{os.path.basename(path)} carries no config stamp")
    try:
        hash_part, seed_part = line[2:].split(" ")
        return hash_part.split("=")[1], int(seed_part.split("=")[1])
    except (IndexError, ValueError):
        _fail(f"{os.path.basename(path)} has a malformed stamp line")


# ----------------------------------------------------------------- commands

def _policy_step_stats(model, grid, ensemble):
    """Per-step mean action, mean weights, and entropy of the ensemble's policy."""
    atoms = model.action_grid
    rows = []
    tables = []
    for k in range(grid.n_steps):
        w = ensemble.weights_at(k)
        mean_w = w.mean(axis=0)
        mean_action = float(mean_w @ atoms[:, 0]) if model.dim_a == 1 else float("nan")
        rows.append((k, float(grid.nodes[k]), mean_action, policy_entropy(w)))
        tables.append(mean_w)
    return rows, tables


def cmd_simulate(exp, out_dir, stamp):
    model, grid = exp["model"], exp["grid"]
    driver = sample_brownian(grid, exp["n_paths"], model.dim_w, exp["seed"])
    ens = simulate_forward(model, exp["init"], driver, grid)
    costs = total_cost(ens, model)

    rows = []
    for k in range(grid.n_steps + 1):
        xk = ens.states[:, k]
        row = [k, float(grid.nodes[k])]
        for i in range(model.dim_x):
            row += [float(xk[:, i].mean()), float(xk[:, i].std())]
        row.append(float(ens.running_cost[:, k].mean()))
        rows.append(row)
    header = ["step", "time"]
    for i in range(model.dim_x):
        header += [f"x{i}_mean", f"x{i}_std"]
    header.append("running_cost_mean")
    _write_csv(os.path.join(out_dir, "paths_summary.csv"), stamp, header, rows)

    _write_json(
        os.path.join(out_dir, "cost_summary.json"),
        stamp,
        {
            "n_paths": exp["n_paths"],
            "cost_mean": float(costs.mean()),
            "cost_std": float(costs.std(ddof=1)),
            "risk_value": evaluate(exp["risk"], EmpiricalSample(costs)),
            # diagnostic: terminal values are unbounded, the sample max grows
            # with the path count
            "max_abs_terminal_state": float(np.abs(ens.states[:, -1]).max()),
        },
    )
    return 0


def cmd_solve(exp, out_dir, stamp):
    model, grid, risk, basis = exp["model"], exp["grid"], exp["risk"], exp["basis"]
    driver = sample_brownian(grid, exp["n_paths"], model.dim_w, exp["seed"])
    policy, report = msa_solve(
        model, risk, exp["init"], exp["msa"], driver, basis, grid
    )

    _write_csv(
        os.path.join(out_dir, "objective_trace.csv"),
        stamp,
        [f.name for f in dataclasses.fields(IterationRecord)],
        [dataclasses.astuple(r) for r in report.records],
    )

    ens = simulate_forward(model, policy, driver, grid, keep_weights=True)
    costs = total_cost(ens, model)
    deriv = l_derivative(risk, EmpiricalSample(costs))
    adj = solve_adjoint_system(model, ens, deriv, basis)
    mart = martingale_diagnostics(adj.yprime)

    policy_rows, weight_tables = _policy_step_stats(model, grid, ens)
    _write_csv(
        os.path.join(out_dir, "policy_mean.csv"),
        stamp,
        ["step", "time", "mean_action", "entropy"],
        policy_rows,
    )
    table_rows = []
    for k, mean_w in enumerate(weight_tables):
        for j in range(model.n_atoms):
            table_rows.append(
                (k, j, float(model.action_grid[j, 0]), float(mean_w[j]))
            )
    _write_csv(
        os.path.join(out_dir, "policy_table.csv"),
        stamp,
        ["step", "atom", "action", "mean_weight"],
        table_rows,
    )

    _write_csv(
        os.path.join(out_dir, "adjoint_summary.csv"),
        stamp,
        ["step", "time", "yprime_mean", "yprime_drift", "drift_se"],
        [
            (
                k,
                float(grid.nodes[k]),
                float(adj.yprime[:, k].mean()),
                float(mart.drift[k]),
                float(mart.standard_error[k]),
            )
            for k in range(grid.n_steps + 1)
        ],
    )

    premium_stats = None
    if exp["params"] is not None:
        try:
            iota = risk_premium(adj.yprime, adj.zprime, exp["params"].sigma)
            _write_csv(
                os.path.join(out_dir, "risk_premium.csv"),
                stamp,
                ["step", "time", "iota_mean", "iota_std"],
                [
                    (
                        k,
                        float(grid.nodes[k]),
                        float(iota[:, k].mean()),
                        float(iota[:, k].std()),
                    )
                    for k in range(grid.n_steps)
                ],
            )
            premium_stats = {
                # Summed in path-major order, whatever the adjoints' layout.
                "iota_mean": float(np.ascontiguousarray(iota).mean()),
                "iota_abs_max": float(np.abs(iota).max()),
            }
        except NonPositiveAdjustment as exc:
            premium_stats = {"unavailable": str(exc)}

    mean_actions = [row[2] for row in policy_rows]
    last = report.records[-1]
    _write_json(
        os.path.join(out_dir, "solve_summary.json"),
        stamp,
        {
            "iterations": report.n_iters,
            "converged": report.converged,
            "max_iters_exceeded": report.max_iters_exceeded,
            "best_iter": report.best_iter,
            "non_monotone_iters": report.non_monotone_iters,
            "final_objective": last.objective,
            "final_objective_se": last.objective_se,
            "final_hamiltonian_gap": last.hamiltonian_gap,
            "mean_action_min": min(mean_actions),
            "mean_action_max": max(mean_actions),
            "risk_premium": premium_stats,
        },
    )
    return 0


def cmd_verify(exp, out_dir, stamp):
    # The config only stamps the table; the invariant suite runs on its own
    # fixed seeds and sizes.
    rows = run_checks()
    _write_csv(
        os.path.join(out_dir, "verify_report.csv"),
        stamp,
        ["name", "passed", "detail"],
        [(r.name, r.passed, r.detail) for r in rows],
    )
    failed = [r for r in rows if not r.passed]
    for r in rows:
        print(f"{'PASS' if r.passed else 'FAIL':4} {r.name:36} {r.detail}")
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
    return 1 if failed else 0


def cmd_report(exp, out_dir, stamp):
    """Render plot-ready tables from a prior solve in the same directory."""
    wanted = {
        "objective_trace.csv": (
            "report_objective.csv", ["iter", "objective", "objective_se"]
        ),
        "policy_mean.csv": ("report_policy_vs_time.csv", ["time", "mean_action"]),
        "risk_premium.csv": (
            "report_risk_premium.csv", ["time", "iota_mean", "iota_std"]
        ),
    }
    rendered = 0
    for name, (out_name, columns) in wanted.items():
        src = os.path.join(out_dir, name)
        if not os.path.exists(src):
            if name == "risk_premium.csv":
                continue  # not produced for non-portfolio problems
            _fail(f"missing input {name}; run `solve` first")
        file_hash, file_seed = _read_stamp(src)
        if file_hash != stamp[0] or file_seed != stamp[1]:
            _fail(
                f"{name} was produced by config_hash={file_hash} seed={file_seed}, "
                f"not the given config (hash={stamp[0]} seed={stamp[1]})"
            )
        with open(src) as fh:
            fh.readline()
            rows = [[row[c] for c in columns] for row in csv.DictReader(fh)]
        _write_csv(os.path.join(out_dir, out_name), stamp, columns, rows)
        rendered += 1
    print(f"rendered {rendered} report tables in {out_dir}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "report": cmd_report,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="riskmp",
        description="Risk-aware stochastic control: simulate, solve, verify, report.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = load_config(args.config, args.seed)
        exp = build_experiment(cfg)  # fail fast on bad configs for every command
        stamp = (config_hash(cfg), exp["seed"])
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    try:
        if args.command != "report":
            # `report` only reads an existing run; do not touch its record.
            with open(os.path.join(args.out, "run_config.json"), "w") as fh:
                json.dump(
                    {"config_hash": stamp[0], "effective_config": cfg},
                    fh,
                    sort_keys=True,
                    indent=2,
                )
                fh.write("\n")
        return _COMMANDS[args.command](exp, args.out, stamp)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RiskmpError as exc:
        record = {
            "config_hash": stamp[0],
            "seed": stamp[1],
            "error": type(exc).__name__,
            "message": str(exc),
        }
        with open(os.path.join(args.out, "error.json"), "w") as fh:
            json.dump(record, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
