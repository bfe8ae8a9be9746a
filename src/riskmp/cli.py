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
import re
import sys

import numpy as np

from . import __version__
from .adjoint import RegressionBasis, martingale_diagnostics, solve_adjoint_system
from .control import IterationRecord, MsaConfig, msa_solve, policy_entropy
from .errors import ConfigInvalid, NonPositiveAdjustment, NumericalBlowup, RiskmpError
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


def _fields(cls, *skip):
    """The defaults of dataclass cls's fields, but skip's."""
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name not in skip}


# The config schema: every key a config may set, so that a typo, which would
# change config_hash without changing the run, is an error.  A key's entry is
# its default, whose type is the key's kind: an int is a count (`_integer`), a
# float a real number (`_real`), anything else a number table
# (`_table_numbers`).  A required key's entry is its kind itself, list for a
# table; an optional table's entry is None, its default the constructor's.
# An object's entry holds its own keys.  problem, risk and init_policy hold
# one object per type, and the string "uniform" is the init_policy of uniform
# weights.  Ranges are the constructors' to check.  load_config fills in the
# sim, basis and msa defaults, so they enter config_hash; the others are
# filled in when the experiment is built.
_SCHEMA = {
    "seed": int,
    "sim": {"n_steps": 50, "n_paths": 20_000},
    "basis": _fields(RegressionBasis),
    "msa": _fields(MsaConfig, "seed"),
    "problem": {
        "portfolio": _fields(PortfolioParams),
        "example1": {"horizon": 1.0},
        "example2": {"horizon": 1.0},
        "custom": {"horizon": 1.0, **CUSTOM_TABLE_KEYS},
    },
    "risk": {
        "expectation": {},
        "mean_deviation": {"beta": 0.5},
        "smoothed_semideviation": {"beta": 0.5, "epsilon": 0.1},
        "entropic": {"theta": 1.0},
    },
    "init_policy": {"dirac": {"atom": int}, "constant": {"weights": list}},
}
_TYPED = ("problem", "risk", "init_policy")
# The section of each key name, "" at the top level.  No name is in two
# sections, so a constructor's error that starts with a name is that key's.
_SECTION_OF = {"seed": "", "n_actions": "sim"}
for _name, _section in _SCHEMA.items():
    if isinstance(_section, dict):
        for _keys in _section.values() if _name in _TYPED else [_section]:
            _SECTION_OF.update(dict.fromkeys(_keys, _name))


def config_hash(cfg):
    """Short stable hash of the effective configuration."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _fail(msg):
    raise ConfigInvalid(msg)


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


def _table_numbers(key, value):
    """value, each number in it, through lists, checked with `_real`.

    problem.growth.pbar3 may also be +inf, as a number or as the string
    "inf" or "Infinity".
    """
    if isinstance(value, list):
        for item in value:
            _table_numbers(key, item)
    elif not (
        key == "problem.growth.pbar3" and value in ("inf", "Infinity", math.inf)
    ):
        _real(key, value)
    return value


# The kind of a key: how its value is cast.  A str entry is a type, which
# `_entries` has checked.
_KINDS = {int: _integer, float: _real, str: lambda key, value: value}


def _entries(cfg):
    """The schema of cfg: its problem, risk and init_policy types' entries."""
    if not isinstance(cfg, dict):
        _fail("config root must be an object")
    entries = dict(_SCHEMA)
    for name in _TYPED:
        section, types = cfg.get(name), _SCHEMA[name]
        if name == "init_policy" and section == "uniform":
            entries[name] = section
            continue
        # A list or object "type" is unhashable: test it before the lookup.
        kind = section.get("type") if isinstance(section, dict) else None
        if not isinstance(kind, str) or kind not in types:
            _fail(f"{name}.type must be one of {tuple(types)}")
        entries[name] = {"type": kind, **types[kind]}
    if entries["problem"]["type"] == "portfolio":
        # Only the portfolio reads a count of allocation atoms.
        entries["sim"] = {**entries["sim"], "n_actions": 31}
    return entries


def _walk(given, entries, where=""):
    """given's values, each cast by its kind, with the defaults filled in.

    A non-object, an unknown key and a missing required key are errors that
    name their dotted key.  An object that is not given is left out.
    """
    if not isinstance(given, dict):
        _fail(f"{where} must be an object")
    prefix = f"{where}." if where else ""
    for key in sorted(set(given) - set(entries)):
        _fail(f"unknown config key '{prefix}{key}'")
    values = {}
    for key, entry in entries.items():
        if key in given and isinstance(entry, dict):
            values[key] = _walk(given[key], entry, prefix + key)
        elif key in given:
            kind = entry if isinstance(entry, type) else type(entry)
            values[key] = _KINDS.get(kind, _table_numbers)(prefix + key, given[key])
        elif isinstance(entry, type):
            _fail(f"missing config key '{prefix}{key}'")
        elif isinstance(entry, (int, float, str)):
            values[key] = entry
    return values


def load_config(path, seed_override=None):
    """Parse, default-fill, and validate an experiment configuration."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        _fail(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        _fail(f"config is not valid JSON: {exc}")
    if isinstance(cfg, dict):
        cfg.setdefault("init_policy", "uniform")
        if seed_override is not None:
            cfg["seed"] = int(seed_override)
    entries = _entries(cfg)
    _walk(cfg, entries)
    for name in ("sim", "basis", "msa"):
        cfg[name] = {**entries[name], **cfg.get(name, {})}
    return cfg


def _build(key, make, *args, **kwargs):
    """make(*args, **kwargs), with its error a ConfigInvalid naming keys.

    A message that starts with a key name (a field name, dotted for a
    sub-key) is about that key's section, and each of that section's key
    names in it becomes a dotted key; any other message is key's.
    """
    try:
        return make(*args, **kwargs)
    except (RiskmpError, ValueError) as exc:
        msg = str(exc)
        section = _SECTION_OF.get(re.match(r"\w*", msg)[0])
        if section is None:
            _fail(f"{key}: {msg}")
        names = "|".join(k for k, s in _SECTION_OF.items() if s == section)
        _fail(re.sub(rf"\b({names})\b", rf"{section}.\1", msg) if section else msg)


# The most elements one path array of a solve may hold.  The largest arrays a
# solve allocates hold a value per path and time node for each atom (the kept
# policy weights) or for each of dim_x * dim_w entries (the adjoint z).  At
# 2**30 float64 such an array takes 8 GiB, and a solve holds several at once,
# so a larger run cannot finish in memory; far larger ones failed inside numpy
# with errors that named no config key.
MAX_PATH_ARRAY_ELEMENTS = 2**30


def _check_path_arrays(n_paths, n_steps, width, width_key):
    """Reject path arrays past their bound; width values per path and node."""
    if n_paths * (n_steps + 1) * width > MAX_PATH_ARRAY_ELEMENTS:
        _fail(
            f"sim.n_paths * (sim.n_steps + 1) * {width_key} must be at most "
            f"{MAX_PATH_ARRAY_ELEMENTS} path-array elements, got "
            f"{n_paths} * {n_steps + 1} * {width}"
        )


def build_experiment(cfg):
    """Instantiate model, grid, driver, risk, basis, and policies from config.

    Each value is cast by its kind and checked by the constructor it is
    passed to, before anything is allocated for the paths.  Raises
    ConfigInvalid, naming the key at fault, on any invalid value, including
    infeasible growth exponents.
    """
    values = _walk(cfg, _entries(cfg))
    sim, problem, risk = values["sim"], values["problem"], values["risk"]
    n_paths = sim["n_paths"]
    if n_paths < 2:
        _fail(f"sim.n_paths must be >= 2, got {n_paths}")
    # The grid checks its step count and allocates nothing, so the path
    # arrays' bound below is taken over a valid count.
    grid = _build("sim.n_steps", build_time_grid, problem["horizon"], sim["n_steps"])
    kind = problem.pop("type")
    params = None
    if kind == "portfolio":
        params = _build("problem", PortfolioParams, **problem)
        _check_path_arrays(n_paths, grid.n_steps, sim["n_actions"], "sim.n_actions")
        model = _build("sim.n_actions", build_portfolio_model, params, sim["n_actions"])
    else:
        if kind == "custom":
            model = _build("problem", model_from_tables, problem)
        elif kind == "example1":
            model = sign_volatility_model()
        else:
            model = on_off_volatility_model()
        width = max(model.n_atoms, model.dim_x * model.dim_w)
        _check_path_arrays(n_paths, grid.n_steps, width, "max(atoms, dim_x * dim_w)")
    risk = _build("risk", getattr(RiskFunction, risk.pop("type")), **risk)
    basis = _build("basis", RegressionBasis, **values["basis"])
    # The feature count comb(dim_x + degree, degree) - 1 grows with the
    # degree, and exceeds n_paths at degree n_paths + 1 already, so it is
    # counted at no higher degree: the design would not fit in memory.
    degree = min(basis.degree, n_paths + 1)
    if math.comb(model.dim_x + degree, degree) - 1 > n_paths:
        _fail(
            "basis.degree must give at most sim.n_paths = "
            f"{n_paths} regression features, got {cfg['basis']['degree']!r}"
        )
    msa_cfg = _build("msa", MsaConfig, **values["msa"], seed=values["seed"])
    init = _init_policy(values["init_policy"], model.n_atoms)
    table = getattr(init, "weights", None)  # a constant policy's rows
    allowed = {(1, model.n_atoms), (grid.n_steps, model.n_atoms)}
    if table is not None and table.shape not in allowed:
        _fail(
            f"init_policy.weights must be 1 or {grid.n_steps} rows of "
            f"{model.n_atoms} atoms, got shape {table.shape}"
        )

    if model.growth is not None:
        report = check_feasibility(model.growth)
        if not report.feasible:
            bad = "; ".join(
                _growth_keys(name) for name, ok, _ in report.checks if not ok
            )
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
        "seed": values["seed"],
    }


def _growth_keys(inequality):
    """A check_feasibility inequality with its exponents as dotted keys.

    "p1' <= p1" becomes "problem.growth.p1_prime <= problem.growth.p1".
    """
    return re.sub(
        r"\b(p(?:bar)?\d?)(')?",
        lambda m: f"problem.growth.{m[1]}{'_prime' if m[2] else ''}",
        inequality,
    )


def _init_policy(spec, n_atoms):
    """The initial policy of a cast init_policy, on n_atoms."""
    if spec == "uniform":
        return MeasurePolicy.uniform(n_atoms)
    if spec["type"] == "dirac":
        return _build("init_policy.atom", MeasurePolicy.dirac, spec["atom"], n_atoms)
    return _build("init_policy.weights", MeasurePolicy.constant, spec["weights"])


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
        mean_w = ensemble.weights_at(k).mean(axis=0)
        mean_action = float(mean_w @ atoms[:, 0])
        entropy = policy_entropy(ensemble.weight_columns(k))
        rows.append((k, float(grid.nodes[k]), mean_action, entropy))
        tables.append(mean_w)
    return rows, tables


def cmd_simulate(exp, out_dir, stamp):
    model, grid = exp["model"], exp["grid"]
    driver = sample_brownian(grid, exp["n_paths"], model.dim_w, exp["seed"])
    ens = simulate_forward(model, exp["init"], driver, grid)
    costs = total_cost(ens, model)

    # Finite states can still overflow a sum or a square: such a summary is a
    # blow-up, not a number to write.
    with np.errstate(over="ignore", invalid="ignore"):
        rows = []
        for k in range(grid.n_steps + 1):
            xk = ens.states[:, k]
            row = [k, float(grid.nodes[k])]
            for i in range(model.dim_x):
                row += [float(xk[:, i].mean()), float(xk[:, i].std())]
            row.append(float(ens.running_cost[:, k].mean()))
            if not np.isfinite(row).all():
                raise NumericalBlowup(k, "path summary")
            rows.append(row)
        summary = {
            "n_paths": exp["n_paths"],
            "cost_mean": float(costs.mean()),
            "cost_std": float(costs.std(ddof=1)),
            "risk_value": evaluate(exp["risk"], EmpiricalSample(costs)),
            # diagnostic: terminal values are unbounded, the sample max grows
            # with the path count
            "max_abs_terminal_state": float(np.abs(ens.states[:, -1]).max()),
        }
    if not np.isfinite(list(summary.values())).all():
        raise NumericalBlowup(grid.n_steps, "cost summary")
    header = ["step", "time"]
    for i in range(model.dim_x):
        header += [f"x{i}_mean", f"x{i}_std"]
    header.append("running_cost_mean")
    _write_csv(os.path.join(out_dir, "paths_summary.csv"), stamp, header, rows)
    _write_json(os.path.join(out_dir, "cost_summary.json"), stamp, summary)
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
        _write_json(
            os.path.join(args.out, "error.json"),
            stamp,
            {"error": type(exc).__name__, "message": str(exc)},
        )
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
