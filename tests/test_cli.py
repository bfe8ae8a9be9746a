"""CLI commands, exit codes, file stamping, and reproducibility."""

import csv
import functools
import importlib
import json
import math
import os
import re

import numpy as np
import pytest

from riskmp import cli, sde
from riskmp.cli import config_hash, load_config, main
from riskmp.errors import ConfigInvalid
from riskmp.verification import CheckResult

from conftest import python_in_subprocess, solve_in_subprocess

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _small_portfolio_config(tmp_path, **overrides):
    cfg = {
        "problem": {"type": "portfolio", "phi_low": 0.1, "phi_high": 1.5},
        "risk": {"type": "expectation"},
        "sim": {"n_steps": 20, "n_paths": 2000, "n_actions": 11},
        "basis": {"degree": 3, "ridge": 1e-08},
        "msa": {"max_iters": 6, "tol": 1e-06},
        "init_policy": "uniform",
        "seed": 314,
    }
    cfg.update(overrides)
    if cfg["problem"]["type"] != "portfolio":  # only the portfolio has atoms to count
        cfg["sim"] = {k: v for k, v in cfg["sim"].items() if k != "n_actions"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def _read_lines(path):
    with open(path, "rb") as fh:
        return fh.read()


def _read_table(path):
    """Header and rows of a stamped CSV, as strings."""
    with open(path) as fh:
        fh.readline()
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_unknown_command_exits_2(tmp_path, capsys):
    assert main(["frobnicate", "--config", "x"]) == 2


def test_missing_seed_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"problem": {"type": "portfolio"}, "risk": {"type": "expectation"}}))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_bad_risk_type_is_config_error(tmp_path):
    path, _ = _small_portfolio_config(tmp_path, risk={"type": "cvar"})
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_infeasible_exponents_rejected(tmp_path, capsys):
    # growth with p = pbar violates the strict order inequality
    problem = {
        "type": "custom",
        "dim_x": 1,
        "dim_w": 1,
        "action_grid": [0.0, 1.0],
        "drift": {"const": [[0.0], [1.0]]},
        "diffusion": {"const": [[[0.1]], [[0.1]]]},
        "terminal": {"const": 0.0, "x": [1.0]},
        "x0": [0.0],
        "growth": {
            "L": 1.0, "pbar1": 0.0, "pbar2": 0.0, "pbar3": "inf",
            "pbar": 2.0, "p1": 0.0, "p2": 0.0, "p1_prime": 0.0,
            "p2_prime": 0.0, "p": 2.0,
        },
    }
    path, _ = _small_portfolio_config(tmp_path, problem=problem)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "problem exponents are infeasible" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, inequality",
    [
        ({"p1_prime": 1.5}, "problem.growth.p1_prime <= problem.growth.p1"),
        ({"p2_prime": 2.0}, "problem.growth.p2_prime <= problem.growth.p2"),
        ({"p": 8.0}, "problem.growth.p < problem.growth.pbar"),
        (
            {"pbar3": 2.0},
            "problem.growth.pbar <= problem.growth.pbar3; "
            "problem.growth.pbar2 <= problem.growth.pbar3/problem.growth.pbar",
        ),
        (
            {"p1": 3.0, "p1_prime": 0.0},
            "problem.growth.p1 < problem.growth.pbar/problem.growth.p - 1",
        ),
    ],
    ids=["p1_prime", "p2_prime", "p", "pbar3", "p1"],
)
def test_infeasible_growth_names_the_dotted_keys(tmp_path, capsys, change, inequality):
    # Each failing inequality of the growth feasibility check is named by
    # its config keys, as every other config error is, not as "p1' <= p1".
    problem = _problem("custom", {f"growth.{k}": v for k, v in change.items()})
    path, _ = _small_portfolio_config(tmp_path, problem=problem)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"problem exponents are infeasible: {inequality}" in err
    assert "'" not in err.split("infeasible:")[1]


def test_solve_emits_stamped_artifacts(tmp_path):
    path, cfg = _small_portfolio_config(tmp_path)
    out = str(tmp_path / "run")
    assert main(["solve", "--config", path, "--out", out]) == 0
    expected = [
        "run_config.json",
        "objective_trace.csv",
        "policy_mean.csv",
        "policy_table.csv",
        "adjoint_summary.csv",
        "risk_premium.csv",
        "solve_summary.json",
    ]
    for name in expected:
        assert os.path.exists(os.path.join(out, name)), name
    stamp = f"# config_hash={config_hash(load_config(path))} seed=314"
    for name in expected:
        if name.endswith(".csv"):
            first = open(os.path.join(out, name)).readline().strip()
            assert first == stamp, name
    summary = json.load(open(os.path.join(out, "solve_summary.json")))
    assert summary["seed"] == 314
    assert summary["iterations"] >= 1
    # risk-neutral portfolio: premium is identically zero
    assert abs(summary["risk_premium"]["iota_mean"]) <= 1e-8


def test_seed_override_changes_hash(tmp_path):
    path, cfg = _small_portfolio_config(tmp_path)
    h1 = config_hash(load_config(path))
    h2 = config_hash(load_config(path, seed_override=999))
    assert h1 != h2


def test_simulate_emits_summaries(tmp_path):
    path, _ = _small_portfolio_config(tmp_path)
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", path, "--out", out]) == 0
    cost = json.load(open(os.path.join(out, "cost_summary.json")))
    assert cost["n_paths"] == 2000
    assert "max_abs_terminal_state" in cost
    lines = open(os.path.join(out, "paths_summary.csv")).read().splitlines()
    assert len(lines) == 2 + 21  # stamp + header + one row per node


def test_report_renders_and_refuses_mismatch(tmp_path):
    path, _ = _small_portfolio_config(tmp_path)
    out = str(tmp_path / "run")
    assert main(["solve", "--config", path, "--out", out]) == 0
    assert main(["report", "--config", path, "--out", out]) == 0
    sources = {
        "report_objective.csv": "objective_trace.csv",
        "report_policy_vs_time.csv": "policy_mean.csv",
        "report_risk_premium.csv": "risk_premium.csv",
    }
    for name, source in sources.items():
        header, rows = _read_table(os.path.join(out, name))
        src_header, src_rows = _read_table(os.path.join(out, source))
        columns = [src_header.index(c) for c in header]
        assert rows == [[row[c] for c in columns] for row in src_rows], name
    other, _ = _small_portfolio_config(tmp_path, seed=777)
    assert main(["report", "--config", other, "--out", out]) == 2


def test_report_without_solve_is_config_error(tmp_path):
    # report only reads a run, so it makes no output directory either.
    path, _ = _small_portfolio_config(tmp_path)
    missing = tmp_path / "missing"
    assert main(["report", "--config", path, "--out", str(missing)]) == 2
    assert not missing.exists()


def test_runtime_error_writes_record(tmp_path):
    # Pure-diffusion sign problem under a uniform start has identically zero
    # cost, where the mean-deviation derivative does not exist: the solver
    # aborts and the CLI records the structured error.
    cfg = {
        "problem": {"type": "example1"},
        "risk": {"type": "mean_deviation", "beta": 0.5},
        "sim": {"n_steps": 10, "n_paths": 200},
        "msa": {"max_iters": 3},
        "seed": 5,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "boom")
    assert main(["solve", "--config", str(path), "--out", out]) == 1
    record = json.load(open(os.path.join(out, "error.json")))
    assert record["error"] == "DegenerateSample"


def _tiny_config(tmp_path, name, **problem):
    """A bundled config at 300 paths, 5 steps and 2 iterations."""
    with open(os.path.join(CONFIGS, f"{name}.json")) as fh:
        cfg = json.load(fh)
    cfg["sim"].update(n_paths=300, n_steps=5)
    cfg["msa"] = {**cfg.get("msa", {}), "max_iters": 2}
    cfg["problem"].update(problem)
    path = tmp_path / f"{name}-{'-'.join(problem)}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_solve_leaves_no_risk_premium_of_an_earlier_run(tmp_path):
    # A solve that writes no risk_premium.csv removes an earlier run's, so
    # report renders this run's tables only, and none of the earlier run's.
    out = str(tmp_path / "o")
    portfolio = _tiny_config(tmp_path, "portfolio_riskneutral")
    example = _tiny_config(tmp_path, "example1")
    assert main(["solve", "--config", portfolio, "--out", out]) == 0
    assert main(["report", "--config", portfolio, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "report_risk_premium.csv"))
    assert main(["solve", "--config", example, "--out", out]) == 0
    assert not os.path.exists(os.path.join(out, "risk_premium.csv"))
    assert main(["report", "--config", example, "--out", out]) == 0
    assert not os.path.exists(os.path.join(out, "report_risk_premium.csv"))


def test_report_checks_every_stamp_before_it_writes(tmp_path):
    # A risk_premium.csv of another run beside this run's inputs: report
    # refuses them and writes no table.
    out = tmp_path / "o"
    portfolio = _tiny_config(tmp_path, "portfolio_riskneutral")
    example = _tiny_config(tmp_path, "example1")
    assert main(["solve", "--config", portfolio, "--out", str(tmp_path / "p")]) == 0
    assert main(["solve", "--config", example, "--out", str(out)]) == 0
    premium = (tmp_path / "p" / "risk_premium.csv").read_bytes()
    (out / "risk_premium.csv").write_bytes(premium)
    before = sorted(p.name for p in out.iterdir())
    assert main(["report", "--config", example, "--out", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir()) == before


_IMPORT_GRAPH_SCRIPT = """
import json, os, sys
import riskmp, riskmp.cli
from riskmp import RiskFunction

configs, tmp = sys.argv[1:]
loaded = {"import": "scipy.special" in sys.modules}
for name in (
    "portfolio_riskneutral", "portfolio_entropic", "portfolio_mean_deviation",
    "custom_linear",
):
    with open(os.path.join(configs, name + ".json")) as fh:
        cfg = json.load(fh)
    cfg["sim"].update(n_paths=300, n_steps=5)
    cfg["msa"].update(max_iters=2, n_boot=20)
    path = os.path.join(tmp, name + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    out = os.path.join(tmp, name)
    assert riskmp.cli.main(["solve", "--config", path, "--out", out]) == 0
    loaded[name] = "scipy.special" in sys.modules
RiskFunction.smoothed_semideviation(0.5, 0.1)
loaded["smoothed_semideviation"] = "scipy.special" in sys.modules
print(json.dumps(loaded))
"""


def test_no_solve_loads_scipy_special(tmp_path):
    # scipy.special is most of riskmp's import cost and memory, so no solve
    # loads it: the smoothed semideviation (custom_linear's risk) takes its
    # logistic with C's exp instead of scipy's expit.
    out = python_in_subprocess(["-c", _IMPORT_GRAPH_SCRIPT, CONFIGS, str(tmp_path)], 1)
    assert json.loads(out.splitlines()[-1]) == {
        "import": False,
        "portfolio_riskneutral": False,
        "portfolio_entropic": False,
        "portfolio_mean_deviation": False,
        "custom_linear": False,
        "smoothed_semideviation": False,
    }


def test_a_good_run_removes_an_earlier_failure_record(tmp_path, monkeypatch):
    # A failed solve leaves error.json; the next simulate, solve or verify
    # in the same directory removes it.  verify runs a one-row catalogue.
    monkeypatch.setattr(cli, "run_checks", lambda: [CheckResult("row", True, "")])
    out = str(tmp_path / "o")
    bad = _tiny_config(tmp_path, "portfolio_entropic", mu=1e308)
    good = _tiny_config(tmp_path, "portfolio_entropic")
    for command in ("simulate", "solve", "verify"):
        assert main(["solve", "--config", bad, "--out", out]) == 1
        assert os.path.exists(os.path.join(out, "error.json"))
        assert main([command, "--config", good, "--out", out]) == 0
        assert not os.path.exists(os.path.join(out, "error.json")), command


def test_repeated_runs_byte_identical(tmp_path):
    path, _ = _small_portfolio_config(
        tmp_path, risk={"type": "entropic", "theta": 1.0}
    )
    outs = [tmp_path / "blas1", tmp_path / "blas2"]
    names = [solve_in_subprocess(path, out, n) for out, n in zip(outs, (1, 2))]
    assert names[0] == names[1]
    for name in names[0]:
        assert _read_lines(outs[0] / name) == _read_lines(outs[1] / name), name


@pytest.mark.parametrize(
    "config, max_iters",
    [("custom_linear", 2), ("portfolio_entropic", 3)],
    ids=["custom_linear", "portfolio_entropic"],
)
def test_solve_above_blas_split_size_is_thread_independent(tmp_path, config, max_iters):
    # OpenBLAS splits a dot product across threads above 10,000 entries, so
    # only a solve with more paths than that shows a cross-path reduction
    # that goes through BLAS.  custom_linear's fits degrade to constants;
    # the entropic solve mixes two fitted components through the mixture
    # kernel.
    cfg = json.load(open(os.path.join(CONFIGS, f"{config}.json")))
    cfg["sim"]["n_paths"] = 12_000
    cfg["msa"]["max_iters"] = max_iters
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = [tmp_path / "blas1", tmp_path / "blas2"]
    names = [solve_in_subprocess(path, out, n) for out, n in zip(outs, (1, 2))]
    assert names[0] == names[1]
    differ = [
        name for name in names[0]
        if _read_lines(outs[0] / name) != _read_lines(outs[1] / name)
    ]
    assert not differ


@pytest.mark.parametrize(
    "config", ["portfolio_entropic", "custom_linear", "portfolio_mean_deviation"]
)
def test_solve_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, config):
    # sde._BLOCK_ELEMENTS sizes the row blocks (sde._row_blocks) of the
    # driver draws and the mixture kernel, over paths, and of the bootstrap,
    # over resamples.  No sum is taken block by block, so every output file
    # has the same bytes at every block size.  The spy sees sde's own calls.
    with open(os.path.join(CONFIGS, f"{config}.json")) as fh:
        cfg = json.load(fh)
    cfg["sim"].update(n_steps=10, n_paths=2000)
    cfg["msa"].update(max_iters=5, n_boot=20)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    row_blocks = sde._row_blocks
    splits, runs = [], []
    for elements in (1 << 10, 1 << 15, 1 << 20):
        monkeypatch.setattr(sde, "_BLOCK_ELEMENTS", elements)
        edges = []

        def spy(total, width):
            rows, blocks = row_blocks(total, width)
            edges.append(len(blocks))
            return rows, blocks

        monkeypatch.setattr(sde, "_row_blocks", spy)
        out = tmp_path / f"out-{elements}"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        splits.append(max(edges))
        runs.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out))})
    assert splits[0] > splits[2] == 1
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("n_boot", [-1, 0, 1])
def test_too_few_bootstrap_resamples_is_config_error(tmp_path, capsys, n_boot):
    path, _ = _small_portfolio_config(
        tmp_path, msa={"max_iters": 2, "n_boot": n_boot}
    )
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert "n_boot must be >= 2" in capsys.readouterr().err
    assert not (out / "solve_summary.json").exists()


@pytest.mark.parametrize("n_paths", [0, 1])
def test_too_few_paths_is_config_error(tmp_path, capsys, n_paths):
    path, _ = _small_portfolio_config(
        tmp_path, sim={"n_steps": 5, "n_paths": n_paths, "n_actions": 11}
    )
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert "sim.n_paths must be >= 2" in capsys.readouterr().err
    assert not (out / "solve_summary.json").exists()


@pytest.mark.parametrize("atom", [99, -1, 1.7, True])
def test_bad_dirac_atom_is_config_error(tmp_path, capsys, atom):
    path, _ = _small_portfolio_config(
        tmp_path, init_policy={"type": "dirac", "atom": atom}
    )
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "init_policy.atom" in capsys.readouterr().err


@pytest.mark.parametrize(
    "weights",
    [[0.5, 0.5], [[0.2] * 5] * 2, [[0.2] * 5] * 10],
    ids=["two-atoms", "two-rows", "ten-rows"],
)
def test_wrong_shape_constant_init_policy_is_config_error(tmp_path, capsys, weights):
    path, _ = _small_portfolio_config(
        tmp_path,
        sim={"n_steps": 4, "n_paths": 200, "n_actions": 5},
        init_policy={"type": "constant", "weights": weights},
    )
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert "init_policy.weights" in capsys.readouterr().err
    assert not (out / "solve_summary.json").exists()


def test_per_step_constant_init_policy_runs(tmp_path):
    weights = [[0.0, 0.25, 0.5, 0.25, 0.0]] * 4
    path, _ = _small_portfolio_config(
        tmp_path,
        sim={"n_steps": 4, "n_paths": 200, "n_actions": 5},
        msa={"max_iters": 2},
        init_policy={"type": "constant", "weights": weights},
    )
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize(
    "section, key, value",
    [
        (None, "seed", 1.5),
        (None, "seed", True),
        ("sim", "n_steps", 4.7),
        ("sim", "n_paths", 200.5),
        ("sim", "n_actions", False),
        ("basis", "degree", True),
        ("msa", "max_iters", 2.5),
        ("msa", "n_boot", 20.5),
        (None, "seed", "7"),
        ("sim", "n_steps", "5"),
        ("msa", "max_iters", "2"),
        ("basis", "degree", "2"),
    ],
)
def test_non_integer_count_is_config_error(tmp_path, capsys, section, key, value):
    _, cfg = _small_portfolio_config(
        tmp_path, sim={"n_steps": 5, "n_paths": 200, "n_actions": 5},
        msa={"max_iters": 2, "n_boot": 20},
    )
    (cfg[section] if section else cfg)[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    dotted = f"{section}.{key}" if section else key
    assert f"{dotted} must be an integer" in capsys.readouterr().err
    assert not (out / "solve_summary.json").exists()


@pytest.mark.parametrize(
    "section, key, value, base",
    [
        ("msa", "tol", True, {}),
        ("msa", "tol", "0.001", {}),
        ("msa", "damping_base", None, {}),
        ("basis", "ridge", True, {}),
        ("problem", "sigma", True, {}),
        ("problem", "horizon", False, {}),
        ("problem", "horizon", True, {"problem": {"type": "example1"}}),
        ("risk", "theta", True, {"risk": {"type": "entropic"}}),
        ("risk", "beta", True, {"risk": {"type": "mean_deviation"}}),
        ("risk", "epsilon", "0.1", {"risk": {"type": "smoothed_semideviation"}}),
        ("msa", "tol", math.nan, {}),
        ("msa", "tol", math.inf, {}),
        ("msa", "tol", -math.inf, {}),
        ("msa", "eta", math.nan, {}),
        ("msa", "eta", math.inf, {}),
        ("msa", "damping_scale", math.nan, {}),
        ("msa", "damping_scale", math.inf, {}),
        ("basis", "ridge", math.nan, {}),
        ("basis", "ridge", math.inf, {}),
        ("problem", "sigma", -math.inf, {}),
        ("risk", "theta", math.nan, {"risk": {"type": "entropic"}}),
        ("risk", "theta", math.inf, {"risk": {"type": "entropic"}}),
        ("msa", "damping_scale", 10**400, {}),
    ],
)
def test_non_number_real_is_config_error(tmp_path, capsys, section, key, value, base):
    _, cfg = _small_portfolio_config(
        tmp_path, sim={"n_steps": 5, "n_paths": 200, "n_actions": 5},
        msa={"max_iters": 2, "n_boot": 20}, **base,
    )
    cfg[section][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    message = "must be finite" if number else "must be a number"
    assert f"{section}.{key} {message}" in capsys.readouterr().err
    assert not (out / "solve_summary.json").exists()


def _problem(kind, overrides):
    """A portfolio problem, or custom_linear.json's, with dotted keys overridden."""
    if kind == "portfolio":
        return {"type": "portfolio", **overrides}
    with open(os.path.join(CONFIGS, "custom_linear.json")) as fh:
        problem = json.load(fh)["problem"]
    for dotted, value in overrides.items():
        *path, key = dotted.split(".")
        section = problem
        for name in path:
            section = section[name]
        section[key] = value
    return problem


@pytest.mark.parametrize(
    "kind, overrides, message",
    [
        ("custom", {"dim_x": 1.5}, "an integer"),
        ("custom", {"dim_x": True}, "an integer"),
        ("custom", {"dim_w": True}, "an integer"),
        ("custom", {"dim_w": "1"}, "an integer"),
        ("custom", {"x0": [True]}, "a number"),
        ("custom", {"action_grid": [-1.0, False, 1.0]}, "a number"),
        ("custom", {"drift.x": [[True]]}, "a number"),
        ("custom", {"terminal.const": True}, "a number"),
        ("custom", {"growth.p": True}, "a number"),
    ],
)
def test_problem_values_are_not_coerced(tmp_path, capsys, kind, overrides, message):
    path, _ = _small_portfolio_config(
        tmp_path, problem=_problem(kind, overrides),
        sim={"n_steps": 5, "n_paths": 200, "n_actions": 5},
        msa={"max_iters": 2, "n_boot": 20},
    )
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    key = next(iter(overrides))
    assert f"problem.{key} must be {message}" in capsys.readouterr().err
    assert not (out / "solve_summary.json").exists()


@pytest.mark.parametrize("pbar3", ["inf", "Infinity"])
def test_custom_growth_accepts_infinite_strings(tmp_path, pbar3):
    path, _ = _small_portfolio_config(
        tmp_path, problem=_problem("custom", {"growth.pbar3": pbar3})
    )
    model = cli.build_experiment(load_config(path))["model"]
    assert model.growth.pbar3 == math.inf


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"terminal.const": math.nan}, "must be finite, got nan"),
        ({"action_grid": [-1.0, math.nan, 1.0]}, "must be finite, got nan"),
        ({"drift.const": [[-1.0], [math.inf], [1.0]]}, "must be finite, got inf"),
        ({"diffusion.const": [[[0.2]], [[-math.inf]], [[0.2]]]}, "must be finite"),
        ({"cost.x": [10**400]}, "must be finite"),
        ({"x0": ["0.5"]}, "must be a number, got '0.5'"),
        ({"terminal.const": "NaN"}, "must be a number, got 'NaN'"),
        ({"growth.p": math.nan}, "must be finite, got nan"),
        ({"growth.p": math.inf}, "must be finite, got inf"),
        ({"growth.pbar3": "-inf"}, "must be a number, got '-inf'"),
        ({"growth.pbar3": -math.inf}, "must be finite, got -inf"),
    ],
    ids=[
        "terminal-const-nan", "action-grid-nan", "drift-const-inf",
        "diffusion-const-minus-inf", "cost-x-huge-int", "x0-string",
        "terminal-const-nan-string", "growth-nan", "growth-p-inf",
        "growth-minus-inf-string", "growth-minus-inf",
    ],
)
def test_custom_non_finite_value_is_config_error(tmp_path, capsys, overrides, message):
    # Before the check, a NaN terminal constant ended in an uncaught
    # ValueError from the risk sample and a NaN atom in a solve that wrote
    # "mean_action_min": NaN.
    path, _ = _small_portfolio_config(
        tmp_path, problem=_problem("custom", overrides),
        sim={"n_steps": 5, "n_paths": 50},
        msa={"max_iters": 2, "n_boot": 20},
    )
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    key = next(iter(overrides))
    assert f"problem.{key} {message}" in capsys.readouterr().err
    assert not (out / "solve_summary.json").exists()


def test_vector_action_atoms_are_config_error(tmp_path, capsys):
    # Coefficients are given per atom index, so an atom only labels the
    # outputs; a vector atom solved and wrote "mean_action_min": NaN.
    grid = [[-1.0, 0.0], [0.0, 1.0], [1.0, 0.5]]
    path, _ = _small_portfolio_config(
        tmp_path, problem=_problem("custom", {"action_grid": grid}),
        sim={"n_steps": 5, "n_paths": 200},
        msa={"max_iters": 2, "n_boot": 10},
    )
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "problem.action_grid must be a nonempty list of scalar atoms" in err
    assert not (out / "solve_summary.json").exists()


def test_custom_growth_accepts_an_infinite_number(tmp_path):
    path, _ = _small_portfolio_config(
        tmp_path, problem=_problem("custom", {"growth.pbar3": math.inf})
    )
    model = cli.build_experiment(load_config(path))["model"]
    assert model.growth.pbar3 == math.inf


def test_integral_float_counts_are_accepted(tmp_path):
    path, _ = _small_portfolio_config(
        tmp_path, sim={"n_steps": 5.0, "n_paths": 200.0, "n_actions": 5.0},
        msa={"max_iters": 2.0}, seed=314.0,
    )
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 0


def test_summary_flags_match_the_trace(tmp_path):
    # example2 from a Dirac start does not converge at this size: the first
    # iterate stays the best and the second rises more than 2 SE above it.
    cfg = json.load(open(os.path.join(CONFIGS, "example2.json")))
    cfg["sim"] = {"n_steps": 10, "n_paths": 500}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    summary = json.load(open(out / "solve_summary.json"))
    assert (summary["iterations"], summary["converged"]) == (8, False)
    assert (summary["best_iter"], summary["non_monotone_iters"]) == (0, [1])

    header, rows = _read_table(out / "objective_trace.csv")
    trace = [dict(zip(header, map(float, row))) for row in rows]
    objectives = [r["objective"] for r in trace]
    assert [int(r["iter"]) for r in trace] == list(range(len(trace)))
    assert summary["iterations"] == len(trace)
    assert summary["best_iter"] == objectives.index(min(objectives))
    assert summary["non_monotone_iters"] == [
        i for i in range(1, len(trace))
        if objectives[i] > objectives[i - 1] + 2.0 * trace[i - 1]["objective_se"]
    ]
    assert summary["max_iters_exceeded"] == (not summary["converged"])
    assert summary["final_objective"] == objectives[-1]


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_experiment_is_built_once(tmp_path, monkeypatch, command):
    path, _ = _small_portfolio_config(
        tmp_path,
        sim={"n_steps": 5, "n_paths": 200, "n_actions": 5},
        msa={"max_iters": 2},
    )
    calls = []
    build = cli.build_experiment
    monkeypatch.setattr(
        cli, "build_experiment", lambda cfg: calls.append(cfg) or build(cfg)
    )
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"msa": {"max_iter": 6}}, "msa.max_iter"),
        ({"sim": {"n_path": 2000}}, "sim.n_path"),
        ({"risk": {"type": "expectation", "theta": 1.0}}, "risk.theta"),
        (
            {"init_policy": {"type": "dirac", "atom": 0, "weight": 1}},
            "init_policy.weight",
        ),
        ({"sed": 1}, "sed"),
        (
            {"problem": {"type": "custom", "dim_x": 1, "dim_w": 1,
                         "action_grid": [0.0], "drift": {"const": [[0.0]], "xx": 1},
                         "diffusion": {"const": [[[0.1]]]}}},
            "problem.drift.xx",
        ),
        (
            {"problem": {"type": "portfolio", "phi_low": 0.1,
                         "allow_zero_lower": True}},
            "problem.allow_zero_lower",
        ),
    ],
)
def test_unknown_config_key_is_config_error(tmp_path, capsys, overrides, key):
    path, _ = _small_portfolio_config(tmp_path, **overrides)
    with pytest.raises(ConfigInvalid, match=f"'{key}'"):
        load_config(path)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"'{key}'" in capsys.readouterr().err


def _bundled(config, **sections):
    """configs/<config>.json at 50 paths, 3 steps and 2 iterations, with
    sections replaced."""
    with open(os.path.join(CONFIGS, f"{config}.json")) as fh:
        cfg = json.load(fh)
    cfg["sim"].update(n_steps=3, n_paths=50)
    cfg["msa"].update(max_iters=2, n_boot=20)
    cfg.update(sections)
    return cfg


def _shrunk_config(tmp_path, config, section, key, value):
    """configs/<config>.json at 50 paths and 3 steps, with one value replaced."""
    cfg = _bundled(config)
    cfg[section][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _entropic_config(tmp_path, section, key, value):
    """configs/portfolio_entropic.json at 50 paths, with one value replaced."""
    return _shrunk_config(tmp_path, "portfolio_entropic", section, key, value)


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("problem", "type", [], "must be one of"),
        ("problem", "type", {}, "must be one of"),
        ("risk", "type", [], "must be one of"),
        ("risk", "type", {}, "must be one of"),
        ("problem", "sigma", 1e308, "must have a finite square"),
        ("problem", "phi_high", 1e308, "must have a finite square"),
    ],
    ids=[
        "problem-type-list", "problem-type-object", "risk-type-list",
        "risk-type-object", "sigma-square-overflows",
        "phi-high-square-overflows",
    ],
)
def test_value_that_escaped_as_a_traceback_is_config_error(
    tmp_path, capsys, section, key, value, message
):
    # These raised an uncaught TypeError (unhashable type) from load_config,
    # or an OverflowError from the portfolio model's coefficient bound.
    path = _entropic_config(tmp_path, section, key, value)
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert f"{section}.{key} {message}" in capsys.readouterr().err
    assert not (out / "solve_summary.json").exists()


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("msa", "n_boot", 1e308, "must be at most 1000000"),
        ("msa", "n_boot", 10**400, "must be at most 1000000"),
        ("basis", "ridge", 1e308, "must be in [0, 1e+06]"),
    ],
    ids=["n-boot-1e308", "n-boot-400-digits", "ridge-1e308"],
)
def test_value_above_its_bound_is_config_error(
    tmp_path, capsys, recwarn, section, key, value, message
):
    # A huge n_boot raised an uncaught ValueError (maximum allowed
    # dimension exceeded) from the bootstrap; a huge ridge printed
    # RuntimeWarnings and then failed as a non-finite regression design.
    path = _entropic_config(tmp_path, section, key, value)
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert f"{section}.{key} {message}" in capsys.readouterr().err
    assert not (out / "solve_summary.json").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "config, x0",
    [
        ("custom_linear", None),
        ("portfolio_entropic", None),
        ("portfolio_mean_deviation", None),
        ("example2", None),
        ("portfolio_entropic", 0.3),
    ],
    ids=[
        "custom_linear", "portfolio_entropic", "portfolio_mean_deviation",
        "example2", "portfolio_entropic-x0-0.3",
    ],
)
def test_ridge_zero_solves_from_a_point_mass_start(tmp_path, config, x0):
    # Every path starts at one state, so slice 0's features are flat.  They
    # raised RankDeficient without a ridge; they now fit to coefficient 0.
    # The 50-copy mean of 0.3 is not 0.3, so that start's centered features
    # are rounding-level constants, not zeros: flatness is read off the
    # uncentered design.
    cfg = _bundled(config)
    cfg["basis"]["ridge"] = 0
    if x0 is not None:
        assert np.add.reduce(np.full(50, x0)) / 50 != x0
        cfg["problem"]["x0"] = x0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize(
    "config, key, value, message",
    [
        ("custom_linear", "epsilon", 1e308, "must be in (0, 1e+06]"),
        ("custom_linear", "beta", 1e308, "must be in (0, 1e+06]"),
        ("portfolio_mean_deviation", "beta", 1e308, "must be in (0, 1e+06]"),
        ("portfolio_entropic", "theta", 1e308, "must be in [1e-06, 1e+06]"),
        ("portfolio_entropic", "theta", 1e-16, "must be in [1e-06, 1e+06]"),
    ],
    ids=[
        "epsilon-1e308", "semideviation-beta-1e308", "mean-deviation-beta-1e308",
        "theta-1e308", "theta-1e-16",
    ],
)
def test_risk_value_above_its_bound_is_config_error(
    tmp_path, capsys, recwarn, config, key, value, message
):
    # A huge epsilon exited 0 with an infinite final_objective_se; a huge
    # beta printed RuntimeWarnings and then failed as a non-finite adjoint,
    # and so did a huge theta.  A tiny theta, below its bound, exited 0 with
    # a risk value lost to rounding.
    with open(os.path.join(CONFIGS, f"{config}.json")) as fh:
        cfg = json.load(fh)
    cfg["sim"].update(n_steps=3, n_paths=50)
    cfg["msa"].update(max_iters=2, n_boot=20)
    cfg["risk"][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    assert f"risk.{key} {message}" in capsys.readouterr().err
    assert not (out / "solve_summary.json").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_overflowing_regression_design_names_its_step(tmp_path, recwarn):
    # A drift of 1e308 gives finite states whose cubes overflow: the slice
    # fit used to turn NaN silently, with RuntimeWarnings from the design,
    # and the run then failed as "policy weights".  The bootstrap standard
    # error of the huge risk values warned of an overflow too.
    path = _entropic_config(tmp_path, "problem", "mu", 1e308)
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "NumericalBlowup"
    assert record["message"] == "non-finite regression design at time step 1"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "epsilon, message",
    [
        (0.1, "non-finite adjoint state at time step 1"),
        (0.01, "non-finite risk value at time step 3"),
    ],
    ids=["adjoint-state", "risk-value"],
)
def test_costs_near_the_float_limit_name_their_blowup(
    tmp_path, recwarn, epsilon, message
):
    # Finite costs near the float64 limit overflow the smoothed
    # semideviation's (X - mean) / epsilon, and the adjoint fits of a cost
    # gradient of 1e308.  RuntimeWarnings reached stderr, and under an
    # error filter main raised instead of returning 1.  At epsilon 0.1 the
    # risk value is finite (expit saturates in the derivative) and y blows
    # up; at 0.01 the risk value itself is infinite.
    cfg = _bundled("custom_linear")
    cfg["sim"]["n_paths"] = 40
    cfg["msa"]["n_boot"] = 5
    cfg["problem"]["cost"]["x"] = [1e308]
    cfg["risk"]["epsilon"] = epsilon
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "NumericalBlowup"
    assert record["message"] == message
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "config, section, key, value, message",
    [
        ("custom_linear", "msa", "eta", 1e308, "must be in (0, 1e+06]"),
        ("portfolio_mean_deviation", "problem", "x0", 1e308,
         "must be in [-1e+06, 1e+06]"),
        ("portfolio_mean_deviation", "problem", "x0", -1e308,
         "must be in [-1e+06, 1e+06]"),
        ("portfolio_entropic", "problem", "x0", 1e308,
         "must be in [-1e+06, 1e+06]"),
        ("portfolio_riskneutral", "problem", "x0", -1e308,
         "must be in [-1e+06, 1e+06]"),
    ],
    ids=[
        "eta-1e308", "mean-deviation-x0-1e308", "mean-deviation-x0--1e308",
        "entropic-x0-1e308", "riskneutral-x0--1e308",
    ],
)
def test_run_value_above_its_bound_is_config_error(
    tmp_path, capsys, recwarn, config, section, key, value, message
):
    # A huge eta exited 0 after an overflow warning from the tie tolerance
    # eta * (1 + |H_min|); a huge x0 printed overflow warnings from the
    # mean-deviation risk and then failed as a non-finite regression design.
    path = _shrunk_config(tmp_path, config, section, key, value)
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert f"{section}.{key} {message}" in capsys.readouterr().err
    assert not (out / "solve_summary.json").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "config, key, value, message",
    [
        ("portfolio_entropic", "n_steps", 0, "must be >= 1"),
        ("portfolio_entropic", "n_steps", 1e18, "must be at most"),
        ("portfolio_entropic", "n_steps", 10**400, "must be at most"),
        ("custom_linear", "n_steps", 1e18, "must be at most"),
        ("portfolio_entropic", "n_paths", 1e18, "must be at most"),
        ("portfolio_entropic", "n_paths", 10**400, "must be at most"),
        ("custom_linear", "n_paths", 10**400, "must be at most"),
        ("portfolio_entropic", "n_actions", 1, "must be >= 2"),
        ("portfolio_entropic", "n_actions", 1e308, "must be at most"),
        ("portfolio_entropic", "n_actions", 10**400, "must be at most"),
    ],
    ids=[
        "n-steps-0", "n-steps-1e18", "n-steps-400-digits", "custom-n-steps-1e18",
        "n-paths-1e18", "n-paths-400-digits", "custom-n-paths-400-digits",
        "n-actions-1", "n-actions-1e308", "n-actions-400-digits",
    ],
)
def test_sim_size_out_of_range_is_config_error(
    tmp_path, capsys, recwarn, config, key, value, message
):
    # Huge sizes raised an uncaught MemoryError or ValueError from numpy
    # (np.linspace in the time grid, the Brownian driver), or exited 2 with
    # an error naming no key, as did a zero step count and a single atom.
    # Every value here is rejected before anything is allocated.
    path = _shrunk_config(tmp_path, config, "sim", key, value)
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"sim.{key}" in err and message in err
    assert not (out / "solve_summary.json").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("n_steps", [-1, -2, 0])
def test_bad_step_count_is_rejected_before_the_atoms(tmp_path, capsys, n_steps):
    # A step count below 1 made the path arrays' bound 0 or negative, so
    # 2**40 atoms passed it and numpy was asked for terabytes.
    cfg = _bundled("portfolio_entropic")
    cfg["sim"].update(n_steps=n_steps, n_actions=2**40)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    assert "sim.n_steps must be >= 1" in capsys.readouterr().err


def test_overflowing_time_step_is_a_state_blowup(tmp_path, recwarn):
    # A horizon of 1e308 over 3 steps overflows the drift term of the Euler
    # update, which printed a RuntimeWarning before the state check raised.
    path = _shrunk_config(tmp_path, "custom_linear", "problem", "horizon", 1e308)
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "NumericalBlowup"
    assert record["message"] == "non-finite state at time step 2"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("degree", [1e308, 51])
def test_degree_with_more_features_than_paths_is_config_error(tmp_path, degree):
    # A 309-digit degree used to be accepted; the first design then
    # enumerated monomials until memory ran out.  Built only, never solved.
    cfg = load_config(_entropic_config(tmp_path, "basis", "degree", degree))
    with pytest.raises(ConfigInvalid, match="basis.degree must give at most"):
        cli.build_experiment(cfg)


def test_degree_with_as_many_features_as_paths_is_accepted(tmp_path):
    cfg = load_config(_entropic_config(tmp_path, "basis", "degree", 50))
    assert cli.build_experiment(cfg)["basis"].degree == 50


def test_bundled_configs_parse():
    for name in os.listdir(CONFIGS):
        cfg = load_config(os.path.join(CONFIGS, name))
        assert "seed" in cfg


def test_bundled_riskneutral_solve_recovers_merton(tmp_path):
    cfg_path = os.path.join(CONFIGS, "portfolio_riskneutral.json")
    out = str(tmp_path / "bundle")
    assert main(["solve", "--config", cfg_path, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "solve_summary.json")))
    assert abs(summary["mean_action_min"] - 2.0 / 3.0) <= 0.05
    assert abs(summary["mean_action_max"] - 2.0 / 3.0) <= 0.05
    assert abs(summary["risk_premium"]["iota_mean"]) <= 1e-3


def test_verify_command_passes_and_emits_table(tmp_path):
    cfg_path = os.path.join(CONFIGS, "portfolio_riskneutral.json")
    out = str(tmp_path / "verify")
    assert main(["verify", "--config", cfg_path, "--out", out]) == 0
    lines = open(os.path.join(out, "verify_report.csv")).read().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "name,passed,detail"
    rows = lines[2:]
    assert len(rows) == 27
    assert len({row.split(",")[0] for row in rows}) == 27
    assert all(",True," in row for row in rows)


def test_config_hash_is_stable_and_canonical(tmp_path):
    path, cfg = _small_portfolio_config(tmp_path)
    h1 = config_hash(load_config(path))
    # key order must not matter
    reordered = dict(reversed(list(cfg.items())))
    path2 = tmp_path / "cfg2.json"
    path2.write_text(json.dumps(reordered))
    assert config_hash(load_config(str(path2))) == h1


def _run(tmp_path, cfg, *args, command="simulate"):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path), "--out", str(tmp_path / "o"), *args])


@pytest.mark.parametrize(
    "seed, args",
    [
        (-1, ()), (2**64, ()), (1e308, ()),
        (7, ("--seed", "-1")), (7, ("--seed", str(2**64))),
    ],
    ids=["config-minus-one", "config-2-to-64", "config-1e308", "flag-minus-one",
         "flag-2-to-64"],
)
def test_seed_outside_its_range_is_config_error(tmp_path, capsys, seed, args):
    # -1 raised numpy's ValueError out of main; 2**64 ran seed 0's paths
    # with another bootstrap stream and another hash.
    cfg = _bundled("custom_linear", seed=seed)
    assert _run(tmp_path, cfg, *args, command="solve") == 2
    assert "seed must be in [0, 2**64)" in capsys.readouterr().err
    assert not (tmp_path / "o" / "solve_summary.json").exists()


@pytest.mark.parametrize(
    "init_policy, message",
    [
        ({"type": "constant", "weights": [True, False, False]},
         "init_policy.weights must be a number, got True"),
        ({"type": "constant"}, "missing config key 'init_policy.weights'"),
        ({"type": "dirac"}, "missing config key 'init_policy.atom'"),
        ({"type": "constant", "weights": [-0.5, 1.0, 0.5]},
         "init_policy.weights: negative policy weight"),
        ({"type": "constant", "weights": [0.5, 0.2, 0.2]},
         "init_policy.weights: policy weights at constant policy sum off"),
        ({"type": "constant", "weights": [[1.0, 0.0, 0.0], [0.5, 0.5]]},
         "init_policy.weights: setting an array element"),
    ],
    ids=["boolean-weights", "no-weights", "no-atom", "negative-weight",
         "weights-sum-off", "ragged-weights"],
)
def test_init_policy_error_names_its_key(tmp_path, capsys, init_policy, message):
    # Booleans were coerced to weights 1 and 0 and ran; the others exited 2
    # as "bad configuration value", naming no key.
    assert _run(tmp_path, _bundled("custom_linear", init_policy=init_policy)) == 2
    assert message in capsys.readouterr().err


def test_integral_float_dirac_atom_is_accepted(tmp_path):
    # Like every other count, 1.0 is the atom 1; it was rejected.
    cfg = _bundled("example2", init_policy={"type": "dirac", "atom": 1.0})
    assert _run(tmp_path, cfg) == 0


@pytest.mark.parametrize(
    "key, value, step",
    [("mu", 1e308, 1), ("mu", -1e308, 1), ("horizon", 1e308, 1)],
    ids=["mu-1e308", "mu--1e308", "horizon-1e308"],
)
def test_simulate_summary_overflow_is_a_blowup(tmp_path, recwarn, key, value, step):
    # Finite states whose mean or spread overflows exited 0 after a
    # RuntimeWarning, writing Infinity into cost_summary.json and inf into
    # paths_summary.csv.
    cfg = _bundled("portfolio_entropic")
    cfg["problem"][key] = value
    assert _run(tmp_path, cfg) == 1
    record = json.loads((tmp_path / "o" / "error.json").read_text())
    assert record["error"] == "NumericalBlowup"
    assert record["message"] == f"non-finite path summary at time step {step}"
    assert not (tmp_path / "o" / "cost_summary.json").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_n_actions_is_a_key_of_the_portfolio_only(tmp_path, capsys):
    # It was filled in and hashed for every problem, but read by the
    # portfolio only.
    cfg = _bundled("custom_linear")
    cfg["sim"]["n_actions"] = 31
    assert _run(tmp_path, cfg) == 2
    assert "unknown config key 'sim.n_actions'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, expected",
    [
        ("portfolio_entropic", "57fa95f48869b02c"),
        ("portfolio_mean_deviation", "16ff790faa62c680"),
        ("portfolio_riskneutral", "18b85842e54e3c72"),
        ("custom_linear", "ea4a618a7641aab8"),
        ("example1", "194577be2d6af4af"),
        ("example2", "5567f9b217a693e8"),
    ],
)
def test_bundled_config_hashes(config, expected):
    # The portfolio configs' effective configs, and so their hashes, are
    # those of every earlier version; the others lost sim.n_actions.
    cfg = load_config(os.path.join(CONFIGS, f"{config}.json"))
    assert config_hash(cfg) == expected


def _leaves(doc, where=""):
    """The dotted keys of the values in doc, through objects."""
    for key, value in doc.items():
        dotted = f"{where}.{key}" if where else key
        if isinstance(value, dict):
            yield from _leaves(value, dotted)
        else:
            yield dotted


def _schema_keys():
    """Every dotted key of the schema, with the type of each typed section."""
    keys = {"init_policy"}  # the string "uniform", which has no type
    for name, entry in cli._SCHEMA.items():
        if name in cli._TYPED:
            keys.add(f"{name}.type")
            for entries in entry.values():
                keys.update(_leaves(entries, name))
        else:
            keys.update(_leaves({name: entry}))
    keys.add("sim.n_actions")  # the portfolio's only
    return keys


def test_config_keys_are_in_the_schema_and_the_readme():
    keys = _schema_keys()
    with open(os.path.join(CONFIGS, "..", "README.md")) as fh:
        section = fh.read().split("## Configuration")[1].split("\n## ")[0]
    readme = set(re.findall(r"^\| `([\w.]+)` \|", section, re.M))
    assert readme == keys
    for name in os.listdir(CONFIGS):
        with open(os.path.join(CONFIGS, name)) as fh:
            assert set(_leaves(json.load(fh))) <= keys, name
    # No name is in two sections, so that a constructor's error, which
    # starts with a field name, can be given its section.
    pairs = {tuple(key.split(".")[:2]) for key in keys if "." in key}
    names = ["seed", *(name for _, name in pairs if name != "type")]
    assert len(names) == len(set(names)) == len(cli._SECTION_OF) == 32


_MODULES = (
    "sde", "risk", "control", "adjoint", "cli", "models", "portfolio",
    "verification", "errors",
)


def test_readme_module_references_resolve():
    # Every backticked `module.name` (or `riskmp.module.name`) in the README
    # names an existing attribute.  Dotted config keys such as `risk.beta`
    # are not references.
    with open(os.path.join(CONFIGS, "..", "README.md")) as fh:
        text = fh.read()
    pattern = rf"`(?:riskmp\.)?((?:{'|'.join(_MODULES)})\.[\w.]+)"
    refs = set(re.findall(pattern, text)) - _schema_keys()
    assert "sde._path_constant" in refs
    missing = []
    for ref in sorted(refs):
        module, *names = ref.rstrip(".").split(".")
        obj = importlib.import_module(f"riskmp.{module}")
        try:
            functools.reduce(getattr, names, obj)
        except AttributeError:
            missing.append(ref)
    assert not missing


def test_readme_guards_and_configs_exist():
    # Every backticked `test_...` name in the README, parametrize ids
    # stripped, is a test defined under tests/ or bench/, and every
    # backticked `configs/*.json` path exists.
    root = os.path.join(CONFIGS, "..")
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    defined = set()
    for folder in ("tests", "bench"):
        for name in os.listdir(os.path.join(root, folder)):
            if name.endswith(".py"):
                with open(os.path.join(root, folder, name)) as fh:
                    defined.update(re.findall(r"^\s*def (test_\w+)", fh.read(), re.M))
    named = set(re.findall(r"`(test_\w+)(?:\[[^\]`]*\])?`", text))
    assert len(named) >= 10
    assert named - defined == set()
    paths = set(re.findall(r"`(configs/[\w.-]+\.json)`", text))
    assert paths
    assert {p for p in paths if not os.path.exists(os.path.join(root, p))} == set()


_HOSTILE = [True, "x", None, [], {}, -1, 0, 1.5, math.nan, 1e308, -1e308]
_DELETE = object()


def _scalar_keys(cfg):
    """The (section, key) pairs of cfg's counts and real numbers; section
    None at the top level."""
    for name, entry in cli._entries(cfg).items():
        pairs = entry.items() if isinstance(entry, dict) else [(None, entry)]
        for key, sub in pairs:
            if (sub if isinstance(sub, type) else type(sub)) in (int, float):
                yield (name, key) if key else (None, name)


def _finite_outputs(out):
    with open(out / "cost_summary.json") as fh:
        summary = json.load(fh)
    numbers = [v for v in summary.values() if isinstance(v, (int, float))]
    _, rows = _read_table(out / "paths_summary.csv")
    numbers += [float(v) for row in rows for v in row]
    return all(math.isfinite(v) for v in numbers)


@pytest.mark.parametrize("config", sorted(n[:-5] for n in os.listdir(CONFIGS)))
def test_hostile_scalar_values_end_cleanly(tmp_path, capsys, config):
    # Each count and real number of the config's types in the schema, set
    # to each hostile value or deleted: simulate returns 0, 1 or 2, never
    # raises or warns (RuntimeWarnings are errors in Tier-1), exit 2 names
    # the dotted key, exit 1 writes error.json and exit 0 finite numbers.
    # None of the values allocates.
    base = _bundled(config)
    runs = 0
    for section, key in _scalar_keys(base):
        dotted = f"{section}.{key}" if section else key
        for value in [*_HOSTILE, _DELETE]:
            cfg = json.loads(json.dumps(base))
            target = cfg[section] if section else cfg
            if value is _DELETE:
                target.pop(key, None)
            else:
                target[key] = value
            out = tmp_path / f"o{runs}"
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            rc = main(["simulate", "--config", str(path), "--out", str(out)])
            err = capsys.readouterr().err
            case = (dotted, value, rc, err)
            assert rc in (0, 1, 2), case
            if rc == 2:
                assert dotted in err, case
            elif rc == 1:
                assert (out / "error.json").exists(), case
            else:
                assert _finite_outputs(out), case
            runs += 1
    assert runs >= 12 * 12


_SECTIONS = ("problem", "risk", "sim", "basis", "msa", "init_policy")


def _section_cases(base):
    """(dotted key, config) pairs: an unknown key in each object section
    and at the top level, and each section replaced by null and by a list
    holding it."""
    for section in _SECTIONS:
        if isinstance(base[section], dict):
            yield f"{section}.unknown_key", {
                **base, section: {**base[section], "unknown_key": 1}
            }
        yield section, {**base, section: None}
        yield section, {**base, section: [base[section]]}
    yield "unknown_key", {**base, "unknown_key": 1}


@pytest.mark.parametrize("config", sorted(n[:-5] for n in os.listdir(CONFIGS)))
def test_hostile_sections_and_unknown_keys_are_config_errors(
    tmp_path, capsys, config
):
    # solve rejects each case before anything runs: exit 2, naming the
    # dotted key.  An unknown key is named in quotes.
    cases = list(_section_cases(_bundled(config)))
    for i, (dotted, cfg) in enumerate(cases):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"o{i}"
        rc = main(["solve", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, (dotted, err)
        named = f"'{dotted}'" if dotted.endswith("unknown_key") else dotted
        assert named in err, (dotted, err)
        assert not out.exists(), dotted
    assert len(cases) >= 5 + 2 * len(_SECTIONS) + 1
