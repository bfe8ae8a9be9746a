"""Tests of the benchmark's own arithmetic, output check and tracing.

Run with `PYTHONPATH=src python -m pytest bench/test_bench.py`.
"""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from riskmp import adjoint, cli, control  # noqa: E402
from riskmp.portfolio import PortfolioParams, brute_force_constant_policy  # noqa: E402

TINY = {
    "problem": {"type": "portfolio", "phi_low": 0.1, "phi_high": 1.5},
    "risk": {"type": "entropic", "theta": 1.0},
    "sim": {"n_steps": 8, "n_paths": 300, "n_actions": 5},
    "basis": {"degree": 2, "ridge": 1e-08},
    "msa": {"max_iters": 3, "tol": 1e-06, "n_boot": 20},
    "init_policy": "uniform",
    "seed": 5,
}


@pytest.fixture
def tiny(tmp_path):
    path = str(tmp_path / "config.json")
    workloads.write_config(TINY, path)
    cfg, exp, driver = workloads.set_up(path)
    return {
        "path": path,
        "dir": str(tmp_path),
        "stamp": (cli.config_hash(cfg), int(cfg["seed"])),
        "exp": exp,
        "driver": driver,
        "oracle": workloads.oracle_best(exp, driver),
    }


def test_self_times_subtract_the_union_of_children():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b.late", 8.0, 12.0, 3],  # runs past its parent: only 8..9 counts
        ["c", 20.0, 30.0, -1],
        ["c.x", 21.0, 25.0, 5],
        ["c.y", 23.0, 26.0, 5],  # overlaps c.x: union 21..26 is covered
    ]
    assert spans.self_times(tree) == pytest.approx(
        [3.0, 2.0, 1.0, 3.0, 4.0, 5.0, 4.0, 3.0]
    )


def test_failed_runs_count_nonzero_exit_and_objective_mismatch(tiny):
    calls = []

    def solve(argv):
        calls.append(argv)
        if len(calls) == 2:
            return 1
        rc = cli.main(argv)
        if len(calls) == 3:
            path = os.path.join(argv[argv.index("--out") + 1], "solve_summary.json")
            with open(path) as fh:
                doc = json.load(fh)
            doc["final_objective"] = np.nextafter(doc["final_objective"], np.inf)
            with open(path, "w") as fh:
                json.dump(doc, fh)
        return rc

    samples = bench_run.measure(
        solve, tiny["path"], tiny["dir"], tiny["stamp"], tiny["oracle"],
        label="solve", seconds=0, min_solves=4,
    )
    assert [bool(s["problems"]) for s in samples] == [False, True, True, False]
    assert samples[1]["problems"] == ["exit code 1"]
    assert "differs from the first repeat" in samples[2]["problems"][0]
    assert bench_run._failed(samples) == 2


def test_wrong_stamp_fails_the_check(tiny):
    out = os.path.join(tiny["dir"], "out")
    assert cli.main(["solve", "--config", tiny["path"], "--out", out]) == 0
    problems, _ = workloads.check_run(0, out, (tiny["stamp"][0], 6), tiny["oracle"])
    assert any("stamp" in p for p in problems)


def test_oracle_excess_on_tiny_config(tiny):
    exp, driver = tiny["exp"], tiny["driver"]
    params = PortfolioParams(phi_low=0.1, phi_high=1.5)
    brute = brute_force_constant_policy(
        params, exp["risk"], exp["model"].action_grid[:, 0], driver, exp["grid"]
    )
    assert tiny["oracle"] == brute.best_value

    out = os.path.join(tiny["dir"], "out")
    assert cli.main(["solve", "--config", tiny["path"], "--out", out]) == 0
    problems, summary = workloads.check_run(0, out, tiny["stamp"], tiny["oracle"])
    assert problems == []
    assert summary["objective_excess_se"] == (
        (summary["final_objective"] - brute.best_value) / summary["final_objective_se"]
    )


def test_tracing_keeps_results_and_restores_the_program(tiny):
    originals = {
        (m, a): getattr(m, a)
        for m in (cli, control, adjoint)
        for a in spans.TARGETS[m.__name__]
    }
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        samples = bench_run.measure(
            tracer.wrap("cli.main", cli.main), tiny["path"], tiny["dir"],
            tiny["stamp"], tiny["oracle"], label="traced", seconds=0,
            min_solves=1,
        )
    assert all(getattr(m, a) is fn for (m, a), fn in originals.items())
    untraced = bench_run.measure(
        cli.main, tiny["path"], tiny["dir"], tiny["stamp"], tiny["oracle"],
        label="plain", seconds=0, min_solves=1,
        reference=samples[0]["final_objective"],
    )
    assert bench_run._failed(samples + untraced) == 0

    m = spans.layer_metrics(tracer)
    n_iters = samples[0]["iterations"]
    assert m["sde.simulate_forward.calls"] == n_iters + 1  # plus post-solve
    assert m["control.hamiltonian_table.calls"] == n_iters * TINY["sim"]["n_steps"]
    assert m["risk.bootstrap_resamples"] == n_iters * TINY["msa"]["n_boot"]
    assert m["model.coef_calls"] > 0
    assert 0.0 < m["control.msa_solve.child_cover"] < 1.0
    assert m["cli.post_solve_s"] > 0.0
