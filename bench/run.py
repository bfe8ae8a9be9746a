"""Benchmark of `riskmp solve`, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload portfolio-rn --seed 1 --seconds 25 --trace 0

An untraced run (`--trace 0`) sets the solve up for SETUP_SECONDS seconds (at
least SETUP_REPEATS times), computes
the constant-policy oracle once, then repeats the in-process `riskmp solve`
for `--seconds` seconds (at least MIN_SOLVES times), checks every repeat's
outputs and reports medians of the end-to-end metrics.  The first solve in a
process runs on a cold allocator and is slower; with three or more repeats
the median is a warm one, and the raw samples keep the cold one.  A traced
run (`--trace 1`) makes two untraced solves, one traced solve and one more
untraced solve, and reports the per-layer metrics and the tracing overhead.  The metric names and units come
from BENCHMARK.json.  The last line of standard output is one JSON object;
everything else (config, solve outputs, raw samples, environment, spans and
the per-layer table) is written under bench/out/<workload>-seed<seed>[-trace].
"""

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

# numpy, riskmp and the bench modules that import them are imported inside
# functions: only after main() has checked for src/riskmp, put src/ on the
# path and pinned the BLAS threads.
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
MIN_SOLVES = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas_threads():
    """Run BLAS on one thread, so `cpu_s` shows only threads the program adds.

    On a 2-core box, two OpenBLAS threads made the entropic solve slower
    (median 9.19 s against 8.73 s over five interleaved runs), burned 60% more
    CPU time waiting, and spread more from run to run.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"


def _cpu_seconds():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def measure(solve, config_path, run_dir, stamp, oracle, *, label, seconds,
            min_solves, reference=None):
    """Repeat `solve` for `seconds` (at least min_solves times), checking each.

    Every repeat must reproduce `reference` (or the first repeat's) final
    objective bit for bit.  Returns one sample dict per repeat.
    """
    from workloads import check_run

    samples = []
    start = time.perf_counter()
    while len(samples) < min_solves or time.perf_counter() - start < seconds:
        out_dir = os.path.join(run_dir, f"{label}{len(samples)}")
        t0, c0 = time.perf_counter(), _cpu_seconds()
        try:
            rc = solve(["solve", "--config", config_path, "--out", out_dir])
        except Exception as exc:  # a crashed solve is a failed run
            traceback.print_exc()
            rc = f"raised {type(exc).__name__}"
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
        problems, summary = check_run(rc, out_dir, stamp, oracle, reference)
        if summary is not None and reference is None:
            reference = summary["final_objective"]
        sample = {"solve_s": wall, "cpu_s": cpu, "problems": problems}
        if summary is not None:
            for key in ("iterations", "converged", "final_objective",
                        "final_objective_se", "objective_excess_se"):
                sample[key] = summary[key]
        samples.append(sample)
    return samples


def _median_of(samples, key):
    return statistics.median(s[key] for s in samples if key in s)


def _failed(samples):
    return sum(1 for s in samples if s["problems"])


def run_untraced(repeat, setup_samples, seconds):
    from riskmp import cli

    samples = repeat(cli.main, label="solve", seconds=seconds,
                     min_solves=MIN_SOLVES)
    metrics = {
        "solve_s": _median_of(samples, "solve_s"),
        "setup_s": statistics.median(setup_samples),
        "cpu_s": _median_of(samples, "cpu_s"),
        "iters": _median_of(samples, "iterations"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return samples, metrics


def run_traced(repeat, run_dir):
    import spans
    from riskmp import cli

    # The first solve in a process runs on a cold allocator and only warms
    # it up.  The overhead compares the traced solve with the mean of the warm
    # untraced solves just before and after it, which cancels a slow drift
    # of the machine's speed.
    before = repeat(cli.main, label="untraced", seconds=0, min_solves=2)
    reference = before[0].get("final_objective")
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        traced = repeat(tracer.wrap("cli.main", cli.main), label="traced",
                        seconds=0, min_solves=1, reference=reference)
    metrics = spans.layer_metrics(tracer)
    tracer.write(os.path.join(run_dir, "spans.jsonl"))
    with open(os.path.join(run_dir, "layers.txt"), "w") as fh:
        fh.write(spans.layer_table(tracer))
    del tracer  # its many span lists would slow the garbage collector
    after = repeat(cli.main, label="after", seconds=0, min_solves=1,
                   reference=reference)
    baseline = (before[-1]["solve_s"] + after[0]["solve_s"]) / 2
    samples = before + traced + after
    overhead = traced[0]["solve_s"] - baseline
    metrics.update({
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / baseline,
        "objective_excess_se": _median_of(samples, "objective_excess_se"),
        "failed_runs": _failed(samples) / len(samples),
    })
    return samples, metrics


def _declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"], [
        w["name"] for w in spec["workloads"]
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "riskmp", "__init__.py")):
        print("bench: src/riskmp not found; run from a riskmp checkout",
              file=sys.stderr)
        return 2
    declared, workload_names = _declared_metrics(args.trace)
    if args.workload not in workload_names:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    _pin_blas_threads()  # before numpy is first imported
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from riskmp import cli

    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    run_dir = os.path.join(BENCH, "out", tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config_path = os.path.join(run_dir, "config.json")
    workloads.write_config(workloads.make_config(args.workload, args.seed),
                           config_path)

    setup_samples = []
    start = time.perf_counter()
    while (len(setup_samples) < SETUP_REPEATS
           or time.perf_counter() - start < SETUP_SECONDS):
        t0 = time.perf_counter()
        cfg, exp, driver = workloads.set_up(config_path)
        setup_samples.append(time.perf_counter() - t0)
    oracle = workloads.oracle_best(exp, driver)
    del exp, driver
    repeat = functools.partial(
        measure,
        config_path=config_path,
        run_dir=run_dir,
        stamp=(cli.config_hash(cfg), int(cfg["seed"])),
        oracle=oracle,
    )
    if args.trace:
        samples, metrics = run_traced(repeat, run_dir)
    else:
        samples, metrics = run_untraced(repeat, setup_samples, args.seconds)

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"bench: measured {sorted(metrics)} but BENCHMARK.json declares "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    failed = _failed(samples)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({
            "workload": args.workload,
            "trace": bool(args.trace),
            "environment": environment(args.seed),
            "oracle_best_objective": oracle,
            "setup_samples_s": setup_samples,
            "solve_samples": samples,
            **result,
        }, fh, indent=2)
        fh.write("\n")

    for s in samples:
        for problem in s["problems"]:
            print(f"FAILED CHECK: {problem}")
    for name in units:
        print(f"{name:36} {metrics[name]:>14.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
