"""In-memory span recorder and the per-layer breakdown of one traced solve.

Tracing patches, for the duration of one call, the module attributes that
`riskmp.cli`, `riskmp.control` and `riskmp.adjoint` look up at call time,
plus the drift/diffusion/cost callables of the model that `build_experiment`
returns.  Nothing under `src/` knows it is being traced, and an untraced run
executes the program unmodified.

A span is `[name, start, end, parent]` with `parent` the index of the
enclosing span (-1 at the root).  A span's self time is its duration minus
the part of that interval its child spans cover.
"""

import contextlib
import dataclasses
import functools
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict

# module -> {attribute: span name}.  Span names are "<layer>.<function>".
TARGETS = {
    "riskmp.cli": {
        "load_config": "cli.load_config",
        "build_experiment": "cli.build_experiment",
        "sample_brownian": "sde.sample_brownian",
        "msa_solve": "control.msa_solve",
        "simulate_forward": "sde.simulate_forward",
        "l_derivative": "risk.l_derivative",
        "solve_adjoint_system": "adjoint.solve_adjoint_system",
        "martingale_diagnostics": "adjoint.martingale_diagnostics",
        "_policy_step_stats": "cli.policy_step_stats",
    },
    "riskmp.control": {
        "simulate_forward": "sde.simulate_forward",
        "evaluate": "risk.evaluate",
        "bootstrap_standard_error": "risk.bootstrap_se",
        "l_derivative": "risk.l_derivative",
        "_slice_regressions": "adjoint.slice_regressions",
        "solve_adjoint_system": "adjoint.solve_adjoint_system",
        "martingale_diagnostics": "adjoint.martingale_diagnostics",
        "_hamiltonian_atoms": "control.hamiltonian_table",
        "_near_min_weights": "control.near_min_weights",
    },
    "riskmp.adjoint": {
        "_slice_regressions": "adjoint.slice_regressions",
        "solve_risk_adjustment": "adjoint.solve_risk_adjustment",
        "solve_adjoint": "adjoint.solve_adjoint",
    },
}
MODEL_COEFFICIENTS = ("drift", "diffusion", "cost")
SETUP_SPANS = ("cli.load_config", "cli.build_experiment", "sde.sample_brownian")


class Tracer:
    """Records nested spans of wrapped calls, and counts and gauges set by hooks."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()  # summed over calls
        self.gauges = {}  # last or largest value seen
        self._stack = []

    def wrap(self, name, fn, after=None):
        """Return fn recording one span per call.

        after(args, kwargs, result), when given, runs after each successful call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def write(self, path):
        """One JSON array per line: name, start, end (seconds), parent index."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent]) + "\n")


def _mixture_size(policy):
    return len(getattr(policy, "components", ())) or 1


def _owned_bytes(arrays):
    """Bytes of the distinct arrays that own the memory behind `arrays`."""
    owners = {}
    for a in arrays:
        while a.base is not None:
            a = a.base
        owners[id(a)] = a.nbytes
    return sum(owners.values())


def _after_forward(tracer):
    def hook(args, kwargs, ens):
        size = _mixture_size(args[1])
        tracer.counts["sde.component_steps"] += size * ens.grid.n_steps
        tracer.gauges["sde.mixture_size.last"] = size
        if ens.policy_weights is not None:
            mb = _owned_bytes(ens.policy_weights) / 2**20
            tracer.gauges["sde.kept_weights_mb"] = max(
                mb, tracer.gauges.get("sde.kept_weights_mb", 0.0)
            )

    return hook


def _after_bootstrap(tracer):
    def hook(args, kwargs, result):
        n_boot = args[2] if len(args) > 2 else kwargs.get("n_boot", 200)
        tracer.counts["risk.bootstrap_resamples"] += int(n_boot)

    return hook


def _after_build(tracer):
    def hook(args, kwargs, exp):
        model = exp["model"]
        exp["model"] = dataclasses.replace(
            model,
            **{
                attr: tracer.wrap("model.coef", getattr(model, attr))
                for attr in MODEL_COEFFICIENTS
            },
        )

    return hook


@contextlib.contextmanager
def instrument(tracer):
    """Patch the traced attributes for the duration of the block."""
    hooks = {
        "sde.simulate_forward": _after_forward(tracer),
        "risk.bootstrap_se": _after_bootstrap(tracer),
        "cli.build_experiment": _after_build(tracer),
    }
    saved = []
    try:
        for module_name, attrs in TARGETS.items():
            module = importlib.import_module(module_name)
            for attr, name in attrs.items():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(name, original, hooks.get(name)))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _children_of(spans, parent, name):
    return [s for s in spans if s[3] == parent and s[0] == name]


def layer_metrics(tracer):
    """Per-layer metrics of the one traced `cli.main` call, the first span."""
    spans = tracer.spans
    selfs = self_times(spans)
    self_sum = defaultdict(float)
    calls = Counter()
    for (name, _, _, _), s in zip(spans, selfs):
        self_sum[name] += s
        calls[name] += 1

    def dur(s):
        return s[2] - s[1]

    root = spans[0]
    setup = sum(dur(s) for name in SETUP_SPANS for s in _children_of(spans, 0, name))
    msa_index = next(
        i for i, s in enumerate(spans) if s[0] == "control.msa_solve"
    )
    msa = spans[msa_index]
    # An iteration runs from one in-loop forward simulation to the next; the
    # last one ends with msa_solve.
    starts = [s[1] for s in _children_of(spans, msa_index, "sde.simulate_forward")]
    iters = [b - a for a, b in zip(starts, starts[1:] + [msa[2]])]

    return {
        "cli.setup_s": setup,
        "cli.post_solve_s": dur(root) - setup - dur(msa),
        "cli.post_solve.forward_s": sum(
            dur(s) for s in _children_of(spans, 0, "sde.simulate_forward")
        ),
        "cli.post_solve.adjoint_s": sum(
            dur(s) for s in _children_of(spans, 0, "adjoint.solve_adjoint_system")
        ),
        "cli.policy_step_stats_s": self_sum["cli.policy_step_stats"],
        "sde.sample_brownian_s": self_sum["sde.sample_brownian"],
        "sde.simulate_forward_s": self_sum["sde.simulate_forward"],
        "sde.simulate_forward.calls": calls["sde.simulate_forward"],
        "sde.mixture_size.last": tracer.gauges.get("sde.mixture_size.last", 0),
        "sde.component_steps": tracer.counts["sde.component_steps"],
        "sde.kept_weights_mb": tracer.gauges.get("sde.kept_weights_mb", 0.0),
        "risk.bootstrap_se_s": self_sum["risk.bootstrap_se"],
        "risk.bootstrap_resamples": tracer.counts["risk.bootstrap_resamples"],
        "risk.evaluate_s": self_sum["risk.evaluate"],
        "risk.l_derivative_s": self_sum["risk.l_derivative"],
        "adjoint.slice_regressions_s": self_sum["adjoint.slice_regressions"],
        "adjoint.solve_risk_adjustment_s": self_sum["adjoint.solve_risk_adjustment"],
        "adjoint.solve_adjoint_s": self_sum["adjoint.solve_adjoint"],
        "adjoint.martingale_diagnostics_s": self_sum["adjoint.martingale_diagnostics"],
        "control.msa_solve_s": dur(msa),
        "control.msa_solve.self_s": selfs[msa_index],
        "control.msa_solve.child_cover": 1.0 - selfs[msa_index] / dur(msa),
        "control.iteration_s.median": statistics.median(iters),
        "control.iteration_s.max": max(iters),
        "control.hamiltonian_table_s": self_sum["control.hamiltonian_table"],
        "control.hamiltonian_table.calls": calls["control.hamiltonian_table"],
        "control.near_min_weights_s": self_sum["control.near_min_weights"],
        "model.coef_calls": calls["model.coef"],
        "model.coef_s": self_sum["model.coef"],
    }


def layer_table(tracer):
    """Text table of calls, inclusive and self seconds per span name."""
    selfs = self_times(tracer.spans)
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, start, end, _), s in zip(tracer.spans, selfs):
        row = rows[name]
        row[0] += 1
        row[1] += end - start
        row[2] += s
    total = sum(r[2] for r in rows.values())
    lines = [f"{'span':34} {'calls':>8} {'total_s':>10} {'self_s':>10} {'self%':>7}"]
    for name, (n, tot, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(
            f"{name:34} {n:8d} {tot:10.4f} {own:10.4f} {100 * own / total:6.1f}%"
        )
    return "\n".join(lines) + "\n"
