"""Hamiltonian evaluation, pointwise minimization, and the solver iteration.

The Hamiltonian H = y.b + y'.c + tr[z sigma] is linear in the control
measure, so its infimum over measures on the action grid is attained on
atoms; ties within a tolerance are resolved by uniform mixing, which is what
lets a zero-diffusion fixed point sit on a genuinely mixed measure.

msa_solve iterates the coupled system to a fixed point: simulate forward,
differentiate the risk at the cost law, solve the two backward regressions,
minimize H pointwise at every (path, step), fit the minimizers back into a
feedback policy, and damp the update.  The Brownian driver is frozen across
iterations (common random numbers) so the objective trace is comparable
between iterations.
"""

from dataclasses import dataclass, field

import numpy as np

from . import sde
from .adjoint import (
    AdjointArrays,
    _slice_regressions,
    martingale_diagnostics,
    solve_adjoint_system,
)
from .errors import NumericalBlowup
from .risk import (
    EmpiricalSample,
    bootstrap_indices,
    bootstrap_standard_error,
    evaluate,
    l_derivative,
)
from .sde import (
    ForwardArrays,
    MeasurePolicy,
    _all_paths,
    coefficient_tables,
    convex_combine,
    simulate_forward,
    total_cost,
)

__all__ = [
    "MsaConfig",
    "IterationRecord",
    "SolveReport",
    "objective",
    "policy_entropy",
    "msa_solve",
]


# The coefficient tables the Hamiltonian reads, in the order it adds them.
_HAMILTONIAN_KEYS = ("drift", "cost", "diffusion")


def _hamiltonian_atoms(model, t, states, y, yprime, z, out=None):
    """H at every action atom; shapes (n, dim_x), (n,), (n, dim_w, dim_x).

    Returns the (n, n_atoms) transpose of an atom-major array, written into
    out, an (n_atoms, n) array, when given.  H is summed term by term in
    the order drift, cost, diffusion, each term the product of an
    (n_atoms, n) table slice, or an (n_atoms, 1) one for a table constant
    over paths, with a path vector.
    """
    tabs = coefficient_tables(model, t, states, _HAMILTONIAN_KEYS)
    drift, cost, diffusion = tabs["drift"], tabs["cost"], tabs["diffusion"]
    dim_x, dim_w = drift.shape[2], diffusion.shape[3]
    terms = [(drift[:, :, i], y[:, i]) for i in range(dim_x)]
    terms.append((cost, yprime))
    terms += [
        (diffusion[:, :, i, w], z[:, w, i])
        for w in range(dim_w) for i in range(dim_x)
    ]
    if out is None:
        out = np.empty((model.n_atoms, states.shape[0]))
    # A path vector is one column of a step's (n, ...) block: contiguous for
    # one-dimensional state and noise, strided otherwise, or for arrays a
    # caller built path-major.  Each is made contiguous once, not per atom.
    terms = [(col, np.ascontiguousarray(vec)) for col, vec in terms]
    np.multiply(*terms[0], out=out)
    term = np.empty_like(out)
    for col, vec in terms[1:]:
        out += np.multiply(col, vec, out=term)
    return out.T


def _near_min_weights(table, eta, wpi, out=None):
    """Near-min weights of an (n, n_atoms) table H, and a step's diagnostics.

    wstar is the uniform mixture over the atoms within eta * (1 + |H_min|)
    of each path's minimum H_min.  The diagnostics of the policy weights wpi
    are per path: the gap sum_a wpi H - H_min, the change
    sum_a |wstar - wpi| and the entropy, by _path_entropy on the copy of
    wpi below.  msa_solve takes their path means, the change's divided by
    n_atoms.  wpi is an (n, n_atoms) array or its (row, cols, block) parts
    (sde._weight_columns), as kept weights give them.

    wpi is copied into an atom-major (n_atoms, n) C-ordered array, straight
    from its parts, and every per-path sum over atoms is an np.add.reduce
    over the leading axis of such an array, written by the kernel, which
    adds in atom order.  The table enters only elementwise and through its
    minimum, which is exact.  So the results do not depend on the layout of
    the inputs.  The mask and its count are exact too, and so is
    wstar = mask / count.  out, a (2, n_atoms, n) array, receives wstar in
    out[0] and is scratch otherwise.

    Returns:
      (wstar, gap, change, entropy): wstar is (n, n_atoms), the transpose of
      out[0], and the others are (n,) arrays.
    """
    n, n_atoms = table.shape
    h = table.T
    wstar, p = np.empty((2, n_atoms, n)) if out is None else out
    wpi = sde._weight_columns(wpi)
    _atom_major(wpi, p)
    hmin = np.minimum.reduce(h, axis=0)
    gap = np.add.reduce(np.multiply(h, p, out=wstar), axis=0)
    gap -= hmin
    entropy = _path_entropy(wpi, p, wstar)
    np.less_equal(h, hmin + eta * (1.0 + np.abs(hmin)), out=wstar)
    # mask times 1/count is mask / count, bit for bit: the mask is 0 or 1
    wstar *= 1.0 / np.add.reduce(wstar, axis=0)
    np.abs(np.subtract(wstar, p, out=p), out=p)
    change = np.add.reduce(p, axis=0)
    return wstar.T, gap, change, entropy


def _atom_major(parts, p):
    """Write step weights, as (row, cols, block) parts, into p (n_atoms, m).

    p receives the first m paths: row for an atom that does not vary, the
    transposed block for those that do.
    """
    row, cols, block = parts
    m = p.shape[1]
    if cols.size == row.size:
        np.copyto(p, block[:m].T)
        return
    np.copyto(p, row[:, None])
    if cols.size:
        p[cols] = block[:m].T


def _xlogx(a, out=None):
    """a log a, elementwise, into out when given, and 0 where a <= 0."""
    out = np.empty_like(a) if out is None else out
    out.fill(0.0)
    np.log(a, out=out, where=a > 0.0)
    out *= a
    return out


def _path_entropy(w, p=None, out=None):
    """Entropy -sum_a w log w of each path of step weights w.

    This is the only entropy formula.  w is an (n, n_atoms) array or its
    (row, cols, block) parts (sde._weight_columns).  out, of p's shape,
    receives w log w of every atom on every path, taken on p, w's
    atom-major (n_atoms, n) C-ordered copy, with the log only where w > 0:
    0 log 0 = 0.  When only the atoms cols vary over paths, w log w of
    every other atom is taken once, on row.  p and out are made here when
    not given.  The sum is an np.add.reduce over the leading axis of out:
    in atom order for n >= 2 paths, pairwise for one.  Path-constant
    weights follow the path-constant rule (sde._path_constant, on block),
    on the first two columns of p.
    """
    w = sde._weight_columns(w)
    row, cols, block = w
    constant = sde._path_constant(block)
    if p is None:
        n = block.shape[0]
        p = np.empty((row.size, min(n, 2) if constant else n))
        _atom_major(w, p)
        out = np.empty_like(p)
    elif constant:
        p, out = p[:, :2], out[:, :2]
    if constant or cols.size == row.size:
        _xlogx(p, out)
    else:
        np.copyto(out, _xlogx(row)[:, None])
        out[cols] = _xlogx(p[cols])
    entropy = -np.add.reduce(out, axis=0)
    return _all_paths(entropy, block.shape[0]) if constant else entropy


def _step_is_path_constant(model, t, states, y, yprime, z, wpi):
    """Whether a step's Hamiltonian inputs are the same on every path.

    They are when y', y, z and the policy weights wpi are path-constant
    (sde._path_constant; wpi's varying columns, as sde._weight_columns
    splits it), tested in that order, and every coefficient table the
    Hamiltonian reads has path size 1.  The weights come last: theirs is
    the costliest compare, and under mean-deviation risk y' is the input
    that varies.  The table shapes are read off tables of the first two
    states, and only once the cheaper tests pass.  -0.0 equals 0.0 here; a
    zero's sign can reach only the step's gap, and only when it is zero,
    where msa_solve's sum over steps drops the sign.
    """
    return (
        all(
            sde._path_constant(a)
            for a in (yprime, y, z, sde._weight_columns(wpi)[2])
        )
        and all(
            tab.shape[1] == 1
            for tab in coefficient_tables(
                model, t, states[:2], _HAMILTONIAN_KEYS
            ).values()
        )
    )


def _minimize_step(model, t, states, y, yprime, z, wpi, eta, buffers):
    """wstar, gap, change and entropy of one step, as _near_min_weights gives.

    wpi is an (n, n_atoms) array or its (row, cols, block) parts
    (sde._weight_columns).  buffers, a (3, n_atoms, n) array, holds the
    table, wstar and scratch.  A step whose inputs are the same on every
    path (_step_is_path_constant) has the same table on every path, and the
    path-constant rule (sde._path_constant) evaluates it once; the buffers
    are then unused.
    """
    if _step_is_path_constant(model, t, states, y, yprime, z, wpi):
        row, cols, block = sde._weight_columns(wpi)
        table = _hamiltonian_atoms(model, t, states[:2], y[:2], yprime[:2], z[:2])
        return [
            _all_paths(a, states.shape[0])
            for a in _near_min_weights(table, eta, (row, cols, block[:2]))
        ]
    table = _hamiltonian_atoms(model, t, states, y, yprime, z, out=buffers[0])
    return _near_min_weights(table, eta, wpi, out=buffers[1:])


def _path_mean(a):
    """float(np.mean(a)) of a per-path (n,) array, bit for bit.

    np.mean is the same np.add.reduce divided by n, behind about 3 us of
    Python-level argument handling a call; msa_solve takes three means per
    step.
    """
    return float(np.add.reduce(a)) / a.shape[0]


def policy_entropy(weights):
    """Path mean of the entropy of policy weights, msa_solve's.

    weights is an (n, n_atoms) array or its (row, cols, block) parts
    (sde._weight_columns).
    """
    return float(np.mean(_path_entropy(weights)))


def objective(model, risk, policy, driver, grid):
    """Risk of the total-cost sample from a fresh forward simulation."""
    ens = simulate_forward(model, policy, driver, grid)
    return evaluate(risk, EmpiricalSample(total_cost(ens, model)))


# The most bootstrap resamples: their values take 8 MB, and the standard
# error's own relative Monte Carlo error, about 1 / sqrt(2 n_boot), is then
# under 0.1%, so more buy nothing.
MAX_N_BOOT = 1_000_000

# The largest relative tie tolerance.  At 1e6 an atom already ties unless
# its H exceeds H_min by a millionfold of 1 + |H_min|, and a larger eta
# only brings eta * (1 + |H_min|) nearer to overflow.
MAX_ETA = 1e6


@dataclass(frozen=True)
class MsaConfig:
    """Iteration controls for msa_solve.

    The damping schedule is alpha_k = damping_base / (1 + k / damping_scale),
    nonincreasing in k.  eta is the relative Hamiltonian tie tolerance, at
    most MAX_ETA, tol the convergence threshold on the objective change,
    and seed, in [0, 2**64), drives the n_boot bootstrap resamples, 2 to
    MAX_N_BOOT, whose standard errors the report records; the Brownian driver
    keys its streams with the seed mod 2**64, so a larger seed would repeat
    a smaller one's paths.  Each error names the field it rejects first.
    """

    max_iters: int = 25
    damping_base: float = 0.5
    damping_scale: float = 10.0
    eta: float = 1e-9
    tol: float = 1e-4
    n_boot: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.damping_base <= 1.0:
            raise ValueError("damping_base must be in (0, 1]")
        if self.damping_scale <= 0.0:
            raise ValueError("damping_scale must be > 0")
        if not 0.0 < self.eta <= MAX_ETA:
            raise ValueError(f"eta must be in (0, {MAX_ETA:g}], got {self.eta!r}")
        if self.tol < 0.0:
            raise ValueError("tol must be >= 0")
        if self.n_boot < 2:
            raise ValueError(f"n_boot must be >= 2, got {self.n_boot}")
        if self.n_boot > MAX_N_BOOT:
            raise ValueError(f"n_boot must be at most {MAX_N_BOOT}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed!r}")

    def alpha(self, k):
        return self.damping_base / (1.0 + k / self.damping_scale)


@dataclass(frozen=True)
class IterationRecord:
    """One solver iteration; its fields are the columns of objective_trace.csv."""

    iter: int
    objective: float
    objective_se: float
    hamiltonian_gap: float
    policy_change: float
    policy_entropy: float
    martingale_max_drift: float


@dataclass
class SolveReport:
    """The solver's iterations, one record each, and whether it converged.

    Everything else about the iterations is derived from the records.
    """

    records: list = field(default_factory=list)
    converged: bool = False

    @property
    def n_iters(self):
        return len(self.records)

    @property
    def max_iters_exceeded(self):
        return not self.converged

    @property
    def best_iter(self):
        """First iteration with the lowest objective."""
        return min(range(self.n_iters), key=lambda i: self.records[i].objective)

    @property
    def non_monotone_iters(self):
        """Iterations whose objective exceeds the previous one by over 2 SE."""
        r = self.records
        return [
            i for i in range(1, len(r))
            if r[i].objective > r[i - 1].objective + 2.0 * r[i - 1].objective_se
        ]


def msa_solve(model, risk, init, cfg, driver, basis, grid):
    """Damped successive approximation of the coupled optimality system.

    Each iteration simulates under the current policy, evaluates the risk and
    its derivative at the empirical cost law, solves the backward regressions
    for y' and (y, z), minimizes the Hamiltonian at every (path, step),
    fits the minimizing weights into a feedback policy q*, and updates
    pi <- (1 - alpha_k) pi + alpha_k q*.  Stops when the objective change
    drops below cfg.tol or after cfg.max_iters iterations, returning the
    policy of the report's best_iter in the latter case.  Every iteration
    overwrites one sde.ForwardArrays, one adjoint.AdjointArrays and the
    Hamiltonian's buffers.  The bootstrap's resample indices, the same for
    every iteration, are drawn once (bootstrap_indices), when they fit its
    byte budget.  A non-finite risk value or derivative is a NumericalBlowup.

    Returns:
      (policy, SolveReport)
    """
    report = SolveReport()
    policies = [init]  # the policy simulated at each iteration
    n, n_steps = driver.n_paths, grid.n_steps
    forward = ForwardArrays(n, n_steps, model.dim_x, model.n_atoms)
    backward = AdjointArrays(n, n_steps, model.dim_x, model.dim_w)
    buffers = np.empty((3, model.n_atoms, n))
    resamples = bootstrap_indices(n, cfg.n_boot, cfg.seed)

    for it in range(cfg.max_iters):
        policy = policies[-1]
        ens = simulate_forward(
            model, policy, driver, grid, keep_weights=True, out=forward
        )
        sample = EmpiricalSample(total_cost(ens, model))
        obj = evaluate(risk, sample)
        if not np.isfinite(obj):
            raise NumericalBlowup(n_steps, "risk value")
        se = bootstrap_standard_error(
            risk, sample, cfg.n_boot, cfg.seed, resamples
        )
        deriv = l_derivative(risk, sample)
        if not np.isfinite(deriv).all():
            raise NumericalBlowup(n_steps, "risk derivative")
        slices = _slice_regressions(ens, basis)
        adj = solve_adjoint_system(model, ens, deriv, basis, slices, out=backward)
        mart = martingale_diagnostics(adj.yprime)

        gap_sum = 0.0
        change_sum = 0.0
        entropy_sum = 0.0
        fitted_steps = []
        for k in range(n_steps):
            wstar, gap, change, entropy = _minimize_step(
                model, grid.nodes[k], ens.states[:, k], *adj.step(k),
                ens.weight_columns(k), cfg.eta, buffers,
            )
            gap_sum += _path_mean(gap)
            change_sum += _path_mean(change) / model.n_atoms
            entropy_sum += _path_mean(entropy)
            fitted_steps.append(slices[k].fit_coefficients(wstar))

        report.records.append(IterationRecord(
            it, obj, se, gap_sum / n_steps, change_sum / n_steps,
            entropy_sum / n_steps, mart.max_drift,
        ))
        if it > 0 and abs(obj - report.records[-2].objective) < cfg.tol:
            report.converged = True
            return policy, report

        qstar = MeasurePolicy.fitted(fitted_steps, basis, model.n_atoms)
        policies.append(convex_combine(policy, qstar, cfg.alpha(it)))

    return policies[report.best_iter], report
