"""Forward simulation of measure-controlled SDEs on a uniform time grid.

The state equation is integrated with explicit Euler-Maruyama where the drift,
diffusion and cost-rate coefficients are first averaged against the control
measure and only then applied to dt and dW (the measure enters *inside* the
stochastic integral, so a half/half mixture of +1 and -1 volatility is exactly
zero noise, not root-mean-square noise).  Running costs accumulate with the
left-endpoint rule into an auxiliary scalar path.

All per-path randomness comes from counter-based Philox streams keyed by
(seed, path index): path i of a driver is bit-identical no matter how many
paths are requested, and every simulation is deterministic for a fixed seed
and independent of thread count (reductions are fixed-order numpy ops).
"""

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    AlphaOutOfRange,
    InvalidPolicyWeights,
    NonPositiveHorizon,
    NumericalBlowup,
    ZeroSteps,
)

__all__ = [
    "TimeGrid",
    "ModelSpec",
    "FeasibilityConfig",
    "FeasibilityReport",
    "BrownianDriver",
    "MeasurePolicy",
    "PathEnsemble",
    "build_time_grid",
    "sample_brownian",
    "simulate_forward",
    "total_cost",
    "convex_combine",
    "coefficient_tables",
    "simulate_variational",
    "check_feasibility",
    "validate_gradients",
    "dirac_initial",
]

# Stream id reserved for drawing initial states; unreachable as a path index.
_INITIAL_STREAM = (1 << 64) - 1

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, horizon] into n_steps intervals.

    The nodes are allocated on first use, so that a grid checks its step
    count before anything sized by it is allocated.
    """

    horizon: float
    n_steps: int

    @property
    def dt(self):
        return self.horizon / self.n_steps

    @functools.cached_property
    def nodes(self):
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


def build_time_grid(horizon, n_steps):
    """Return a uniform TimeGrid with n_steps+1 nodes covering [0, horizon]."""
    if not math.isfinite(horizon) or horizon <= 0.0:
        raise NonPositiveHorizon(f"horizon must be > 0, got {horizon}")
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ZeroSteps(f"n_steps must be >= 1, got {n_steps}")
    return TimeGrid(horizon=float(horizon), n_steps=n_steps)


def dirac_initial(x0):
    """Initial-law sampler for a point mass at x0."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))

    def sampler(rng, n):
        return np.tile(x0, (n, 1))

    return sampler


@dataclass(frozen=True)
class ModelSpec:
    """Problem data: coefficient maps, their state gradients, and metadata.

    Coefficient maps are vectorized over paths.  For states x of shape
    (n, dim_x) and a single action atom a of shape (dim_a,):

        drift(t, x, a)        -> broadcastable to (n, dim_x)
        diffusion(t, x, a)    -> broadcastable to (n, dim_x, dim_w)
        cost(t, x, a)         -> broadcastable to (n,)
        terminal(x)           -> broadcastable to (n,)
        drift_dx(t, x, a)     -> (n, dim_x, dim_x),  [i, l] = d b_i / d x_l
        diffusion_dx(t, x, a) -> (n, dim_x, dim_w, dim_x)
        cost_dx(t, x, a)      -> (n, dim_x)
        terminal_dx(x)        -> (n, dim_x)
        initial(rng, n)       -> (n, dim_x)

    action_grid holds the finite set of atoms, shape (n_atoms, dim_a);
    measure-valued policies place weights on these atoms.  growth carries the
    integrability exponents used by check_feasibility, when known.

    tables, when set, is the coefficient-table hook tables(t, x, keys) ->
    dict that evaluates every atom at once, for at least the names in keys;
    see coefficient_tables.  It is authoritative: the solver then never
    calls drift, diffusion, cost or their Jacobians, which remain the
    reference validate_gradients checks.
    constant_coefficients declares that drift, diffusion, cost and their
    Jacobians depend on neither t nor x and are finite on every atom; the
    solver then calls each callable once per atom, on first use, and reuses
    the tables.
    """

    dim_x: int
    dim_w: int
    dim_a: int
    drift: callable
    diffusion: callable
    cost: callable
    terminal: callable
    drift_dx: callable
    diffusion_dx: callable
    cost_dx: callable
    terminal_dx: callable
    initial: callable
    action_grid: np.ndarray
    growth: "FeasibilityConfig | None" = None
    tables: "callable | None" = None
    constant_coefficients: bool = False
    # Filled by coefficient_tables for constant-coefficient models.  Not an
    # init field, so dataclasses.replace starts an empty one.
    _constant_tables: dict = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        grid = np.asarray(self.action_grid, dtype=float)
        if grid.ndim == 1:
            grid = grid[:, None]
        if grid.ndim != 2 or grid.shape[1] != self.dim_a or grid.shape[0] < 1:
            raise ValueError(
                f"action_grid must have shape (n_atoms, {self.dim_a})"
            )
        object.__setattr__(self, "action_grid", grid)

    @property
    def n_atoms(self):
        return self.action_grid.shape[0]


def _coef(fn, t, x, a, shape):
    out = np.asarray(fn(t, x, a), dtype=float)
    return np.broadcast_to(out, shape)


TABLE_KEYS = ("drift", "diffusion", "cost", "drift_dx", "diffusion_dx", "cost_dx")


def _trailing_shapes(model):
    dx, dw = model.dim_x, model.dim_w
    return {
        "drift": (dx,),
        "diffusion": (dx, dw),
        "cost": (),
        "drift_dx": (dx, dx),
        "diffusion_dx": (dx, dw, dx),
        "cost_dx": (dx,),
    }


def coefficient_tables(model, t, x, keys=TABLE_KEYS, weights=None):
    """Coefficients of every atom at (t, x), stacked along a leading atom axis.

    This is the only place that evaluates model coefficients over atoms.  For
    each name in keys (a subset of TABLE_KEYS) it returns an array with shape
    (n_atoms or 1, n or 1) + the per-atom callable's trailing shape; a size-1
    axis means the coefficient does not depend on the atom or the state.

    A model's tables hook is authoritative when set.  A constant-coefficient
    model gets read-only (n_atoms, 1, ...) tables, evaluated once at t = 0,
    x = 0.  Otherwise the per-atom callables are looped over, only for atoms
    whose nonnegative weight (n, n_atoms) is positive on some path (all atoms
    when weights is None); the other atoms stay zero, so an unused atom
    cannot leak NaN into a weighted sum.  weights may also be a function
    returning that array, called only by this loop.
    """
    if model.tables is not None:
        tabs = model.tables(t, x, keys)
        return {key: tabs[key] for key in keys}
    if model.constant_coefficients:
        cache = model._constant_tables
        for key in keys:
            if key not in cache:
                tab = _atom_loop(model, key, 0.0, np.zeros((1, model.dim_x)))
                tab.flags.writeable = False
                cache[key] = tab
        return {key: cache[key] for key in keys}
    if weights is None:
        active = range(model.n_atoms)
    else:
        weights = weights() if callable(weights) else weights
        active = np.flatnonzero(weights.max(axis=0) > 0.0)
    return {key: _atom_loop(model, key, t, x, active) for key in keys}


def _atom_loop(model, key, t, x, active=None):
    """(n_atoms, n) + trailing table of one coefficient, zero off active."""
    fn = getattr(model, key)
    tab = np.zeros((model.n_atoms, x.shape[0]) + _trailing_shapes(model)[key])
    for j in range(model.n_atoms) if active is None else active:
        tab[j] = np.asarray(fn(t, x, model.action_grid[j]), dtype=float)
    return tab


def _path_constant(a):
    """Whether every path's entries of a, an (n, ...) array, equal path 0's.

    This predicate and _all_paths are the one path-constant rule.  A step
    whose inputs are path-constant is evaluated on its first min(n, 2)
    paths, a[:2], and each per-path result is handed back for all n paths
    by _all_paths.  Two paths, not one: an (A, m) array with m >= 2 sums
    over its leading axis in the order of the (A, n) one, while a single
    column is summed pairwise.  The results keep the bits of the full-width
    evaluation, and so do their np.mean over the n broadcast copies.

    True at once for one path or a broadcast row (row stride 0).  Otherwise
    the last path is compared first, then about 64 paths spread over the
    array, so an array that varies over paths is usually rejected without a
    pass over all of them.  NaN equals nothing, so a compared array holding
    one is never path-constant.
    """
    n = a.shape[0]
    if n == 1 or a.strides[0] == 0:
        return True
    first = a[:1]
    return bool(
        (a[-1:] == first).all()
        and (a[:: n // 64 + 1] == first).all()
        and (a == first).all()
    )


def _all_paths(result, n):
    """Path 0 of a per-path result on a path-constant step, for all n paths.

    The read-only row-stride-0 view that np.broadcast_to(result[0], ...)
    gives, built directly on a contiguous (1, ...) row: np.broadcast_to's
    argument handling took about 3.5 us a call, this about 1.7 us, and a
    risk-neutral portfolio solve makes thousands.
    """
    row = result[:1]
    if not row.flags.c_contiguous:
        row = row.copy()
    view = np.ndarray(
        (n,) + row.shape[1:], row.dtype, row, strides=(0,) + row.strides[1:]
    )
    view.flags.writeable = False
    return view


def _step_major(shape, init=np.empty):
    """An (n_paths, n_times, ...) array stored step-major.

    It is the view of a C-ordered (n_times, n_paths, ...) array with its
    first two axes swapped: the shape is the path-major one, and every time
    slice a[:, k] is one contiguous block.  Per-step passes read and write
    such slices, which on a path-major array touch one cache line per path.
    """
    n_paths, n_times, *trailing = shape
    return init((n_times, n_paths, *trailing)).swapaxes(0, 1)


@dataclass(frozen=True)
class BrownianDriver:
    """Gaussian increments on a grid, one Philox stream per path.

    increments[i, k, j] ~ N(0, dt) is drawn from the stream keyed by
    (seed, i); regenerating with the same seed reproduces the array
    bit-exactly and path i does not depend on n_paths.  sample_brownian
    stores the increments step-major (increments[:, k] is contiguous); any
    layout of the same values simulates to the same bits.
    """

    increments: np.ndarray
    seed: int

    @property
    def n_paths(self):
        return self.increments.shape[0]

    @property
    def n_steps(self):
        return self.increments.shape[1]

    @property
    def dim_w(self):
        return self.increments.shape[2]


def _path_stream(seed, stream_id):
    key = ((int(seed) % (1 << 64)) << 64) | (int(stream_id) % (1 << 64))
    return np.random.Generator(np.random.Philox(key=key))


def sample_brownian(grid, n_paths, dim_w, seed):
    """Draw Brownian increments for n_paths paths on the given grid.

    Paths are drawn a block at a time, each from its own stream, into one
    small reused (paths, n_steps, dim_w) buffer, and each block is scaled by
    sqrt(dt) straight into the step-major increments.

    Args:
      grid: TimeGrid fixing n_steps and dt.
      n_paths: number of paths, >= 1.
      dim_w: driving Brownian dimension.
      seed: 64-bit integer; the only entropy source.

    Returns:
      BrownianDriver with increments of shape (n_paths, n_steps, dim_w),
      stored step-major.
    """
    n_paths = int(n_paths)
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    n_steps, dim_w = grid.n_steps, int(dim_w)
    out = _step_major((n_paths, n_steps, dim_w))
    rows, blocks = _row_blocks(n_paths, n_steps * dim_w)
    buf = np.empty((rows, n_steps, dim_w))
    scale = math.sqrt(grid.dt)
    # One Philox re-keyed per path gives _path_stream(seed, i)'s draws without
    # building a generator, and seeding it from OS entropy, for every path.
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    key = np.array([0, int(seed) % (1 << 64)], dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for lo, hi in blocks:
        block = buf[: hi - lo]
        for i, draws in enumerate(block, start=lo):
            key[0] = i
            bitgen.state = state
            gen.standard_normal(out=draws)
        np.multiply(block, scale, out=out[lo:hi])
    return BrownianDriver(increments=out, seed=int(seed))


class MeasurePolicy:
    """A measure-valued feedback control on a finite action grid.

    Per time index k, weights_at maps the state array to nonnegative atom
    weights summing to one.  Policies are immutable once built; convex
    combinations are flat mixtures evaluated lazily.
    """

    n_atoms: int

    def weights_at(self, k, t, states, out=None):
        """Checked step-k (n, n_atoms) weights at the (n, dim_x) states.

        Each policy checks the weights it makes, so callers check nothing.
        It may write them into out, an (n, n_atoms) array, or return its own
        array.  Weights that are the same on every path come back as a
        read-only broadcast row (row stride 0), so that the path-constant
        rule (_path_constant) reads them by their stride alone.  A fault at
        step k raises InvalidPolicyWeights or NumericalBlowup(k, "policy
        weights").
        """
        raise NotImplementedError

    @staticmethod
    def constant(weights):
        """State-independent weights; one row per step or a single row."""
        return _ConstantPolicy(weights)

    @staticmethod
    def dirac(atom_index, n_atoms):
        if not 0 <= atom_index < n_atoms:
            raise ValueError(f"atom index {atom_index} outside [0, {n_atoms})")
        w = np.zeros(n_atoms)
        w[atom_index] = 1.0
        return _ConstantPolicy(w)

    @staticmethod
    def uniform(n_atoms):
        return _ConstantPolicy(np.full(n_atoms, 1.0 / n_atoms))

    @staticmethod
    def feedback(rule, n_atoms):
        """Wrap rule(k, t, states) -> (n, n_atoms) as a policy."""
        return _RulePolicy(rule, n_atoms)

    @staticmethod
    def fitted(steps, basis, n_atoms):
        """Clipped-affine feedback fitted on basis features, such as q*.

        steps holds one (intercept (n_atoms,), coef (m, n_atoms)) pair per
        step: the pre-weights intercept + basis.design(x) @ coef are clipped
        at 0 and renormalized per path, uniform where no mass is left.  When
        every coef is exactly zero the weights do not depend on the state,
        and the policy is the constant one of the clipped intercepts.
        """
        if all(not coef.any() for _, coef in steps):
            rows = np.stack([intercept for intercept, _ in steps])
            np.clip(rows, 0.0, None, out=rows)
            mass = rows.sum(axis=1, keepdims=True)
            vanished = mass[:, 0] <= _VANISHED_MASS
            rows[vanished] = 1.0
            mass[vanished] = n_atoms
            rows /= mass
            return _ConstantPolicy(rows)
        return _MixturePolicy([(1.0, _FittedComponent(basis, steps))], n_atoms)


def _check_weight_rows(w, where, step=None):
    """Reject negative weights and rows not summing to 1.

    Weights that belong to a time step are a run-time fault of the policy and
    raise InvalidPolicyWeights; other weights, such as a constant policy's,
    raise ValueError.  A NaN or infinite weight makes its row sum non-finite,
    which the sum check alone would let through, since comparisons with NaN
    are false.  Such rows raise NumericalBlowup(step, "policy weights") at a
    time step.  A step's path-constant rows (_path_constant) are checked on
    the first two; a constant policy's rows, one per step, are all checked.
    """
    if step is not None and w.ndim == 2 and _path_constant(w):
        w = w[:2]
    error = ValueError if step is None else InvalidPolicyWeights
    if np.any(w < 0.0):
        raise error(f"negative policy weight at {where}")
    sums = w.sum(axis=-1)
    if not np.isfinite(sums).all():
        if step is not None:
            raise NumericalBlowup(step, "policy weights")
        raise ValueError(f"non-finite policy weight at {where}")
    if np.any(np.abs(sums - 1.0) > _WEIGHT_TOL):
        worst = float(np.max(np.abs(sums - 1.0)))
        raise error(f"policy weights at {where} sum off by {worst:.2e}")


class _ConstantPolicy(MeasurePolicy):
    def __init__(self, weights):
        w = np.atleast_2d(np.asarray(weights, dtype=float))
        _check_weight_rows(w, "constant policy")
        self.weights = w
        self.n_atoms = w.shape[1]

    def row(self, k):
        return self.weights[k] if self.weights.shape[0] > 1 else self.weights[0]

    def weights_at(self, k, t, states, out=None):
        first = k if self.weights.shape[0] > 1 else 0
        return _all_paths(self.weights[first:], states.shape[0])


class _RulePolicy(MeasurePolicy):
    def __init__(self, rule, n_atoms):
        self.rule = rule
        self.n_atoms = n_atoms

    def weights_at(self, k, t, states, out=None):
        w = np.asarray(self.rule(k, t, states), dtype=float)
        w = np.broadcast_to(w, (states.shape[0], self.n_atoms))
        if _path_constant(w):
            w = _all_paths(w, states.shape[0])
        _check_weight_rows(w, f"feedback policy, step {k}", step=k)
        return w


# Clipped pre-weights whose row sum is at most this have vanished; the row is
# then uniform.
_VANISHED_MASS = 1e-300

# Element budget of one row block (_row_blocks), here the (rows, components,
# atoms) pre-weight array and the (paths, n_steps, dim_w) driver draws, and
# in risk's bootstrap the (rows, n) resample block and its indices: 2**15
# float64 = 256 KB, small enough to stay in cache through the block's passes.
_BLOCK_ELEMENTS = 1 << 15


def _row_blocks(total, width):
    """(rows, edges): total rows of width elements each, split into blocks.

    edges are the (lo, hi) row ranges in order, each of
    max(1, _BLOCK_ELEMENTS // width) rows but the last, so a block holds at
    most _BLOCK_ELEMENTS elements unless one row alone holds more.  rows,
    that block size capped at total, sizes the buffer the blocks reuse.
    """
    step = max(1, _BLOCK_ELEMENTS // width)
    return min(step, total), [
        (lo, min(lo + step, total)) for lo in range(0, total, step)
    ]


def _eval_affine_batch(basis, states, scales, intercepts, coefs, n_atoms,
                       out=None):
    """Mix a batch of clipped-affine weight maps, one row block at a time.

    Component c maps the raw features phi to pre-weights
    intercepts[c] + phi @ coefs[c], clips negatives and renormalizes per path
    (uniform fallback on vanished rows); the result is the (n, n_atoms)
    mixture sum_c scales[c] * weights_c.  Only the live atoms, those with a
    nonzero intercept or coefficient in some component, are computed: any
    other atom's pre-weight is exactly 0 after the clip.  Rows are processed
    in blocks whose (rows, C, live atoms) pre-weights hold at most
    _BLOCK_ELEMENTS elements, and each block is one matmul, an in-place
    intercept add and clip, one mass contraction and one mixing contraction
    with the normalization folded into the scales.  A vanished component row
    spreads its scale uniformly over all n_atoms atoms.  out, an (n, n_atoms)
    array, is zero-filled and receives the mixture when given.
    """
    phi = basis.design(states)
    n, m = phi.shape
    n_comp = len(scales)
    scales = np.asarray(scales, dtype=float)
    intercept = np.stack(intercepts)
    coef = np.stack(coefs, axis=1)  # (m, C, n_atoms)
    act = np.flatnonzero(intercept.any(axis=0) | coef.any(axis=(0, 1)))
    n_act = act.size
    intercept = intercept[:, act].ravel()
    coef = coef[:, :, act].reshape(m, n_comp * n_act)
    rows, blocks = _row_blocks(n, n_comp * max(n_act, 1))
    raw_buf = np.empty((rows, n_comp * n_act))
    mass_buf = np.empty((rows, n_comp))
    mix_buf = np.empty((rows, n_act))
    if out is None:
        out = np.empty((n, n_atoms))
    out.fill(0.0)
    for lo, hi in blocks:
        raw = np.matmul(phi[lo:hi], coef, out=raw_buf[: hi - lo])
        raw += intercept
        np.clip(raw, 0.0, None, out=raw)
        raw = raw.reshape(hi - lo, n_comp, n_act)
        mass = np.einsum("nca->nc", raw, out=mass_buf[: hi - lo])
        empty = mass <= _VANISHED_MASS
        if empty.any():
            fallback = (empty * (scales / n_atoms)).sum(axis=1)
            out[lo:hi] += fallback[:, None]
            mass[empty] = np.inf  # mix scale 0
        np.divide(scales, mass, out=mass)
        out[lo:hi, act] += np.einsum("nca,nc->na", raw, mass, out=mix_buf[: hi - lo])
    return out


@dataclass(frozen=True)
class _FittedComponent:
    """A fitted mixture component: per step, (intercept, coef) on basis features."""

    basis: object
    steps: list


class _MixturePolicy(MeasurePolicy):
    """Flat convex mixture of (scale, component) pairs.

    Fitted components that share a basis are stacked into one kernel call per
    step, and state-independent components are summed into one weight row,
    keeping evaluation cost flat as the mixture grows.  Any other component
    is a policy evaluated on its own.
    """

    def __init__(self, components, n_atoms):
        self.components = components
        self.n_atoms = n_atoms

    def weights_at(self, k, t, states, out=None):
        """The step-k weights; out, an (n, n_atoms) array, receives them if given.

        out is written only when some component depends on the state; the
        weights of constant components alone are one broadcast row.  Other
        components' weights must sum to a finite total.  Summed weights that
        are the same on every path (_path_constant) are handed out as path
        0's row, broadcast.
        """
        row = None  # the constant components, summed
        acc = None  # the other components, summed into out when given
        batches = {}
        for scale, comp in self.components:
            if isinstance(comp, _FittedComponent):
                intercept, coef = comp.steps[k]
                entry = batches.setdefault(id(comp.basis), (comp.basis, [], [], []))
                entry[1].append(scale)
                entry[2].append(intercept)
                entry[3].append(coef)
            elif isinstance(comp, _ConstantPolicy):
                w = scale * comp.row(k)
                row = w if row is None else row + w
            else:
                w = comp.weights_at(k, t, states)
                if acc is None:
                    acc = np.multiply(scale, w, out=out)
                else:
                    acc += scale * w
        for basis, scales, intercepts, coefs in batches.values():
            args = (basis, states, scales, intercepts, coefs, self.n_atoms)
            if acc is None:
                acc = _eval_affine_batch(*args, out=out)
            else:
                acc += _eval_affine_batch(*args)
        if acc is None:
            return np.broadcast_to(row, (states.shape[0], self.n_atoms))
        # Convex combinations of clipped, renormalized fits, of constant rows
        # checked when built and of rules checked when evaluated: only a
        # non-finite coefficient can spoil them, and finite weights lie in
        # [0, 1], so it shows in the total.
        if not math.isfinite(np.add.reduce(acc, axis=None)):
            raise NumericalBlowup(k, "policy weights")
        if row is not None:
            acc += row
        return _all_paths(acc, states.shape[0]) if _path_constant(acc) else acc


def _mixture_terms(policy, scale):
    if isinstance(policy, _MixturePolicy):
        return [(scale * s, c) for s, c in policy.components]
    return [(scale, policy)]


def convex_combine(pi, q, alpha):
    """Return the policy with weights (1 - alpha) * pi + alpha * q per step/state."""
    if not (0.0 <= alpha <= 1.0):
        raise AlphaOutOfRange(f"alpha must be in [0, 1], got {alpha}")
    if pi.n_atoms != q.n_atoms:
        raise ValueError("policies live on different action grids")
    if alpha == 0.0:
        return pi
    if alpha == 1.0:
        return q
    if isinstance(pi, _ConstantPolicy) and isinstance(q, _ConstantPolicy):
        rows = max(pi.weights.shape[0], q.weights.shape[0])
        wp = np.broadcast_to(pi.weights, (rows, pi.n_atoms))
        wq = np.broadcast_to(q.weights, (rows, q.n_atoms))
        return _ConstantPolicy((1.0 - alpha) * wp + alpha * wq)
    terms = _mixture_terms(pi, 1.0 - alpha) + _mixture_terms(q, alpha)
    return _MixturePolicy(terms, pi.n_atoms)


_NO_COLUMNS = np.empty(0, dtype=np.intp)


def _weight_columns(w):
    """(row, cols, block): step weights split by the atoms that vary over paths.

    row is path 0's (n_atoms,) weights, cols the atoms whose weights may
    vary and block the (n, cols.size) weights of those atoms, block[:, j]
    those of atom cols[j]; every other atom's weight is row's on every
    path.  A kept step (_KeptWeights.columns) is such a triple already, and
    is returned as it is.  An (n, n_atoms) array is split without a
    compare: a broadcast row into no columns, any other array into all.
    """
    if isinstance(w, tuple):
        return w
    if w.strides[0] == 0:
        return w[0], _NO_COLUMNS, w[:, :0]
    return w[0], np.arange(w.shape[1]), w


def _varying_columns(w):
    """The atoms whose weight bits differ between paths of (n, n_atoms) w.

    The bits are compared as uint64, so +0.0 and -0.0 differ.  numpy runs
    one inner loop per row of its operands, whose overhead dominates rows
    of n_atoms elements, so a C-ordered w is compared 32 paths at a time:
    as (n // 32, 32 * n_atoms) rows against path 0's row tiled 32 times.
    """
    bits = w.view(np.uint64)
    n, n_atoms = bits.shape
    r = 32 if bits.flags.c_contiguous else 1
    head = n - n % r
    differs = bits[:head].reshape(head // r, r * n_atoms) != np.tile(bits[0], r)
    varies = np.logical_or.reduce(differs, axis=0).reshape(r, n_atoms)
    tail = bits[head:] != bits[0]
    return np.flatnonzero(np.logical_or.reduce(np.vstack([varies, tail]), axis=0))


class _KeptWeights(Sequence):
    """The per-step weights a forward pass kept, stored by the atoms that vary.

    A step whose weights the policy handed out as a broadcast row keeps
    that row.  Any other step keeps path 0's (n_atoms,) row and an (n, v)
    block of the v atom columns whose bits, compared as uint64 so that
    +0.0 and -0.0 differ, are not the same on every path; every other
    column is row's entry on every path.  The blocks are packed back to
    back from the start of store (ForwardArrays.weights), so that used, the
    elements they take, is sum_k n * v_k.

    Item k is the (n, n_atoms) weights of step k: the broadcast row kept,
    or a fresh C-ordered array with the bits the policy handed out.
    columns(k) gives the (row, cols, block) parts (_weight_columns) without
    building that array.
    """

    def __init__(self, n_paths, store):
        self._n = n_paths
        self._store = store
        self._steps = []
        self.used = 0

    def keep(self, w, scratch):
        """Keep one step's (n, n_atoms) weights w, which may live in scratch.

        A broadcast row in scratch, which the next step overwrites, is kept
        as a copy.
        """
        n = self._n
        if w.strides[0] == 0:
            if np.may_share_memory(w, scratch):
                w = _all_paths(w[:1].copy(), n)
            self._steps.append(w)
            return
        cols = _varying_columns(w)
        end = self.used + n * cols.size
        block = self._store[self.used:end].reshape(n, cols.size)
        self.used = end
        # mode="raise" would take into a buffer first; cols are in range
        np.take(w, cols, axis=1, out=block, mode="clip")
        self._steps.append((w[0].copy(), cols, block))

    def __len__(self):
        return len(self._steps)

    def __getitem__(self, k):
        step = self._steps[k]
        if not isinstance(step, tuple):
            return step
        row, cols, block = step
        w = np.empty((self._n, row.shape[0]))
        w[:] = row
        w[:, cols] = block
        return w

    def columns(self, k):
        return _weight_columns(self._steps[k])


class ForwardArrays:
    """The per-path destinations a forward pass overwrites.

    states (n, n_steps + 1, dim_x) and running_cost (n, n_steps + 1) are
    step-major (_step_major), and step_weights is the (n, n_atoms) scratch
    each step offers the policy.  weights is the flat n_steps * n * n_atoms
    store that kept weights pack into (_KeptWeights), or None for a pass
    that keeps none.  msa_solve reuses one set for every iteration, so that
    one iteration's arrays are resident at the peak, not two, and are
    faulted in once.  The store is packed because an array of 4 MiB or more
    may be backed by 2 MiB huge pages, which one write makes resident whole.
    """

    def __init__(self, n_paths, n_steps, dim_x, n_atoms, keep_weights=True):
        self.states = _step_major((n_paths, n_steps + 1, dim_x))
        self.running_cost = _step_major((n_paths, n_steps + 1))
        self.step_weights = np.empty((n_paths, n_atoms))
        size = n_steps * n_paths * n_atoms
        self.weights = np.empty(size) if keep_weights else None


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated forward system: states, running costs, and their inputs.

    states and running_cost are a ForwardArrays' (step-major).  The
    optional policy_weights are the per-step weights the simulation kept
    (_KeptWeights, a sequence of (n, n_atoms) arrays), so downstream passes
    over the same states need not re-evaluate the policy.
    """

    states: np.ndarray        # (n_paths, n_steps + 1, dim_x), step-major
    running_cost: np.ndarray  # (n_paths, n_steps + 1), step-major
    grid: TimeGrid
    driver: BrownianDriver
    policy: MeasurePolicy
    policy_weights: "_KeptWeights | None" = None

    @property
    def n_paths(self):
        return self.states.shape[0]

    def weights_at(self, k):
        """Step-k weights of the ensemble's policy on its states.

        Returns the kept weights when the simulation stored them, so no pass
        over the same states evaluates the policy twice.
        """
        if self.policy_weights is not None:
            return self.policy_weights[k]
        return self.policy.weights_at(k, self.grid.nodes[k], self.states[:, k])

    def weight_columns(self, k):
        """Step-k weights as (row, cols, block) parts (_weight_columns).

        Kept weights give the parts they are stored in, split by the atoms
        whose bits vary over paths, with no (n, n_atoms) array built.
        """
        if self.policy_weights is not None:
            return self.policy_weights.columns(k)
        return _weight_columns(self.weights_at(k))


def _averaged_coefficients(model, t, x, weights):
    """Measure-averaged drift, diffusion and cost: sum_a w[n, a] f(t, x_n, a).

    When every table has path size 1 and the weights are path-constant, all
    paths average the same coefficients, and the path-constant rule
    (_path_constant) averages them once.
    """
    keys = ("drift", "diffusion", "cost")
    tabs = coefficient_tables(model, t, x, keys, weights)
    if all(tabs[key].shape[1] == 1 for key in keys) and _path_constant(weights):
        return [
            _all_paths(np.einsum("na,an...->n...", weights[:2], tabs[key]), len(x))
            for key in keys
        ]
    return [np.einsum("na,an...->n...", weights, tabs[key]) for key in keys]


def simulate_forward(model, policy, driver, grid, keep_weights=False,
                     out=None):
    """Euler-Maruyama integration of the measure-controlled state equation.

    Per step the update is
        x_{k+1} = x_k + [sum_a w_a b(t_k, x_k, a)] dt
                      + [sum_a w_a sigma(t_k, x_k, a)] dW_k,
    i.e. coefficients are averaged against the step's measure before touching
    the increments, and the running cost accumulates sum_a w_a c(t_k, x_k, a) dt
    with the left-endpoint rule.  keep_weights stores the evaluated per-step
    weights on the returned ensemble (_KeptWeights).  The weights come
    checked from the policy (MeasurePolicy.weights_at), whose errors pass
    through.  Each step offers the policy one reused (n, n_atoms) scratch
    array, which only a mixture writes.  out, a ForwardArrays with a store
    when weights are kept, receives the pass, or a fresh one does.

    Raises:
      NumericalBlowup: if any path hits a NaN/Inf state or cost.
    """
    if driver.n_steps != grid.n_steps:
        raise ValueError("driver and grid disagree on n_steps")
    if driver.dim_w != model.dim_w:
        raise ValueError("driver and model disagree on dim_w")
    if policy.n_atoms != model.n_atoms:
        raise ValueError("policy and model disagree on the action grid")

    n = driver.n_paths
    dt = grid.dt
    if out is None:
        out = ForwardArrays(n, grid.n_steps, model.dim_x, model.n_atoms, keep_weights)
    x, xp, scratch = out.states, out.running_cost, out.step_weights
    xp[:, 0] = 0.0
    x[:, 0] = model.initial(_path_stream(driver.seed, _INITIAL_STREAM), n)
    if not np.isfinite(x[:, 0]).all():
        raise NumericalBlowup(0, "initial state")

    kept = _KeptWeights(n, out.weights) if keep_weights else None
    for k in range(grid.n_steps):
        t = grid.nodes[k]
        xk = x[:, k]
        w = policy.weights_at(k, t, xk, scratch)
        if keep_weights:
            kept.keep(w, scratch)
        bbar, sbar, cbar = _averaged_coefficients(model, t, xk, w)
        # An update that overflows is caught by the checks below, which
        # raise NumericalBlowup instead of letting RuntimeWarnings through.
        with np.errstate(over="ignore", invalid="ignore"):
            x[:, k + 1] = (
                xk
                + bbar * dt
                + np.einsum("nij,nj->ni", sbar, driver.increments[:, k])
            )
            xp[:, k + 1] = xp[:, k] + cbar * dt
        if not np.isfinite(x[:, k + 1]).all():
            raise NumericalBlowup(k + 1, "state")
        if not np.isfinite(xp[:, k + 1]).all():
            raise NumericalBlowup(k + 1, "running cost")

    return PathEnsemble(
        states=x,
        running_cost=xp,
        grid=grid,
        driver=driver,
        policy=policy,
        policy_weights=kept,
    )


def total_cost(ensemble, model):
    """Per-path total cost: terminal running cost plus terminal state cost."""
    xT = ensemble.states[:, -1]
    g = np.broadcast_to(
        np.asarray(model.terminal(xT), dtype=float), (ensemble.n_paths,)
    )
    return ensemble.running_cost[:, -1] + g


def simulate_variational(model, ensemble, q):
    """First-order response of the paths to blending the control toward q.

    Integrates, on the ensemble's own Brownian increments, the linearized
    system driven by the coefficient differences between q and the ensemble's
    policy pi:

        d delta = [Db(t, x, pi) delta + b(t, x, q - pi)] dt
                + [Dsigma(t, x, pi) delta + sigma(t, x, q - pi)] dW,
        d delta' = [Dc(t, x, pi) . delta + c(t, x, q - pi)] dt,

    with delta_0 = 0, delta'_0 = 0, where D* are the state Jacobians averaged
    under pi and f(q - pi) means the weight-difference average of f.

    Returns:
      (delta, delta_prime) of shapes (n, n_steps + 1, dim_x) and
      (n, n_steps + 1), stored step-major.
    """
    grid = ensemble.grid
    driver = ensemble.driver
    n = ensemble.n_paths
    dt = grid.dt

    delta = _step_major((n, grid.n_steps + 1, model.dim_x), np.zeros)
    delta_p = _step_major((n, grid.n_steps + 1), np.zeros)

    for k in range(grid.n_steps):
        t = grid.nodes[k]
        xk = ensemble.states[:, k]
        dk = delta[:, k]
        wpi = ensemble.weights_at(k)
        wq = q.weights_at(k, t, xk)
        wdiff = wq - wpi
        tabs = coefficient_tables(
            model, t, xk, weights=np.maximum(wpi, np.abs(wdiff))
        )
        jac_b, jac_s, jac_c = (
            np.einsum("na,an...->n...", wpi, tabs[key])
            for key in ("drift_dx", "diffusion_dx", "cost_dx")
        )
        b_diff, s_diff, c_diff = (
            np.einsum("na,an...->n...", wdiff, tabs[key])
            for key in ("drift", "diffusion", "cost")
        )

        drift_term = np.einsum("nil,nl->ni", jac_b, dk) + b_diff
        diff_term = np.einsum("niwl,nl->niw", jac_s, dk) + s_diff
        delta[:, k + 1] = (
            dk
            + drift_term * dt
            + np.einsum("niw,nw->ni", diff_term, driver.increments[:, k])
        )
        delta_p[:, k + 1] = delta_p[:, k] + (
            np.einsum("ni,ni->n", jac_c, dk) + c_diff
        ) * dt
        if not np.isfinite(delta[:, k + 1]).all():
            raise NumericalBlowup(k + 1, "variational state")

    return delta, delta_p


@dataclass(frozen=True)
class FeasibilityConfig:
    """Growth and integrability exponents of the problem data.

    L bounds the coefficients, pbar1/pbar2 their state/action growth,
    pbar3 the admissibility order of the control (may be inf), pbar the
    state integrability order, p1/p2 (and primed) the cost growth orders,
    and p the order at which the risk function is evaluated.
    """

    L: float
    pbar1: float
    pbar2: float
    pbar3: float
    pbar: float
    p1: float
    p2: float
    p1_prime: float
    p2_prime: float
    p: float

    def __post_init__(self):
        """Validate; each message starts with the name of the field at fault."""
        if not (0.0 <= self.pbar1 <= 1.0):
            raise ValueError("pbar1 must lie in [0, 1]")
        if self.pbar2 < 0.0:
            raise ValueError("pbar2 must be >= 0")
        if self.pbar3 <= 0.0:
            raise ValueError("pbar3 must be > 0")
        for name in ("pbar", "p"):
            if getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be >= 1")
        for name in ("p1", "p2", "p1_prime", "p2_prime"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        for f in fields(self):
            if f.name != "pbar3" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite; only pbar3 may be infinite")


@dataclass(frozen=True)
class FeasibilityReport:
    checks: tuple
    feasible: bool

    def failures(self):
        return [c for c in self.checks if not c[1]]


def check_feasibility(cfg):
    """Evaluate the exponent inequalities that keep total costs p-integrable.

    Returns a report with one pass/fail entry per inequality; the control's
    admissibility itself is recorded as trivially satisfied because measures
    live on a finite action grid.
    """
    ratio = math.inf if math.isinf(cfg.pbar3) else cfg.pbar3 / cfg.pbar
    bound = cfg.pbar / cfg.p - 1.0
    checks = (
        ("p < pbar", cfg.p < cfg.pbar, f"{cfg.p} < {cfg.pbar}"),
        ("pbar <= pbar3", cfg.pbar <= cfg.pbar3, f"{cfg.pbar} <= {cfg.pbar3}"),
        ("pbar2 <= pbar3/pbar", cfg.pbar2 <= ratio, f"{cfg.pbar2} <= {ratio}"),
        ("p1' <= p1", cfg.p1_prime <= cfg.p1, f"{cfg.p1_prime} <= {cfg.p1}"),
        ("p2' <= p2", cfg.p2_prime <= cfg.p2, f"{cfg.p2_prime} <= {cfg.p2}"),
        ("p1 < pbar/p - 1", cfg.p1 < bound, f"{cfg.p1} < {bound}"),
        ("p2 < pbar/p - 1", cfg.p2 < bound, f"{cfg.p2} < {bound}"),
        (
            "finite-grid admissibility",
            True,
            "sup_t int |a|^r pi_t(da) is finite on a finite action grid",
        ),
    )
    return FeasibilityReport(checks=checks, feasible=all(c[1] for c in checks))


def validate_gradients(model, seed=0, n_probes=20):
    """Check the model's gradient maps against central finite differences.

    Probes random (t, x, atom) points, t in [0, 1], and compares each
    supplied Jacobian to a second-order difference of the underlying
    coefficient.  Returns a dict of worst relative errors keyed by
    coefficient name, and "ok" when all of them are at most 1e-5.
    """
    rng = np.random.default_rng(seed)
    dx = model.dim_x
    # name -> (coefficient, its Jacobian in x, trailing shape of the value)
    maps = {
        "drift": (model.drift, model.drift_dx, (dx,)),
        "diffusion": (model.diffusion, model.diffusion_dx, (dx, model.dim_w)),
        "cost": (model.cost, model.cost_dx, ()),
        "terminal": (
            lambda t, x, a: model.terminal(x),
            lambda t, x, a: model.terminal_dx(x),
            (),
        ),
    }
    worst = dict.fromkeys(maps, 0.0)
    for _ in range(n_probes):
        t = float(rng.uniform(0.0, 1.0))
        x = rng.standard_normal((1, dx))
        a = model.action_grid[rng.integers(model.n_atoms)]
        h = 1e-6 * (1.0 + np.abs(x))
        for name, (fn, jac, shape) in maps.items():
            fd = np.zeros((1, *shape, dx))
            for l in range(dx):
                xp = x.copy()
                xm = x.copy()
                xp[0, l] += h[0, l]
                xm[0, l] -= h[0, l]
                fd[..., l] = (
                    _coef(fn, t, xp, a, (1, *shape)) - _coef(fn, t, xm, a, (1, *shape))
                ) / (2.0 * h[0, l])
            err = np.abs(_coef(jac, t, x, a, (1, *shape, dx)) - fd).max()
            worst[name] = max(worst[name], float(err / (1.0 + np.abs(fd).max())))
    worst["ok"] = all(err <= 1e-5 for err in worst.values())
    return worst
