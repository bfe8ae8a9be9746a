"""Regression Monte Carlo estimators for the adjoint system.

Conditional expectations given the time-k state are realized as global
polynomial least squares across paths (Longstaff-Schwartz style), one design
matrix per time slice shared by every regression target at that slice.  The
backward recursions estimate

  y'_k  by regressing the terminal derivative values D directly on the slice,
  z'_k  by projecting the centered martingale increment (D - y'_k) dW_k / dt,
  y_k   by backward Euler with an explicit state-gradient Hamiltonian term,
  z_k   by projecting (y_{k+1} - E[y_{k+1} | x_k]) (x) dW_k / dt.

Centering the increment targets is what makes the risk-neutral case collapse
exactly: constant D fits with zero residual, so z' vanishes identically
instead of inheriting O(1/sqrt(n dt)) regression noise.  A path-constant
target (sde._path_constant) fits to its mean with zero coefficients, and
each slice is factorized on its own first fit of a target that varies over
paths, so a risk-neutral solve of the Merton portfolio factorizes none.

Regressions work feature-major: a slice stores its standardized design as
one C-ordered (features, paths) array and copies each target block into
(targets, paths) rows, so every mean, scale, normal-matrix entry and
right-hand side is a fixed-order sum along a contiguous row of paths
(np.add.reduce or einsum), not a row-by-row walk down a path-major array.
Those sums and the residual norms never call BLAS, so results do not depend
on the BLAS thread count.
"""

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import sde
from .errors import NumericalBlowup, RankDeficient
from .sde import _step_major, coefficient_tables

__all__ = [
    "RegressionBasis",
    "AdjointProcesses",
    "MartingaleReport",
    "solve_risk_adjustment",
    "solve_adjoint",
    "solve_adjoint_system",
    "martingale_diagnostics",
]


# The largest ridge.  The standardized Gram matrix has diagonal n_samples,
# so a ridge of 1e6 already shrinks every coefficient a millionfold, and a
# larger one only brings ridge * n_samples nearer to overflow.
MAX_RIDGE = 1e6


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial regression basis with per-sample ridge scaling.

    degree is the total polynomial degree of the state monomials (degree 0
    keeps only the intercept).  The effective ridge penalty on standardized,
    non-intercept coefficients is ridge * n_samples; ridge = 0 requests plain
    least squares, fits a feature that is flat on the slice to coefficient
    0, and raises RankDeficient on normal systems that are still singular.
    ridge is at most MAX_RIDGE.
    """

    degree: int = 3
    ridge: float = 1e-8

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if not 0.0 <= self.ridge <= MAX_RIDGE:
            raise ValueError(
                f"ridge must be in [0, {MAX_RIDGE:g}], got {self.ridge!r}"
            )

    def design(self, states):
        """Non-constant feature columns for states of shape (n, dim_x)."""
        return np.ascontiguousarray(self.design_rows(states).T)

    def design_rows(self, states):
        """The design feature-major: a C-ordered (m, n) array, one row per feature.

        Each monomial is the product of an earlier, lower-degree row with one
        state coordinate, so its factors multiply left to right in the same
        order for every layout of states.
        """
        states = np.asarray(states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]
        n, d = states.shape
        exponents = [
            expo
            for total in range(1, self.degree + 1)
            for expo in itertools.combinations_with_replacement(range(d), total)
        ]
        row_of = {expo: j for j, expo in enumerate(exponents)}
        rows = np.empty((len(exponents), n))
        if exponents:
            rows[:d] = states.T  # the degree-1 monomials: row i is coordinate i
        for j, expo in enumerate(exponents[d:], start=d):
            np.multiply(rows[row_of[expo[:-1]]], rows[expo[-1]], out=rows[j])
        return rows


def _norm(x):
    """Euclidean norm of all entries of x, summed in a fixed order.

    np.linalg.norm reduces with BLAS ddot, which splits vectors longer than
    10,000 entries across threads and so rounds by the thread count.
    """
    x = np.ravel(x)
    return math.sqrt(float(np.add.reduce(x * x)))


def _factorize(states, basis, step):
    """(phi_rows, mu, scale, solve_mat) of one slice's standardized design.

    phi_rows is the design feature-major, centered by the feature means mu
    and divided by the scales, and solve_mat the ridged Gram matrix.  A
    feature flat on the slice (finite and equal to path 0 on every path, as
    every monomial of a point-mass start is on slice 0) gets a zero
    standardized row, and without a ridge a unit diagonal, so it fits to
    coefficient 0.  Its centered row need not be zero: the n-copy mean of a
    value need not be exact.
    """
    # The monomials of huge states can overflow.  A non-finite design
    # leaves the scale or the Gram matrix non-finite, which raises
    # NumericalBlowup(step, "regression design"), not RuntimeWarnings
    # and a fit that is silently NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        phi = basis.design_rows(states)
        m, n = phi.shape
        flat = (phi == phi[:, :1]).all(axis=1) & np.isfinite(phi[:, 0])
        mu = np.add.reduce(phi, axis=1) / n
        phi -= mu[:, None]
        scale = np.sqrt(np.add.reduce(phi * phi, axis=1) / n)
        scale[scale < 1e-300] = 1.0  # no division by an underflowed scale
        phi /= scale[:, None]
        phi[flat] = 0.0
        gram = np.einsum("in,jn->ij", phi, phi)
    if not (np.isfinite(scale).all() and np.isfinite(gram).all()):
        raise NumericalBlowup(step, "regression design")
    lam = basis.ridge * n
    if lam == 0.0:
        gram[flat, flat] = 1.0
        if np.linalg.matrix_rank(gram) < m:
            raise RankDeficient(
                f"normal system is singular ({m} features, rank deficient)"
            )
    return phi, mu, scale, gram + lam * np.eye(m)


def _design_may_overflow(basis, states):
    """Whether the factorization of one slice's states could be non-finite.

    states is an (n, dim_x) array.  No monomial exceeds
    B = max(1, |x|)^degree, for |x| the largest state size, and then no
    mean, centered entry, squared sum, scale or Gram entry of _factorize
    exceeds 4 n B^2.  So the factorization is finite when 8 n B^2 is, a
    factor 2 spare for rounding, which needs no design.  NaN states fail
    the test.
    """
    if basis.degree == 0:
        return False
    n = states.shape[0]
    size = max(states.max(), -states.min())
    return not size <= (sys.float_info.max / (8 * n)) ** (0.5 / basis.degree)


class _SliceRegression:
    """Shared least-squares factorization for one time slice.

    The standardized design is stored feature-major, as one C-ordered (m, n)
    array, and targets are solved as (r, n) rows, so every mean, scale, Gram
    entry and right-hand side is a sum along a contiguous row of paths.  The
    slice is factorized on first use, by the first target that varies over
    paths: a path-constant one (sde._path_constant) fits to its mean with
    zero coefficients and needs none.  States whose design may overflow
    (_design_may_overflow) are factorized at once, so a design that is not
    finite raises NumericalBlowup(step, "regression design") whether or not
    the slice is solved.
    """

    def __init__(self, states, basis, step=None):
        states = np.asarray(states, dtype=float)
        self.n = states.shape[0]
        dim_x = 1 if states.ndim == 1 else states.shape[1]
        self.m = math.comb(dim_x + basis.degree, basis.degree) - 1  # features
        self._states, self._basis, self._step = states, basis, step
        if _design_may_overflow(basis, states):
            self._factors  # factorized now, so a non-finite design raises here

    @functools.cached_property
    def _factors(self):
        return _factorize(self._states, self._basis, self._step)

    _phi_rows = property(lambda self: self._factors[0])
    _mu = property(lambda self: self._factors[1])
    _scale = property(lambda self: self._factors[2])
    _solve_mat = property(lambda self: self._factors[3])

    def _means(self, t, columns):
        """Means over all n paths of the given columns of (n, r) targets t.

        Each is np.add.reduce of one column, the bits of the sum along its
        contiguous (r, n) row, divided by n.  Not the value on path 0: the
        sum of n equal values, divided by n, need not be that value.
        """
        return np.array([np.add.reduce(t[:, j]) for j in columns]) / self.n

    def _solve(self, t):
        """(ybar, beta, coef, intercept) of the (n, r) targets t.

        Path-constant targets (sde._path_constant; a broadcast row by its
        row stride alone) fit to their means, with zero beta and
        coefficients.  Other targets are copied once into (r, n) rows, which
        are centered in place: the caller's array is never written, and the
        bits do not depend on its layout.
        """
        r = t.shape[1]
        if sde._path_constant(t):
            zeros = np.zeros((self.m, r))
            ybar = self._means(t, range(r))
            return ybar, zeros, zeros, ybar
        rows = np.array(np.transpose(t), dtype=float, order="C")
        ybar = np.add.reduce(rows, axis=1) / self.n
        rows -= ybar[:, None]
        rhs = np.einsum("in,rn->ir", self._phi_rows, rows)
        beta = np.linalg.solve(self._solve_mat, rhs)
        coef = beta / self._scale[:, None]
        return ybar, beta, coef, ybar - self._mu @ coef

    def fit(self, targets):
        """Least-squares fitted values of targets, (n,) or (n, r), on the slice."""
        t = np.asarray(targets, dtype=float)
        squeeze = t.ndim == 1
        if squeeze:
            t = t[:, None]
        ybar, beta, _, _ = self._solve(t)
        if beta.any():
            # (r, m) @ (m, n) sums over features only, never over paths.
            fitted = (beta.T @ self._phi_rows).T
        else:
            # A zero beta's product is +0.0 throughout.
            fitted = np.zeros((t.shape[1], self.n)).T
        fitted += ybar
        return fitted[:, 0] if squeeze else fitted

    def fit_coefficients(self, targets):
        """(intercept, coef) of the fit of (n, r) targets.

        coef maps *raw* design columns, standardization already absorbed.
        Only the columns with a nonzero target are solved; the others fit
        exactly to zero.  The targets are read as (r, n) rows: the transpose
        of msa_solve's atom-major weights is C-ordered already.  Path-constant
        targets (sde._path_constant), the weights of a step that is the same on
        every path, are tested for live columns on their first two paths, and
        their live columns fit to their means with zero coefficients.
        """
        targets = np.asarray(targets, dtype=float)
        r = targets.shape[1]
        constant = sde._path_constant(targets)
        live = (targets[:2] if constant else targets).any(axis=0)
        intercept = np.zeros(r)
        coef = np.zeros((self.m, r))
        if constant:
            intercept[live] = self._means(targets, np.flatnonzero(live))
            return intercept, coef
        rows = targets.T
        live_rows = rows if live.all() else rows[live]
        _, _, coef[:, live], intercept[live] = self._solve(live_rows.T)
        return intercept, coef


def _slice_regressions(ensemble, basis):
    """One least-squares slice per interior time slice, in step order.

    Each slice is factorized on its first fit of a target that varies over
    paths, or here when its states are large enough that its design could
    overflow (_SliceRegression).

    Raises (here or from that fit):
      NumericalBlowup: at the first step whose design or Gram matrix is not
        finite.
    """
    return [
        _SliceRegression(ensemble.states[:, k], basis, k)
        for k in range(ensemble.grid.n_steps)
    ]


class AdjointArrays:
    """The step-major y', y and z, not z', that the backward solves overwrite.

    msa_solve reuses one set for every iteration, as it does its
    sde.ForwardArrays.  An array a solve does not fill is never written, so
    its pages are never faulted in.
    """

    def __init__(self, n_paths, n_steps, dim_x, dim_w):
        self.yprime = _step_major((n_paths, n_steps + 1))
        self.y = _step_major((n_paths, n_steps + 1, dim_x))
        self.z = _step_major((n_paths, n_steps, dim_w, dim_x))


def solve_risk_adjustment(ensemble, derivative_values, basis, slices=None,
                          out=None):
    """Backward estimate of the risk-adjustment pair (y', z').

    y'_T is pinned to the per-path derivative values; earlier slices regress
    those terminal values directly on the slice state (the conditional-mean
    estimator of the martingale), and z'_k projects the increment
    (y'_{k+1} - y'_k) dW_k / dt of the fitted values on the same features.
    slices optionally reuses precomputed per-step regressions.

    out, an AdjointArrays, receives y' and has nowhere for z', which is
    then not fitted (None): msa_solve's Hamiltonian does not read it.
    Without out, y' and z' go into fresh arrays, with the same bits.

    A path-constant D (sde._path_constant) makes every y'_k its mean.  A
    broadcast row, such as the expectation's derivative, is read as one by
    its row stride alone.

    Returns:
      (yprime, zprime, residuals): shapes (n, K+1), (n, K, dim_w), both
      stored step-major, and a per-step list of y'-regression residuals.
    """
    d = np.asarray(derivative_values, dtype=float).reshape(-1)
    n = ensemble.n_paths
    if d.shape != (n,):
        raise ValueError("derivative values must be one scalar per path")
    grid = ensemble.grid
    dw = ensemble.driver.increments
    n_steps, dim_w = grid.n_steps, ensemble.driver.dim_w
    dt = grid.dt
    if slices is None:
        slices = _slice_regressions(ensemble, basis)

    zprime = None
    if out is None:
        out = AdjointArrays(n, n_steps, ensemble.states.shape[2], dim_w)
        zprime = _step_major((n, n_steps, dim_w), np.zeros)
    yprime = out.yprime
    yprime[:, n_steps] = d
    residuals = [0.0] * n_steps
    for k in range(n_steps - 1, -1, -1):
        reg = slices[k]
        fitted = reg.fit(d)
        yprime[:, k] = fitted
        residuals[k] = _norm(d - fitted) / math.sqrt(n)
        if zprime is None:
            continue
        # Martingale increment between fitted slices; using the fitted
        # (k+1)-values rather than raw D strips the future-noise spread from
        # the projection target, without which z' carries O(1/sqrt(n dt))
        # noise that would drown the estimate.
        # An increment that is exactly zero fits to +0.0, the initial z'.
        increment = yprime[:, k + 1] - fitted
        if increment.any():
            zprime[:, k] = reg.fit(increment[:, None] * dw[:, k] / dt)
    return yprime, zprime, residuals


def _policy_grad_hamiltonian(model, t, states, y, yprime_k, z, get_weights):
    """Gradient of the measure-averaged Hamiltonian with respect to the state.

    get_weights() returns the (n, n_atoms) policy weights.  It runs at most
    once, and only when the weights are read: by the per-atom loop of
    coefficient_tables, or by the average over atoms, which is skipped when
    every Jacobian table is zero.  The gradient is then a read-only
    broadcast row of zeros.
    """
    weights = functools.cache(get_weights)
    tabs = coefficient_tables(
        model, t, states, ("drift_dx", "cost_dx", "diffusion_dx"), weights
    )
    terms = []
    if tabs["drift_dx"].any():
        terms.append(np.einsum("ni,anil->anl", y, tabs["drift_dx"]))
    if tabs["cost_dx"].any():
        terms.append(yprime_k[None, :, None] * tabs["cost_dx"])
    if tabs["diffusion_dx"].any():
        terms.append(np.einsum("nwi,aniwl->anl", z, tabs["diffusion_dx"]))
    if not terms:
        return sde._all_paths(np.zeros((1,) + states.shape[1:]), states.shape[0])
    return np.einsum("na,anl->nl", weights(), sum(terms[1:], terms[0]))


# Huge costs can overflow the fits; the check of y_k and z_k names that.
@np.errstate(over="ignore", invalid="ignore")
def solve_adjoint(model, ensemble, yprime, basis, slices=None, out=None,
                  constant=None):
    """Backward regression solve of the adjoint pair (y, z).

    Terminal condition y_T = y'_T * grad g(x_T); going backward, z_k projects
    the centered increment of y on dW_k / dt and y_k adds the explicit
    state-gradient Hamiltonian drift, averaged under the ensemble's own policy
    weights, to the conditional mean of y_{k+1}.  slices optionally reuses
    precomputed per-step regressions.  out, an AdjointArrays, receives y
    and z, or a fresh one does.

    constant, when given, is a (K+1,) bool array holding whether each y'_k
    is path-constant, as solve_adjoint_system seeds it.  It is narrowed
    here to the nodes where y_k, y'_k and z_k (k < K) are all path-constant
    by construction, so that no compare over paths confirms them: y_T is
    when y'_T and grad g are (sde._path_constant, by the row stride of a
    broadcast row); an earlier y_k is when y_{k+1} is, since its fit, of
    y_{k+1} handed over as a broadcast row, is then the mean, and the
    Hamiltonian's state gradient is a broadcast row; z_k is when the
    increment of y is exactly zero and z_k stays +0.0.

    Returns:
      (y, z, residuals): shapes (n, K+1, dim_x), (n, K, dim_w, dim_x), both
      stored step-major, and a per-step list of y-regression residuals.
    """
    grid = ensemble.grid
    n = ensemble.n_paths
    n_steps, dx, dim_w = grid.n_steps, model.dim_x, model.dim_w
    dt = grid.dt
    dw = ensemble.driver.increments
    if slices is None:
        slices = _slice_regressions(ensemble, basis)

    if out is None:
        out = AdjointArrays(n, n_steps, dx, dim_w)
    y, z = out.y, out.z
    z.fill(0.0)
    g_grad = np.broadcast_to(
        np.asarray(model.terminal_dx(ensemble.states[:, -1]), float), (n, dx)
    )
    y[:, n_steps] = yprime[:, n_steps, None] * g_grad
    if constant is None:
        constant = np.zeros(n_steps + 1, dtype=bool)
    # Whether y at the node above is path-constant by construction.  Where
    # that is not known, each fit asks the path-constant rule.
    y_constant = bool(constant[n_steps]) and sde._path_constant(g_grad)
    constant[n_steps] = y_constant
    residuals = [0.0] * n_steps

    for k in range(n_steps - 1, -1, -1):
        t = grid.nodes[k]
        xk = ensemble.states[:, k]
        reg = slices[k]
        upper = y[:, k + 1]
        yhat = reg.fit(sde._all_paths(upper, n) if y_constant else upper)
        centered = upper - yhat
        residuals[k] = _norm(centered) / math.sqrt(n)
        # An increment that is exactly zero fits to +0.0, the initial z.
        z_fitted = bool(centered.any())
        if z_fitted:
            ztarget = (centered[:, None, :] * dw[:, k, :, None] / dt).reshape(
                n, dim_w * dx
            )
            z[:, k] = reg.fit(ztarget).reshape(n, dim_w, dx)
        grad_h = _policy_grad_hamiltonian(
            model, t, xk, yhat, yprime[:, k], z[:, k],
            lambda: ensemble.weights_at(k),
        )
        y[:, k] = yhat + grad_h * dt
        if not (np.isfinite(y[:, k]).all() and np.isfinite(z[:, k]).all()):
            raise NumericalBlowup(k, "adjoint state")
        y_constant = y_constant and sde._path_constant(grad_h)
        constant[k] &= y_constant and not z_fitted
    return y, z, residuals


@dataclass(frozen=True)
class AdjointProcesses:
    """Per-step, per-path adjoint estimates and regression diagnostics.

    The backward solves store the four processes step-major, so a time
    slice such as y[:, k] is one contiguous block.
    """

    y: np.ndarray         # (n, K+1, dim_x), row-covector per path/step
    z: np.ndarray         # (n, K, dim_w, dim_x)
    yprime: np.ndarray    # (n, K+1)
    zprime: "np.ndarray | None"  # (n, K, dim_w); None when not fitted
    residuals_y: list
    residuals_yprime: list
    # (K+1,) bool: y_k, y'_k and z_k are path-constant by construction, as
    # solve_adjoint records it; None when not recorded.
    path_constant: "np.ndarray | None" = None

    def step(self, k):
        """(y_k, y'_k, z_k) of every path, for a step k < K.

        On a step recorded as path-constant they are path 0's values
        broadcast to all paths, so the path-constant rule
        (sde._path_constant) accepts them by their row stride alone.
        """
        if self.path_constant is not None and self.path_constant[k]:
            return tuple(a[:, k] for a in self._path_zero)
        return self.y[:, k], self.yprime[:, k], self.z[:, k]

    @functools.cached_property
    def _path_zero(self):
        """y, y' and z with path 0's values, every step, on all paths."""
        n = self.yprime.shape[0]
        return tuple(sde._all_paths(a, n) for a in (self.y, self.yprime, self.z))


def solve_adjoint_system(model, ensemble, derivative_values, basis, slices=None,
                         out=None):
    """Run both backward solves and package the four adjoint processes.

    out, an AdjointArrays, receives y', y and z when given; z' is then not
    fitted, and zprime is None.  The record of the steps made path-constant,
    for AdjointProcesses.step, is seeded here with whether D is
    (sde._path_constant), and solve_adjoint narrows it.
    """
    if slices is None:
        slices = _slice_regressions(ensemble, basis)
    d = np.asarray(derivative_values, dtype=float).reshape(-1)
    yprime, zprime, res_p = solve_risk_adjustment(ensemble, d, basis, slices, out)
    constant = np.full(ensemble.grid.n_steps + 1, sde._path_constant(d))
    y, z, res_y = solve_adjoint(model, ensemble, yprime, basis, slices, out, constant)
    return AdjointProcesses(
        y=y,
        z=z,
        yprime=yprime,
        zprime=zprime,
        residuals_y=res_y,
        residuals_yprime=res_p,
        path_constant=constant,
    )


@dataclass(frozen=True)
class MartingaleReport:
    """Per-step drift of the y' process against its terminal mean."""

    drift: np.ndarray
    standard_error: np.ndarray
    within_3se: np.ndarray
    insufficient_sample: bool

    @property
    def max_drift(self):
        return float(np.max(self.drift))


def martingale_diagnostics(yprime):
    """Check that cross-path means of y' stay flat in time.

    A driftless y' has E[y'_k] equal to E[y'_T] at every step; the report
    carries |mean_k(y') - mean(D)| together with the Monte Carlo standard
    error of that difference.  A single path has no standard error and is
    flagged as an insufficient sample.
    """
    yprime = np.asarray(yprime, dtype=float)
    n, _ = yprime.shape
    # Step-major (K+1, n) differences: the sums over paths run along rows.
    diffs = np.array(yprime.T, order="C")
    diffs -= yprime[:, -1]
    mean = np.add.reduce(diffs, axis=1) / n
    drift = np.abs(mean)
    if n < 2:
        se = np.full(yprime.shape[1], np.nan)
        return MartingaleReport(
            drift=drift,
            standard_error=se,
            within_3se=np.zeros(yprime.shape[1], dtype=bool),
            insufficient_sample=True,
        )
    diffs -= mean[:, None]
    np.square(diffs, out=diffs)
    se = np.sqrt(np.add.reduce(diffs, axis=1) / (n - 1)) / math.sqrt(n)
    return MartingaleReport(
        drift=drift,
        standard_error=se,
        within_3se=drift <= 3.0 * se + 1e-15,
        insufficient_sample=False,
    )
