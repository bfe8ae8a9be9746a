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
instead of inheriting O(1/sqrt(n dt)) regression noise.

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


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial regression basis with per-sample ridge scaling.

    degree is the total polynomial degree of the state monomials (degree 0
    keeps only the intercept).  The effective ridge penalty on standardized,
    non-intercept coefficients is ridge * n_samples; ridge = 0 requests plain
    least squares and raises RankDeficient on singular normal systems.
    """

    degree: int = 3
    ridge: float = 1e-8

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.ridge < 0.0:
            raise ValueError("ridge must be >= 0")

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


class _SliceRegression:
    """Shared least-squares factorization for one time slice.

    The standardized design is stored feature-major, as one C-ordered (m, n)
    array, and targets are solved as (r, n) rows, so every mean, scale, Gram
    entry and right-hand side is a sum along a contiguous row of paths.
    """

    def __init__(self, states, basis, step=None):
        # The monomials of huge states can overflow.  A non-finite design
        # leaves the scale or the Gram matrix non-finite, which raises
        # NumericalBlowup(step, "regression design"), not RuntimeWarnings
        # and a fit that is silently NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            phi = basis.design_rows(states)
            m, n = phi.shape
            self.n = n
            self.m = m
            if m == 0:
                return
            mu = np.add.reduce(phi, axis=1) / n
            phi -= mu[:, None]
            scale = np.sqrt(np.add.reduce(phi * phi, axis=1) / n)
            scale[scale < 1e-300] = 1.0
            phi /= scale[:, None]
            gram = np.einsum("in,jn->ij", phi, phi)
        if not (np.isfinite(scale).all() and np.isfinite(gram).all()):
            raise NumericalBlowup(step, "regression design")
        lam = basis.ridge * n
        if lam == 0.0 and np.linalg.matrix_rank(gram) < m:
            raise RankDeficient(
                f"normal system is singular ({m} features, rank deficient)"
            )
        self._solve_mat = gram + lam * np.eye(m)
        self._phi_rows = phi
        self._mu = mu
        self._scale = scale

    def _solve(self, t):
        """(ybar, beta, coef, intercept) of the (n, r) targets t.

        The targets are copied once into (r, n) rows, which are centered in
        place: the caller's array is never written, and the bits do not
        depend on its layout.
        """
        rows = np.array(np.transpose(t), dtype=float, order="C")
        ybar = np.add.reduce(rows, axis=1) / self.n
        if self.m == 0:
            return ybar, None, np.empty((0, rows.shape[0])), ybar
        rows -= ybar[:, None]
        # Path-constant targets center to exact zeros, and so does beta.  A
        # varying target usually shows it in the last path already.
        if rows[:, -1].any() or rows.any():
            rhs = np.einsum("in,rn->ir", self._phi_rows, rows)
            beta = np.linalg.solve(self._solve_mat, rhs)
        else:
            beta = np.zeros((self.m, rows.shape[0]))
        coef = beta / self._scale[:, None]
        return ybar, beta, coef, ybar - self._mu @ coef

    def fit(self, targets):
        """Least-squares fitted values of targets, (n,) or (n, r), on the slice."""
        t = np.asarray(targets, dtype=float)
        squeeze = t.ndim == 1
        if squeeze:
            t = t[:, None]
        ybar, beta, _, _ = self._solve(t)
        if beta is None:
            fitted = np.broadcast_to(ybar, t.shape).copy()
        else:
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
        every path, are tested for live columns on their first two paths.
        """
        targets = np.asarray(targets, dtype=float)
        rows = targets.T
        live = (targets[:2] if sde._path_constant(targets) else targets).any(axis=0)
        intercept = np.zeros(rows.shape[0])
        coef = np.zeros((self.m, rows.shape[0]))
        live_rows = rows if live.all() else rows[live]
        _, _, coef[:, live], intercept[live] = self._solve(live_rows.T)
        return intercept, coef


def _slice_regressions(ensemble, basis):
    """One shared least-squares factorization per interior time slice.

    Raises:
      NumericalBlowup: at the first step whose design or Gram matrix is not
        finite.
    """
    return [
        _SliceRegression(ensemble.states[:, k], basis, step=k)
        for k in range(ensemble.grid.n_steps)
    ]


def solve_risk_adjustment(ensemble, derivative_values, basis, slices=None):
    """Backward estimate of the risk-adjustment pair (y', z').

    y'_T is pinned to the per-path derivative values; earlier slices regress
    those terminal values directly on the slice state (the conditional-mean
    estimator of the martingale), and z' projects the centered increment
    (D - y'_k) dW_k / dt on the same features.  slices optionally reuses
    precomputed per-step regressions.

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

    yprime = _step_major((n, n_steps + 1))
    zprime = _step_major((n, n_steps, dim_w), np.zeros)
    yprime[:, n_steps] = d
    residuals = [0.0] * n_steps
    for k in range(n_steps - 1, -1, -1):
        reg = slices[k]
        fitted = reg.fit(d)
        yprime[:, k] = fitted
        residuals[k] = _norm(d - fitted) / math.sqrt(n)
        # Martingale increment between fitted slices; using the fitted
        # (k+1)-values rather than raw D strips the future-noise spread from
        # the projection target, without which z' carries O(1/sqrt(n dt))
        # noise that would drown the estimate.
        increment_proj = (yprime[:, k + 1] - fitted)[:, None] * dw[:, k] / dt
        zprime[:, k] = reg.fit(increment_proj)
    return yprime, zprime, residuals


def _policy_grad_hamiltonian(model, t, states, y, yprime_k, z, get_weights):
    """Gradient of the measure-averaged Hamiltonian with respect to the state.

    get_weights() returns the (n, n_atoms) policy weights.  It runs at most
    once, and only when the weights are read: by the per-atom loop of
    coefficient_tables, or by the average over atoms, which is skipped when
    every Jacobian table is zero.
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
        return np.zeros(states.shape)
    return np.einsum("na,anl->nl", weights(), sum(terms[1:], terms[0]))


def solve_adjoint(model, ensemble, yprime, basis, slices=None):
    """Backward regression solve of the adjoint pair (y, z).

    Terminal condition y_T = y'_T * grad g(x_T); going backward, z_k projects
    the centered increment of y on dW_k / dt and y_k adds the explicit
    state-gradient Hamiltonian drift, averaged under the ensemble's own policy
    weights, to the conditional mean of y_{k+1}.  slices optionally reuses
    precomputed per-step regressions.

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

    y = _step_major((n, n_steps + 1, dx))
    z = _step_major((n, n_steps, dim_w, dx), np.zeros)
    g_grad = np.broadcast_to(
        np.asarray(model.terminal_dx(ensemble.states[:, -1]), float), (n, dx)
    )
    y[:, n_steps] = yprime[:, n_steps, None] * g_grad
    residuals = [0.0] * n_steps

    for k in range(n_steps - 1, -1, -1):
        t = grid.nodes[k]
        xk = ensemble.states[:, k]
        reg = slices[k]
        upper = y[:, k + 1]
        yhat = reg.fit(upper)
        centered = upper - yhat
        residuals[k] = _norm(centered) / math.sqrt(n)
        ztarget = (centered[:, None, :] * dw[:, k, :, None] / dt).reshape(
            n, dim_w * dx
        )
        z[:, k] = reg.fit(ztarget).reshape(n, dim_w, dx)
        grad_h = _policy_grad_hamiltonian(
            model, t, xk, yhat, yprime[:, k], z[:, k],
            lambda: ensemble.weights_at(k),
        )
        y[:, k] = yhat + grad_h * dt
        if not np.isfinite(y[:, k]).all():
            raise NumericalBlowup(k, "adjoint state")
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
    zprime: np.ndarray    # (n, K, dim_w)
    residuals_y: list
    residuals_yprime: list


def solve_adjoint_system(model, ensemble, derivative_values, basis, slices=None):
    """Run both backward solves and package the four adjoint processes."""
    if slices is None:
        slices = _slice_regressions(ensemble, basis)
    yprime, zprime, res_p = solve_risk_adjustment(
        ensemble, derivative_values, basis, slices
    )
    y, z, res_y = solve_adjoint(model, ensemble, yprime, basis, slices)
    return AdjointProcesses(
        y=y,
        z=z,
        yprime=yprime,
        zprime=zprime,
        residuals_y=res_y,
        residuals_yprime=res_p,
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
