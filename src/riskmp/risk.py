"""Law-invariant risk functions over empirical cost samples.

Evaluation and derivatives act on the empirical law of a Monte Carlo sample:
expectations become weighted sums, the L2 deviation becomes the weighted
standard deviation, and the derivative of the risk at the sample is returned
pointwise per entry.  Everything here is a pure function of immutable inputs
and safe to call concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import DegenerateSample
from .sde import _BLOCK_ELEMENTS

__all__ = [
    "RiskFunction",
    "EmpiricalSample",
    "DirectionalCheck",
    "evaluate",
    "l_derivative",
    "directional_derivative_check",
    "bootstrap_standard_error",
]

EXPECTATION = "expectation"
MEAN_DEVIATION = "mean_deviation"
SMOOTHED_SEMIDEVIATION = "smoothed_semideviation"
ENTROPIC = "entropic"

_KINDS = (EXPECTATION, MEAN_DEVIATION, SMOOTHED_SEMIDEVIATION, ENTROPIC)

# Degeneracy floor of mean_deviation: below a deviation of
# _TOL_SIGMA * (1 + |mean|) its derivative does not exist and is refused.
_TOL_SIGMA = 1e-10


@dataclass(frozen=True)
class RiskFunction:
    """Tagged risk functional.

    kind selects among:
      expectation               mean
      mean_deviation            mean + beta * L2-deviation
      smoothed_semideviation    mean + beta * E[(X - mean) smoothed-positive-part]
      entropic                  log E[exp(theta X)] / theta
    """

    kind: str
    beta: float = 0.0
    epsilon: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown risk kind {self.kind!r}")
        if self.kind in (MEAN_DEVIATION, SMOOTHED_SEMIDEVIATION) and self.beta <= 0.0:
            raise ValueError("beta must be > 0")
        if self.kind == SMOOTHED_SEMIDEVIATION and self.epsilon <= 0.0:
            raise ValueError("epsilon must be > 0")
        if self.kind == ENTROPIC and self.theta <= 0.0:
            raise ValueError("theta must be > 0")

    @staticmethod
    def expectation():
        return RiskFunction(EXPECTATION)

    @staticmethod
    def mean_deviation(beta):
        return RiskFunction(MEAN_DEVIATION, beta=beta)

    @staticmethod
    def smoothed_semideviation(beta, epsilon):
        return RiskFunction(SMOOTHED_SEMIDEVIATION, beta=beta, epsilon=epsilon)

    @staticmethod
    def entropic(theta):
        return RiskFunction(ENTROPIC, theta=theta)


@dataclass(frozen=True)
class EmpiricalSample:
    """Finite weighted sample standing in for the law of the total cost."""

    values: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size < 1:
            raise ValueError("sample must contain at least one value")
        if not np.isfinite(v).all():
            raise ValueError("sample values must be finite")
        if self.weights is None:
            w = np.full(v.size, 1.0 / v.size)
        else:
            w = np.asarray(self.weights, dtype=float).reshape(-1)
            if w.shape != v.shape:
                raise ValueError("weights must match values in length")
            if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
                raise ValueError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)

    @property
    def n(self):
        return self.values.size


def _weighted_sum(values, weights, scratch=None):
    """Sum of values * weights over the last axis, one result per row.

    np.add.reduce runs numpy's pairwise summation along each row and calls no
    BLAS, so a row's sum depends neither on the BLAS thread count nor on how
    many rows share the call (a BLAS dot splits long vectors across threads).
    scratch, shaped like values and possibly values itself, takes the product.
    """
    return np.add.reduce(np.multiply(values, weights, out=scratch), axis=-1)


def _mean(sample):
    return float(_weighted_sum(sample.values, sample.weights))


def _softplus(u, out, tail):
    """log(1 + exp(u)) elementwise into out, with tail as scratch.

    max(u, 0) + log1p(exp(-|u|)) is the branch arithmetic of
    np.logaddexp(0, u), computed with numpy's vectorised exp and log1p; it
    agrees with logaddexp to within one ulp and is exact at u = +-inf.  out
    may be u itself.
    """
    np.abs(u, out=tail)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    np.maximum(u, 0.0, out=out)
    out += tail
    return out


def _evaluate_rows(risk, values, weights, work=None):
    """Risk of each row of values, a (rows, n) block of equally weighted samples.

    weights (n,) is shared by all rows.  Every reduction runs along a row, so
    row i's result is bit-identical to evaluating that row alone.  work is
    (2, rows, n) scratch the kernel overwrites; callers that evaluate many
    blocks pass one, so that no block allocates (and page-faults) its own.
    """
    if work is None:
        work = np.empty((2,) + values.shape)
    buf, tail = work
    m = _weighted_sum(values, weights, buf)
    if risk.kind == EXPECTATION:
        return m
    if risk.kind == MEAN_DEVIATION:
        dev = np.subtract(values, m[:, None], out=buf)
        np.square(dev, out=dev)
        return m + risk.beta * np.sqrt(_weighted_sum(dev, weights, dev))
    if risk.kind == SMOOTHED_SEMIDEVIATION:
        # eps * softplus((X - mean) / eps), the smoothed positive part.
        u = np.subtract(values, m[:, None], out=buf)
        u /= risk.epsilon
        smooth = _softplus(u, u, tail)
        smooth *= risk.epsilon
        return m + risk.beta * _weighted_sum(smooth, weights, smooth)
    # Entropic: log-mean-exp shifted by the row maximum, overflow-safe.
    z = np.multiply(values, risk.theta, out=buf)
    shift = z.max(axis=-1)
    z -= shift[:, None]
    np.exp(z, out=z)
    return (shift + np.log(_weighted_sum(z, weights, z))) / risk.theta


def evaluate(risk, sample):
    """Risk of the empirical sample; total on finite samples."""
    return float(_evaluate_rows(risk, sample.values[None, :], sample.weights)[0])


def l_derivative(risk, sample):
    """Pointwise derivative of the risk at the sample's empirical law.

    Returns one derivative value per sample entry.  For mean_deviation the
    derivative does not exist at (near-)constant samples and DegenerateSample
    is raised.
    """
    v, w = sample.values, sample.weights
    if risk.kind == EXPECTATION:
        return np.ones_like(v)
    m = _mean(sample)
    if risk.kind == MEAN_DEVIATION:
        dev = math.sqrt(float(_weighted_sum((v - m) ** 2, w)))
        if dev <= _TOL_SIGMA * (1.0 + abs(m)):
            raise DegenerateSample(
                f"deviation {dev:.3e} below floor; derivative undefined at constants"
            )
        return 1.0 + risk.beta * (v - m) / dev
    if risk.kind == SMOOTHED_SEMIDEVIATION:
        u = expit((v - m) / risk.epsilon)
        return 1.0 + risk.beta * (u - float(_weighted_sum(u, w)))
    shift = float(np.max(risk.theta * v))
    e = np.exp(risk.theta * v - shift)
    return e / float(_weighted_sum(e, w))


@dataclass(frozen=True)
class DirectionalCheck:
    fd_value: float
    inner_product: float
    abs_error: float


def directional_derivative_check(risk, sample, direction, h):
    """Compare a central finite difference of the risk against <D, direction>.

    The first-order expansion of the risk predicts that perturbing the sample
    by h * direction moves the risk by h * sum_i w_i D_i direction_i; this
    probes that prediction with a symmetric difference of width h.
    """
    if h <= 0.0:
        raise ValueError("h must be > 0")
    d = np.asarray(direction, dtype=float).reshape(-1)
    if d.shape != sample.values.shape:
        raise ValueError("direction must match the sample length")
    deriv = l_derivative(risk, sample)
    up = EmpiricalSample(sample.values + h * d, sample.weights)
    dn = EmpiricalSample(sample.values - h * d, sample.weights)
    fd = (evaluate(risk, up) - evaluate(risk, dn)) / (2.0 * h)
    ip = float(_weighted_sum(deriv * d, sample.weights))
    return DirectionalCheck(fd_value=fd, inner_product=ip, abs_error=abs(fd - ip))


def bootstrap_standard_error(risk, sample, n_boot=200, seed=0):
    """Monte Carlo standard error of evaluate(risk, sample) by resampling.

    Nonparametric bootstrap with a fixed seed so repeated runs agree exactly.
    Resamples are drawn and evaluated a block of rows at a time; one
    (rows, n) draw takes the same generator output as rows draws of n, so
    the resamples, and each one's risk value, match a draw-per-resample loop.
    """
    if n_boot < 2:
        raise ValueError(f"n_boot must be >= 2, got {n_boot}")
    rng = np.random.default_rng(seed)
    n = sample.n
    if n < 2:
        return float("nan")
    uniform = np.allclose(sample.weights, 1.0 / n, rtol=0.0, atol=1e-15)
    # A resample is an equally weighted sample of n draws from a finite,
    # already validated parent.
    weights = np.full(n, 1.0 / n)
    rows = min(max(1, _BLOCK_ELEMENTS // n), n_boot)
    block = np.empty((rows, n))
    work = np.empty((2, rows, n))
    vals = np.empty(n_boot)
    for start in range(0, n_boot, rows):
        b = min(rows, n_boot - start)
        if uniform:
            idx = rng.integers(0, n, (b, n))
        else:
            idx = rng.choice(n, size=(b, n), p=sample.weights)
        np.take(sample.values, idx, out=block[:b])
        vals[start:start + b] = _evaluate_rows(
            risk, block[:b], weights, work[:, :b]
        )
    # Huge risk values overflow the sums of the mean and the squared
    # deviations: the error is then inf or NaN, without a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        return float(vals.std(ddof=1))
