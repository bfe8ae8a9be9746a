"""Law-invariant risk functions over empirical cost samples.

Evaluation and derivatives act on the empirical law of a Monte Carlo sample,
n equally likely paths: expectations become path means, the L2 deviation
becomes the sample's standard deviation, and the derivative of the risk at
the sample is returned pointwise per entry.  Everything here is a pure
function of immutable inputs and safe to call concurrently; the bootstrap's
resample index table (bootstrap_indices) is read-only, so callers may share
one.

The smoothed semideviation's derivative is a logistic, 1 / (1 + exp(-z)),
computed with C's exp, one value at a time through math.exp (_logistic).
That is scipy.special.expit's arithmetic, so the derivative keeps expit's
bits without loading scipy.  numpy's vectorised exp is a SIMD kernel whose
last bit differs from C's on about 5% of normal draws, which moves the
logistic on about 2%, and each such bit moves every smoothed-semideviation
output.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample
from .sde import _row_blocks

__all__ = [
    "RiskFunction",
    "EmpiricalSample",
    "DirectionalCheck",
    "evaluate",
    "l_derivative",
    "directional_derivative_check",
    "bootstrap_indices",
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

# The largest beta.  It already weighs the deviation a millionfold over the
# mean.  The derivative 1 + beta (X - mean) / deviation of mean_deviation,
# and y' with it, grows like beta sqrt(n), so a larger beta only brings the
# derivative and the squared sums of the backward solves nearer to overflow.
MAX_BETA = 1e6

# The largest epsilon.  The smoothed positive part eps softplus(u / eps) is
# at least eps ln 2 on average (Jensen), so the risk holds a policy-free
# offset of at least beta eps ln 2, which at epsilon = 1e308 overflows the
# bootstrap standard error.  A width a millionfold over unit costs already
# smooths away the risk aversion.
MAX_EPSILON = 1e6

# The range of theta.  The entropic risk (shift + log S) / theta divides the
# ~1e-16 rounding error of log S by theta: 1e-10 at MIN_THETA, where the risk
# is the mean to within theta var / 2.  On a 1,000-value sample of mean
# -0.074 it is off by 4.4e-11 at theta = 1e-6 and by 1.8e-9 at 1e-8, and
# evaluates to -3.58 at 1e-16.  At MAX_THETA it is the sample maximum to
# within ln(n) / theta; a larger theta only brings theta X near overflow.
MIN_THETA, MAX_THETA = 1e-6, 1e6


@dataclass(frozen=True)
class RiskFunction:
    """Tagged risk functional.

    kind selects among:
      expectation               mean
      mean_deviation            mean + beta * L2-deviation
      smoothed_semideviation    mean + beta * E[(X - mean) smoothed-positive-part]
      entropic                  log E[exp(theta X)] / theta

    beta is in (0, MAX_BETA], epsilon in (0, MAX_EPSILON] and theta in
    [MIN_THETA, MAX_THETA].  Each error names the field it rejects.
    """

    kind: str
    beta: float = 0.0
    epsilon: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown risk kind {self.kind!r}")
        if self.kind in (MEAN_DEVIATION, SMOOTHED_SEMIDEVIATION) and not (
            0.0 < self.beta <= MAX_BETA
        ):
            raise ValueError(
                f"beta must be in (0, {MAX_BETA:g}], got {self.beta!r}"
            )
        if self.kind == SMOOTHED_SEMIDEVIATION:
            if not 0.0 < self.epsilon <= MAX_EPSILON:
                raise ValueError(
                    f"epsilon must be in (0, {MAX_EPSILON:g}], got {self.epsilon!r}"
                )
        if self.kind == ENTROPIC and not MIN_THETA <= self.theta <= MAX_THETA:
            bounds = f"[{MIN_THETA:g}, {MAX_THETA:g}]"
            raise ValueError(f"theta must be in {bounds}, got {self.theta!r}")

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
    """n equally likely values standing in for the law of the total cost."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size < 1:
            raise ValueError("sample must contain at least one value")
        if not np.isfinite(v).all():
            raise ValueError("sample values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n(self):
        return self.values.size


def _row_mean(values, scratch=None):
    """Mean over the last axis, one result per row of n entries.

    Each entry is scaled by the one double 1/n before the sum, which has
    other bits than dividing the sum by n.  np.add.reduce runs numpy's
    pairwise summation along each row and calls no BLAS, so a row's mean
    depends neither on the BLAS thread count nor on how many rows share the
    call (a BLAS dot splits long vectors across threads).  scratch, shaped
    like values and possibly values itself, takes the scaled entries.
    """
    scale = 1.0 / values.shape[-1]
    return np.add.reduce(np.multiply(values, scale, out=scratch), axis=-1)


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


# The largest argument for which C's exp is finite; math.exp raises
# OverflowError above it where C's exp returns inf.
_EXP_MAX_ARG = math.log(sys.float_info.max)


def _logistic(z):
    """1 / (1 + exp(-z)) for each entry of the 1-d float array z, with C's
    exp: scipy's expit bits.

    Each exp is one math.exp call, not numpy's SIMD exp, whose last bit
    differs from C's on some entries.  Where -z exceeds _EXP_MAX_ARG, C's
    exp is inf and the logistic 0; NaN stays NaN.  No input makes a
    floating-point warning.
    """
    t = np.negative(z)
    over = t > _EXP_MAX_ARG
    t[over] = 0.0
    e = np.fromiter(map(math.exp, t.tolist()), float, t.size)
    e[over] = np.inf
    e += 1.0
    return np.divide(1.0, e, out=e)


# Huge costs overflow this kernel, l_derivative and the bootstrap's standard
# error quietly, to inf or NaN; msa_solve names such a risk value.
@np.errstate(over="ignore", invalid="ignore")
def _evaluate_rows(risk, values, work=None):
    """Risk of each row of values, a (rows, n) block of samples.

    Every reduction runs along a row, so row i's result is bit-identical to
    evaluating that row alone.  work is (2, rows, n) scratch the kernel
    overwrites; callers that evaluate many blocks pass one, so that no block
    allocates (and page-faults) its own.
    """
    if work is None:
        work = np.empty((2,) + values.shape)
    buf, tail = work
    m = _row_mean(values, buf)
    if risk.kind == EXPECTATION:
        return m
    if risk.kind == MEAN_DEVIATION:
        dev = np.subtract(values, m[:, None], out=buf)
        np.square(dev, out=dev)
        return m + risk.beta * np.sqrt(_row_mean(dev, dev))
    if risk.kind == SMOOTHED_SEMIDEVIATION:
        # eps * softplus((X - mean) / eps), the smoothed positive part.
        u = np.subtract(values, m[:, None], out=buf)
        u /= risk.epsilon
        smooth = _softplus(u, u, tail)
        smooth *= risk.epsilon
        return m + risk.beta * _row_mean(smooth, smooth)
    # Entropic: log-mean-exp shifted by the row maximum, overflow-safe.
    z = np.multiply(values, risk.theta, out=buf)
    shift = z.max(axis=-1)
    z -= shift[:, None]
    np.exp(z, out=z)
    return (shift + np.log(_row_mean(z, z))) / risk.theta


def evaluate(risk, sample):
    """Risk of the empirical sample; total on finite samples."""
    return float(_evaluate_rows(risk, sample.values[None, :])[0])


@np.errstate(over="ignore", invalid="ignore")
def l_derivative(risk, sample):
    """Pointwise derivative of the risk at the sample's empirical law.

    Returns one derivative value per sample entry.  The expectation's, 1 on
    every entry, is a read-only broadcast row (row stride 0), so the
    path-constant rule (sde._path_constant) accepts it without a compare.
    For mean_deviation the derivative does not exist at (near-)constant
    samples and DegenerateSample is raised.  The smoothed semideviation's is
    1 + beta (u - mean u) with u the logistic of (X - mean) / epsilon, taken
    with C's exp (_logistic), so it has scipy.special.expit's bits; numpy's
    exp would move the last bit of some entries.
    """
    v = sample.values
    if risk.kind == EXPECTATION:
        return np.broadcast_to(1.0, v.shape)
    m = float(_row_mean(v))
    if risk.kind == MEAN_DEVIATION:
        dev = math.sqrt(float(_row_mean((v - m) ** 2)))
        if dev <= _TOL_SIGMA * (1.0 + abs(m)):
            raise DegenerateSample(
                f"deviation {dev:.3e} below floor; derivative undefined at constants"
            )
        return 1.0 + risk.beta * (v - m) / dev
    if risk.kind == SMOOTHED_SEMIDEVIATION:
        u = _logistic((v - m) / risk.epsilon)
        return 1.0 + risk.beta * (u - float(_row_mean(u)))
    shift = float(np.max(risk.theta * v))
    e = np.exp(risk.theta * v - shift)
    return e / float(_row_mean(e))


@dataclass(frozen=True)
class DirectionalCheck:
    fd_value: float
    inner_product: float
    abs_error: float


def directional_derivative_check(risk, sample, direction, h):
    """Compare a central finite difference of the risk against <D, direction>.

    The first-order expansion of the risk predicts that perturbing the sample
    by h * direction moves the risk by h * mean_i D_i direction_i; this
    probes that prediction with a symmetric difference of width h.
    """
    if h <= 0.0:
        raise ValueError("h must be > 0")
    d = np.asarray(direction, dtype=float).reshape(-1)
    if d.shape != sample.values.shape:
        raise ValueError("direction must match the sample length")
    deriv = l_derivative(risk, sample)
    up = EmpiricalSample(sample.values + h * d)
    dn = EmpiricalSample(sample.values - h * d)
    fd = (evaluate(risk, up) - evaluate(risk, dn)) / (2.0 * h)
    ip = float(_row_mean(deriv * d))
    return DirectionalCheck(fd_value=fd, inner_product=ip, abs_error=abs(fd - ip))


# Byte budget of the whole-solve resample index table (bootstrap_indices):
# 8 MiB, which holds 200 uint16 resamples of up to 20,971 paths, so the
# 20k-path solves (8 MB) draw their resamples once, as 4k-path ones (1.6 MB)
# do.  A larger table is not kept: each bootstrap then draws its indices a
# block at a time, and the solve's peak memory does not grow by the table.
_INDEX_TABLE_BYTES = 8 << 20


def _resamples(n, n_boot, seed, table=None):
    """(lo, hi, draw) per block: the intp indices of resamples lo..hi - 1.

    The n_boot resamples of n indices each are drawn from default_rng(seed)
    a block of rows at a time (_row_blocks).  One (rows, n) draw takes the
    same generator output as rows draws of n, so the blocks, stacked, are a
    draw-per-resample loop's.  Given table, bootstrap_indices's copy of that
    sequence, each block is read from it into one reused intp buffer.
    """
    rows, blocks = _row_blocks(n_boot, n)
    if table is None:
        rng = np.random.default_rng(seed)
        for lo, hi in blocks:
            yield lo, hi, rng.integers(0, n, (hi - lo, n))
        return
    idx = np.empty((rows, n), np.intp)
    for lo, hi in blocks:
        np.copyto(idx[: hi - lo], table[lo:hi])
        yield lo, hi, idx[: hi - lo]


def bootstrap_indices(n, n_boot=200, seed=0):
    """The resample indices of bootstrap_standard_error, or None.

    Row i is the index draw of resample i that bootstrap_standard_error(risk,
    sample, n_boot, seed) makes for a sample of n >= 1 values (_resamples).
    The table is stored in the narrowest unsigned dtype that holds n - 1 and
    is read-only, so one table serves every bootstrap of a solve, whose
    sample size and seed do not change.  None when it would take more than
    _INDEX_TABLE_BYTES: bootstrap_standard_error then draws per call.
    """
    dtype = np.min_scalar_type(n - 1)
    if n_boot * n * dtype.itemsize > _INDEX_TABLE_BYTES:
        return None
    table = np.empty((n_boot, n), dtype)
    for lo, hi, draw in _resamples(n, n_boot, seed):
        table[lo:hi] = draw
    table.flags.writeable = False
    return table


@np.errstate(over="ignore", invalid="ignore")
def bootstrap_standard_error(risk, sample, n_boot=200, seed=0, indices=None):
    """Monte Carlo standard error of evaluate(risk, sample) by resampling.

    Nonparametric bootstrap with a fixed seed so repeated runs agree exactly.
    Resamples are drawn (_resamples) and evaluated a block of rows at a time,
    and each one's risk value matches a draw-per-resample loop's.  indices,
    when given, is bootstrap_indices(sample.n, n_boot, seed): the resamples
    are then read from that table instead of drawn, with the same bits.
    """
    if n_boot < 2:
        raise ValueError(f"n_boot must be >= 2, got {n_boot}")
    n = sample.n
    if indices is not None and indices.shape != (n_boot, n):
        raise ValueError(
            f"indices must have shape ({n_boot}, {n}), got {indices.shape}"
        )
    if n < 2:
        return float("nan")
    rows = _row_blocks(n_boot, n)[0]
    block = np.empty((rows, n))
    work = np.empty((2, rows, n))
    vals = np.empty(n_boot)
    for lo, hi, draw in _resamples(n, n_boot, seed, indices):
        b = hi - lo
        np.take(sample.values, draw, out=block[:b])
        vals[lo:hi] = _evaluate_rows(risk, block[:b], work[:, :b])
    return float(vals.std(ddof=1))
