"""Risk evaluation, derivatives, and the coherence-axiom properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmp import (
    DegenerateSample,
    EmpiricalSample,
    RiskFunction,
    bootstrap_indices,
    bootstrap_standard_error,
    directional_derivative_check,
    evaluate,
    l_derivative,
)
from riskmp.risk import (
    _INDEX_TABLE_BYTES,
    MAX_BETA,
    MAX_EPSILON,
    MAX_THETA,
    MIN_THETA,
    _evaluate_rows,
    _softplus,
)
from riskmp.sde import _BLOCK_ELEMENTS

from conftest import python_in_subprocess

RISKS = {
    "expectation": RiskFunction.expectation(),
    "mean_deviation": RiskFunction.mean_deviation(0.5),
    "smoothed_semideviation": RiskFunction.smoothed_semideviation(0.5, 0.1),
    "entropic": RiskFunction.entropic(1.0),
}


# ---------------------------------------------------------------- evaluate

def test_expectation_of_small_sample():
    assert evaluate(RISKS["expectation"], EmpiricalSample([1.0, 2.0, 3.0])) == 2.0


def test_entropic_constant_sample_is_the_constant():
    risk = RiskFunction.entropic(2.0)
    assert evaluate(risk, EmpiricalSample([3.5, 3.5, 3.5])) == pytest.approx(3.5, abs=1e-14)


def test_mean_deviation_symmetric_two_point():
    risk = RiskFunction.mean_deviation(0.5)
    assert evaluate(risk, EmpiricalSample([-1.0, 1.0])) == pytest.approx(0.5, abs=1e-14)


def test_entropic_is_overflow_safe():
    risk = RiskFunction.entropic(1.0)
    val = evaluate(risk, EmpiricalSample([1000.0, 2000.0]))
    assert math.isfinite(val)
    assert val == pytest.approx(2000.0 - math.log(2.0), abs=1e-9)


def test_weighted_sample_matches_replication():
    values = np.array([0.3, -1.2, 2.0])
    weights = np.array([0.5, 0.25, 0.25])
    replicated = np.array([0.3, 0.3, -1.2, 2.0])
    for risk in RISKS.values():
        a = evaluate(risk, EmpiricalSample(values, weights))
        b = evaluate(risk, EmpiricalSample(replicated))
        assert a == pytest.approx(b, abs=1e-12)


# ------------------------------------------------------------- l_derivative

def test_expectation_derivative_is_identically_one():
    d = l_derivative(RISKS["expectation"], EmpiricalSample([4.0, -2.0, 0.1]))
    np.testing.assert_array_equal(d, 1.0)


def test_mean_deviation_derivative_two_point():
    d = l_derivative(RiskFunction.mean_deviation(0.5), EmpiricalSample([-1.0, 1.0]))
    np.testing.assert_allclose(d, [0.5, 1.5], atol=1e-14)


def test_entropic_derivative_constant_sample():
    d = l_derivative(RiskFunction.entropic(3.0), EmpiricalSample([2.0, 2.0, 2.0]))
    np.testing.assert_allclose(d, 1.0, atol=1e-14)


def test_mean_deviation_degenerate_at_constants():
    with pytest.raises(DegenerateSample):
        l_derivative(RiskFunction.mean_deviation(0.5), EmpiricalSample([1.0, 1.0, 1.0]))
    with pytest.raises(DegenerateSample):
        l_derivative(
            RiskFunction.mean_deviation(0.5),
            EmpiricalSample([1.0, 1.0 + 1e-13, 1.0]),
        )


# ------------------------------------------------- directional derivatives

def test_expectation_directional_derivative_exact(rng):
    sample = EmpiricalSample(rng.standard_normal(100))
    d = rng.standard_normal(100)
    chk = directional_derivative_check(RISKS["expectation"], sample, d, 1e-4)
    assert chk.abs_error <= 1e-12


# ----------------------------------------------- risk axioms, property-based

@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(RISKS)),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    a=st.floats(-5.0, 5.0),
)
def test_translation_invariance_property(name, seed, n, a):
    x = np.random.default_rng(seed).standard_normal(n)
    risk = RISKS[name]
    shifted = evaluate(risk, EmpiricalSample(x + a))
    assert shifted == pytest.approx(evaluate(risk, EmpiricalSample(x)) + a, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["expectation", "mean_deviation"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    lam=st.floats(0.01, 10.0),
)
def test_positive_homogeneity_property(name, seed, n, lam):
    x = np.random.default_rng(seed).standard_normal(n)
    risk = RISKS[name]
    lhs = evaluate(risk, EmpiricalSample(lam * x))
    rhs = lam * evaluate(risk, EmpiricalSample(x))
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, lam))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["expectation", "smoothed_semideviation", "entropic"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
)
def test_monotonicity_property(name, seed, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = x + rng.uniform(0.0, 1.0, n)
    risk = RISKS[name]
    assert evaluate(risk, EmpiricalSample(x)) <= evaluate(risk, EmpiricalSample(y)) + 1e-12


def test_mean_deviation_is_not_monotone():
    # mean + beta * std is convex and translation invariant but not
    # monotone: lifting one low outlier to the bulk removes more deviation
    # than it adds mean once beta * sqrt(n) > 1, so the monotonicity
    # properties leave it out.
    x = np.zeros(10)
    x[0] = -10.0
    risk = RISKS["mean_deviation"]
    assert evaluate(risk, EmpiricalSample(x)) > evaluate(risk, EmpiricalSample(np.zeros(10)))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(RISKS)),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    lam=st.floats(0.0, 1.0),
)
def test_convexity_property(name, seed, n, lam):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    risk = RISKS[name]
    lhs = evaluate(risk, EmpiricalSample(lam * x + (1 - lam) * y))
    rhs = lam * evaluate(risk, EmpiricalSample(x)) + (1 - lam) * evaluate(
        risk, EmpiricalSample(y)
    )
    assert lhs <= rhs + 1e-12


# ------------------------------------------------------------- row kernel

def _weights(rng, n, weighted):
    if not weighted:
        return None
    w = rng.uniform(0.0, 1.0, n) + 0.01
    return w / w.sum()


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(RISKS)),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 24),
    n=st.one_of(st.integers(1, 300), st.integers(300, 5000)),
    weighted=st.booleans(),
    scale=st.sampled_from([1e-6, 1.0, 1e3]),
)
def test_row_kernel_rows_equal_single_evaluations(name, seed, rows, n, weighted, scale):
    rng = np.random.default_rng(seed)
    block = scale * rng.standard_normal((rows, n))
    sample0 = EmpiricalSample(block[0], _weights(rng, n, weighted))
    got = _evaluate_rows(RISKS[name], block, sample0.weights)
    assert got.shape == (rows,)
    for i in range(rows):
        one = evaluate(RISKS[name], EmpiricalSample(block[i], sample0.weights))
        assert got[i] == one, (i, got[i], one)


def _loop_bootstrap(risk, sample, n_boot, seed):
    """The per-resample reference: one draw and one EmpiricalSample each."""
    rng = np.random.default_rng(seed)
    n = sample.n
    uniform = np.allclose(sample.weights, 1.0 / n, rtol=0.0, atol=1e-15)
    vals = np.empty(n_boot)
    for b in range(n_boot):
        if uniform:
            idx = rng.integers(0, n, n)
        else:
            idx = rng.choice(n, size=n, p=sample.weights)
        vals[b] = evaluate(risk, EmpiricalSample(sample.values[idx]))
    return float(vals.std(ddof=1))


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(RISKS)),
    weighted=st.booleans(),
    which_n=st.integers(0, 4),
    k=st.integers(1, 40),
    full_blocks=st.integers(0, 1),
    partial=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_bootstrap_matches_per_resample_loop(
    name, weighted, which_n, k, full_blocks, partial, seed
):
    n = (2, 3, _BLOCK_ELEMENTS // k - 1, _BLOCK_ELEMENTS // k + 1, 20_000)[which_n]
    rows = max(1, _BLOCK_ELEMENTS // n)
    # The last block is partial whenever a block holds more than one row.
    n_boot = max(2, full_blocks * rows + 1 + partial % max(rows - 1, 1))
    rng = np.random.default_rng(seed)
    sample = EmpiricalSample(rng.standard_normal(n), _weights(rng, n, weighted))
    got = bootstrap_standard_error(RISKS[name], sample, n_boot=n_boot, seed=seed)
    assert got == _loop_bootstrap(RISKS[name], sample, n_boot, seed)


def test_block_bootstrap_crosses_block_boundaries():
    # Three full blocks plus a partial one, against the reference loop.
    n = 3000
    rows = _BLOCK_ELEMENTS // n
    sample = EmpiricalSample(np.random.default_rng(4).standard_normal(n))
    for risk in RISKS.values():
        got = bootstrap_standard_error(risk, sample, n_boot=3 * rows + 2, seed=9)
        assert got == _loop_bootstrap(risk, sample, 3 * rows + 2, 9)


# Sample sizes at the edges of the index table's dtypes: n - 1 = 255 is the
# largest uint8, 65535 the largest uint16.
_INDEX_EDGES = {2: np.uint8, 256: np.uint8, 257: np.uint16, 65536: np.uint16,
                65537: np.uint32}


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(RISKS)),
    n=st.sampled_from(sorted(_INDEX_EDGES)),
    full_blocks=st.integers(0, 2),
    shift=st.integers(-1, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_cached_resamples_match_the_per_call_draw(name, n, full_blocks, shift, seed):
    # The once-per-solve index table gives the per-call standard error bit
    # for bit, with n_boot just below, at and just above a block boundary.
    rows = max(1, _BLOCK_ELEMENTS // n)
    n_boot = max(2, full_blocks * rows + shift)
    table = bootstrap_indices(n, n_boot, seed)
    assert table.dtype == _INDEX_EDGES[n] and table.shape == (n_boot, n)
    assert not table.flags.writeable
    assert np.array_equal(
        table, np.random.default_rng(seed).integers(0, n, (n_boot, n))
    )
    sample = EmpiricalSample(np.random.default_rng(seed + 1).standard_normal(n))
    got = bootstrap_standard_error(RISKS[name], sample, n_boot, seed, table)
    assert got == bootstrap_standard_error(RISKS[name], sample, n_boot, seed)


def test_index_table_is_kept_only_within_its_byte_budget():
    # 64 uint16 rows of 65536 paths take the 8 MiB budget exactly; one more
    # row is over it, and the bootstrap then draws per call.
    n = 65536
    assert 64 * n * 2 == _INDEX_TABLE_BYTES
    within = bootstrap_indices(n, 64, seed=5)
    assert within is not None and within.nbytes == _INDEX_TABLE_BYTES
    assert bootstrap_indices(n, 65, seed=5) is None
    sample = EmpiricalSample(np.random.default_rng(6).standard_normal(n))
    for risk in RISKS.values():
        assert bootstrap_standard_error(risk, sample, 64, 5, within) == (
            bootstrap_standard_error(risk, sample, 64, 5)
        )


def test_index_table_serves_only_uniform_samples_of_its_shape():
    rng = np.random.default_rng(8)
    n = 300
    table = bootstrap_indices(n, 40, seed=2)
    w = rng.uniform(size=n)
    weighted = EmpiricalSample(rng.standard_normal(n), w / w.sum())
    risk = RISKS["mean_deviation"]
    # A weighted sample draws its own resamples, with its weights.
    assert bootstrap_standard_error(risk, weighted, 40, 2, table) == (
        bootstrap_standard_error(risk, weighted, 40, 2)
    )
    uniform = EmpiricalSample(weighted.values)
    for n_boot, sample in ((41, uniform), (40, EmpiricalSample(uniform.values[1:]))):
        with pytest.raises(ValueError, match="indices must have shape"):
            bootstrap_standard_error(risk, sample, n_boot, 2, table)


_SOFTPLUS_EDGES = [0.0, -0.0, 40.0, -40.0, 750.0, -750.0, 1e308 / 1e-10, -1e308 / 1e-10]


@settings(max_examples=200, deadline=None)
@given(u=st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
def test_softplus_within_one_ulp_of_logaddexp(u):
    u = np.array(u + _SOFTPLUS_EDGES)
    got = _softplus(u, np.empty_like(u), np.empty_like(u))
    ref = np.logaddexp(0.0, u)
    with np.errstate(over="ignore"):  # the float maximum's upper neighbour
        within_ulp = (
            (got == ref)
            | (got == np.nextafter(ref, np.inf))
            | (got == np.nextafter(ref, -np.inf))
        )
    assert within_ulp.all(), u[~within_ulp]


def test_bootstrap_rejects_fewer_than_two_resamples():
    sample = EmpiricalSample([0.0, 1.0, 2.0])
    for n_boot in (-1, 0, 1):
        with pytest.raises(ValueError, match="n_boot"):
            bootstrap_standard_error(RISKS["expectation"], sample, n_boot=n_boot)


_KERNEL_SCRIPT = """
import hashlib
import numpy as np
from riskmp import AdjointProcesses, EmpiricalSample, RiskFunction, RegressionBasis
from riskmp import bootstrap_standard_error, evaluate, l_derivative
from riskmp.adjoint import _norm, _SliceRegression
from riskmp.verification import portfolio_adjoint_identity

rng = np.random.default_rng(11)
x = rng.standard_normal(20_000)
w = rng.uniform(0.0, 1.0, x.size)
for sample in (EmpiricalSample(x), EmpiricalSample(x, w / w.sum())):
    for risk in (
        RiskFunction.expectation(),
        RiskFunction.mean_deviation(0.5),
        RiskFunction.smoothed_semideviation(0.5, 0.1),
        RiskFunction.entropic(1.0),
    ):
        print(repr(evaluate(risk, sample)))
        print(hashlib.sha256(l_derivative(risk, sample).tobytes()).hexdigest())
        print(repr(bootstrap_standard_error(risk, sample, n_boot=20, seed=3)))
states = rng.standard_normal((x.size, 1))
t = x + states[:, 0]
print(repr(_norm(t - _SliceRegression(states, RegressionBasis(degree=2)).fit(t))))
yp = 1.0 + 0.1 * rng.standard_normal((2000, 11))
zp = rng.standard_normal((2000, 10, 1))
print(repr(portfolio_adjoint_identity(AdjointProcesses(
    y=-yp[:, :, None] + 1e-3 * rng.standard_normal((2000, 11, 1)),
    z=-zp[:, :, :, None] + 1e-3 * rng.standard_normal((2000, 10, 1, 1)),
    yprime=yp,
    zprime=zp,
    residuals_y=[],
    residuals_yprime=[],
))))
"""


def test_risk_kernel_is_blas_thread_independent():
    # 20k entries, and the 22k of the adjoint identity's arrays, are above
    # the 10,000-entry size where OpenBLAS splits a dot product across threads.
    runs = [python_in_subprocess(["-c", _KERNEL_SCRIPT], n) for n in (1, 2)]
    assert runs[0].count("\n") == 2 + 2 * 4 * 3
    assert runs[0] == runs[1]


# ----------------------------------------------------------------- plumbing

def test_bootstrap_standard_error_scales_with_n(rng):
    risk = RISKS["expectation"]
    small = EmpiricalSample(rng.standard_normal(200))
    large = EmpiricalSample(rng.standard_normal(20_000))
    se_small = bootstrap_standard_error(risk, small, n_boot=100, seed=1)
    se_large = bootstrap_standard_error(risk, large, n_boot=100, seed=1)
    assert se_large < se_small
    # Mean's bootstrap SE should sit near std/sqrt(n).
    assert se_large == pytest.approx(1.0 / math.sqrt(20_000), rel=0.3)


def test_sample_validation():
    with pytest.raises(ValueError):
        EmpiricalSample([])
    with pytest.raises(ValueError):
        EmpiricalSample([1.0, np.inf])
    with pytest.raises(ValueError):
        EmpiricalSample([1.0, 2.0], [0.7, 0.7])
    with pytest.raises(ValueError):
        RiskFunction.mean_deviation(-1.0)
    with pytest.raises(ValueError):
        RiskFunction.smoothed_semideviation(0.5, 0.0)


def test_beta_and_epsilon_bounds():
    RiskFunction.mean_deviation(MAX_BETA)
    RiskFunction.smoothed_semideviation(MAX_BETA, MAX_EPSILON)
    with pytest.raises(ValueError, match="beta must be in"):
        RiskFunction.mean_deviation(np.nextafter(MAX_BETA, np.inf))
    with pytest.raises(ValueError, match="beta must be in"):
        RiskFunction.smoothed_semideviation(1e308, 0.1)
    with pytest.raises(ValueError, match="epsilon must be in"):
        RiskFunction.smoothed_semideviation(0.5, np.nextafter(MAX_EPSILON, np.inf))


@pytest.mark.parametrize(
    "theta", [np.nextafter(MIN_THETA, 0.0), np.nextafter(MAX_THETA, np.inf),
              1e-16, 1e308, 0.0, -1.0, math.nan],
)
def test_theta_outside_its_bounds_is_refused(theta):
    with pytest.raises(ValueError, match=r"theta must be in \[1e-06, 1e\+06\]"):
        RiskFunction.entropic(theta)


def test_entropic_risk_at_the_theta_bounds():
    # At MIN_THETA the risk is the mean plus theta var / 2 up to a rounding
    # error of about 1e-10; at MAX_THETA it is within ln(n) / theta of the
    # sample maximum.
    x = np.random.default_rng(11).normal(-0.07, 1.0, 1000)
    sample = EmpiricalSample(x)
    low = evaluate(RiskFunction.entropic(MIN_THETA), sample)
    assert abs(low - (x.mean() + MIN_THETA * x.var() / 2.0)) < 1e-9
    high = evaluate(RiskFunction.entropic(MAX_THETA), sample)
    assert x.max() - math.log(x.size) / MAX_THETA - 1e-12 <= high <= x.max()
