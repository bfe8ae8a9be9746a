"""Exception types shared across the package."""


class RiskmpError(Exception):
    """Base class for all errors raised by riskmp."""


class NonPositiveHorizon(RiskmpError):
    """Time horizon must be strictly positive."""


class ZeroSteps(RiskmpError):
    """A time grid needs at least one step."""


class NumericalBlowup(RiskmpError):
    """A simulated quantity became NaN or infinite.

    Carries the index of the offending time step; blow-up is treated as a
    configuration error, never clamped silently.
    """

    def __init__(self, step, what="state"):
        self.step = step
        self.what = what
        super().__init__(f"non-finite {what} at time step {step}")


class InvalidPolicyWeights(RiskmpError):
    """A policy returned negative weights, or rows not summing to 1, at a time step."""


class AlphaOutOfRange(RiskmpError):
    """Convex-combination parameter must lie in [0, 1]."""


class DegenerateSample(RiskmpError):
    """The risk function's derivative does not exist at a near-constant sample."""


class RankDeficient(RiskmpError):
    """Unregularized regression hit a singular normal system."""


class InvalidBounds(RiskmpError):
    """Portfolio allocation bounds are inconsistent."""


class NonPositiveAdjustment(RiskmpError):
    """Risk-adjustment process y' must stay positive for the premium quotient."""


class ConfigInvalid(RiskmpError):
    """Experiment configuration failed validation."""
