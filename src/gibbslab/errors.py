"""Semantic exception hierarchy for gibbslab.

Every failure mode that a caller can meaningfully react to gets its own
class; generic input mistakes raise :class:`InvalidInput`.  All classes
derive from :class:`GibbsLabError` so the CLI can map library failures onto
its numerical-error exit code in one catch.
"""

from __future__ import annotations


class GibbsLabError(Exception):
    """Base class for all gibbslab errors."""


class InvalidInput(GibbsLabError, ValueError):
    """Malformed argument that no dedicated error class covers."""


class InvalidDistribution(InvalidInput):
    """Weights are negative, non-finite, or do not sum to one."""


class AbsoluteContinuityViolation(GibbsLabError):
    """A divergence required p ≪ q but some q_i = 0 carries p_i > 0."""

    def __init__(self, message: str, index: object | None = None):
        super().__init__(message)
        self.index = index


class AlphaOutOfRange(InvalidInput):
    """Rényi order outside the supported domain (alpha > 0, alpha != 1)."""


class EnumerationTooLarge(GibbsLabError):
    """An exact enumeration would exceed the configured cap."""

    def __init__(self, message: str, required: int, cap: int):
        super().__init__(message)
        self.required = required
        self.cap = cap


class GammaNonPositive(InvalidInput):
    """Operation defined only for inverse temperature gamma > 0."""


class NotIID(GibbsLabError):
    """Construction requires an IID data model but a joint law was given."""


class EpsilonOutOfRange(InvalidInput):
    """Counterexample perturbation outside the valid open interval."""


class IdentityMismatch(GibbsLabError):
    """An exact identity failed its numerical tolerance; indicates a bug
    or an out-of-domain input, never expected behavior."""


class NotPositiveDefinite(GibbsLabError):
    """A covariance/Hessian argument was not symmetric positive definite."""


class SingularHessian(NotPositiveDefinite):
    """A Laplace-limit Hessian failed the positive-definiteness check."""

    def __init__(self, message: str, sample_index: int | None = None):
        super().__init__(message)
        self.sample_index = sample_index


class NTooSmall(InvalidInput):
    """Closed form requires a larger sample count."""


class DeltaOutOfRange(InvalidInput):
    """Confidence parameter must lie in (0, 1/2)."""


class NoPositiveRoot(GibbsLabError):
    """The fixed-point equation has no positive solution; carries the
    violated feasibility condition."""

    def __init__(self, message: str, condition: str):
        super().__init__(message)
        self.condition = condition


class Diverged(GibbsLabError):
    """An iterative sampler left the stable region."""

    def __init__(self, message: str, iteration: int, norm: float):
        super().__init__(message)
        self.iteration = iteration
        self.norm = norm


class ConfigInvalid(GibbsLabError):
    """An experiment configuration failed schema validation; carries the
    offending key path."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path
