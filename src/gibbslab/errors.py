"""Semantic exception hierarchy for gibbslab, and the one argument rule.

Every failure mode that a caller can meaningfully react to gets its own
class; generic input mistakes raise :class:`InvalidInput`.  All classes
derive from :class:`GibbsLabError` so the CLI can map library failures onto
its numerical-error exit code in one catch.

Every scalar argument of the library, and every number of a CLI config,
is checked by require_real or require_count.  A real is an int or float
that is not a bool, with |x| <= sys.float_info.max: NaN, +-inf and ints
too large for a float are refused.  A count is an int that is not a bool.
numpy's float64 is a float; its other scalar types (float32, int64) are
neither.  A rule is a run of (operator, bound) pairs, the operators being
the keys of OPERATORS, and the value must pass every pair.  A refusal
raises error(message), error being the site's error class or a factory of
one, with the message "<name> must be <a finite real|an integer> <op>
<bound>[ and <op> <bound>], got <repr>": it starts with the argument's
name, so that the CLI can point at the config key.
"""

from __future__ import annotations

import operator
import sys

OPERATORS = {
    "<": operator.lt, "<=": operator.le, "==": operator.eq,
    "!=": operator.ne, ">=": operator.ge, ">": operator.gt,
}
_FLOAT_MAX = sys.float_info.max


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


def _require(name: str, value: object, number: bool, kind: str, rule: tuple, error):
    if number and value.__class__ is not bool:
        pairs = iter(rule)
        for op in pairs:
            if not OPERATORS[op](value, next(pairs)):
                break
        else:
            return value
    pairs = iter(rule)
    limits = " and".join(f" {op} {bound}" for op, bound in zip(pairs, pairs))
    raise error(f"{name} must be {kind}{limits}, got {value!r}")


def require_real(name: str, value: object, *rule: object, error=InvalidInput):
    """value, if it is a finite real that passes every (operator, bound)
    pair of rule; else raises error(message)."""
    number = isinstance(value, (int, float)) and -_FLOAT_MAX <= value <= _FLOAT_MAX
    return _require(name, value, number, "a finite real", rule, error)


def require_count(name: str, value: object, *rule: object, error=InvalidInput):
    """value, if it is an int that passes every pair of rule; else raises error(message)."""
    return _require(name, value, isinstance(value, int), "an integer", rule, error)
