"""Limiting regimes of the Gibbs posterior: zero-temperature Laplace
forms, the asymptotic maximum-likelihood rate, and the Bayesian regime.

At infinite inverse temperature the posterior collapses onto the
empirical-risk minimizers, and the generalization error is a functional
of the per-dataset minimizer, its Hessian, and the dataset weights:

  * one well per dataset: an exact expression combining a product-minus-
    joint quadratic term with a minimizer/gradient coupling term
    (single_well_gen);
  * several isolated wells: the average over wells of the analogous
    per-well expressions upper-bounds the error (multi_well_bound); the
    per-well coupling term uses the centered quadratic form with the
    Hessian in the middle, which coincides with the single-well coupling
    term whenever the Hessian does not depend on the dataset.

For maximum-likelihood estimation with n IID samples the same collapse
yields tr(fisher . J^{-1}) / n, reducing to the d / n model-selection
rate when the model is well specified (mle_asymptotic_gen).  Validity
rests on the classical regularity conditions, documented here and not
checked at runtime: the population divergence minimizer is unique and
interior, the log model is twice continuously differentiable around it
with an invertible expected Hessian, and derivatives and expectations
commute (dominated integrability).

The Bayesian regime sets the inverse temperature equal to the sample
size under a log loss, making the posterior the Bayes posterior; for a
well-specified smooth model, n times the generalization error tends to
the parameter dimension.  bayes_location_regime_* expose the
one-dimensional Gaussian location version both in closed form and as a
variance-reduced Monte Carlo estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import InvalidInput, NotPositiveDefinite, SingularHessian
from .samplers import block_gaps, check_trials, mean_and_std_error

WEIGHT_TOL = 1e-8
PIVOT_TOL = 1e-10


def _symmetric_matrix(matrix: object, name: str) -> np.ndarray:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInput(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} must be finite")
    scale = float(np.abs(arr).max()) or 1.0
    if float(np.abs(arr - arr.T).max()) > 1e-10 * scale:
        raise InvalidInput(f"{name} must be symmetric")
    return (arr + arr.T) / 2.0


def _check_pd(matrix: np.ndarray, context: str, sample_index: int | None = None) -> None:
    scale = float(np.abs(matrix).max()) or 1.0
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularHessian(
            f"{context} is not positive definite", sample_index=sample_index
        ) from exc
    if float(np.diag(chol).min()) ** 2 < PIVOT_TOL * scale:
        raise SingularHessian(
            f"{context} has a pivot below {PIVOT_TOL:g} times its scale",
            sample_index=sample_index,
        )


@dataclass(frozen=True, eq=False)
class WellSample:
    """One dataset's minimizer, Hessian there, and dataset probability."""

    minimizer: np.ndarray
    hessian: np.ndarray
    weight: float

    def __post_init__(self) -> None:
        vec = np.asarray(self.minimizer, dtype=np.float64).reshape(-1)
        if vec.size == 0 or not np.all(np.isfinite(vec)):
            raise InvalidInput("minimizer must be a nonempty finite vector")
        hess = _symmetric_matrix(self.hessian, "hessian")
        if hess.shape[0] != vec.size:
            raise InvalidInput(
                f"hessian shape {hess.shape} does not match minimizer length {vec.size}"
            )
        if not (math.isfinite(self.weight) and self.weight >= 0.0):
            raise InvalidInput(f"weight must be >= 0, got {self.weight!r}")
        vec.flags.writeable = False
        hess.flags.writeable = False
        object.__setattr__(self, "minimizer", vec)
        object.__setattr__(self, "hessian", hess)


def _well_arrays(samples: list[WellSample] | tuple[WellSample, ...]):
    if not samples:
        raise InvalidInput("at least one well sample is required")
    d = samples[0].minimizer.size
    for idx, sample in enumerate(samples):
        if sample.minimizer.size != d:
            raise InvalidInput(f"sample {idx} has dimension {sample.minimizer.size}, expected {d}")
        _check_pd(sample.hessian, "hessian", sample_index=idx)
    probs = np.array([s.weight for s in samples])
    total = probs.sum()
    if abs(total - 1.0) > WEIGHT_TOL:
        raise InvalidInput(f"weights must sum to 1 within {WEIGHT_TOL:g}, got {total!r}")
    probs = probs / total
    minimizers = np.stack([s.minimizer for s in samples])
    hessians = np.stack([s.hessian for s in samples])
    return probs, minimizers, hessians


def _product_minus_joint_quadratic(
    probs: np.ndarray, minimizers: np.ndarray, hessians: np.ndarray
) -> float:
    """E_prod[w' H w] / 2 - E_joint[w' H w] / 2 over the dataset-indexed
    coupling of minimizers and Hessians."""
    second_moment = np.einsum("k,ki,kj->ij", probs, minimizers, minimizers)
    under_product = float(np.einsum("k,kij,ji->", probs, hessians, second_moment))
    under_joint = float(np.einsum("k,ki,kij,kj->", probs, minimizers, hessians, minimizers))
    return 0.5 * (under_product - under_joint)


def single_well_gen(samples: list[WellSample] | tuple[WellSample, ...]) -> float:
    """Zero-temperature generalization error with one minimizer per dataset.

    Exact for the Laplace limit of the Gibbs posterior: the sum of the
    product-minus-joint quadratic term and the coupling between centered
    minimizers and centered Hessian-times-minimizer vectors.
    """
    probs, minimizers, hessians = _well_arrays(samples)
    hw = np.einsum("kij,kj->ki", hessians, minimizers)
    centered_w = minimizers - probs @ minimizers
    centered_hw = hw - probs @ hw
    coupling = float(np.einsum("k,ki,ki->", probs, centered_w, centered_hw))
    return _product_minus_joint_quadratic(probs, minimizers, hessians) + coupling


def _centered_quadratic(samples: list[WellSample] | tuple[WellSample, ...]) -> float:
    probs, minimizers, hessians = _well_arrays(samples)
    centered = minimizers - probs @ minimizers
    quad = float(np.einsum("k,ki,kij,kj->", probs, centered, hessians, centered))
    return _product_minus_joint_quadratic(probs, minimizers, hessians) + quad


def multi_well_bound(
    wells: list[list[WellSample]] | tuple[tuple[WellSample, ...], ...]
) -> float:
    """Zero-temperature upper bound with several isolated minimizers.

    Each well contributes its product-minus-joint quadratic term plus the
    centered quadratic form of its minimizers through its Hessians; the
    bound is the plain average over wells (uniform prior across wells).
    """
    if not wells:
        raise InvalidInput("at least one well is required")
    return float(np.mean([_centered_quadratic(well) for well in wells]))


@dataclass(frozen=True, eq=False)
class MleSpec:
    """Asymptotic MLE inputs: expected Hessian J (positive definite),
    score covariance fisher (positive semidefinite), and sample count."""

    J: np.ndarray
    fisher: np.ndarray
    n: int

    def __post_init__(self) -> None:
        j = _symmetric_matrix(self.J, "J")
        _check_pd(j, "J")
        f = _symmetric_matrix(self.fisher, "fisher")
        if f.shape != j.shape:
            raise InvalidInput(f"fisher shape {f.shape} does not match J shape {j.shape}")
        low = float(np.linalg.eigvalsh(f).min())
        if low < -1e-10 * (float(np.abs(f).max()) or 1.0):
            raise NotPositiveDefinite("fisher must be positive semidefinite")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise InvalidInput(f"n must be a positive integer, got {self.n!r}")
        j.flags.writeable = False
        f.flags.writeable = False
        object.__setattr__(self, "J", j)
        object.__setattr__(self, "fisher", f)

    @property
    def d(self) -> int:
        return self.J.shape[0]


def mle_asymptotic_gen(spec: MleSpec) -> float:
    """tr(fisher . J^{-1}) / n; exactly d / n when fisher equals J."""
    if np.array_equal(spec.fisher, spec.J):
        return spec.d / spec.n
    factor = cho_factor(spec.J, lower=True)
    return float(np.trace(cho_solve(factor, spec.fisher))) / spec.n


def bayes_location_regime_exact(n: int, prior_var: float = 1.0) -> float:
    """Exact generalization error of the Bayesian-regime location model.

    One-dimensional Gaussian location family with unit noise, log loss,
    inverse temperature equal to n (the Bayes posterior), prior variance
    prior_var.  With v the posterior variance, the closed form is
    (1/n + v^2 n - v^2 / (prior_var^2 n)) / 2; multiplied by n it tends
    to 1, the parameter dimension.
    """
    if not (isinstance(n, int) and n >= 1):
        raise InvalidInput(f"n must be a positive integer, got {n!r}")
    if not (math.isfinite(prior_var) and prior_var > 0.0):
        raise InvalidInput(f"prior_var must be > 0, got {prior_var!r}")
    v = 1.0 / (1.0 / prior_var + n)
    return 0.5 * (1.0 / n + v * v * n - v * v / (prior_var * prior_var * n))


def bayes_location_regime_gen(
    n: int,
    trials: int,
    seed: int,
    prior_mean: float = 0.0,
) -> tuple[float, float]:
    """Monte Carlo estimate of the Bayesian-regime generalization error.

    The prior is N(prior_mean, 1).  Each trial draws n unit-variance
    samples around 0 and evaluates the posterior-averaged
    population-minus-empirical log-loss gap in closed form given the
    sufficient statistics (exact partial averaging over both the posterior
    and the within-sample variance, whose expectations are known; only the
    sample mean stays random).  Sample means are drawn in blocks (see
    samplers.block_gaps).  Returns (estimate, standard error).  The
    estimator is unbiased for bayes_location_regime_exact(n) whatever
    prior_mean is: the error of the Bayes posterior does not depend on the
    prior location.
    """
    if not (isinstance(n, int) and n >= 1):
        raise InvalidInput(f"n must be a positive integer, got {n!r}")
    check_trials(trials)
    precision = 1.0 + n

    def gap_chunk(size: int, blocks: list) -> np.ndarray:
        mean = np.empty(size)
        for rng, rows in blocks:
            rng.standard_normal(out=mean[rows])
        mean /= math.sqrt(n)
        m = (prior_mean + n * mean) / precision
        return 0.5 * (1.0 / n + m**2 - (m - mean) ** 2)

    # the sample means and a few temporaries of their size
    return mean_and_std_error(block_gaps(trials, seed, gap_chunk, 4))
