"""Finite-alphabet probability primitives and information measures.

Everything downstream (Gibbs posteriors, bound suites, counterexamples) is
built on exact tabulated distributions, so this module is deliberately
strict: ProbVec and JointTable weights must be nonnegative and normalized
to 1e-12, info_triple demands absolute continuity instead of returning
infinities, and all ratio-of-probability arithmetic runs in the log
domain.  The array kernels below (log-sum-exp, the divergence pair, the
Renyi log-sums of one log ratio) take log weight arrays, stacked or not;
the functionals of gibbs.GibbsPosterior read every divergence through
them.

Conventions:
  * All information quantities are in nats.
  * Total variation follows the unnormalized sum-of-absolute-differences
    convention, so its range is [0, 2] (disjoint point masses give 2).
  * Probabilities below 1e-300 are treated as exact zeros when checking
    absolute continuity; this keeps underflow from masquerading as support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AbsoluteContinuityViolation, InvalidDistribution, InvalidInput

ZERO_CUTOFF = 1e-300
NORMALIZATION_TOL = 1e-12
IDENTITY_TOL = 1e-12
# elements per block of stacked work: each of the two tables of a chunk of
# a Gibbs gamma sweep, a stacked Renyi log-sum-exp, and a run of the last
# (dataset or orbit) axis of a hypothesis-major table in the empirical-risk
# gather and in the supersample and replace-one gathers.  The divergence
# kernel holds three block-sized float temporaries and one boolean mask,
# and the Renyi far sums two and one (the near sums hold whole tables,
# four with their log ratio), so the block is sized by peak memory
BLOCK_ELEMENTS = 100_000


def _as_weight_array(weights: object, ndim: int) -> np.ndarray:
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim != ndim:
        raise InvalidDistribution(f"expected a {ndim}-d weight array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidDistribution("weights must be finite")
    if np.any(arr < 0.0):
        raise InvalidDistribution(f"weights must be nonnegative, min is {arr.min()}")
    total = float(arr.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise InvalidDistribution(f"weights must sum to 1 within {NORMALIZATION_TOL}, got {total!r}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _zeroed(weights: np.ndarray) -> np.ndarray:
    """Weights with sub-cutoff entries replaced by exact zeros."""
    return np.where(weights < ZERO_CUTOFF, 0.0, weights)


@dataclass(frozen=True, eq=False)
class ProbVec:
    """A probability distribution on a finite alphabet, given by its weights.

    Immutable after construction; the weight array is marked read-only and
    log weights are cached on first use (zeros map to -inf).
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _as_weight_array(self.weights, ndim=1))

    @cached_property
    def log_weights(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            logs = np.log(self.weights)
        logs.flags.writeable = False
        return logs

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class JointTable:
    """A joint distribution on the product of two finite alphabets:
    ``table[i, j]`` is the probability of row symbol i with column symbol j.
    """

    table: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _as_weight_array(self.table, ndim=2))


@dataclass(frozen=True)
class InfoReport:
    """Mutual, lautum, and symmetrized-KL information of one coupling,
    in nats.  symmetrized is always the sum of the other two."""

    mutual: float
    lautum: float
    symmetrized: float

    def __post_init__(self) -> None:
        columns = map(_one, (self.mutual, self.lautum, self.symmetrized))
        for error in InfoReport.failures(*columns).values():
            raise error

    @staticmethod
    def failures(mutual, lautum, symmetrized) -> dict:
        """Each failing member's first failure of a report's checks over
        columns of members; a report is a member of one."""
        values = np.array((mutual, lautum, symmetrized))
        with np.errstate(invalid="ignore"):
            off = np.abs(symmetrized - (mutual + lautum))
        off = off > IDENTITY_TOL * np.maximum(1.0, np.abs(symmetrized))
        return _failures(
            (~np.isfinite(values).all(axis=0), lambda k: InvalidInput(
                f"information must be finite, got {tuple(values[:, k].tolist())!r}")),
            ((mutual < -IDENTITY_TOL) | (lautum < -IDENTITY_TOL), lambda k: InvalidInput(
                f"information must be nonnegative, got mutual={mutual[k].item()!r} "
                f"lautum={lautum[k].item()!r}")),
            (off, lambda k: InvalidInput("symmetrized must equal mutual + lautum")),
        )


def _failures(*checks) -> dict:
    """The first failure of each failing member, in member order, of checks
    given as (1-d mask, error) pairs in the order a lone record tests them."""
    found = {}
    for mask, error in checks:
        for k in mask.nonzero()[0].tolist():
            if k not in found:
                found[k] = error(k)
    return dict(sorted(found.items()))


def _one(value) -> np.ndarray | None:
    """A value as the column of a member of one; None stays None."""
    return None if value is None else np.array([value])


# Array kernels: each formula once, called by info_triple below and by the
# log-domain functionals of gibbs.GibbsPosterior.


def _logsumexp(a: np.ndarray, axis=None, keepdims: bool = False):
    """log(sum(exp(a))) over axis, bit for bit what scipy's logsumexp
    returns on real floats, without its per-call array-API dispatch.

    scipy's steps in scipy's order: the tied maxima are taken out of the
    shifted sum and counted (m), the rest is summed and divided by m, and
    the result is log1p(s) + log(m) + max; where that is not finite (an
    all -inf slice, or an infinite entry) log(sum(exp(a))) stands instead.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    axes = tuple(range(a.ndim)) if axis is None else axis
    a_max = a.max(axis=axes, keepdims=True)
    tied = np.equal(a, a_max)
    m = tied.sum(axis=axes, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the tied maxima shift to -inf (scipy's -inf - max only differs
        # on an all -inf slice, which the direct sum below replaces)
        shifted = np.subtract(a, a_max)
        np.copyto(shifted, -np.inf, where=tied)
        s = np.exp(shifted, out=shifted).sum(axis=axes, keepdims=True)
        del shifted
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.exp(a).sum(axis=axes, keepdims=True))
            out = np.where(finite, out, direct)
    if not keepdims:
        out = out.squeeze(axis=axes)
    return out[()] if out.ndim == 0 else out


def _divergence_pair(log_p: np.ndarray, log_q: np.ndarray, axis=None) -> tuple:
    """(D(p || q), D(q || p)) summed over axis, for laws given by finite log
    weights that broadcast against each other.

    Each term is p r - p + q with r = log p - log q (or its mirror): its sum
    is the KL divergence of normalized laws, rounding in the log weights
    enters it only multiplied by r, so small values near independence keep
    their digits, and as max(p, q) times a function of expm1(-|r|) it
    neither overflows nor underflows at any temperature.  The terms are
    formed in three arrays of the broadcast shape.
    """
    r = np.subtract(log_p, log_q)
    p_larger = r >= 0.0
    a = np.abs(r, out=r)
    e1 = np.negative(a)
    np.expm1(e1, out=e1)
    # terms over max(p, q), for the direction whose first law is the larger
    # one, a + e1, and for the other direction, -(a (e1 + 1) + e1)
    smaller_term = np.add(e1, 1.0)
    smaller_term *= a
    smaller_term += e1
    np.negative(smaller_term, out=smaller_term)
    larger_term = np.add(a, e1, out=a)
    scale = np.maximum(log_p, log_q, out=e1)
    np.exp(scale, out=scale)
    larger_term *= scale
    smaller_term *= scale
    # the forward terms replace the scale, then the reverse terms the
    # larger ones
    forward = scale
    np.copyto(forward, smaller_term)
    np.copyto(forward, larger_term, where=p_larger)
    reverse = larger_term
    np.copyto(reverse, smaller_term, where=p_larger)
    return forward.sum(axis=axis), reverse.sum(axis=axis)


def _per_block(elements: int) -> int:
    """How many slices of the given element count one block of
    BLOCK_ELEMENTS holds: at least one, so a slice above the block size is
    taken whole, as a lone one would be."""
    return max(1, BLOCK_ELEMENTS // elements)


def _renyi_logsums(
    r: np.ndarray, log_probs: np.ndarray, log_marginal: np.ndarray, betas
) -> np.ndarray:
    """ln(sum q e^(beta r)) for every exponent in betas and every member of
    a stack, as a (len(betas), members) array.  r[k] is member k's finite
    log ratio log p - log q of two normalized laws, zero where q is, and
    log q = log_probs[k] + log_marginal[k], addends that broadcast to its
    shape; each member is summed over every axis after the first exactly
    as a lone member would be.  Over alpha - 1, the value at beta = alpha
    is the Renyi divergence of order alpha from p to q and the value at
    beta = 1 - alpha the one from q to p.

    Near independence the sum is 1 + u with |u| < 1, u = sum q
    (expm1(beta r) - beta expm1(r)), taken as log1p(u), which keeps small
    divergences accurate as in _divergence_pair.  q (the addends' sum,
    exponentiated in place) and expm1(r) are formed once for all
    exponents, each exponent's terms in one more array of their size (with
    r, four tables, freed before the far sums' log-sum-exp takes its own),
    and beta expm1(r) a flat block of at most 4,096 elements at a time.
    Far apart the sum is taken by log-sum-exp of log q + beta r, the
    exponents and members that need it sharing calls of at most
    BLOCK_ELEMENTS elements, or one member each when a member is larger."""
    axes = tuple(range(1, r.ndim))
    out = np.empty((len(betas), r.shape[0]))
    far = []
    with np.errstate(over="ignore", invalid="ignore"):
        # flat tables, so that no view of them outlives the del below
        flat_r = r.reshape(-1)
        q = np.add(log_probs, log_marginal).reshape(-1)
        np.exp(q, out=q)
        em1 = np.expm1(flat_r)
        terms = np.empty_like(em1)
        scaled = np.empty(min(terms.size, 4096))
        for i, beta in enumerate(betas):
            np.multiply(beta, flat_r, out=terms)
            np.expm1(terms, out=terms)
            for start in range(0, terms.size, scaled.size):
                block = slice(start, start + scaled.size)
                terms[block] -= np.multiply(em1[block], beta, out=scaled[: em1[block].size])
            terms *= q
            for k, u in enumerate(terms.reshape(r.shape).sum(axis=axes).tolist()):
                if abs(u) < 1.0:
                    out[i, k] = math.log1p(u)
                else:
                    far.append((i, k))
    del q, em1, terms
    per_call = _per_block(r[0].size)
    for start in range(0, len(far), per_call):
        calls = far[start : start + per_call]
        exponents = np.empty((len(calls),) + r.shape[1:])
        for j, (i, k) in enumerate(calls):
            np.multiply(betas[i], r[k], out=exponents[j])
            exponents[j] += log_probs[k] + log_marginal[k]
        out[tuple(zip(*calls))] = _logsumexp(exponents, axis=axes)
    return out


def _kl_arrays(p: np.ndarray, q: np.ndarray, context: str) -> float:
    """KL divergence between weight arrays known to share a shape.

    Raises AbsoluteContinuityViolation when p puts mass where q has none;
    0 * ln(0/q) terms contribute nothing.
    """
    pz = _zeroed(p)
    qz = _zeroed(q)
    bad = (pz > 0.0) & (qz == 0.0)
    if bad.any():
        idx = tuple(int(k[0]) for k in np.nonzero(bad))
        raise AbsoluteContinuityViolation(
            f"{context}: mass {pz[bad][0]!r} on a zero-probability point at index {idx}",
            index=idx if len(idx) > 1 else idx[0],
        )
    support = pz > 0.0
    forward, _ = _divergence_pair(np.log(pz[support]), np.log(qz[support]))
    # where p is zero the term p r - p + q reduces to q
    return float(forward) + float(qz[~support].sum())


def info_triple(joint: JointTable) -> InfoReport:
    """Mutual, lautum, and symmetrized-KL information of a joint table.

    mutual = D(joint || product of marginals), lautum = the reverse
    divergence; lautum requires the product to be absolutely continuous
    with respect to the joint, which fails exactly when some cell with
    both marginals positive carries zero joint mass.
    """
    product = np.outer(joint.table.sum(axis=1), joint.table.sum(axis=0))
    mutual = _kl_arrays(joint.table, product, "info_triple (joint vs product)")
    lautum = _kl_arrays(product, joint.table, "info_triple (product vs joint)")
    return InfoReport(mutual=mutual, lautum=lautum, symmetrized=mutual + lautum)

