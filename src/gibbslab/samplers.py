"""Sampling approximations of the Gibbs posterior.

sgld_run implements the unadjusted Langevin iteration

    W_{k+1} = W_k - step * grad(W_k, dataset) + sqrt(2 step / gamma) * noise_k

whose stationary law approximates the Gibbs density proportional to
exp(-gamma * objective).  For a quadratic objective (w - m)^2 the exact
stationary law of the discrete chain is Gaussian with mean m and
variance 1 / (2 gamma (1 - step)), so the continuous-time variance
1 / (2 gamma) is recovered as the step vanishes; tests lean on both
facts.  All noise comes from the counter-based stream (seed, 0), so a
run is bit-reproducible.  The chain checks for divergence once per
CHECK_STEPS iterations, on the iterates of the block just run.

counter_rng is the one source of randomness in the package: a Philox
generator keyed by (seed, stream) whose counter starts at a block
index, so every (seed, stream, block) triple names its own
non-overlapping substream and results never depend on execution order.
The vectorized Monte Carlo estimators draw one generator per block of
BLOCK_TRIALS trials through block_gaps, the one Monte Carlo loop of the
package, which hands the blocks to the estimator a chunk at a time so
that the arithmetic after the draws runs once per chunk of blocks, on
arrays of at most about probability.BLOCK_ELEMENTS elements; instance
sweeps use one stream per instance at block 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import Diverged, InvalidInput
from .probability import BLOCK_ELEMENTS

DIVERGENCE_NORM = 1e10
# sgld_run screens a block's squared norms against half the squared
# limit: the vectorized sum of squares and the dot product that decides
# a flagged row round apart by a relative 1e-16 per coordinate, far
# below a factor of two, so no row over the limit escapes the screen.
SCREEN_SQUARED_NORM = DIVERGENCE_NORM**2 / 2
# Iterations per divergence check in sgld_run.  Fewer pay the check's
# numpy calls more often; past its first bad iterate a chain runs on to
# the end of the block, at most CHECK_STEPS - 1 further steps.
CHECK_STEPS = 64
MIN_TRIALS = 1000

# Trials per generator in block_gaps; the draws of a trial depend only on
# its block's generator, so this fixes every estimator's digits.  Smaller
# blocks build generators more often; larger ones ran no faster (on the
# cli-monte-carlo benchmark 16 was slower than 64 and 256 no faster).
# The arithmetic on the draws runs per chunk of blocks, whose size
# BLOCK_ELEMENTS bounds instead.
BLOCK_TRIALS = 64


def counter_rng(seed: int, stream: int, block: int = 0) -> np.random.Generator:
    """Generator of the counter-based stream (seed, stream) at block ``block``.

    The Philox key is (seed, stream) and the block index sits in the
    third word of the counter, which a generator reaches only after
    2**128 counter increments, so distinct blocks never overlap.  Block 0
    is the stream of ``Philox(key=[seed, stream])``.
    """
    return np.random.Generator(
        np.random.Philox(
            key=np.array([seed, stream], dtype=np.uint64),
            counter=np.array([0, 0, block, 0], dtype=np.uint64),
        )
    )


def check_trials(trials: object) -> None:
    """Monte Carlo estimators need at least MIN_TRIALS trials."""
    if not (isinstance(trials, int) and trials >= MIN_TRIALS):
        raise InvalidInput(f"trials must be an integer >= {MIN_TRIALS}, got {trials!r}")


def block_gaps(
    trials: int,
    seed: int,
    gap_chunk: Callable[[int, list[tuple[np.random.Generator, slice]]], np.ndarray],
    trial_elements: int,
) -> np.ndarray:
    """Per-trial gaps, drawn BLOCK_TRIALS trials per generator.

    Block b holds trials b * BLOCK_TRIALS onward and draws from
    counter_rng(seed, 0, b).  The blocks go to gap_chunk(size, blocks) a
    chunk at a time: ``blocks`` lists a chunk's blocks in order as (rng,
    rows) pairs, rows being the slice of the chunk's ``size`` trials that
    the block's draws fill, and gap_chunk returns the (size,) gaps of
    those trials.  A chunk holds as many whole blocks as keep
    size * trial_elements within BLOCK_ELEMENTS, and at least one, so
    trial_elements is the number of array elements one trial takes while
    gap_chunk runs.  Returns the (trials,) array of gaps.
    """
    chunk_trials = BLOCK_TRIALS * max(1, BLOCK_ELEMENTS // (BLOCK_TRIALS * trial_elements))
    gaps = np.empty(trials)
    for start in range(0, trials, chunk_trials):
        stop = min(start + chunk_trials, trials)
        blocks = [
            (counter_rng(seed, 0, first // BLOCK_TRIALS),
             slice(first - start, min(first + BLOCK_TRIALS, stop) - start))
            for first in range(start, stop, BLOCK_TRIALS)
        ]
        gaps[start:stop] = gap_chunk(stop - start, blocks)
    return gaps


def mean_and_std_error(gaps: np.ndarray) -> tuple[float, float]:
    """Sample mean of the gaps and its standard error."""
    return float(gaps.mean()), float(gaps.std(ddof=1) / math.sqrt(gaps.size))


@dataclass(frozen=True)
class SgldConfig:
    """Langevin iteration parameters.  The first burn_in iterates, a
    fifth of the iterations, are discarded."""

    step: float
    gamma: float
    iterations: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise InvalidInput(f"step must be > 0, got {self.step!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise InvalidInput(f"gamma must be > 0, got {self.gamma!r}")
        if not (isinstance(self.iterations, int) and self.iterations >= 1):
            raise InvalidInput(f"iterations must be a positive integer, got {self.iterations!r}")

    @property
    def burn_in(self) -> int:
        return self.iterations // 5


def sgld_run(
    gradient: Callable[[np.ndarray, object], np.ndarray],
    initial: object,
    config: SgldConfig,
    dataset: object = None,
) -> np.ndarray:
    """Run the Langevin chain and return the post-burn-in iterates.

    gradient(w, dataset) must return the gradient of the objective whose
    Gibbs density (at the config's gamma) is being targeted, without
    writing into w; a result that is not a float64 array of w's shape is
    converted to one.  After every CHECK_STEPS iterations, and when the
    gradient raises, the chain raises Diverged at the first iterate whose
    norm exceeded 1e10 or was not finite, naming its step and norm; the
    gradient may meanwhile have been called on up to CHECK_STEPS - 1
    later iterates.  Returns an array of shape (iterations - burn_in, dim).
    """
    w = np.atleast_1d(np.asarray(initial, dtype=np.float64)).copy()
    if w.ndim != 1:
        raise InvalidInput(f"initial must be a scalar or vector, got shape {w.shape}")
    shape, dtype = w.shape, w.dtype
    noise = counter_rng(config.seed, 0).standard_normal((config.iterations, w.size))
    noise *= math.sqrt(2.0 * config.step / config.gamma)
    # numpy multiplies by a one-element array faster than by a Python
    # float, and to the same product
    step = np.full(1, config.step)
    iterates = np.empty((config.iterations, w.size))
    for start in range(0, config.iterations, CHECK_STEPS):
        rows = []
        try:
            for noise_row in noise[start : start + CHECK_STEPS]:
                grad = gradient(w, dataset)
                if type(grad) is not np.ndarray or grad.dtype is not dtype or grad.shape != shape:
                    grad = np.asarray(grad, dtype=np.float64).reshape(shape)
                w = w - step * grad + noise_row
                rows.append(w)
        finally:
            if rows:
                _check_block(iterates, start, rows)
    return iterates[config.burn_in :]


def _check_block(iterates: np.ndarray, start: int, rows: list[np.ndarray]) -> None:
    """Store the iterates ``rows`` of steps start onward and raise
    Diverged at the first whose norm exceeds DIVERGENCE_NORM or is not
    finite; the norm is the one a per-step check would compute."""
    block = iterates[start : start + len(rows)]
    block[:] = rows
    squared = np.einsum("ij,ij->i", block, block)
    for i in np.flatnonzero(~(squared < SCREEN_SQUARED_NORM)).tolist():
        norm = math.sqrt(block[i].dot(block[i]))
        if not math.isfinite(norm) or norm > DIVERGENCE_NORM:
            raise Diverged(
                f"iterate norm {norm!r} at step {start + i} exceeded {DIVERGENCE_NORM:g}",
                iteration=start + i,
                norm=norm,
            )

