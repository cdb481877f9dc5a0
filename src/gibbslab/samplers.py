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
CHECK_STEPS iterations, on the iterates of the block just run.  A Python
int or float start runs a one-dimensional chain on Python floats, whose
iterates equal bit for bit those of the one-element array start: both
do the same IEEE-754 double operations in the same order, unfused.

counter_rng is the one source of randomness in the package: a Philox
generator keyed by (seed, stream) whose counter starts at a block
index, so every (seed, stream, block) triple names its own
non-overlapping substream and results never depend on execution order.
The vectorized Monte Carlo estimators draw their trials in blocks of
BLOCK_TRIALS through block_gaps, the one Monte Carlo loop of the
package.  It builds one keyed generator per call and re-keys its counter
to block b before block b's draws, so each block draws what
counter_rng(seed, 0, b) would, as when every block had a generator of
its own.  It hands the blocks to the estimator a chunk at a time so
that the arithmetic after the draws runs once per chunk of blocks, on
arrays of at most about probability.BLOCK_ELEMENTS elements; instance
sweeps use one stream per instance at block 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import Diverged, InvalidInput, require_count, require_real
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
# blocks re-key the generator more often; larger ones ran no faster (on
# the cli-monte-carlo benchmark 16 was slower than 64 and 256 no faster,
# both measured when each block built its own generator).
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
    require_count("trials", trials, ">=", MIN_TRIALS)


def check_seed(seed: object) -> None:
    """Philox keys take an integer seed in [0, 2**64)."""
    require_count("seed", seed, ">=", 0, "<", 2**64)


def block_gaps(
    trials: int,
    seed: int,
    gap_chunk: Callable[[int, Iterator[tuple[np.random.Generator, slice]]], np.ndarray],
    trial_elements: int,
) -> np.ndarray:
    """Per-trial gaps, drawn BLOCK_TRIALS trials per generator.

    Block b holds trials b * BLOCK_TRIALS onward and draws what
    counter_rng(seed, 0, b) would.  The blocks go to gap_chunk(size,
    blocks) a chunk at a time: ``blocks`` yields a chunk's blocks in
    order as (rng, rows) pairs, rows being the slice of the chunk's
    ``size`` trials that the block's draws fill, and gap_chunk returns
    the (size,) gaps of those trials.  One generator serves the whole
    call, re-keyed to block b as block b is taken, so gap_chunk must take
    the blocks once, in order, and draw from a block's generator only
    until it takes the next block.  A chunk holds as many whole blocks
    as keep size * trial_elements within BLOCK_ELEMENTS, and at least
    one, so trial_elements is the number of array elements one trial
    takes while gap_chunk runs.  Returns the (trials,) array of gaps.
    """
    check_seed(seed)
    chunk_trials = BLOCK_TRIALS * max(1, BLOCK_ELEMENTS // (BLOCK_TRIALS * trial_elements))
    # building a Philox reads OS entropy for a seed sequence that the
    # key then overrides; setting a block's counter on one generator
    # reads none, and resets its buffered output as a new one would have
    rng = counter_rng(seed, 0)
    bit_generator = rng.bit_generator
    state = bit_generator.state
    counter = state["state"]["counter"]

    def chunk_blocks(start: int, stop: int) -> Iterator[tuple[np.random.Generator, slice]]:
        for first in range(start, stop, BLOCK_TRIALS):
            counter[2] = first // BLOCK_TRIALS
            bit_generator.state = state
            yield rng, slice(first - start, min(first + BLOCK_TRIALS, stop) - start)

    gaps = np.empty(trials)
    for start in range(0, trials, chunk_trials):
        stop = min(start + chunk_trials, trials)
        gaps[start:stop] = gap_chunk(stop - start, chunk_blocks(start, stop))
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
        require_real("step", self.step, ">", 0)
        require_real("gamma", self.gamma, ">", 0)
        require_count("iterations", self.iterations, ">=", 1)
        check_seed(self.seed)

    @property
    def burn_in(self) -> int:
        return self.iterations // 5


def sgld_run(
    gradient: Callable[[object, object], object],
    initial: object,
    config: SgldConfig,
    dataset: object = None,
) -> np.ndarray:
    """Run the Langevin chain and return the post-burn-in iterates.

    gradient(w, dataset) must return the gradient of the objective whose
    Gibbs density (at the config's gamma) is being targeted, without
    writing into w.  A Python int or float start (np.float64 is one)
    runs a one-dimensional chain whose w is a Python float, converts a
    one-element result that is not a float to one, and gives bit for bit
    the iterates of the one-element array start.  From a vector start, a
    result that is not a float64 array of w's shape is converted to one.
    After every CHECK_STEPS iterations, and when the gradient raises,
    the chain raises Diverged at the first iterate whose norm exceeded
    1e10 or was not finite, naming its step and norm; the gradient may
    meanwhile have been called on up to CHECK_STEPS - 1 later iterates.
    numpy's overflow and invalid-value warnings, the gradient's
    included, are silenced while the chain runs.  Returns an array of
    shape (iterations - burn_in, dim).
    """
    scalar = isinstance(initial, (int, float))
    if scalar:
        w, kind, size = float(initial), float, 1
    else:
        w = np.atleast_1d(np.asarray(initial, dtype=np.float64)).copy()
        if w.ndim != 1:
            raise InvalidInput(f"initial must be a scalar or vector, got shape {w.shape}")
        shape, dtype, kind, size = w.shape, w.dtype, np.ndarray, w.size
    step = config.step
    noise = counter_rng(config.seed, 0).standard_normal((config.iterations, size))
    noise *= math.sqrt(2.0 * config.step / config.gamma)
    iterates = np.empty((config.iterations, size))
    # a diverging chain overflows on its way to its block's check, which
    # raises Diverged at the first bad iterate, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, config.iterations, CHECK_STEPS):
            block_noise = noise[start : start + CHECK_STEPS]
            rows = []
            try:
                for noise_row in block_noise[:, 0].tolist() if scalar else block_noise:
                    grad = gradient(w, dataset)
                    if type(grad) is not kind or (
                        not scalar and (grad.dtype is not dtype or grad.shape != shape)
                    ):
                        grad = np.asarray(grad, dtype=np.float64)
                        grad = grad.item() if scalar else grad.reshape(shape)
                    w = w - step * grad + noise_row
                    rows.append(w)
            finally:
                if rows:
                    _check_block(iterates, start, rows)
    return iterates[config.burn_in :]


def _check_block(iterates: np.ndarray, start: int, rows: list) -> None:
    """Store the iterates ``rows`` of steps start onward, arrays or the
    floats of a one-dimensional chain, and raise Diverged at the first
    whose norm exceeds DIVERGENCE_NORM or is not finite; the norm is the
    one a per-step check would compute."""
    block = iterates[start : start + len(rows)]
    (block[:, 0] if type(rows[0]) is float else block)[:] = rows
    squared = np.einsum("ij,ij->i", block, block)
    for i in np.flatnonzero(~(squared < SCREEN_SQUARED_NORM)).tolist():
        norm = math.sqrt(block[i].dot(block[i]))
        if not math.isfinite(norm) or norm > DIVERGENCE_NORM:
            raise Diverged(
                f"iterate norm {norm!r} at step {start + i} exceeded {DIVERGENCE_NORM:g}",
                iteration=start + i,
                norm=norm,
            )

