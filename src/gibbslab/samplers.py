"""Sampling approximations of the Gibbs posterior.

sgld_run implements the unadjusted Langevin iteration

    W_{k+1} = W_k - step * grad(W_k, dataset) + sqrt(2 step / gamma) * noise_k

whose stationary law approximates the Gibbs density proportional to
exp(-gamma * objective).  For a quadratic objective (w - m)^2 the exact
stationary law of the discrete chain is Gaussian with mean m and
variance 1 / (2 gamma (1 - step)), so the continuous-time variance
1 / (2 gamma) is recovered as the step vanishes; tests lean on both
facts.  All noise comes from the counter-based stream (seed, 0), so a
run is bit-reproducible.

counter_rng is the one source of randomness in the package: a Philox
generator keyed by (seed, stream) whose counter starts at a block
index, so every (seed, stream, block) triple names its own
non-overlapping substream and results never depend on execution order.
The vectorized Monte Carlo estimators draw one generator per block of
BLOCK_TRIALS trials through block_gaps, the one Monte Carlo loop of the
package; instance sweeps use one stream per instance at block 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import Diverged, InvalidInput

DIVERGENCE_NORM = 1e10
MIN_TRIALS = 1000

# Trials per generator in block_gaps.  Smaller blocks pay numpy's
# per-call overhead more often; larger ones run no faster (on the
# cli-monte-carlo benchmark 16 was slower than 64 and 256 no faster)
# while each block's (block, n, d) and (block, grid) arrays grow with it.
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
    trials: int, seed: int, gap_block: Callable[[np.random.Generator, int], np.ndarray]
) -> np.ndarray:
    """Per-trial gaps, BLOCK_TRIALS trials at a time.

    gap_block(rng, size) returns the gaps of ``size`` trials drawn from
    rng; block b draws from counter_rng(seed, 0, b).  Returns the
    (trials,) array of gaps.
    """
    gaps = np.empty(trials)
    for block, start in enumerate(range(0, trials, BLOCK_TRIALS)):
        stop = min(start + BLOCK_TRIALS, trials)
        gaps[start:stop] = gap_block(counter_rng(seed, 0, block), stop - start)
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
    Gibbs density (at the config's gamma) is being targeted.  The chain
    raises Diverged as soon as an iterate's norm exceeds 1e10 or stops
    being finite.  Returns an array of shape (iterations - burn_in, dim).
    """
    w = np.atleast_1d(np.asarray(initial, dtype=np.float64)).copy()
    if w.ndim != 1:
        raise InvalidInput(f"initial must be a scalar or vector, got shape {w.shape}")
    noise = counter_rng(config.seed, 0).standard_normal((config.iterations, w.size))
    noise *= math.sqrt(2.0 * config.step / config.gamma)
    step = config.step
    iterates = np.empty((config.iterations, w.size))
    for k in range(config.iterations):
        grad = np.asarray(gradient(w, dataset), dtype=np.float64).reshape(w.shape)
        w = w - step * grad + noise[k]
        norm = math.sqrt(w.dot(w))
        if not math.isfinite(norm) or norm > DIVERGENCE_NORM:
            raise Diverged(
                f"iterate norm {norm!r} at step {k} exceeded {DIVERGENCE_NORM:g}",
                iteration=k,
                norm=norm,
            )
        iterates[k] = w
    return iterates[config.burn_in :]

