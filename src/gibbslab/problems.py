"""Randomized enumerable problem instances for identity and bound sweeps.

Instance k is drawn from stream k of samplers.STREAMS["instances"], so
it is the same no matter how many instances a sweep requests or in which
order they are built.  Weights get a small positive floor before
normalization: strictly positive laws keep every posterior comparison
absolutely continuous, which is the regime the identity checks are
about (support mismatches are exercised separately in the unit tests).
"""

from __future__ import annotations

import numpy as np

from .errors import require_count
from .gibbs import DataModel, IIDData, JointData, LearningProblem, _check_elements
from .probability import ProbVec
from .samplers import STREAMS, check_seed, counter_rng

WEIGHT_FLOOR = 0.05


def _positive_weights(rng: np.random.Generator, size: int) -> np.ndarray:
    raw = rng.random(size) + WEIGHT_FLOOR
    return raw / raw.sum()


def instance_rng(seed: int, index: int) -> np.random.Generator:
    """The substream that generates instance number ``index``, which is,
    like the seed, an integer in [0, 2**64): the range of a Philox key word."""
    check_seed(seed)
    require_count("index", index, ">=", 0, "<", 2**64)
    return counter_rng(seed, STREAMS["instances"].start + index)


def random_problem(
    rng: np.random.Generator,
    max_symbols: int = 4,
    max_hypotheses: int = 5,
    max_n: int = 3,
    iid: bool = True,
) -> LearningProblem:
    """One random problem: alphabet sizes and n uniform up to the caps,
    losses uniform in [0, 1], strictly positive random prior and data law.
    The drawn sizes pass the problem's element check before any table is
    drawn, so an instance too large to enumerate raises
    EnumerationTooLarge without allocating."""
    _check_caps(max_symbols, max_hypotheses, max_n)
    return _draw_problem(rng, max_symbols, max_hypotheses, max_n, iid)


def _check_caps(max_symbols: int, max_hypotheses: int, max_n: int) -> None:
    # each size is drawn as an int64 below its cap plus one
    require_count("max_symbols", max_symbols, ">=", 2, "<", 2**63)
    require_count("max_hypotheses", max_hypotheses, ">=", 2, "<", 2**63)
    require_count("max_n", max_n, ">=", 1, "<", 2**63)


def _draw_problem(
    rng: np.random.Generator,
    max_symbols: int = 4,
    max_hypotheses: int = 5,
    max_n: int = 3,
    iid: bool = True,
) -> LearningProblem:
    """random_problem with caps that its caller checked."""
    nz = int(rng.integers(2, max_symbols + 1))
    nw = int(rng.integers(2, max_hypotheses + 1))
    n = int(rng.integers(1, max_n + 1))
    _check_elements("dataset enumeration", max(n, nw), nz, n)
    loss = rng.random((nw, nz))
    prior = ProbVec(_positive_weights(rng, nw))
    model: DataModel
    if iid:
        model = IIDData(ProbVec(_positive_weights(rng, nz)))
    else:
        model = JointData(_positive_weights(rng, nz**n))
    return LearningProblem(
        sample_alphabet=range(nz),
        hypothesis_set=range(nw),
        loss=loss,
        prior=prior,
        data_model=model,
        n=n,
    )


def instance_sweep(
    count: int,
    seed: int,
    max_symbols: int = 4,
    max_hypotheses: int = 5,
    max_n: int = 3,
):
    """An iterator over count reproducible (index, problem) instances,
    alternating IID and joint data models.  Each problem is built when it
    is reached, so it and its cached tables can be freed once the caller
    moves on; gibbs._shape_sweep reads it a window of at most
    BLOCK_ELEMENTS table elements at a time and evaluates the window's
    same-shape problems together.  The count, the seed and the caps are
    checked once, when it is called, before any instance is drawn; every
    index is then below 2**64, so instance index is random_problem drawn
    from the generator of instance_rng(seed, index), without its checks."""
    require_count("count", count, ">=", 1, "<=", 2**64)
    check_seed(seed)
    _check_caps(max_symbols, max_hypotheses, max_n)
    return (
        (index, _draw_problem(counter_rng(seed, STREAMS["instances"].start + index),
                              max_symbols, max_hypotheses, max_n, iid=(index % 2 == 0)))
        for index in range(count)
    )


def random_mixture_components(
    rng: np.random.Generator, problem: LearningProblem
) -> list[tuple[float, DataModel]]:
    """Two random iid component laws (each domain draws its n samples
    independently from its own marginal) with a random mixture weight,
    for mixture probes over domain-dependent data."""
    w = float(rng.uniform(0.2, 0.8))
    nz = problem.num_samples_symbols
    return [
        (w, IIDData(ProbVec(_positive_weights(rng, nz)))),
        (1.0 - w, IIDData(ProbVec(_positive_weights(rng, nz)))),
    ]
