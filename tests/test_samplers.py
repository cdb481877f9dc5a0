"""Langevin sampling and Monte Carlo error estimation."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gibbslab import Diverged, InvalidInput, SgldConfig, sgld_run
from gibbslab.probability import BLOCK_ELEMENTS
from gibbslab.samplers import BLOCK_TRIALS, block_gaps, counter_rng


def test_counter_rng_block_zero_is_the_keyed_philox_stream():
    # instance sweeps and the Langevin noise read block 0, so their
    # outputs depend on it being the plain (seed, stream) Philox stream
    for seed, stream in ((0, 0), (20, 0), (20260814, 20_000)):
        legacy = np.random.Generator(
            np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
        )
        assert np.array_equal(
            counter_rng(seed, stream).standard_normal(500), legacy.standard_normal(500)
        )


def test_counter_rng_blocks_and_streams_are_distinct():
    draws = [
        counter_rng(seed, stream, block).random(8)
        for seed, stream, block in ((5, 0, 0), (5, 0, 1), (5, 0, 2), (5, 1, 0), (6, 0, 0))
    ]
    for i, a in enumerate(draws):
        for b in draws[i + 1 :]:
            assert not np.array_equal(a, b)
    assert np.array_equal(counter_rng(5, 0, 1).random(8), draws[1])


@pytest.mark.parametrize("trial_elements", [1, 300, 10**9])
def test_block_gaps_chunks_do_not_change_a_trials_draws(trial_elements):
    # block b always fills trials 64 b onward from counter_rng(seed, 0, b);
    # trial_elements sets only how many blocks a chunk groups
    trials, seed = 1000, 9
    sizes = []

    def gap_chunk(size, blocks):
        sizes.append(size)
        out = np.empty(size)
        for rng, rows in blocks:
            rng.standard_normal(out=out[rows])
        return out

    gaps = block_gaps(trials, seed, gap_chunk, trial_elements)
    expected = np.concatenate([
        counter_rng(seed, 0, b).standard_normal(min(BLOCK_TRIALS, trials - start))
        for b, start in enumerate(range(0, trials, BLOCK_TRIALS))
    ])
    assert np.array_equal(gaps, expected)
    assert sum(sizes) == trials
    chunk = BLOCK_TRIALS * max(1, BLOCK_ELEMENTS // (BLOCK_TRIALS * trial_elements))
    assert sizes[0] == min(chunk, trials)
    assert all(size * trial_elements <= BLOCK_ELEMENTS or size <= BLOCK_TRIALS
               for size in sizes)


@pytest.mark.parametrize("trials", [1000, 10_000])
def test_block_gaps_builds_one_generator_per_call(monkeypatch, trials):
    builds = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        builds.append(1)
        return philox(*args, **kwargs)

    def gap_chunk(size, blocks):
        out = np.empty(size)
        for rng, rows in blocks:
            rng.standard_normal(out=out[rows])
        return out

    monkeypatch.setattr(np.random, "Philox", counting)
    block_gaps(trials, 3, gap_chunk, 1)
    assert len(builds) == 1


def test_block_gaps_rekeys_every_block_of_a_chunk():
    # 500 elements a trial put three blocks in a chunk; each block leaves
    # its generator holding half a 64-bit word (three 32-bit draws) and
    # partway through Philox's four-word buffer, and the next block still
    # starts where counter_rng(seed, 0, b) does
    trials, seed, trial_elements = 1000, 6, 500
    assert BLOCK_ELEMENTS // (BLOCK_TRIALS * trial_elements) == 3
    draws = []

    def draw(rng, size):
        return rng.random(3, dtype=np.float32), rng.standard_normal(size)

    def gap_chunk(size, blocks):
        for rng, rows in blocks:
            draws.append(draw(rng, rows.stop - rows.start))
        return np.zeros(size)

    block_gaps(trials, seed, gap_chunk, trial_elements)
    assert len(draws) == 16
    for b, got in enumerate(draws):
        expected = draw(counter_rng(seed, 0, b), min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS))
        for a, e in zip(got, expected):
            assert np.array_equal(a, e)


def quadratic_gradient(target):
    def gradient(w, dataset):
        return 2.0 * (w - target)
    return gradient


def test_sgld_shapes_and_burn_in_default():
    config = SgldConfig(step=1e-3, gamma=2.0, iterations=1000, seed=1)
    assert config.burn_in == 200
    out = sgld_run(quadratic_gradient(0.0), 0.0, config)
    assert out.shape == (800, 1)
    wide = sgld_run(quadratic_gradient(np.zeros(3)), np.zeros(3), config)
    assert wide.shape == (800, 3)


def test_sgld_bit_reproducible():
    config = SgldConfig(step=1e-3, gamma=2.0, iterations=2000, seed=5)
    a = sgld_run(quadratic_gradient(1.0), 0.5, config)
    b = sgld_run(quadratic_gradient(1.0), 0.5, config)
    assert np.array_equal(a, b)
    other = SgldConfig(step=1e-3, gamma=2.0, iterations=2000, seed=6)
    c = sgld_run(quadratic_gradient(1.0), 0.5, other)
    assert not np.array_equal(a, c)


def test_sgld_quadratic_stationary_moments():
    # f = (w - m)^2 discretizes to an AR(1) chain whose exact stationary
    # variance is 1 / (2 gamma (1 - step)); the windows leave an order of
    # magnitude of room over the autocorrelation-limited Monte Carlo error
    step, gamma = 1e-2, 4.0
    config = SgldConfig(step=step, gamma=gamma, iterations=60_000, seed=1)
    out = sgld_run(quadratic_gradient(1.25), 1.25, config)[:, 0]
    target_var = 1.0 / (2.0 * gamma * (1.0 - step))
    assert abs(out.mean() - 1.25) < 0.05
    assert abs(out.var() - target_var) / target_var < 0.10


def exploding(w, dataset):
    return -10.0 * w


# the first iterate over the norm limit of the chain of exploding, with
# its norm, at d = 1 and d = 3 (step 2, gamma 1, seed 3, start at ones)
DIVERGED_AT = {1: (7, 41598799283.960014), 3: (7, 69185731621.55759)}


@pytest.mark.filterwarnings("error")
def test_sgld_divergence_detection():
    # the chain grows 21-fold a step, so the rest of its check block
    # stays far from overflow and raises no floating-point warning
    # the scalar start runs the chain on Python floats, whose overflow
    # must not warn either, and reports the (1,) chain's step and norm
    config = SgldConfig(step=2.0, gamma=1.0, iterations=5000, seed=3)
    cases = [(np.ones(d), at) for d, at in DIVERGED_AT.items()] + [(1.0, DIVERGED_AT[1])]
    for start, (step, norm) in cases:
        with pytest.raises(Diverged) as info:
            sgld_run(exploding, start, config)
        assert (info.value.iteration, info.value.norm) == (step, norm)
        assert f"at step {step} " in str(info.value)


@pytest.mark.filterwarnings("error")
def test_sgld_divergence_survives_a_gradient_that_raises():
    # past the limit the gradient turns infinite, the iterate after it is
    # -inf, and the gradient then raises: the chain still reports the
    # first iterate over the limit, not the gradient's error
    def exploding_then_raising(w, dataset):
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite iterate")
        return np.full_like(w, np.inf) if np.abs(w).max() > 1e12 else exploding(w, dataset)

    config = SgldConfig(step=2.0, gamma=1.0, iterations=5000, seed=3)
    with pytest.raises(Diverged) as info:
        sgld_run(exploding_then_raising, 1.0, config)
    assert (info.value.iteration, info.value.norm) == DIVERGED_AT[1]
    assert isinstance(info.value.__context__, ValueError)


def test_sgld_overflow_after_divergence_warns_nothing():
    # the chain grows 1e30-fold a step, so the rest of its check block
    # overflows; the block check still reports step 0, and numpy must not
    # warn about the overshoot
    config = SgldConfig(step=1.0, gamma=1.0, iterations=100, seed=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(Diverged) as info:
            sgld_run(lambda w, dataset: -1e30 * w, np.ones(2), config)
    assert info.value.iteration == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_sgld_gradient_error_without_divergence_propagates():
    def failing(w, dataset):
        raise ValueError("bad gradient")

    with pytest.raises(ValueError, match="bad gradient"):
        sgld_run(failing, 0.0, SgldConfig(step=1e-2, gamma=1.0, iterations=100))


def test_sgld_converts_gradient_results():
    # lists, float32 arrays, scalars and other shapes are converted to
    # float64 arrays of w's shape, as if the gradient had returned those
    config = SgldConfig(step=1e-2, gamma=1.0, iterations=300, seed=2)
    start = np.array([0.0, 1.0])

    def half_precision(w, dataset):
        return (2.0 * (w - 0.5)).astype(np.float32)

    reference = sgld_run(
        lambda w, dataset: half_precision(w, dataset).astype(np.float64), start, config
    )
    assert np.array_equal(sgld_run(half_precision, start, config), reference)
    exact = sgld_run(quadratic_gradient(0.5), start, config)
    as_list = sgld_run(lambda w, dataset: [2.0 * (x - 0.5) for x in w.tolist()], start, config)
    assert np.array_equal(as_list, exact)
    as_row = sgld_run(lambda w, dataset: (2.0 * (w - 0.5)).reshape(1, 2), start, config)
    assert np.array_equal(as_row, exact)

    # a scalar start hands the gradient a Python float, converts any other
    # one-element result to one, and runs the one-element array's chain
    seen = set()

    def scalar_gradient(w, dataset):
        seen.add(type(w))
        return 2.0 * (w - 0.5)

    scalar = sgld_run(scalar_gradient, 0.0, config)
    assert seen == {float}
    assert np.array_equal(scalar, sgld_run(quadratic_gradient(0.5), np.array([0.0]), config))
    for convert in (np.float64, np.array, lambda g: np.array([g])):
        converted = sgld_run(lambda w, dataset: convert(scalar_gradient(w, dataset)), 0.0, config)
        assert np.array_equal(converted, scalar)
    with pytest.raises(ValueError):
        sgld_run(lambda w, dataset: np.full(2, scalar_gradient(w, dataset)), 0.0, config)


def test_sgld_iterates_pinned_at_demo_defaults():
    # the iterates of the sgld-demo defaults, hashed before the per-step
    # loop was batched into check blocks; sgld.json records the same hash,
    # and the scalar start, which sgld-demo passes, gives the same iterates.
    # A three-dimensional start at the same settings pins the vector path
    config = SgldConfig(step=1e-3, gamma=4.0, iterations=100_000, seed=20)
    demo = "060ae023d5094ea4cc543af49d3a05a928879b8d56dd91a22447a7a91835fc63"
    for start, target, digest in (
        (np.array([0.0]), 1.25, demo),
        (0.0, 1.25, demo),
        (np.zeros(3), np.full(3, 1.25),
         "0893e52ce2cb2a5c578a9dc1af2725eab3dab3f640f096d088c292a31b40092a"),
    ):
        out = sgld_run(quadratic_gradient(target), start, config)
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest


def test_sgld_memory_is_noise_and_iterates_plus_one_block():
    # the (iterations, 1) noise and iterates arrays (0.8 MB each) and one
    # check block of 64 one-element iterates (about 10 kB) or, from a
    # scalar start, 64 floats; keeping every step's iterate object would
    # take about 15 MB more
    iterations = 100_000
    config = SgldConfig(step=1e-3, gamma=4.0, iterations=iterations, seed=20)
    for start in (np.array([0.0]), 0.0):
        tracemalloc.start()
        try:
            sgld_run(quadratic_gradient(1.25), start, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * iterations + 32_768


def test_sgld_dataset_passthrough():
    seen = []
    def gradient(w, dataset):
        seen.append(dataset)
        return 2.0 * (w - dataset)
    config = SgldConfig(step=1e-2, gamma=1.0, iterations=10, seed=0)
    sgld_run(gradient, 0.0, config, dataset=0.75)
    assert seen and all(d == 0.75 for d in seen)


def test_sgld_config_validation():
    with pytest.raises(InvalidInput):
        SgldConfig(step=0.0, gamma=1.0, iterations=100)
    with pytest.raises(InvalidInput):
        SgldConfig(step=1e-3, gamma=-1.0, iterations=100)
    with pytest.raises(InvalidInput):
        SgldConfig(step=1e-3, gamma=1.0, iterations=0)
    with pytest.raises(InvalidInput):
        sgld_run(quadratic_gradient(0.0), np.zeros((2, 2)),
                 SgldConfig(step=1e-3, gamma=1.0, iterations=10))


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_sgld_rejects_a_seed_philox_cannot_take(seed):
    # a Philox key word is an integer in [0, 2**64)
    with pytest.raises(InvalidInput, match="seed"):
        SgldConfig(step=1e-3, gamma=1.0, iterations=10, seed=seed)
