"""Langevin sampling and Monte Carlo error estimation."""

import math

import numpy as np
import pytest

from gibbslab import Diverged, InvalidInput, SgldConfig, sgld_run
from gibbslab.samplers import counter_rng


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


def test_sgld_divergence_detection():
    config = SgldConfig(step=2.0, gamma=1.0, iterations=5000, seed=3)
    def exploding(w, dataset):
        return -10.0 * w
    with pytest.raises(Diverged) as info:
        sgld_run(exploding, 1.0, config)
    assert info.value.iteration >= 0
    assert info.value.norm > 1e10 or not math.isfinite(info.value.norm)


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

