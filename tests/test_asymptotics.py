"""Zero-temperature and large-n closed forms."""

import itertools
import math

import numpy as np
import pytest

from gibbslab import (
    InvalidInput,
    MleSpec,
    NotPositiveDefinite,
    SingularHessian,
    WellSample,
    bayes_location_regime_exact,
    bayes_location_regime_gen,
    mle_asymptotic_gen,
    single_well_gen,
)


def grid_wells(n, hessian_fn):
    """All sign datasets of length n with the averaged-square loss wells."""
    wells = []
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        zbar = float(np.mean(signs))
        wells.append(
            WellSample(
                minimizer=np.array([zbar]),
                hessian=hessian_fn(signs),
                weight=0.5**n,
            )
        )
    return wells


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_two_point_wells_match_variance_formula(n):
    # loss (w - z)^2: the minimizer is the sample mean, the Hessian is 2,
    # and the zero-temperature error is exactly twice the variance of the mean
    wells = grid_wells(n, lambda signs: np.array([[2.0]]))
    value = single_well_gen(wells)
    assert abs(value - 2.0 / n) < 1e-12


@pytest.mark.parametrize("d, weights", [
    (3, (0.25, 0.25, 0.25, 0.25)), (1, (0.25, 0.25, 0.25, 0.25)), (2, (0.25, 0.25, 0.25, 0.25)),
    (4, (0.25, 0.25, 0.25, 0.25)), (3, (0.1, 0.2, 0.3, 0.4)), (2, (0.5, 0.125, 0.375)),
])
def test_constant_hessian_single_well_is_the_minimizer_spread(d, weights):
    # with one Hessian H for every dataset the product-minus-joint term is
    # 0, and the error is tr(H Sigma), Sigma the weighted covariance of the
    # minimizers
    rng = np.random.default_rng(50)
    root = rng.normal(size=(d, d))
    hessian = root @ root.T + 0.5 * np.eye(d)
    samples = [
        WellSample(minimizer=rng.normal(size=d), hessian=hessian, weight=weight)
        for weight in weights
    ]
    probs = np.array(weights)
    minimizers = np.stack([sample.minimizer for sample in samples])
    centered = minimizers - probs @ minimizers
    covariance = (probs[:, None] * centered).T @ centered
    expected = float(np.trace(hessian @ covariance))
    assert single_well_gen(samples) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_well_validation():
    good = WellSample(minimizer=np.array([0.5]), hessian=np.array([[1.0]]), weight=0.5)
    with pytest.raises(InvalidInput):
        single_well_gen([])
    with pytest.raises(InvalidInput):
        single_well_gen([good, good, good])  # weights sum to 1.5
    with pytest.raises(InvalidInput):
        WellSample(minimizer=np.array([1.0]), hessian=np.array([[1.0]]), weight=-0.1)
    with pytest.raises(InvalidInput):
        WellSample(minimizer=np.array([1.0, 2.0]), hessian=np.array([[1.0]]), weight=0.5)


def test_singular_hessian_reports_sample_index():
    good = WellSample(minimizer=np.array([0.0]), hessian=np.array([[1.0]]), weight=0.5)
    bad = WellSample(minimizer=np.array([0.0]), hessian=np.array([[0.0]]), weight=0.5)
    with pytest.raises(SingularHessian) as info:
        single_well_gen([good, bad])
    assert info.value.sample_index == 1


def test_mle_well_specified_is_exact_dimension_ratio():
    rng = np.random.default_rng(53)
    d = 4
    root = rng.normal(size=(d, d))
    J = root @ root.T + 0.3 * np.eye(d)
    spec = MleSpec(J=J, fisher=J.copy(), n=17)
    assert mle_asymptotic_gen(spec) == d / 17


def test_mle_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(54)
    for _ in range(15):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(5, 500))
        root = rng.normal(size=(d, d))
        J = root @ root.T + (0.1 + rng.random()) * np.eye(d)
        rootf = rng.normal(size=(d, d))
        fisher = rootf @ rootf.T
        value = mle_asymptotic_gen(MleSpec(J=J, fisher=fisher, n=n))
        vals, vecs = np.linalg.eigh(J)
        inv = vecs @ np.diag(1.0 / vals) @ vecs.T
        oracle = float(np.trace(inv @ fisher)) / n
        assert abs(value - oracle) <= 1e-10 * max(1.0, abs(oracle))


def test_mle_rate_is_the_numpy_solve_bit_for_bit():
    # pins the solver: a switch to another factorization moves digits
    rng = np.random.default_rng(55)
    for _ in range(20):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(10, 10_001))
        root = rng.normal(size=(d, d))
        rootf = rng.normal(size=(d, d))
        spec = MleSpec(J=root @ root.T + (0.1 + rng.random()) * np.eye(d),
                       fisher=rootf @ rootf.T, n=n)
        assert not np.array_equal(spec.fisher, spec.J)
        expected = float(np.trace(np.linalg.solve(spec.J, spec.fisher))) / n
        assert mle_asymptotic_gen(spec) == expected


def test_mle_spec_validation():
    with pytest.raises(SingularHessian):
        MleSpec(J=np.array([[1.0, 0.0], [0.0, 0.0]]), fisher=np.eye(2), n=10)
    with pytest.raises(NotPositiveDefinite):
        MleSpec(J=np.eye(2), fisher=np.array([[1.0, 0.0], [0.0, -0.5]]), n=10)
    with pytest.raises(InvalidInput):
        MleSpec(J=np.eye(2), fisher=np.eye(3), n=10)
    with pytest.raises(InvalidInput):
        MleSpec(J=np.eye(2), fisher=np.eye(2), n=0)


def test_bayes_exact_unit_prior_closed_form():
    # with unit prior variance the exact value collapses to 1 / (n + 1)
    for n in (1, 2, 10, 100, 1000):
        value = bayes_location_regime_exact(n)
        assert abs(value - 1.0 / (n + 1)) < 1e-15
    assert 1000 * bayes_location_regime_exact(1000) == pytest.approx(1.0, abs=2e-3)


def test_bayes_exact_general_prior_formula():
    for n, prior_var in ((3, 0.5), (20, 2.0), (7, 10.0)):
        v = 1.0 / (1.0 / prior_var + n)
        oracle = 0.5 * (1.0 / n + v * v * n - v * v / (prior_var * prior_var * n))
        assert abs(bayes_location_regime_exact(n, prior_var) - oracle) < 1e-15


def test_bayes_exact_validation():
    with pytest.raises(InvalidInput):
        bayes_location_regime_exact(0)
    with pytest.raises(InvalidInput):
        bayes_location_regime_exact(10, prior_var=0.0)


def test_bayes_monte_carlo_matches_exact():
    exact = bayes_location_regime_exact(50)
    est, se = bayes_location_regime_gen(50, 4000, 9)
    assert se > 0.0
    assert abs(est - exact) <= 4.0 * se
    # the Bayes-regime error does not depend on the prior location, so a
    # shifted prior mean estimates the same exact value
    shifted, shifted_se = bayes_location_regime_gen(50, 4000, 9, prior_mean=5.0)
    assert shifted != est
    assert abs(shifted - exact) <= 4.0 * shifted_se


def test_bayes_monte_carlo_deterministic():
    a = bayes_location_regime_gen(20, 1000, 4)
    b = bayes_location_regime_gen(20, 1000, 4)
    assert a == b
    c = bayes_location_regime_gen(20, 1000, 5)
    assert a != c


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_bayes_monte_carlo_rejects_a_seed_philox_cannot_take(seed):
    with pytest.raises(InvalidInput, match="seed"):
        bayes_location_regime_gen(20, 1000, seed)


def test_bayes_monte_carlo_validation():
    with pytest.raises(InvalidInput):
        bayes_location_regime_gen(20, 999, 0)
    with pytest.raises(InvalidInput):
        bayes_location_regime_gen(0, 1000, 0)
