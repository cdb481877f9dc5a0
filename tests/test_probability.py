"""Information-measure primitives and the array kernels behind the
Gibbs functionals, against closed-form oracles."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from gibbslab import (
    AlphaOutOfRange,
    AbsoluteContinuityViolation,
    IIDData,
    InfoReport,
    InvalidDistribution,
    InvalidInput,
    JointTable,
    LearningProblem,
    ProbVec,
    gibbs_posterior,
    info_triple,
    instance_rng,
    random_problem,
)
from gibbslab.probability import (
    _divergence_pair,
    _kl_arrays,
    _logsumexp,
    _renyi_logsums,
)


def bern(p):
    return np.array([1.0 - p, p])


def random_pair(rng, size):
    p = rng.random(size) + 0.05
    q = rng.random(size) + 0.05
    return p / p.sum(), q / q.sum()


def kl(p, q):
    """D(p || q) by the kernel info_triple reads each direction with."""
    return _kl_arrays(p, q, "test")


def renyi(p, q, alpha):
    """The Renyi divergence of order alpha of two positive laws, by the
    stacked kernel the posteriors' Renyi sums run through: its log-sum at
    exponent alpha over alpha - 1."""
    log_p, log_q = np.log(p), np.log(q)
    logsums = _renyi_logsums((log_p - log_q)[None], log_q[None], np.zeros((1, 1)), (alpha,))
    return float(logsums[0, 0]) / (alpha - 1.0)


def test_kl_bernoulli_closed_form():
    # D(Bern(.5) || Bern(.25)) = .5 ln 2 + .5 ln(2/3)
    oracle = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert abs(kl(bern(0.5), bern(0.25)) - oracle) < 1e-15
    # and as the mutual information of the coupling that picks a row with
    # probability 1/2 and a column from Bern(.5) or Bern(.25): the average
    # divergence of the rows to their mixture Bern(.375)
    coupling = np.array([[0.25, 0.25], [0.375, 0.125]])
    oracle = 0.5 * (kl(bern(0.5), bern(0.375)) + kl(bern(0.25), bern(0.375)))
    assert abs(info_triple(JointTable(coupling)).mutual - oracle) < 1e-15


def test_kl_identical_is_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p, _ = random_pair(rng, int(rng.integers(2, 7)))
        assert kl(p, p) == 0.0
        assert _divergence_pair(np.log(p), np.log(p)) == (0.0, 0.0)


def test_kl_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p, q = random_pair(rng, int(rng.integers(2, 7)))
        assert kl(p, q) >= 0.0
        assert all(value >= 0.0 for value in _divergence_pair(np.log(p), np.log(q)))


def test_kl_absolute_continuity():
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([0.0, 0.5, 0.5])
    with pytest.raises(AbsoluteContinuityViolation):
        kl(p, q)
    # zero against positive mass is fine in this direction
    r = np.array([0.25, 0.5, 0.25])
    assert kl(p, r) > 0.0
    # a joint law with a zero cell where both marginals are positive has
    # no lautum information: the product is not absolutely continuous
    with pytest.raises(AbsoluteContinuityViolation):
        info_triple(JointTable(np.array([[0.5, 0.0], [0.25, 0.25]])))


def guess_the_sample(loss, n=1):
    """One fair bit per sample, a uniform prior on two hypotheses and the
    given (2, 2) loss table."""
    return LearningProblem(
        sample_alphabet=(0, 1),
        hypothesis_set=(0, 1),
        loss=np.asarray(loss, dtype=np.float64),
        prior=ProbVec(np.array([0.5, 0.5])),
        data_model=IIDData(ProbVec(np.array([0.5, 0.5]))),
        n=n,
    )


def test_total_variation_oracles():
    # guessing one fair bit under the 0-1 loss: each row is (1, e^-gamma)
    # / (1 + e^-gamma) or its mirror, the marginal is uniform, and the
    # summed convention gives TV = tanh(gamma / 2)
    problem = guess_the_sample([[0.0, 1.0], [1.0, 0.0]])
    for gamma in (0.1, 1.0, 5.0):
        tv = gibbs_posterior(problem, gamma).total_variation
        assert abs(tv - math.tanh(gamma / 2.0)) < 1e-15
    # at large gamma the rows are point masses on the sample: TV 1, exactly
    assert gibbs_posterior(problem, 1e6).total_variation == 1.0
    # a loss that does not depend on the sample: the rows are the
    # marginal, and on four datasets of probability 1/4 exactly so
    for n in (1, 2):
        independent = guess_the_sample([[0.25, 0.25], [0.75, 0.75]], n=n)
        for gamma in (0.5, 3.0, 1e6):
            assert gibbs_posterior(independent, gamma).total_variation == 0.0


def test_total_variation_range_and_symmetry():
    # the joint law and the product of its marginals are distributions,
    # so their distance in the summed convention is finite and in [0, 2]
    for index in range(40):
        problem = random_problem(instance_rng(6, index), iid=index % 2 == 0, max_n=3)
        for gamma in (0.1, 10.0, 1e3, 1e6):
            tv = gibbs_posterior(problem, gamma).total_variation
            assert math.isfinite(tv) and 0.0 <= tv <= 2.0, (index, gamma)


def test_renyi_identical_is_zero():
    rng = np.random.default_rng(7)
    p, _ = random_pair(rng, 5)
    assert abs(renyi(p, p, 2.0)) < 1e-14


def test_renyi_approaches_kl():
    rng = np.random.default_rng(8)
    for _ in range(25):
        p, q = random_pair(rng, int(rng.integers(2, 6)))
        near = renyi(p, q, 1.0 + 1e-6)
        forward, _ = _divergence_pair(np.log(p), np.log(q))
        assert abs(near - forward) < 1e-4


def test_renyi_monotone_in_alpha():
    rng = np.random.default_rng(9)
    for _ in range(25):
        p, q = random_pair(rng, int(rng.integers(2, 6)))
        forward, _ = _divergence_pair(np.log(p), np.log(q))
        assert renyi(p, q, 2.0) >= renyi(p, q, 1.5) - 1e-14
        assert renyi(p, q, 1.5) >= forward - 1e-14


def test_renyi_far_apart_takes_log_sum_exp_branch():
    # far apart the near-independence sum 1 + u has |u| >= 1, and at high
    # order exp(alpha r) overflows, so the value has to come from log-sum-exp
    log_p = np.log(np.array([0.999, 0.001]))
    log_q = np.log(np.array([0.001, 0.999]))
    for alpha in (2.0, 5.0, 200.0):
        r = log_p - log_q
        with np.errstate(over="ignore", invalid="ignore"):
            u = float((np.exp(log_q) * (np.expm1(alpha * r) - alpha * np.expm1(r))).sum())
        assert not abs(u) < 1.0
        terms = [alpha * a + (1.0 - alpha) * b for a, b in zip(log_p, log_q)]
        top = max(terms)
        oracle = (top + math.log(sum(math.exp(t - top) for t in terms))) / (alpha - 1.0)
        assert math.isfinite(oracle)
        logsums = _renyi_logsums((log_p - log_q)[None], log_q[None], np.zeros((1, 1)), (alpha,))
        got = logsums[0, 0] / (alpha - 1.0)
        assert abs(got - oracle) <= 1e-14 * oracle


def _logsumexp_cases():
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        a = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=tuple(rng.integers(1, 8, size=2)))
        a[rng.random(a.shape) < 0.2] = -np.inf
        if rng.random() < 0.5:
            a = np.round(a)  # tied maxima
        if rng.random() < 0.3:
            a[int(rng.integers(a.shape[0]))] = -np.inf  # an all -inf row
            a[:, int(rng.integers(a.shape[1]))] = -np.inf  # and column
        yield a
    yield np.full((3, 4), -np.inf)
    yield np.zeros((4, 3))


def test_logsumexp_matches_scipy_bit_for_bit():
    for a in _logsumexp_cases():
        for axis in (0, 1, None):
            for keepdims in (False, True):
                expected = scipy_logsumexp(a, axis=axis, keepdims=keepdims)
                got = _logsumexp(a, axis=axis, keepdims=keepdims)
                assert np.shape(got) == np.shape(expected)
                assert np.array_equal(got, expected, equal_nan=True), (a, axis, keepdims)
    # a 1-d input reduced over every axis gives a scalar, as scipy does
    a = np.array([0.0, -np.inf, 0.0])
    assert np.ndim(_logsumexp(a)) == 0 and _logsumexp(a) == scipy_logsumexp(a)


def test_renyi_rejects_alpha_one_and_nonpositive():
    posterior = gibbs_posterior(random_problem(instance_rng(1, 0)), 1.0)
    for alpha in (1.0, 0.0, -2.0):
        with pytest.raises(AlphaOutOfRange):
            posterior.renyi((alpha,))


def test_probvec_validation():
    with pytest.raises(InvalidDistribution):
        ProbVec(np.array([0.7, 0.7]))
    with pytest.raises(InvalidDistribution):
        ProbVec(np.array([1.2, -0.2]))


def random_joint(rng, nr, nc):
    t = rng.random((nr, nc)) + 0.02
    return JointTable(t / t.sum())


def test_info_triple_independence():
    p = np.array([0.3, 0.7])
    q = np.array([0.2, 0.5, 0.3])
    report = info_triple(JointTable(np.outer(p, q)))
    assert abs(report.mutual) < 1e-14
    assert abs(report.lautum) < 1e-14
    assert abs(report.symmetrized) < 1e-14


def test_info_triple_nonneg_and_sum():
    rng = np.random.default_rng(10)
    for _ in range(40):
        report = info_triple(random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        assert report.mutual >= 0.0
        assert report.lautum >= 0.0
        assert abs(report.symmetrized - (report.mutual + report.lautum)) < 1e-14


def test_info_report_rejects_a_non_finite_value():
    values = {"mutual": 0.25, "lautum": 0.5, "symmetrized": 0.75}
    InfoReport(**values)
    for name in values:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInput):
                InfoReport(**{**values, name: bad})


def flattened_pair(joint):
    """The joint table and the product of its marginals as weight arrays on
    the row-major cells."""
    product = np.outer(joint.table.sum(axis=1), joint.table.sum(axis=0))
    return joint.table.ravel(), product.ravel()


def plain_kl(p, q):
    """sum p ln(p / q) over positive laws, the textbook formula."""
    return float(np.sum(p * np.log(p / q)))


def test_info_triple_matches_flattened_divergence():
    rng = np.random.default_rng(11)
    for _ in range(20):
        joint = random_joint(rng, 3, 4)
        flat, product = flattened_pair(joint)
        direct = plain_kl(flat, product) + plain_kl(product, flat)
        assert abs(info_triple(joint).symmetrized - direct) < 1e-12


def test_pinsker_relation():
    rng = np.random.default_rng(12)
    for _ in range(40):
        joint = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
        report = info_triple(joint)
        flat, product = flattened_pair(joint)
        tv = float(np.abs(flat - product).sum())
        assert tv <= math.sqrt(2.0 * min(report.mutual, report.lautum)) + 1e-12


def test_relabeling_invariance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        joint = random_joint(rng, 4, 3)
        rows = rng.permutation(4)
        cols = rng.permutation(3)
        shuffled = JointTable(joint.table[np.ix_(rows, cols)])
        a = info_triple(joint)
        b = info_triple(shuffled)
        assert abs(a.symmetrized - b.symmetrized) <= 1e-10 * max(1.0, a.symmetrized)
        assert abs(a.mutual - b.mutual) <= 1e-10 * max(1.0, a.mutual)

