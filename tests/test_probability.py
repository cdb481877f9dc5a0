"""Information-measure primitives against closed-form oracles."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from gibbslab import (
    AlphabetMismatch,
    AlphaOutOfRange,
    AbsoluteContinuityViolation,
    InvalidDistribution,
    JointTable,
    ProbVec,
    info_triple,
    kl_divergence,
    renyi_divergence,
    total_variation,
)
from gibbslab.probability import _logsumexp, _renyi_sum


def bern(p):
    return ProbVec(np.array([1.0 - p, p]))


def random_pair(rng, size):
    p = rng.random(size) + 0.05
    q = rng.random(size) + 0.05
    return ProbVec(p / p.sum()), ProbVec(q / q.sum())


def test_kl_bernoulli_closed_form():
    # D(Bern(.5) || Bern(.25)) = .5 ln 2 + .5 ln(2/3)
    oracle = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert abs(kl_divergence(bern(0.5), bern(0.25)) - oracle) < 1e-15


def test_kl_identical_is_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p, _ = random_pair(rng, int(rng.integers(2, 7)))
        assert kl_divergence(p, p) == 0.0


def test_kl_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p, q = random_pair(rng, int(rng.integers(2, 7)))
        assert kl_divergence(p, q) >= 0.0


def test_kl_alphabet_mismatch():
    p = ProbVec(np.array([0.5, 0.5]), alphabet=("a", "b"))
    q = ProbVec(np.array([0.5, 0.5]), alphabet=("a", "c"))
    with pytest.raises(AlphabetMismatch):
        kl_divergence(p, q)


def test_default_labels_are_ranges_compared_by_content():
    weights = np.array([0.2, 0.3, 0.5])
    p = ProbVec(weights)
    assert p.alphabet == range(3)
    table = JointTable(np.full((2, 3), 1.0 / 6.0))
    assert (table.row_alphabet, table.col_alphabet) == (range(2), range(3))
    # a range and the tuple of its ints are one alphabet
    for labels in ((0, 1, 2), range(3), [0, 1, 2]):
        assert kl_divergence(p, ProbVec(weights[::-1], alphabet=labels)) > 0.0
        assert total_variation(ProbVec(weights, alphabet=labels), p) == 0.0
    for labels in ((0, 1, 3), range(1, 4), ("0", "1", "2")):
        with pytest.raises(AlphabetMismatch):
            kl_divergence(p, ProbVec(weights, alphabet=labels))
    with pytest.raises(AlphabetMismatch):
        kl_divergence(ProbVec(np.full(4, 0.25)), ProbVec(np.full(4, 0.25), alphabet=(0, 1, 2, 4)))


def test_kl_absolute_continuity():
    p = ProbVec(np.array([0.5, 0.5, 0.0]))
    q = ProbVec(np.array([0.0, 0.5, 0.5]))
    with pytest.raises(AbsoluteContinuityViolation):
        kl_divergence(p, q)
    # zero against positive mass is fine in this direction
    r = ProbVec(np.array([0.25, 0.5, 0.25]))
    assert kl_divergence(p, r) > 0.0


def test_total_variation_oracles():
    # Bern(.5) vs Bern(.25): |.5-.75| + |.5-.25| = 0.5 in the summed convention
    assert abs(total_variation(bern(0.5), bern(0.25)) - 0.5) < 1e-15
    point0 = ProbVec(np.array([1.0, 0.0]))
    point1 = ProbVec(np.array([0.0, 1.0]))
    assert total_variation(point0, point1) == 2.0
    assert total_variation(point0, point0) == 0.0


def test_total_variation_range_and_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(40):
        p, q = random_pair(rng, int(rng.integers(2, 8)))
        tv = total_variation(p, q)
        assert 0.0 <= tv <= 2.0
        assert tv == total_variation(q, p)


def test_renyi_identical_is_zero():
    rng = np.random.default_rng(7)
    p, _ = random_pair(rng, 5)
    assert abs(renyi_divergence(p, p, 2.0)) < 1e-14


def test_renyi_approaches_kl():
    rng = np.random.default_rng(8)
    for _ in range(25):
        p, q = random_pair(rng, int(rng.integers(2, 6)))
        near = renyi_divergence(p, q, 1.0 + 1e-6)
        assert abs(near - kl_divergence(p, q)) < 1e-4


def test_renyi_monotone_in_alpha():
    rng = np.random.default_rng(9)
    for _ in range(25):
        p, q = random_pair(rng, int(rng.integers(2, 6)))
        assert renyi_divergence(p, q, 2.0) >= renyi_divergence(p, q, 1.5) - 1e-14
        assert renyi_divergence(p, q, 1.5) >= kl_divergence(p, q) - 1e-14


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
        assert abs(_renyi_sum(log_p, log_q, alpha) - oracle) <= 1e-14 * oracle


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


def test_renyi_with_different_supports_matches_closed_form():
    # p = [1, 0], q = [1/2, 1/2]: sum p^a q^(1-a) = 2^(a-1), so D_a = ln 2
    p = ProbVec(np.array([1.0, 0.0]))
    q = ProbVec(np.array([0.5, 0.5]))
    for alpha in (2.0, 0.5):
        assert abs(renyi_divergence(p, q, alpha) - math.log(2.0)) < 1e-15
    # below order one both laws may put mass off the common support
    p = ProbVec(np.array([0.6, 0.4, 0.0]))
    q = ProbVec(np.array([0.0, 0.3, 0.7]))
    for alpha in (0.3, 0.5, 0.9):
        oracle = math.log(0.4**alpha * 0.3 ** (1.0 - alpha)) / (alpha - 1.0)
        assert abs(renyi_divergence(p, q, alpha) - oracle) < 1e-14 * max(1.0, oracle)
    # near independence the compensated sum must count the mass q puts
    # where p is zero
    p = ProbVec(np.array([0.5, 0.5, 0.0]))
    q = ProbVec(np.array([0.5 - 5e-7, 0.5 - 5e-7, 1e-6]))
    # sum p^2 / q = 1 / (1 - 1e-6); rounding of q's weights moves it by
    # about 1e-11 relative
    oracle = -math.log1p(-1e-6)
    assert abs(renyi_divergence(p, q, 2.0) - oracle) < 1e-9 * oracle


def test_renyi_rejects_alpha_one_and_nonpositive():
    p = bern(0.5)
    q = bern(0.25)
    for alpha in (1.0, 0.0, -2.0):
        with pytest.raises(AlphaOutOfRange):
            renyi_divergence(p, q, alpha)


def test_renyi_absolute_continuity_for_large_alpha():
    p = ProbVec(np.array([0.5, 0.5, 0.0]))
    q = ProbVec(np.array([0.5, 0.0, 0.5]))
    with pytest.raises(AbsoluteContinuityViolation):
        renyi_divergence(p, q, 2.0)


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


def flattened_pair(joint):
    """The joint table and the product of its marginals as ProbVecs on the
    row-major cells."""
    product = np.outer(joint.table.sum(axis=1), joint.table.sum(axis=0))
    return ProbVec(joint.table.ravel()), ProbVec(product.ravel())


def test_info_triple_matches_flattened_divergence():
    rng = np.random.default_rng(11)
    for _ in range(20):
        joint = random_joint(rng, 3, 4)
        flat, product = flattened_pair(joint)
        direct = kl_divergence(flat, product) + kl_divergence(product, flat)
        assert abs(info_triple(joint).symmetrized - direct) < 1e-12


def test_pinsker_relation():
    rng = np.random.default_rng(12)
    for _ in range(40):
        joint = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
        report = info_triple(joint)
        tv = total_variation(*flattened_pair(joint))
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

