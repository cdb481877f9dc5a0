"""Exact posterior enumeration and the error characterizations."""

import dataclasses
import functools
import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import gibbslab.gibbs
import gibbslab.probability
from gibbslab import (
    AlphaOutOfRange,
    EnumerationTooLarge,
    EpsilonOutOfRange,
    GammaNonPositive,
    IIDData,
    IdentityMismatch,
    InvalidInput,
    JointData,
    LearningProblem,
    NotIID,
    ProbVec,
    chain_rule_example,
    concavity_probe,
    empirical_risk_curve,
    gen_characterizations,
    gen_error_direct,
    gibbs_posterior,
    instance_rng,
    population_gibbs,
    InfoDivergenceReport,
    RatioConstants,
    bounds_table,
    instance_sweep,
    random_problem,
    regularized_gen,
    sandwich_violations,
)
from gibbslab.bounds import _bounds_rows
from gibbslab.cli import RANGES
from gibbslab.gibbs import (
    ELEMENT_CAP,
    GenReport,
    _gibbs_sweep,
    _shape_sweep,
    expected_empirical_risk,
)


def small_problem(seed=0, iid=True, n=2):
    rng = np.random.default_rng(seed)
    loss = rng.random((3, 4))
    prior = rng.random(3) + 0.1
    marginal = rng.random(4) + 0.1
    if iid:
        model = IIDData(ProbVec(marginal / marginal.sum()))
    else:
        weights = rng.random(4**n) + 0.05
        model = JointData(weights / weights.sum())
    return LearningProblem(
        sample_alphabet=tuple(range(4)),
        hypothesis_set=tuple(range(3)),
        loss=loss,
        prior=ProbVec(prior / prior.sum()),
        data_model=model,
        n=n,
    )


def test_posterior_rows_are_distributions():
    problem = small_problem(1)
    posterior = gibbs_posterior(problem, 2.0)
    rows = posterior.row_array
    assert rows.shape == (problem.dataset_count, problem.num_hypotheses)
    assert np.all(rows > 0.0)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_gamma_scaling_invariance():
    # multiplying the loss by c and dividing gamma by c leaves the posterior alone
    rng = np.random.default_rng(2)
    for _ in range(10):
        problem = random_problem(rng)
        c = float(rng.uniform(0.2, 5.0))
        scaled = dataclasses.replace(problem, loss=problem.loss * c)
        a = gibbs_posterior(problem, 3.0).row_array
        b = gibbs_posterior(scaled, 3.0 / c).row_array
        assert np.max(np.abs(a - b)) < 1e-12


def test_large_gamma_concentrates_on_minimizers():
    problem = small_problem(3)
    rows = gibbs_posterior(problem, 1e6).row_array
    for s in range(problem.dataset_count):
        best = int(np.argmin(problem._stack._empirical_risk[0, 0, :, s]))
        assert rows[s, best] > 0.999


def test_tiny_gamma_approaches_prior():
    problem = small_problem(4)
    rows = gibbs_posterior(problem, 1e-9).row_array
    assert np.max(np.abs(rows - problem.prior.weights[None, :])) < 1e-8
    # zero inverse temperature is allowed and gives the prior exactly
    flat = gibbs_posterior(problem, 0.0).row_array
    assert np.max(np.abs(flat - problem.prior.weights[None, :])) < 1e-15


def test_population_gibbs_is_a_distribution():
    problem = small_problem(5)
    candidate = population_gibbs(problem, 2.5)
    assert abs(candidate.weights.sum() - 1.0) < 1e-12
    assert np.all(candidate.weights > 0.0)


def test_gamma_validation():
    problem = small_problem(6)
    for bad in (-1.0, float("nan")):
        with pytest.raises(GammaNonPositive):
            gibbs_posterior(problem, bad)
    # the characterization ratio needs strictly positive gamma
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(GammaNonPositive):
            gen_characterizations(problem, bad)


def test_direct_gen_matches_hand_rolled_sum():
    # independent slow oracle: explicit loops over datasets and hypotheses
    problem = small_problem(7, iid=True, n=2)
    gamma = 1.7
    posterior = gibbs_posterior(problem, gamma)
    rows = posterior.row_array
    marg = problem.data_model.marginal.weights
    gen = 0.0
    labels = list(itertools.product(range(4), repeat=2))
    for s, tup in enumerate(labels):
        p_s = marg[tup[0]] * marg[tup[1]]
        for w in range(3):
            pop = float(problem.loss[w] @ marg)
            emp = float(np.mean([problem.loss[w, z] for z in tup]))
            gen += p_s * rows[s, w] * (pop - emp)
    assert abs(gen_error_direct(posterior) - gen) < 1e-14


def test_characterizations_on_random_instances():
    # report construction itself asserts the four-way identity
    rng = np.random.default_rng(8)
    for _ in range(25):
        problem = random_problem(rng, iid=bool(rng.integers(0, 2)))
        gamma = float(rng.uniform(0.1, 20.0))
        report = gen_characterizations(problem, gamma)
        assert report.direct >= -1e-12
        assert report.via_iskl == pytest.approx(report.direct, abs=1e-12, rel=1e-9)
        assert report.via_skl_div == pytest.approx(report.direct, abs=1e-12, rel=1e-9)
        if problem.is_iid():
            assert report.via_cmi is not None
            assert report.via_replace_one is not None
        else:
            assert report.via_cmi is None
            assert report.via_replace_one is None


def test_iid_only_routes_reject_joint_models():
    posterior = gibbs_posterior(small_problem(9, iid=False), 1.0)
    with pytest.raises(NotIID):
        posterior.supersample_info
    with pytest.raises(NotIID):
        posterior.replace_one


def test_iid_routes_match_direct():
    rng = np.random.default_rng(10)
    cases = []
    for _ in range(10):
        problem = random_problem(rng, iid=True)
        cases.append((problem, float(rng.uniform(0.2, 8.0))))
    # |Z| = 4 and n = 5: C(14, 5) * 2**5 = 64,064 (orbit, selector) states,
    # within the supersample cap
    cases.append((small_problem(28, iid=True, n=5), 1.0))
    for problem, gamma in cases:
        report = gen_characterizations(problem, gamma)
        direct = gen_error_direct(gibbs_posterior(problem, gamma))
        limit = max(1e-9 * abs(direct), 1e-12)
        assert abs(report.via_cmi - direct) <= limit
        assert abs(report.via_replace_one - direct) <= limit


def test_replace_one_divergences_shape_and_sign():
    problem = small_problem(11, iid=True, n=3)
    forward, reverse = gibbs_posterior(problem, 2.0).replace_one
    assert forward.shape == (3,) and reverse.shape == (3,)
    assert np.all(forward >= 0.0) and np.all(reverse >= 0.0)


def test_info_divergence_compare_order():
    rng = np.random.default_rng(14)
    for _ in range(15):
        problem = random_problem(rng, iid=bool(rng.integers(0, 2)))
        gamma = float(rng.uniform(0.2, 10.0))
        gen = gen_characterizations(problem, gamma)
        report = InfoDivergenceReport(gen.info.mutual, gen.info.lautum, gen.d_fwd, gen.d_rev)
        tol = 1e-12 * max(1.0, abs(report.mutual) + abs(report.lautum))
        assert report.mutual <= report.d_fwd + tol
        assert report.lautum >= report.d_rev - tol


def test_risk_curve_monotone_and_prior_start():
    problem = small_problem(15)
    gammas = [0.0, 0.5, 1.0, 4.0, 16.0]
    curve = empirical_risk_curve(problem, gammas)
    assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))
    prior_risk = float(
        problem.prior.weights @ problem._stack._empirical_risk[0, 0] @ problem._stack._dataset_probs[0, 0]
    )
    assert abs(curve[0] - prior_risk) < 1e-12


def test_risk_curve_constant_loss_is_flat():
    problem = small_problem(16)
    flat = dataclasses.replace(problem, loss=np.full_like(problem.loss, 0.7))
    curve = empirical_risk_curve(flat, [0.0, 1.0, 10.0])
    assert np.allclose(curve, 0.7, atol=1e-12)


def test_risk_curve_rejects_bad_gammas():
    problem = small_problem(17)
    with pytest.raises(InvalidInput):
        empirical_risk_curve(problem, [1.0, 0.5])
    with pytest.raises(InvalidInput):
        empirical_risk_curve(problem, [-1.0, 2.0])
    with pytest.raises(InvalidInput):
        empirical_risk_curve(problem, [])


@pytest.mark.parametrize("alpha", [1.0, 0.0, -1.0, math.nan, math.inf])
def test_posterior_renyi_rejects_bad_orders(alpha):
    # the orders renyi_divergence refuses, alone and after a valid one
    posterior = gibbs_posterior(small_problem(17), 1.0)
    for alphas in ((alpha,), (2.0, alpha)):
        with pytest.raises(AlphaOutOfRange):
            posterior.renyi(alphas)


def test_concavity_probe_identical_components_tie():
    problem = small_problem(18, iid=True)
    marginal = problem.data_model.marginal
    components = [(0.5, IIDData(marginal)), (0.5, IIDData(marginal))]
    mixture_gen, avg_gen = concavity_probe(components, problem, 2.0)
    assert abs(mixture_gen - avg_gen) < 1e-14


def test_concavity_probe_generic_iid_components():
    problem = small_problem(19, iid=True)
    rng = instance_rng(20260814, 30_000)
    q0 = rng.random(4) + 0.1
    q1 = rng.random(4) + 0.1
    components = [
        (0.35, IIDData(ProbVec(q0 / q0.sum()))),
        (0.65, IIDData(ProbVec(q1 / q1.sum()))),
    ]
    mixture_gen, avg_gen = concavity_probe(components, problem, 2.0)
    assert mixture_gen >= avg_gen - 1e-12


def test_concavity_probe_known_violation_raises():
    # pinned two-hypothesis, four-symbol, n = 1 instance where the mixture
    # error genuinely falls below the component average (the inequality the
    # probe asserts is not a theorem); confirmed with 50-digit arithmetic
    loss = np.array(
        [
            [0.021832, 0.6447991, 0.01146781, 0.4713247],
            [0.65210826, 0.11358708, 0.74790699, 0.98617988],
        ]
    )
    prior = ProbVec(np.array([0.91180575, 0.08819425]))
    q0_raw = np.array([0.5557914, 0.27458616, 0.06281863, 0.10680381])
    q1_raw = np.array([0.07491521, 0.3057225, 0.56089463, 0.05846767])
    q0 = ProbVec(q0_raw / q0_raw.sum())
    q1 = ProbVec(q1_raw / q1_raw.sum())
    w = 0.4327560868721121
    mixture = w * q0.weights + (1.0 - w) * q1.weights
    problem = LearningProblem(
        sample_alphabet=tuple(range(4)),
        hypothesis_set=(0, 1),
        loss=loss,
        prior=prior,
        data_model=IIDData(ProbVec(mixture)),
        n=1,
    )
    components = [(w, IIDData(q0)), (1.0 - w, IIDData(q1))]
    with pytest.raises(IdentityMismatch):
        concavity_probe(components, problem, 1.0)


def test_concavity_probe_weight_validation():
    problem = small_problem(21, iid=True)
    marginal = problem.data_model.marginal
    with pytest.raises(Exception):
        concavity_probe([(0.7, IIDData(marginal)), (0.7, IIDData(marginal))], problem, 1.0)


def test_chain_rule_example_direction_flip():
    small = chain_rule_example(0.0001)
    large = chain_rule_example(0.01)
    assert small.sum_exceeds_joint is True
    assert large.sum_exceeds_joint is False
    # the two coordinates play symmetric roles in the construction
    assert abs(small.info_first.symmetrized - small.info_second.symmetrized) < 1e-14


def test_chain_rule_example_epsilon_validation():
    for bad in (0.0, 0.125, -0.01, 0.5):
        with pytest.raises(EpsilonOutOfRange):
            chain_rule_example(bad)


def one_symbol_problem(n):
    return LearningProblem(
        sample_alphabet=(0,),
        hypothesis_set=(0, 1),
        loss=np.array([[0.25], [0.75]]),
        prior=ProbVec(np.array([0.5, 0.5])),
        data_model=IIDData(ProbVec(np.array([1.0]))),
        n=n,
    )


def uniform_problem(nz, n, nw):
    rng = np.random.default_rng(50)
    return LearningProblem(
        sample_alphabet=tuple(range(nz)),
        hypothesis_set=tuple(range(nw)),
        loss=rng.random((nw, nz)),
        prior=ProbVec(np.full(nw, 1.0 / nw)),
        data_model=IIDData(ProbVec(np.full(nz, 1.0 / nz))),
        n=n,
    )


def evaluate(problem):
    return gibbs_posterior(problem, 1.0)


def characterize(problem):
    return gen_characterizations(problem, 1.0)


def bound(problem):
    return bounds_table(problem, 1.0)


# The arrays ELEMENT_CAP counts, one case each: (build, reads, required).
# build runs before the trace starts; each read gets what it built and
# must raise EnumerationTooLarge carrying required (None: only above the
# cap, for random draws) before it allocates.
CAPPED = {
    # |Z| = 4, n = 10, 3 hypotheses: 4**10 datasets of 10 samples each
    "dataset-count": (
        lambda: small_problem(22, iid=True, n=10),
        (evaluate, characterize),
        4**10 * 10,
    ),
    # |Z| = 32, n = 2: 1,024 datasets and one hypothesis more than the cap
    # holds at that m; before the cap counted hypotheses, these 8 million
    # pairs were evaluated, at a peak of about 250 MiB
    "hypothesis-count": (
        lambda: uniform_problem(32, 2, ELEMENT_CAP // 32**2 + 1),
        (evaluate, characterize, bound),
        32**2 * (ELEMENT_CAP // 32**2 + 1),
    ),
    # 4**(10**12) has 2e12 bits and is never formed: the exponent is clipped
    # at ELEMENT_CAP.bit_length() = 23, already above the cap
    "unenumerable-n": (
        lambda: dataclasses.replace(small_problem(45, iid=True), n=10**12),
        (evaluate, characterize, bound),
        4**23 * 10**12,
    ),
    # 1**n is a single dataset, but its index matrix would hold n entries
    # (7.28 TiB at n = 10**12)
    "one-symbol-n": (lambda: one_symbol_problem(10**12), (evaluate,), 10**12),
    # |Z| = 4, n = 9: C(K + n - 1, n) = C(18, 9) pair orbits (K = 10 pair
    # types) times 2**9 selectors, read from a posterior within the cap
    "supersample-states": (
        lambda: evaluate(small_problem(27, iid=True, n=9)),
        (lambda posterior: posterior.supersample_info, lambda posterior: posterior.replace_one),
        math.comb(18, 9) * 2**9,
    ),
    # the IID route counts clip n as the dataset count does: replace-one's
    # |Z|**(n + 1) at |Z| = 4, and with one symbol the 2**n selectors
    "iid-routes-unenumerable-n": (
        lambda: dataclasses.replace(small_problem(45, iid=True), n=10**12),
        (gibbslab.gibbs._require_iid_routes,),
        4 * 4**23,
    ),
    "supersample-one-symbol-n": (
        lambda: one_symbol_problem(10**12),
        (gibbslab.gibbs._require_iid_routes,),
        2**23,
    ),
    # |Z| = 201, n = 2: replace-one's 201**3 divergences per gamma, counted
    # before either IID route allocates
    "replace-one-divergences": (
        lambda: evaluate(uniform_problem(201, 2, 2)),
        (lambda posterior: posterior.replace_one, lambda posterior: posterior.supersample_info),
        201**3,
    ),
    # drawn sizes are checked before the loss table: max_symbols = 2**62
    # used to size a 1.48 EiB table
    "random-symbols": (
        lambda: None,
        (lambda _: random_problem(instance_rng(0, 0), max_symbols=2**62),),
        None,
    ),
    "random-hypotheses": (
        lambda: None,
        (lambda _: random_problem(instance_rng(0, 0), max_hypotheses=2**40),),
        None,
    ),
}


@pytest.mark.parametrize("case", list(CAPPED))
def test_element_cap_refuses_before_allocating(monkeypatch, case):
    build, reads, required = CAPPED[case]
    built = build()
    for read in reads:
        # an empty slot, so each read builds its own evaluation
        monkeypatch.setattr(gibbslab.gibbs, "_last_evaluation", None)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationTooLarge) as caught:
                read(built)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert caught.value.cap == ELEMENT_CAP
        if required is None:
            assert caught.value.required > ELEMENT_CAP
        else:
            assert caught.value.required == required
        assert peak < 1_000_000


def test_shapes_within_the_cap_are_evaluated():
    # a one-symbol alphabet has one dataset at any n within the cap
    assert gibbs_posterior(one_symbol_problem(50), 1.0).row_array.shape == (1, 2)
    # a joint law of 16 weights cannot be one of 4**(10**12) datasets, and
    # the size check forms no such power
    with pytest.raises(InvalidInput, match=r"expected \|Z\|\*\*n = 4\*\*1000000000000"):
        dataclasses.replace(small_problem(45, iid=False), n=10**12)


def test_ranges_bound_each_size_at_the_largest_an_instance_can_take():
    # the smallest instance at each CLI bound fits the cap, and at one more
    # it does not, so the bounds refuse only what could never be evaluated
    symbols, hypotheses, n = (RANGES[key][-1] for key in ("max_symbols", "max_hypotheses", "max_n"))
    check = gibbslab.gibbs._check_elements
    for nz, nw, size in ((symbols, 2, 1), (2, hypotheses, 1), (2, 2, n)):
        check("instance", max(size, nw), nz, size)
    for nz, nw, size in ((symbols + 1, 2, 1), (2, hypotheses + 1, 1), (2, 2, n + 1)):
        with pytest.raises(EnumerationTooLarge):
            check("instance", max(size, nw), nz, size)


def test_joint_law_cap_raises_before_drawing():
    # instance (5, 17) draws |Z| = 4 and n = 10: a joint law of 4**10
    # weights, above the cap, which would take 8 MB to draw
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationTooLarge) as caught:
            random_problem(instance_rng(5, 17), max_n=12, iid=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert caught.value.required == 4**10 * 10
    assert peak < 1_000_000


def test_random_problem_refuses_caps_beyond_int64():
    # the sizes are drawn as int64 below cap + 1; numpy itself would raise a
    # bare ValueError for a cap of 2**63
    for caps in ({"max_n": 2**63}, {"max_symbols": 2**63}, {"max_hypotheses": 2**63}):
        with pytest.raises(InvalidInput):
            random_problem(instance_rng(0, 0), **caps)
    # the largest int64 cap draws, and its n is refused by the element check
    with pytest.raises(EnumerationTooLarge):
        random_problem(instance_rng(0, 0), max_n=2**63 - 1)


def test_random_problem_labels_take_no_memory_per_label():
    # seed 35 draws |W| = 3,964,134 at max_hypotheses 4 * 10**6 (the
    # hypotheses corner of the CLI ranges); tuples of Python ints held 393
    # MiB there, the loss table and the prior's weights 90 MiB of it
    tracemalloc.start()
    try:
        problem = random_problem(instance_rng(35, 0), max_hypotheses=4 * 10**6)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert problem.num_hypotheses == 3_964_134
    assert problem.hypothesis_set == range(3_964_134)
    assert problem.sample_alphabet == range(problem.num_samples_symbols)
    assert held < problem.loss.nbytes + problem.prior.weights.nbytes + 2**20


def test_empirical_risk_is_blocked_and_bit_identical(monkeypatch):
    problems = [small_problem(46, iid=iid, n=n) for iid in (True, False) for n in (1, 3, 5)]
    problems += [uniform_problem(2, 9, 7)]
    expected = [problem.loss[:, problem._stack._dataset_indices].mean(axis=2) for problem in problems]
    for per_block in (1, 7):
        for problem, risk in zip(problems, expected):
            fresh = dataclasses.replace(problem)
            with monkeypatch.context() as patch:
                budget = per_block * problem.num_hypotheses * problem.n
                patch.setattr(gibbslab.probability, "BLOCK_ELEMENTS", budget)
                assert np.array_equal(fresh._stack._empirical_risk[0, 0], risk)
                # C order, hypothesis-major like every evaluation table
                assert fresh._stack._empirical_risk.flags.c_contiguous
    # |Z| = 2, n = 16, 8 hypotheses: the unblocked (nw, m, n) gather peaked
    # at 152 bytes per (dataset, hypothesis) pair
    problem = uniform_problem(2, 16, 8)
    tracemalloc.start()
    try:
        problem._stack._empirical_risk
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**16 * 8


def test_supersample_geometry_built_once_per_problem(monkeypatch):
    problem = small_problem(31, iid=True, n=2)
    gammas = (0.1, 1.0, 10.0, 100.0)
    posteriors = [gibbs_posterior(problem, gamma) for gamma in gammas]
    builds = []
    index_matrix = gibbslab.gibbs._index_matrix

    def counting(base, length):
        builds.append((base, length))
        return index_matrix(base, length)

    monkeypatch.setattr(gibbslab.gibbs, "_index_matrix", counting)
    reports = [posterior.supersample_info for posterior in posteriors]
    # one selector matrix (2, n = 2) for all four gammas
    assert builds == [(2, 2)]
    super_probs, dataset_ids = problem._stack._supersample_geometry
    # one orbit per multiset of n unordered pairs over K = |Z|(|Z|+1)/2 types
    pair_types = 4 * 5 // 2
    orbits = math.comb(pair_types + 2 - 1, 2)
    assert dataset_ids.dtype == np.int32 and dataset_ids.shape == (orbits, 2**2)
    assert abs(float(super_probs.sum()) - 1.0) < 1e-12
    assert len({report.mutual for report in reports}) == len(gammas)
    # a fresh problem with its own geometry gives the same bits
    fresh = dataclasses.replace(problem)
    for gamma, report in zip(gammas, reports):
        assert gibbs_posterior(fresh, gamma).supersample_info == report


def test_a_problem_builds_its_tables_once(monkeypatch):
    # four gibbs_posterior calls on one problem, as gen_characterizations
    # and bounds_table make them at four gammas, read the tables of the
    # problem's one stack of one: one dataset index matrix and one
    # empirical risk table
    problem = small_problem(44, iid=True, n=3)
    builds = []
    risk_builds = []
    index_matrix = gibbslab.gibbs._index_matrix
    risk = gibbslab.gibbs._Stack._empirical_risk

    def counting(base, length):
        builds.append((base, length))
        return index_matrix(base, length)

    def counting_risk(stack):
        risk_builds.append(stack)
        return risk.func(stack)

    counted_risk = functools.cached_property(counting_risk)
    counted_risk.__set_name__(gibbslab.gibbs._Stack, "_empirical_risk")
    monkeypatch.setattr(gibbslab.gibbs, "_index_matrix", counting)
    monkeypatch.setattr(gibbslab.gibbs._Stack, "_empirical_risk", counted_risk)
    posteriors = [gibbs_posterior(problem, gamma) for gamma in (0.1, 1.0, 10.0, 100.0)]
    assert builds == [(4, 3)]
    assert risk_builds == [problem._stack]
    assert all(posterior._sweep.stack is problem._stack for posterior in posteriors)


def test_a_dropped_problem_frees_its_tables_without_the_collector():
    # a problem caches its stack of one, which refers back to it weakly, so
    # no reference cycle keeps the tables once the problem and its
    # posteriors are dropped
    problem = small_problem(42, iid=True, n=2)
    posterior = gibbs_posterior(problem, 1.0)
    stack = weakref.ref(problem._stack)
    gc.disable()
    try:
        del problem
        assert posterior.problem._stack is stack()
        del posterior
        assert stack() is None
    finally:
        gc.enable()


def test_supersample_geometry_built_once_per_shape_stack(monkeypatch):
    # five IID problems of one shape, |Z| = 4, n = 2 and 3 hypotheses, go
    # into one stack; the geometry a lone build makes per problem, the stack
    # makes once for all of them
    problems = [small_problem(seed, iid=True, n=2) for seed in range(50, 55)]
    gammas = (0.1, 1.0, 10.0, 100.0)
    # fresh copies, so the stacked problems have built nothing of their own
    expected = [
        gibbs_posterior(dataclasses.replace(problem), gamma).supersample_info
        for problem in problems
        for gamma in gammas
    ]
    builds = []
    orbit_builds = []
    index_matrix = gibbslab.gibbs._index_matrix
    supersample_orbits = gibbslab.gibbs._supersample_orbits

    def counting(base, length):
        builds.append((base, length))
        return index_matrix(base, length)

    def counting_orbits(nz, n):
        orbit_builds.append((nz, n))
        return supersample_orbits(nz, n)

    monkeypatch.setattr(gibbslab.gibbs, "_index_matrix", counting)
    monkeypatch.setattr(gibbslab.gibbs, "_supersample_orbits", counting_orbits)
    members = [member for *_, member in _shape_sweep(enumerate(problems), gammas)]
    assert len({member._sweep for member in members}) == 1
    reports = [member.supersample_info for member in members]
    # one dataset index matrix, one selector matrix and one table of
    # dataset_ids for the whole stack
    assert builds == [(4, 2), (2, 2)]
    assert orbit_builds == [(4, 2)]
    assert reports == expected
    assert [member.problem for member in members] == [p for p in problems for _ in gammas]


def test_a_law_with_a_zero_is_evaluated_alone():
    # three joint problems of one shape, the middle one's law zero on two
    # datasets: the Renyi sums compress its support, so it is a stack of
    # its own, and the other two share one
    problems = [small_problem(seed, iid=False, n=2) for seed in (56, 57, 58)]
    weights = problems[1].data_model.weights.copy()
    weights[[3, 9]] = 0.0
    problems[1] = dataclasses.replace(problems[1], data_model=JointData(weights / weights.sum()))
    gammas = (0.5, 5.0)
    members = [member for *_, member in _shape_sweep(enumerate(problems), gammas)]
    sweeps = [member._sweep for member in members]
    assert sweeps[0] is sweeps[1] is sweeps[4] is sweeps[5]
    assert sweeps[2] is sweeps[3] and sweeps[2].stack is problems[1]._stack
    for member in members:
        single = gibbs_posterior(member.problem, member.gamma)
        assert GenReport.from_posterior(member) == GenReport.from_posterior(single)
        assert member.renyi((1.5, 4.0)) == single.renyi((1.5, 4.0))


def test_cached_arrays_are_read_only():
    # gen_characterizations and bounds_table share one evaluation, and the
    # members of a sweep share its stacked arrays, so no caller may alter
    # them through an array it hands out
    for iid in (True, False):
        problem = small_problem(41, iid=iid)
        for posterior in (gibbs_posterior(problem, 1.0), *_gibbs_sweep(problem._stack, (0.5, 1.0, 2.0))):
            arrays = [
                posterior.log_rows,
                posterior.row_array,
                posterior.hypothesis_marginal,
                posterior.log_kernel,
                posterior.log_marginal,
                posterior.problem._stack._log_dataset_probs,
            ]
            if iid:
                arrays.extend(posterior.replace_one)
            for array in arrays:
                with pytest.raises(ValueError):
                    array.flat[0] = 0.0


def test_routes_and_bounds_share_one_evaluation(monkeypatch):
    built = []
    build = gibbslab.gibbs.gibbs_posterior

    def counting(problem, gamma):
        posterior = build(problem, gamma)
        built.append(weakref.ref(posterior))
        return posterior

    monkeypatch.setattr(gibbslab.gibbs, "gibbs_posterior", counting)
    for iid in (True, False):
        problem = small_problem(43, iid=iid, n=2)
        built.clear()
        gen_characterizations(problem, 1.0)
        rows = bounds_table(problem, 1.0)
        assert len(built) == 1
        # a new gamma rebuilds, and the previous evaluation is freed
        report = gen_characterizations(problem, 2.0)
        assert len(built) == 2
        assert built[0]() is None
        # so does an equal-content copy of the problem
        copy = dataclasses.replace(problem)
        assert gen_characterizations(copy, 2.0) == report
        assert len(built) == 3
        assert built[1]() is None
        # a hit gives what a fresh build gives, bit for bit
        hit_rows = bounds_table(copy, 2.0)
        assert len(built) == 3
        monkeypatch.setattr(gibbslab.gibbs, "_last_evaluation", None)
        fresh_rows = bounds_table(copy, 2.0)
        assert len(built) == 4
        assert [dataclasses.astuple(r) for r in hit_rows] == [
            dataclasses.astuple(r) for r in fresh_rows
        ]
        assert rows != hit_rows


def test_stacked_sweep_matches_single_builds():
    # the first 40 instances of the default verify-identities and
    # bounds-table sweeps, with their gammas, orders and curve gammas: a
    # member of one stacked evaluation reads exactly what a lone build gives
    gammas = (0.1, 1.0, 10.0, 100.0)
    alphas = (1.5, 2.0, 4.0, 1.01)
    curve_gammas = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0)
    for _, problem in instance_sweep(40, 20260814, max_symbols=4, max_hypotheses=5, max_n=3):
        members = list(_gibbs_sweep(problem._stack, gammas))
        assert len({member._sweep for member in members}) == 1
        for member, gamma in zip(members, gammas):
            single = gibbs_posterior(problem, gamma)
            assert member.gamma == single.gamma == gamma
            assert GenReport.from_posterior(member) == GenReport.from_posterior(single)
            assert [dataclasses.astuple(row) for row in _bounds_rows(member, alphas)] == [
                dataclasses.astuple(row) for row in _bounds_rows(single, alphas)
            ]
        assert empirical_risk_curve(problem, curve_gammas) == [
            expected_empirical_risk(gibbs_posterior(problem, gamma)) for gamma in curve_gammas
        ]


@pytest.mark.parametrize("budget", [None, 600])
def test_shape_stacks_match_single_builds(monkeypatch, budget):
    # the 200 default instances of verify-identities and bounds-table,
    # evaluated by shape, at all four gammas and with the probe order: every
    # member of a shape stack reads exactly what a lone build gives.  At the
    # default BLOCK_ELEMENTS they form one window and 64 stacks; a budget of
    # 600 elements splits them into many windows and smaller stacks, puts
    # each problem above it alone and splits its gammas into chunks
    if budget is not None:
        monkeypatch.setattr(gibbslab.probability, "BLOCK_ELEMENTS", budget)
    gammas = (0.1, 1.0, 10.0, 100.0)
    alphas = (1.5, 2.0, 4.0, 1.01)
    instances = instance_sweep(200, 20260814, max_symbols=4, max_hypotheses=5, max_n=3)
    visited = []
    sweeps = set()
    stacked = 0
    for index, problem, gamma, member in _shape_sweep(instances, gammas):
        visited.append((index, gamma))
        sweeps.add(member._sweep)
        stacked += len(member._sweep.stack.problems) > 1
        assert member.problem is problem and member.gamma == gamma
        single = gibbs_posterior(problem, gamma)
        assert GenReport.from_posterior(member) == GenReport.from_posterior(single)
        assert [dataclasses.astuple(row) for row in _bounds_rows(member, alphas)] == [
            dataclasses.astuple(row) for row in _bounds_rows(single, alphas)
        ]
    assert visited == [(index, gamma) for index in range(200) for gamma in gammas]
    if budget is None:
        assert len(sweeps) == 64
    else:
        assert 64 < len(sweeps) < 200 * len(gammas)
        assert any(len(sweep.gammas) < len(gammas) for sweep in sweeps)
    assert stacked > 0


@pytest.mark.parametrize(
    "budget, chunks",
    [
        # two gammas' tables per chunk; no supersample or replace-one block
        # holds two gammas, and replace-one splits each gamma's 16 datasets
        # into two blocks of 8
        (2 * 48, [2, 2, 1]),
        # one chunk; replace-one stacks two gammas, the supersample sweep one
        # gamma in two blocks of orbits
        (400, [5]),
        # one chunk; the supersample sweep stacks two gammas in one block
        (1400, [5]),
        # one gamma per chunk; one dataset per replace-one block
        (1, [1, 1, 1, 1, 1]),
        # one gamma per chunk; replace-one blocks of 7 datasets, the last
        # one partial
        (84, [1, 1, 1, 1, 1]),
    ],
)
def test_sweep_splits_into_chunks_within_the_block_budget(monkeypatch, budget, chunks):
    # |Z| = 4, n = 2 and 3 hypotheses: 16 x 3 = 48 table elements per gamma,
    # 55 supersample orbits of 4 selectors, and a replace-one gather of
    # 4 x 3 = 12 elements per dataset
    problem = small_problem(47, iid=True, n=2)
    gammas = (0.1, 0.5, 1.0, 2.0, 5.0)
    one_block = [gibbs_posterior(problem, gamma).replace_one for gamma in gammas]
    monkeypatch.setattr(gibbslab.probability, "BLOCK_ELEMENTS", budget)
    members = list(_gibbs_sweep(problem._stack, gammas))
    sweeps = list(dict.fromkeys(member._sweep for member in members))
    assert [len(sweep.gammas) for sweep in sweeps] == chunks
    assert all(sweep.log_rows.size <= max(48, budget) for sweep in sweeps)
    for member, gamma, expected in zip(members, gammas, one_block):
        single = gibbs_posterior(problem, gamma)
        assert np.array_equal(member.replace_one, expected)
        assert GenReport.from_posterior(member) == GenReport.from_posterior(single)
        assert [dataclasses.astuple(row) for row in _bounds_rows(member, (1.5, 4.0))] == [
            dataclasses.astuple(row) for row in _bounds_rows(single, (1.5, 4.0))
        ]
    del members, sweeps
    # a caller that drops each member holds one chunk at a time
    if chunks[0] < len(gammas):
        remaining = _gibbs_sweep(problem._stack, gammas)
        first_chunk = weakref.ref(next(remaining)._sweep)
        for _ in range(chunks[0]):
            next(remaining)
        assert first_chunk() is None


@pytest.mark.parametrize("per_block", [1, 7])
def test_blocked_replace_one_matches_one_block(monkeypatch, per_block):
    # a budget of per_block datasets' gathers splits every gamma's dataset
    # axis; 7 divides no |Z|**n below 7 symbols, so the last block of 7 is
    # partial
    problems = [small_problem(48, iid=True, n=n) for n in (2, 3, 4)]
    problems += [random_problem(instance_rng(9, index), max_n=4) for index in range(12)]
    gammas = (0.1, 1.0, 10.0, 1e3, 1e6)
    for problem in problems:
        if problem.dataset_count <= 7:
            continue
        nz, nw = problem.num_samples_symbols, problem.num_hypotheses
        assert nz < 7
        one_block = [member.replace_one for member in _gibbs_sweep(problem._stack, gammas)]
        with monkeypatch.context() as patch:
            patch.setattr(gibbslab.probability, "BLOCK_ELEMENTS", per_block * nz * nw)
            for gamma, expected in zip(gammas, one_block):
                assert np.array_equal(gibbs_posterior(problem, gamma).replace_one, expected)


def test_refused_supersample_stops_replace_one_before_allocating(monkeypatch):
    # |Z| = 100, n = 2: 10,000 datasets and replace-one's 10**6 divergences
    # are within ELEMENT_CAP, but C(5050 + 1, 2) * 2**2 = 51,015,100
    # supersample states are above it; replace-one's gather alone would
    # take about 270 MiB
    rng = np.random.default_rng(49)
    problem = LearningProblem(
        sample_alphabet=tuple(range(100)),
        hypothesis_set=tuple(range(5)),
        loss=rng.random((5, 100)),
        prior=ProbVec(np.full(5, 0.2)),
        data_model=IIDData(ProbVec(np.full(100, 0.01))),
        n=2,
    )
    reads = (
        gen_characterizations,
        bounds_table,
        lambda problem, gamma: gibbs_posterior(problem, gamma).replace_one,
    )
    for read in reads:
        # a fresh problem and an empty slot, so each read builds its own
        fresh = dataclasses.replace(problem)
        monkeypatch.setattr(gibbslab.gibbs, "_last_evaluation", None)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationTooLarge) as caught:
                read(fresh, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert caught.value.required == 51_015_100
        assert peak < 16 * 2**20


def ordered_supersample_info(problem, gamma, scale=1.0):
    """The supersample information at gamma summed over all |Z|**(2n)
    ordered tuples of n pairs, each its own state, through the same block
    loop; each tuple's probability times scale."""
    nz, n = problem.num_samples_symbols, problem.n
    pairs = gibbslab.gibbs._index_matrix(nz, 2 * n)
    super_probs = scale * np.prod(problem.data_model.marginal.weights[pairs], axis=1)
    powers = nz ** np.arange(n - 1, -1, -1)
    selectors = gibbslab.gibbs._index_matrix(2, n)
    dataset_ids = np.stack(
        [np.where(bits == 1, pairs[:, 1::2], pairs[:, 0::2]) @ powers for bits in selectors],
        axis=1,
    ).astype(np.int32)
    reference = dataclasses.replace(problem)
    # the cached property reads its value from the instance dict of the
    # problem's stack of one, whose arrays lead with (1, 1)
    reference._stack.__dict__["_supersample_geometry"] = (super_probs[None, None], dataset_ids)
    return gibbs_posterior(reference, gamma).supersample_info


def test_ordered_tuple_reference_reaches_the_sweep():
    # the negative control of the oracle below: a reference whose tuple
    # probabilities are 0.1% high moves the information by 0.1%, far
    # outside the oracle's tolerance, so the sweep reads the reference the
    # oracle writes
    problem = small_problem(45, iid=True, n=2)
    orbits = gibbs_posterior(problem, 1.0).supersample_info
    perturbed = ordered_supersample_info(problem, 1.0, scale=1.001)
    for got, want in ((perturbed.mutual, orbits.mutual), (perturbed.lautum, orbits.lautum)):
        assert abs(got - want) > 1e-13 * abs(want)
        assert got == pytest.approx(1.001 * want, rel=1e-12)


@pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0, 100.0, 1e3, 1e6])
def test_supersample_orbits_match_ordered_tuples(gamma):
    problems = [
        problem
        for _, problem in instance_sweep(
            200, 20260814, max_symbols=4, max_hypotheses=5, max_n=3
        )
        if problem.is_iid()
    ]
    problems += [random_problem(instance_rng(7, index), max_n=4) for index in range(12)]
    assert max(problem.n for problem in problems) == 4
    for problem in problems:
        orbits = gibbs_posterior(problem, gamma).supersample_info
        ordered = ordered_supersample_info(problem, gamma)
        for got, want in ((orbits.mutual, ordered.mutual), (orbits.lautum, ordered.lautum)):
            assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("gamma", [1e3, 1e4, 1e6])
def test_large_gamma_identity_and_gates(gamma):
    # the ERM-limit regime: posterior rows underflow in the linear domain,
    # so every functional here has to be evaluated from the log rows
    problems = [
        problem
        for _, problem in instance_sweep(
            200, 20260814, max_symbols=4, max_hypotheses=5, max_n=3
        )
    ]
    problems.append(random_problem(instance_rng(1, 0)))
    for problem in problems:
        # construction asserts the five-way identity, the divergence
        # comparison and c_k <= c_i at their usual tolerances
        report = gen_characterizations(problem, gamma)
        assert (report.via_cmi is not None) == problem.is_iid()
        InfoDivergenceReport(report.info.mutual, report.info.lautum, report.d_fwd, report.d_rev)
        RatioConstants.from_report(report)
    assert sandwich_violations(bounds_table(problems[-1], gamma)) == []


def test_regularized_gen_zero_lambda_matches_plain():
    rng = np.random.default_rng(23)
    for _ in range(8):
        problem = random_problem(rng, iid=bool(rng.integers(0, 2)))
        gamma = float(rng.uniform(0.3, 6.0))
        table = rng.random((problem.num_hypotheses, problem.dataset_count))
        report = regularized_gen(problem, gamma, 0.0, table)
        plain = gen_characterizations(problem, gamma)
        # at lam = 0 the penalized kernel is the plain one, bit for bit
        assert report.gen == plain.direct
        assert report.iskl_over_gamma == plain.via_iskl


def test_regularized_gen_identity_holds_with_penalty():
    rng = np.random.default_rng(24)
    for _ in range(8):
        problem = random_problem(rng)
        gamma = float(rng.uniform(0.3, 6.0))
        table = rng.random((problem.num_hypotheses, problem.dataset_count))
        report = regularized_gen(problem, gamma, 0.8, table)
        assert report.gen == pytest.approx(
            report.iskl_over_gamma - 0.8 * report.reg_gap, abs=1e-12, rel=1e-9
        )
        assert report.trace_cov is None


def test_regularized_gen_embedding_route():
    rng = np.random.default_rng(25)
    problem = random_problem(rng)
    k = 3
    embedding = rng.normal(size=(problem.num_hypotheses, k))
    target = rng.normal(size=(problem.dataset_count, k))
    report = regularized_gen(problem, 1.5, 0.4, embedding=embedding, target=target)
    # squared-distance penalties report the covariance trace form of the gap
    assert report.trace_cov is not None
    assert abs(report.reg_gap - 2.0 * report.trace_cov) < max(
        1e-12, 1e-9 * abs(report.reg_gap)
    )


def test_regularized_gen_counts_its_differences_against_the_cap(monkeypatch):
    # |Z| = 4, n = 3 and 3 hypotheses: 64 datasets, and with k = 1,000
    # embedding dimensions a (3, 1000, 64) difference table of 192,000
    # elements (1.5 MB), refused under a cap of 100,000 before it is formed
    problem = small_problem(27, iid=True, n=3)
    nw, m, k = problem.num_hypotheses, problem.dataset_count, 1000
    assert (nw, m) == (3, 64)
    rng = np.random.default_rng(27)
    embedding = rng.normal(size=(nw, k))
    target = rng.normal(size=(m, k))
    monkeypatch.setattr(gibbslab.gibbs, "ELEMENT_CAP", 100_000)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationTooLarge) as caught:
            regularized_gen(problem, 1.0, 0.5, embedding=embedding, target=target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert caught.value.required == nw * k * m
    assert peak < nw * k * m * 8


def test_regularized_gen_input_validation():
    problem = small_problem(26)
    with pytest.raises(InvalidInput):
        regularized_gen(problem, 1.0, 0.5)
    with pytest.raises(InvalidInput):
        regularized_gen(problem, 1.0, -0.5, np.zeros((3, problem.dataset_count)))
    with pytest.raises(InvalidInput):
        regularized_gen(problem, 1.0, 0.5, np.zeros((2, 2)))
