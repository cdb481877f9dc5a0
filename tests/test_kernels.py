"""The whole-table kernels on hypothesis-major (g, nw, m) tables: every
number, the concavity probe's too, bit for bit against frozen copies of
the formulas they replaced, the dependence measures against a 40-digit
reference, the layout of every cached table, the memory each call keeps,
and numbers that do not depend on the BLAS thread count."""

import dataclasses
import decimal
import inspect
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import gibbslab.gibbs
import gibbslab.probability
from gibbslab import (
    IIDData,
    JointData,
    LearningProblem,
    ProbVec,
    bounds_table,
    concavity_probe,
    gen_characterizations,
    instance_rng,
    random_mixture_components,
    random_problem,
)
from gibbslab.bounds import _bounds_rows
from gibbslab.cli import DEFAULTS
from gibbslab.gibbs import (
    ABS_TOL,
    REL_TOL,
    GenReport,
    _gibbs_sweep,
    gibbs_posterior,
)
from gibbslab.probability import BLOCK_ELEMENTS, _divergence_pair, _logsumexp, _renyi_logsums
from gibbslab.samplers import STREAMS, counter_rng

GAMMAS = (0.1, 1.0, 10.0, 100.0, 1e3, 1e6)
ALPHAS = (1.5, 2.0, 4.0)


# Frozen copies of the kernels as they were before the in-place temporaries:
# the references the kernels must match.


def frozen_logsumexp(a, axis=None, keepdims=False):
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    axes = tuple(range(a.ndim)) if axis is None else axis
    a_max = a.max(axis=axes, keepdims=True)
    tied = a == a_max
    m = tied.sum(axis=axes, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(tied, -np.inf, a) - a_max).sum(axis=axes, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.exp(a).sum(axis=axes, keepdims=True))
            out = np.where(finite, out, direct)
    if not keepdims:
        out = out.squeeze(axis=axes)
    return out[()] if out.ndim == 0 else out


def frozen_divergence_pair(log_p, log_q, axis=None):
    r = np.subtract(log_p, log_q)
    p_larger = r >= 0.0
    a = np.abs(r, out=r)
    e1 = np.expm1(-a)
    smaller_term = -(a * (e1 + 1.0) + e1)
    larger_term = np.add(a, e1, out=a)
    scale = np.exp(np.maximum(log_p, log_q))
    larger_term *= scale
    smaller_term *= scale
    forward = np.where(p_larger, larger_term, smaller_term).sum(axis=axis)
    reverse = np.where(p_larger, smaller_term, larger_term).sum(axis=axis)
    return forward, reverse


def frozen_renyi_logsums(r, log_q, betas):
    axes = tuple(range(1, r.ndim))
    out = np.empty((len(betas), r.shape[0]))
    far = []
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.exp(log_q)
        em1 = np.expm1(r)
        for i, beta in enumerate(betas):
            terms = (np.expm1(beta * r) - em1 * beta) * q
            for k, u in enumerate(terms.sum(axis=axes).tolist()):
                if abs(u) < 1.0:
                    out[i, k] = math.log1p(u)
                else:
                    far.append((i, k))
    per_call = max(1, BLOCK_ELEMENTS // r[0].size)
    for start in range(0, len(far), per_call):
        calls = far[start : start + per_call]
        exponents = np.array([betas[i] * r[k] + log_q[k] for i, k in calls])
        for (i, k), total in zip(calls, frozen_logsumexp(exponents, axis=axes).tolist()):
            out[i, k] = total
    return out


def betas_of(alphas):
    """The exponents of the forward and then the reverse Renyi sums."""
    return alphas + tuple(1.0 - alpha for alpha in alphas)


# The Renyi sums and the total variation as they were formed before they
# read one log ratio, and the total variation before it took each dataset's
# dominant difference as minus the sum of the others: second references,
# met to REL_TOL and ABS_TOL.


def frozen_renyi_sums(log_p, log_q, alphas):
    axes = tuple(range(1, log_p.ndim))
    out = np.empty((len(alphas), log_p.shape[0]))
    far = []
    r = np.subtract(log_p, log_q)
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.exp(log_q)
        terms = np.empty_like(r)
        scaled = np.empty_like(r)
        for i, alpha in enumerate(alphas):
            np.multiply(alpha, r, out=terms)
            np.expm1(terms, out=terms)
            np.expm1(r, out=scaled)
            scaled *= alpha
            terms -= scaled
            terms *= q
            for k, u in enumerate(terms.sum(axis=axes).tolist()):
                if abs(u) < 1.0:
                    out[i, k] = math.log1p(u) / (alpha - 1.0)
                else:
                    far.append((i, k))
    per_call = max(1, BLOCK_ELEMENTS // log_p[0].size)
    for start in range(0, len(far), per_call):
        calls = far[start : start + per_call]
        terms = np.empty((len(calls),) + log_p.shape[1:])
        for j, (i, k) in enumerate(calls):
            np.add(alphas[i] * log_p[k], (1.0 - alphas[i]) * log_q[k], out=terms[j])
        for (i, k), total in zip(calls, frozen_logsumexp(terms, axis=axes).tolist()):
            out[i, k] = total / (alphas[i] - 1.0)
    return out


def frozen_evaluation(problem, gammas):
    """Every functional of a stacked evaluation, by the frozen formulas, on
    (g, nw, m) tables: hypothesis sums over axis 1, dataset sums over the
    last axis; the COLUMNS hold one entry per gamma on their last axis.
    Second, the total variation and the Renyi sums by earlier formulas:
    the sum of every |row - marginal|, the linear joint table against the
    product of its marginals, and two Renyi calls on the log joint law and
    the log product law, on the support."""
    risk = problem._stack._empirical_risk[0, 0]
    probs = problem._stack._dataset_probs[0, 0]
    population = (risk * probs).sum(axis=1)
    log_probs = problem._stack._log_dataset_probs[0, 0]
    logits = problem.prior.log_weights[:, None] - np.array(gammas)[:, None, None] * risk
    log_rows = logits - frozen_logsumexp(logits, axis=1, keepdims=True)
    rows = np.exp(log_rows)
    rows /= rows.sum(axis=1, keepdims=True)
    log_kernel = log_rows - frozen_logsumexp(log_rows, axis=1, keepdims=True)
    log_joint = log_probs + log_kernel
    log_marginal = frozen_logsumexp(log_joint, axis=2)

    def expected(log_reference):
        forward, reverse = frozen_divergence_pair(log_kernel, log_reference[:, :, None], axis=1)
        return np.array(((forward * probs).sum(axis=1), (reverse * probs).sum(axis=1)))

    # the population-risk Gibbs law, normalized twice as the kernel is
    log_population = problem.prior.log_weights - np.array(gammas)[:, None] * population
    log_population = log_population - frozen_logsumexp(log_population, axis=1, keepdims=True)
    log_population = log_population - frozen_logsumexp(log_population, axis=1, keepdims=True)

    marginal = (rows * probs).sum(axis=2)
    diff = rows - marginal[:, :, None]
    top = rows.argmax(axis=1)[:, None, :]
    np.put_along_axis(diff, top, 0.0, axis=1)
    distances = np.abs(diff).sum(axis=1) + np.abs(diff.sum(axis=1))
    r = np.where(probs > 0.0, log_kernel - log_marginal[:, :, None], 0.0)
    logsums = frozen_renyi_logsums(r, log_probs + log_marginal[:, :, None], betas_of(ALPHAS))
    orders = np.array(ALPHAS)[:, None] - 1.0
    current = {
        "log_rows": log_kernel,
        "row_array": rows,
        "hypothesis_marginal": marginal,
        "log_marginal": log_marginal,
        "information": expected(log_marginal),
        "references": expected(log_population),
        "total_variation": (distances * probs).sum(axis=1),
        "renyi": logsums[: len(ALPHAS)] / orders + logsums[len(ALPHAS) :] / orders,
    }
    joint_table = rows * probs
    product_table = joint_table.sum(axis=-1)[..., :, None] * joint_table.sum(axis=-2)[..., None, :]
    support = probs > 0.0
    joint = np.compress(support, log_joint, axis=2)
    product = log_probs[support] + log_marginal[:, :, None]
    earlier = {
        "total_variation": (
            (np.abs(rows - marginal[:, :, None]).sum(axis=1) * probs).sum(axis=1),
            np.abs(joint_table - product_table).sum(axis=(1, 2)),
        ),
        "renyi": (frozen_renyi_sums(joint, product, ALPHAS) + frozen_renyi_sums(product, joint, ALPHAS),),
    }
    return current, earlier


def close(got, expected):
    """Within REL_TOL of expected, or ABS_TOL, entry by entry."""
    return np.all(np.abs(got - expected) <= np.maximum(REL_TOL * np.abs(expected), ABS_TOL))


# the per-member numbers of frozen_evaluation, which a sweep holds as columns
COLUMNS = ("information", "references", "total_variation", "renyi")


def problem_of(nz, n, nw, iid, seed=14):
    rng = np.random.default_rng(seed)
    weights = rng.random(nz if iid else nz**n) + 0.05
    weights /= weights.sum()
    prior = rng.random(nw) + 0.05
    return LearningProblem(
        sample_alphabet=range(nz),
        hypothesis_set=range(nw),
        loss=rng.random((nw, nz)),
        prior=ProbVec(prior / prior.sum()),
        data_model=IIDData(ProbVec(weights)) if iid else JointData(weights),
        n=n,
    )


def bits(value):
    return np.asarray(value, dtype=np.float64).view(np.int64)


# (|Z|, n, |W|, IID, gammas per stack): lib-wide's joint problem one gamma
# at a time, as its library calls evaluate it, and all gammas stacked; a
# CLI-sized IID stack
SHAPES = {
    "lib-wide-joint": (4, 7, 5, False, 1),
    "joint-stacked": (4, 7, 5, False, len(GAMMAS)),
    "cli-stack": (4, 3, 5, True, 4),
}


@pytest.mark.parametrize("shape", list(SHAPES))
def test_evaluation_matches_the_frozen_formulas(monkeypatch, shape):
    nz, n, nw, iid, per_stack = SHAPES[shape]
    problem = problem_of(nz, n, nw, iid)
    # a block that holds the whole stack
    table = nz**n * nw
    monkeypatch.setattr(gibbslab.probability, "BLOCK_ELEMENTS", max(BLOCK_ELEMENTS, per_stack * table))
    for start in range(0, len(GAMMAS), per_stack):
        gammas = GAMMAS[start : start + per_stack]
        sweep = next(_gibbs_sweep((problem,), gammas))._sweep
        assert sweep.gammas == gammas
        expected, earlier = frozen_evaluation(problem, gammas)
        for name, value in expected.items():
            got = sweep.renyi(ALPHAS) if name == "renyi" else getattr(sweep, name)
            if name not in COLUMNS:
                # a (1, g, ...) table of the problem's stack of one
                got = got[0]
            assert got.shape == value.shape, (shape, gammas, name)
            assert np.array_equal(bits(got), bits(value)), (shape, gammas, name)
            for reference in earlier.get(name, ()):
                assert close(got, reference), (shape, gammas, name)


def test_sweep_keeps_the_renyi_column_of_every_order_tuple(monkeypatch):
    # orders A, then B, then A again: the third call returns the first
    # call's array without computing it again
    calls = []

    def counting_renyi_logsums(*args):
        calls.append(args[-1])
        return _renyi_logsums(*args)

    monkeypatch.setattr(gibbslab.gibbs, "_renyi_logsums", counting_renyi_logsums)
    sweep = next(_gibbs_sweep((problem_of(4, 3, 5, True),), GAMMAS[:4]))._sweep
    first = sweep.renyi(ALPHAS)
    other = sweep.renyi((1.5, 3.0))
    # one call per order tuple, at the forward and the reverse exponents
    assert calls == [betas_of(ALPHAS), betas_of((1.5, 3.0))]
    assert sweep.renyi(ALPHAS) is first
    assert len(calls) == 2
    # one column per order, one entry per member
    assert first.shape == (len(ALPHAS), 4) and other.shape == (2, 4)


def decimal_dependence(problem, gamma, digits=40):
    """The total variation and the two-direction Renyi sums of ALPHAS
    between the joint law of (W, S) and the product of its marginals, from
    the problem's loss, prior weights, data law and n alone, in decimal
    arithmetic at the given digits."""
    D = decimal.Decimal
    with decimal.localcontext() as context:
        context.prec = digits
        # exp(4 r) at gamma 1e6 is far outside the default exponent range
        context.Emax, context.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        loss = [[D(float(value)) for value in row] for row in problem.loss]
        log_prior = [D(float(weight)).ln() for weight in problem.prior.weights]
        model = problem.data_model
        iid = isinstance(model, IIDData)
        law = [D(float(weight)) for weight in (model.marginal.weights if iid else model.weights)]
        # float weights sum to one only to rounding; the measures are those
        # of the normalized law
        total = sum(law)
        law = [weight / total for weight in law]
        nw, nz, n = len(log_prior), len(loss[0]), problem.n
        probs, rows = [], []
        for index, sample in enumerate(itertools.product(range(nz), repeat=n)):
            prob = math.prod((law[z] for z in sample), start=D(1)) if iid else law[index]
            if prob == 0:
                continue
            logits = [log_prior[w] - D(gamma) * sum(loss[w][z] for z in sample) / n for w in range(nw)]
            top = max(logits)
            weights = [(logit - top).exp() for logit in logits]
            total = sum(weights)
            probs.append(prob)
            rows.append([weight / total for weight in weights])
        marginal = [sum(p * row[w] for p, row in zip(probs, rows)) for w in range(nw)]
        tv = sum(p * sum(abs(row[w] - marginal[w]) for w in range(nw)) for p, row in zip(probs, rows))
        log_ratios = [[row[w].ln() - marginal[w].ln() for w in range(nw)] for row in rows]

        def log_sum(beta):
            # ln sum_s,w P(s) marginal(w) (row(w) / marginal(w))**beta
            return sum(
                p * marginal[w] * (beta * ratios[w]).exp()
                for p, ratios in zip(probs, log_ratios)
                for w in range(nw)
            ).ln()

        renyi = [(log_sum(D(alpha)) + log_sum(1 - D(alpha))) / (D(alpha) - 1) for alpha in ALPHAS]
        return float(tv), [float(value) for value in renyi]


def test_dependence_measures_match_a_decimal_reference():
    # TV and the Renyi sums of orders 1.5, 2 and 4 against a 40-digit
    # reference that shares no code with the stack or the sweep, on IID
    # and joint problems and on an IID law with a zero, from near
    # independence (gamma 0.1) to point-mass posteriors (gamma 1e6)
    zero = problem_of(4, 3, 5, True, seed=15)
    marginal = zero.data_model.marginal.weights.copy()
    marginal[1] = 0.0
    zero = dataclasses.replace(zero, data_model=IIDData(ProbVec(marginal / marginal.sum())))
    problems = [problem_of(4, 3, 5, True), problem_of(3, 2, 4, False), problem_of(2, 3, 3, True), zero]
    for problem in problems:
        for gamma in (0.1, 10.0, 1e3, 1e6):
            tv, renyi = decimal_dependence(problem, gamma)
            posterior = gibbs_posterior(problem, gamma)
            got = [posterior.total_variation, *posterior.renyi(ALPHAS)]
            for value, reference in zip(got, [tv, *renyi]):
                assert math.isclose(value, reference, rel_tol=REL_TOL, abs_tol=ABS_TOL), (
                    problem.data_model, gamma, got, [tv, *renyi])


def test_total_variation_keeps_the_digits_of_tiny_posterior_mass():
    # default bounds-table instances 66 and 122 at gamma 100: the dependence
    # sits in hypotheses of tiny posterior mass, and each dataset's share of
    # |row - marginal| at its dominant hypothesis is below the rounding of
    # that row entry, near 1, so a sum of every |row - marginal| reads half
    # the total variation
    for index in (66, 122):
        problem = random_problem(instance_rng(DEFAULTS["bounds-table"]["seed"], index))
        tv, _ = decimal_dependence(problem, 100.0)
        got = gibbs_posterior(problem, 100.0).total_variation
        assert tv < 1e-25
        assert math.isclose(got, tv, rel_tol=REL_TOL), (index, got, tv)


def test_a_zero_probability_dataset_keeps_the_near_renyi_digits():
    # symbols 0 and 1 carry the mass and barely move the posterior, so the
    # Renyi sums are tiny; symbol 2, of probability zero, puts its
    # posterior on a hypothesis the others make unlikely, so its log
    # ratio is near gamma and exp(beta r) overflows.  Its terms must still
    # be exact zeros, or the near-independence sum is lost to the
    # log-sum-exp branch, which keeps only absolute digits
    problem = LearningProblem(
        sample_alphabet=(0, 1, 2),
        hypothesis_set=(0, 1, 2),
        loss=np.array([[0.0, 1e-9, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
        prior=ProbVec(np.full(3, 1.0 / 3.0)),
        data_model=IIDData(ProbVec(np.array([0.5, 0.5, 0.0]))),
        n=1,
    )
    for gamma in (1e3, 1e6):
        _, renyi = decimal_dependence(problem, gamma)
        got = gibbs_posterior(problem, gamma).renyi(ALPHAS)
        assert 0.0 < min(renyi) < 1e-6
        for value, reference in zip(got, renyi):
            assert math.isclose(value, reference, rel_tol=REL_TOL), (gamma, got, renyi)


def test_far_renyi_sums_match_with_and_without_buffers(monkeypatch):
    # laws far apart take the log-sum-exp path for every order
    far_calls = []

    def counting_logsumexp(*args, **kwargs):
        far_calls.append(args[0].shape)
        return _logsumexp(*args, **kwargs)

    monkeypatch.setattr(gibbslab.probability, "_logsumexp", counting_logsumexp)
    rng = np.random.default_rng(3)
    # lib-wide's joint table, a stack of three and a CLI-sized stack
    for shape in ((1, 5, 16384), (3, 5, 2048), (2, 5, 64)):
        log_p = np.log(rng.dirichlet(np.ones(math.prod(shape[1:])), size=shape[0])).reshape(shape)
        for log_q in (np.log(rng.dirichlet(np.ones(log_p[0].size), size=shape[0])).reshape(shape),
                      log_p + 1e-3 * rng.standard_normal(shape)):
            expected = frozen_renyi_logsums(log_p - log_q, log_q, betas_of(ALPHAS))
            # log q as the data law, with a zero marginal
            zero = np.zeros((shape[0], 1, 1))
            got = _renyi_logsums(log_p - log_q, log_q, zero, betas_of(ALPHAS))
            assert np.array_equal(bits(got), bits(expected)), shape
    # the far path ran on every shape
    assert {shape[1:] for shape in far_calls} == {(5, 16384), (5, 2048), (5, 64)}


def test_divergence_pair_and_logsumexp_match_with_buffers():
    rng = np.random.default_rng(5)
    for shape in ((1, 16384, 5), (4, 64, 5), (2, 4096, 3)):
        log_p = rng.normal(scale=5.0, size=shape)
        log_q = rng.normal(scale=5.0, size=(shape[0], 1, shape[2]))
        # the hypotheses last, summed over axis 2; and a (g, nw, m) table
        # with a per-hypothesis reference, summed over hypothesis axis 1
        table = np.ascontiguousarray(log_p.transpose(0, 2, 1))
        for p, q, axis in ((log_p, log_q, 2), (table, log_q.transpose(0, 2, 1), 1)):
            expected = frozen_divergence_pair(p, q, axis=axis)
            # the broadcast operand first and second
            for got in (_divergence_pair(p, q, axis=axis), _divergence_pair(q, p, axis=axis)[::-1]):
                assert all(np.array_equal(bits(g), bits(e)) for g, e in zip(got, expected)), axis
        # ties, -inf entries, an all -inf row and an infinite entry
        a = np.round(log_p)
        a[rng.random(shape) < 0.2] = -np.inf
        a[0, 1] = -np.inf
        a[0, 2, 0] = np.inf
        for b in (a, np.ascontiguousarray(a.transpose(0, 2, 1))):
            for axis in (1, 2, (1, 2)):
                expected = frozen_logsumexp(b, axis=axis, keepdims=True)
                got = _logsumexp(b, axis=axis, keepdims=True)
                assert np.array_equal(got, expected, equal_nan=True), (shape, axis)


def test_joint_evaluation_peaks_below_the_earlier_kernels():
    # routes plus bounds on lib-wide's joint shape (|Z| = 4, n = 7, |W| = 5):
    # the kernels that allocated fresh temporaries peaked at 5.77 MiB, the
    # Renyi sums of two log laws and a log ratio at 5.68 MiB, those of one
    # log ratio with a log q table at 5.04 MiB, and a sweep that also kept
    # the once-normalized log rows at 4.41 MiB
    problem = problem_of(4, 7, 5, False)
    for gamma in (0.1, 1.0, 100.0, 1e6):
        fresh = dataclasses.replace(problem)
        fresh._stack._population_risk, fresh._stack._log_dataset_probs
        gibbslab.gibbs._last_evaluation = None
        tracemalloc.start()
        try:
            gen_characterizations(fresh, gamma)
            bounds_table(fresh, gamma)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gibbslab.gibbs._last_evaluation = None
        assert peak <= 4.1 * 2**20, gamma


def test_joint_evaluation_holds_the_joint_law_once():
    # a lone joint evaluation on lib-wide's shape (|Z| = 4, n = 7, |W| = 5)
    # at gamma 1, with the posterior alive: the problem's 128 KiB law is
    # the stack's dataset law, not a copy, and no log joint table or
    # once-normalized log rows are kept.  Evaluations that copied the law
    # kept 4,357 KiB (one copy) and 4,488 KiB (two copies), one that cached
    # the 640 KiB log joint table 4,232 KiB, and one that kept the
    # once-normalized log rows next to the log kernel 3,592 KiB
    problem = problem_of(4, 7, 5, False)
    tracemalloc.start()
    try:
        posterior = gibbs_posterior(problem, 1.0)
        GenReport.from_posterior(posterior)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.shares_memory(posterior._sweep.stack._dataset_probs, problem.data_model.weights)
    assert retained <= 3077 * 2**10


# every functional of a stack that has no IID route, as a reader
FUNCTIONALS = {
    "log_rows": lambda posterior: posterior.log_rows,
    "row_array": lambda posterior: posterior.row_array,
    "hypothesis_marginal": lambda posterior: posterior.hypothesis_marginal,
    "log_marginal": lambda posterior: posterior.log_marginal,
    "info": lambda posterior: posterior.info,
    "reference_divergences": lambda posterior: posterior.reference_divergences,
    "total_variation": lambda posterior: posterior.total_variation,
    "renyi": lambda posterior: posterior.renyi(ALPHAS),
}


def test_no_kernel_temporary_outlives_its_call():
    # after each functional of lib-wide's joint stack, and of a CLI-sized
    # stack, returns, the traced memory is that of the arrays the
    # evaluation caches: every temporary went with its call
    for problem, gammas in ((problem_of(4, 7, 5, False), (1.0,)), (problem_of(4, 3, 5, True), GAMMAS[:4])):
        problem._stack._population_risk, problem._stack._log_dataset_probs
        posterior = next(_gibbs_sweep((problem,), gammas))

        def cached_bytes():
            owners = (vars(problem._stack), vars(posterior._sweep))
            return sum(value.nbytes for owner in owners for value in owner.values()
                       if isinstance(value, np.ndarray))

        before = cached_bytes()
        tracemalloc.start()
        try:
            for name, read in FUNCTIONALS.items():
                read(posterior)
                current, _ = tracemalloc.get_traced_memory()
                # a few KiB of Python objects (reports, lists of floats);
                # a lib-wide table is 640 KiB
                assert 0 <= current - (cached_bytes() - before) < 16 * 2**10, (gammas, name)
        finally:
            tracemalloc.stop()


def test_threads_reading_one_evaluation_share_no_temporary():
    # four threads on two cores each ask one evaluation for a different
    # functional at once; numpy releases the interpreter lock inside its
    # loops, so kernels writing one workspace together would mix their
    # temporaries
    problem = problem_of(4, 7, 5, False)
    readers = {
        "renyi": lambda posterior: posterior.renyi(ALPHAS),
        "total_variation": lambda posterior: posterior.total_variation,
        "info": lambda posterior: (posterior.info.mutual, posterior.info.lautum),
        "reference_divergences": lambda posterior: posterior.reference_divergences,
    }
    expected = {}
    for name, read in readers.items():
        expected[name] = read(gibbs_posterior(problem, 10.0))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(6):
            posterior = gibbs_posterior(problem, 10.0)
            barrier = threading.Barrier(len(readers))
            got = {}

            def run(name, read):
                barrier.wait(timeout=60)
                got[name] = read(posterior)

            threads = [threading.Thread(target=run, args=item) for item in readers.items()]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert got == expected
    finally:
        sys.setswitchinterval(switch)


def test_every_table_is_hypothesis_major():
    # the one layout and the one lead: each cached sweep table is
    # C-contiguous (p, g, nw, m), (1, g, nw, m) for a lone problem's stack
    # of one, the risk table (p, 1, nw, m), and every member reads its
    # C-contiguous (nw, m) slices of them.  After the routes and the bounds
    # the sweep holds exactly two such tables, log_rows and row_array
    lone = ((problem_of(4, 7, 5, False), (1.0,)), (problem_of(4, 3, 5, True), GAMMAS[:4]))
    shape_stack = [problem_of(4, 3, 5, True, seed) for seed in (15, 16, 17)]
    cases = [((problem,), gammas) for problem, gammas in lone]
    cases.append((shape_stack, GAMMAS[:4]))
    for problems, gammas in cases:
        members = list(_gibbs_sweep(problems, gammas))
        sweep = members[0]._sweep
        stack = sweep.stack
        p, m, nw = stack.loss.shape[0], stack.num_samples_symbols**stack.n, stack.num_hypotheses
        assert p == len(problems)
        risk = stack._empirical_risk
        assert risk.shape == (p, 1, nw, m) and risk.flags.c_contiguous
        assert len(members) == p * len(gammas)
        for posterior in members:
            _bounds_rows(posterior, ALPHAS)
        shape = (p, len(gammas), nw, m)
        tables = {name for name, value in vars(sweep).items()
                  if isinstance(value, np.ndarray) and value.shape == shape}
        assert tables == {"log_rows", "row_array"}
        for name in tables:
            assert getattr(sweep, name).flags.c_contiguous, name
        for posterior in members:
            assert posterior._sweep is sweep
            for name in tables:
                view = getattr(posterior, name)
                assert view.shape == (nw, m) and view.flags.c_contiguous, name
                assert np.shares_memory(view, getattr(sweep, name)), name
    # gibbs_posterior is a sweep of the problem's stack of one at one gamma
    problem = lone[0][0]
    assert gibbs_posterior(problem, 1.0)._sweep.log_rows.shape == (1, 1, 5, 4**7)


# Frozen copies of the fixed-kernel expectations that concavity_probe read
# before it read its kernel through _Sweep.means, and the probe as it was
# written on them: the references the probe must match.


def frozen_risk_under_law(rows, empirical, probs):
    return float(((rows * empirical) * probs).sum(axis=-1).sum())


def frozen_gen_under_law(rows, empirical, probs):
    marginal = (rows * probs).sum(axis=-1)
    on_population = float((marginal * (empirical * probs).sum(axis=-1)).sum(axis=-1))
    return on_population - frozen_risk_under_law(rows, empirical, probs)


def frozen_concavity(components, problem, gamma):
    weights = ProbVec(np.array([w for w, _ in components], dtype=np.float64))
    indices = problem._stack._dataset_indices
    component_probs = [
        np.prod(model.marginal.weights[indices], axis=-1)
        if isinstance(model, IIDData)
        else model.weights
        for _, model in components
    ]
    mixture = np.zeros(problem.dataset_count)
    for w, probs in zip(weights.weights, component_probs):
        mixture += w * probs
    mixture_problem = dataclasses.replace(problem, data_model=JointData(mixture))
    rows = gibbs_posterior(mixture_problem, gamma).row_array
    empirical = mixture_problem._stack._empirical_risk[0, 0]
    gen_mixture = frozen_gen_under_law(rows, empirical, mixture_problem._stack._dataset_probs[0, 0])
    avg_gen = sum(
        float(w) * frozen_gen_under_law(rows, empirical, probs)
        for w, probs in zip(weights.weights, component_probs)
    )
    return gen_mixture, avg_gen


def assert_probe_matches_the_frozen_one(components, problem, gamma):
    expected = frozen_concavity(components, problem, gamma)
    got = concavity_probe(components, problem, gamma)
    assert bits(got).tolist() == bits(expected).tolist()


def test_concavity_probe_matches_the_frozen_expectations_on_the_default_mixtures():
    config = DEFAULTS["verify-identities"]
    for i in range(config["mixture_instances"]):
        rng = counter_rng(config["seed"], STREAMS["mixtures"].start + i)
        problem = random_problem(rng, iid=True)
        components = random_mixture_components(rng, problem)
        assert_probe_matches_the_frozen_one(components, problem, config["mixture_gamma"])


def test_concavity_probe_matches_the_frozen_expectations_on_mixed_and_zero_laws():
    problem = problem_of(3, 3, 4, True)
    rng = np.random.default_rng(20)
    joint = rng.random(27)
    iid = np.array([0.5, 0.0, 0.5])
    # one joint and one IID component, then an IID component whose tuple
    # law is zero on every dataset that holds symbol 1, and a joint one
    # with zeros of its own
    sparse = np.where(rng.random(27) < 0.3, 0.0, joint)
    cases = [
        [(0.3, JointData(joint / joint.sum())), (0.7, problem.data_model)],
        [(0.6, IIDData(ProbVec(iid))), (0.4, problem.data_model)],
        [(0.25, JointData(sparse / sparse.sum())), (0.75, IIDData(ProbVec(iid)))],
    ]
    for components in cases:
        for gamma in (0.5, 2.0, 50.0):
            assert_probe_matches_the_frozen_one(components, problem, gamma)


def test_concavity_probe_builds_one_kernel_whatever_its_components(monkeypatch):
    built = []
    build = gibbslab.gibbs._gibbs_log_rows

    def counted(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(gibbslab.gibbs, "_gibbs_log_rows", counted)
    problem = problem_of(3, 2, 4, True)
    marginal = problem.data_model.marginal
    for count in (1, 2, 5):
        built.clear()
        concavity_probe([(1.0 / count, IIDData(marginal))] * count, problem, 2.0)
        # one build, of the log rows and the rows
        assert [[table.shape for table in tables] for tables in built] == [[(1, 1, 4, 9)] * 2]


# evaluates lib-wide's joint problem at four gammas and prints the reprs
BLAS_CHILD = """
import numpy as np
from gibbslab import IIDData, JointData, LearningProblem, ProbVec, bounds_table, gen_characterizations

{problem_of}
problem = problem_of(4, 7, 5, False)
for gamma in (0.1, 1.0, 10.0, 100.0):
    print(repr(gen_characterizations(problem, gamma)))
    print(repr(bounds_table(problem, gamma)))
"""


def test_numbers_do_not_depend_on_the_blas_thread_count():
    code = BLAS_CHILD.format(problem_of=inspect.getsource(problem_of))
    package_root = os.path.dirname(os.path.dirname(gibbslab.gibbs.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0].count("GenReport(") == 4
    assert outputs[0] == outputs[1]
