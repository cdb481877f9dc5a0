"""The whole-table kernels against numpy's reductions and against frozen
copies of the formulas they replaced: every number bit for bit, on both
sides of CHAIN_MIN_ELEMENTS."""

import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import gibbslab.gibbs
import gibbslab.probability
from gibbslab import IIDData, JointData, LearningProblem, ProbVec, bounds_table, gen_characterizations
from gibbslab.gibbs import _gibbs_sweep, _log_population, gibbs_posterior
from gibbslab.probability import (
    BLOCK_ELEMENTS,
    CHAIN_MIN_ELEMENTS,
    _divergence_pair,
    _logsumexp,
    _reduce,
    _renyi_sums,
)

GAMMAS = (0.1, 1.0, 10.0, 100.0, 1e3, 1e6)
ALPHAS = (1.5, 2.0, 4.0)


# Frozen copies of the kernels as they were before the in-place temporaries
# and the chained short-axis reductions: the references the kernels must match.


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


def frozen_renyi_sums(log_p, log_q, alphas, p_off=0.0, q_off=0.0):
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
                u -= (1.0 - alpha) * q_off + alpha * p_off
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
    """Every functional of a stacked evaluation, by the frozen formulas."""
    risk = problem._empirical_risk
    probs = problem._dataset_probs
    logits = problem.prior.log_weights[:, None] - np.array(gammas)[:, None, None] * risk
    log_rows = (logits - frozen_logsumexp(logits, axis=1, keepdims=True)).transpose(0, 2, 1)
    rows = np.exp(log_rows)
    rows /= rows.sum(axis=2, keepdims=True)
    log_kernel = log_rows - frozen_logsumexp(log_rows, axis=2, keepdims=True)
    log_probs = problem._log_dataset_probs[None, :, None]
    log_marginal = frozen_logsumexp(log_probs + log_kernel, axis=1)

    def expected(log_reference):
        forward, reverse = frozen_divergence_pair(log_kernel, log_reference[:, None, :], axis=2)
        return [(float(probs @ f), float(probs @ r)) for f, r in zip(forward, reverse)]

    joint_table = np.ascontiguousarray(rows.transpose(0, 2, 1) * probs)
    product_table = joint_table.sum(axis=-1)[..., :, None] * joint_table.sum(axis=-2)[..., None, :]
    support = probs > 0.0
    joint = problem._log_dataset_probs[support, None] + np.compress(support, log_kernel, axis=1)
    product = problem._log_dataset_probs[support, None] + log_marginal[:, None, :]
    sums = frozen_renyi_sums(joint, product, ALPHAS) + frozen_renyi_sums(product, joint, ALPHAS)
    return {
        "log_rows": log_rows,
        "row_array": rows,
        "log_kernel": log_kernel,
        "log_marginal": log_marginal,
        "info": expected(log_marginal),
        "reference_divergences": expected(_log_population(problem, np.array(gammas)[:, None])),
        "total_variation": np.abs(joint_table - product_table).sum(axis=(1, 2)).tolist(),
        "renyi": [tuple(row) for row in sums.T.tolist()],
    }


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
# CLI-sized IID stack, below the gate
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
        sweep = next(_gibbs_sweep(problem, gammas))._sweep
        assert sweep.gammas == gammas
        assert (sweep.log_rows.size >= CHAIN_MIN_ELEMENTS) == (shape != "cli-stack")
        expected = frozen_evaluation(problem, gammas)
        for name, value in expected.items():
            got = sweep.renyi(ALPHAS) if name == "renyi" else getattr(sweep, name)
            if name == "info":
                got = [(report.mutual, report.lautum) for report in got]
            assert np.array_equal(bits(got), bits(value)), (shape, gammas, name)


def test_far_renyi_sums_match_with_and_without_buffers(monkeypatch):
    # laws far apart take the log-sum-exp path for every order
    far_calls = []

    def counting_logsumexp(*args, **kwargs):
        far_calls.append(args[0].shape)
        return _logsumexp(*args, **kwargs)

    monkeypatch.setattr(gibbslab.probability, "_logsumexp", counting_logsumexp)
    rng = np.random.default_rng(3)
    # two shapes are above CHAIN_MIN_ELEMENTS, the last is below it
    for shape in ((1, 16384, 5), (3, 2048, 5), (2, 64, 5)):
        log_p = np.log(rng.dirichlet(np.ones(math.prod(shape[1:])), size=shape[0])).reshape(shape)
        for log_q in (np.log(rng.dirichlet(np.ones(log_p[0].size), size=shape[0])).reshape(shape),
                      log_p + 1e-3 * rng.standard_normal(shape)):
            expected = frozen_renyi_sums(log_p, log_q, ALPHAS, 0.01, 0.02)
            got = _renyi_sums(log_p, log_q, ALPHAS, 0.01, 0.02)
            assert np.array_equal(bits(got), bits(expected)), shape
    # the far path ran on every shape, on both sides of the gate
    assert {shape[1:] for shape in far_calls} == {(16384, 5), (2048, 5), (64, 5)}


def test_divergence_pair_and_logsumexp_match_with_buffers():
    rng = np.random.default_rng(5)
    # the middle shape is below CHAIN_MIN_ELEMENTS, the others above it
    for shape in ((1, 16384, 5), (4, 64, 5), (2, 4096, 3)):
        log_p = rng.normal(scale=5.0, size=shape)
        log_q = rng.normal(scale=5.0, size=(shape[0], 1, shape[2]))
        expected = frozen_divergence_pair(log_p, log_q, axis=2)
        # the broadcast operand first and second
        for got in (_divergence_pair(log_p, log_q, axis=2),
                    _divergence_pair(log_q, log_p, axis=2)[::-1]):
            assert all(np.array_equal(bits(g), bits(e)) for g, e in zip(got, expected))
        # ties, -inf entries, an all -inf row and an infinite entry
        a = np.round(log_p)
        a[rng.random(shape) < 0.2] = -np.inf
        a[0, 1] = -np.inf
        a[0, 2, 0] = np.inf
        for axis in (1, 2, (1, 2)):
            expected = frozen_logsumexp(a, axis=axis, keepdims=True)
            got = _logsumexp(a, axis=axis, keepdims=True)
            assert np.array_equal(got, expected, equal_nan=True), (shape, axis)


class Recording:
    """A ufunc that records whether _reduce reduced or chained it."""

    def __init__(self, ufunc):
        self.ufunc = ufunc
        self.identity = ufunc.identity
        self.paths = set()

    def reduce(self, *args, **kwargs):
        self.paths.add("reduce")
        return self.ufunc.reduce(*args, **kwargs)

    def __call__(self, *args, **kwargs):
        self.paths.add("chain")
        return self.ufunc(*args, **kwargs)


@pytest.mark.parametrize("count", range(1, 10))
def test_short_axis_reduction_equals_numpy_bit_for_bit(count):
    rng = np.random.default_rng(count)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0])
    for rows in (CHAIN_MIN_ELEMENTS // count - 1, CHAIN_MIN_ELEMENTS // count + 1):
        rows = max(rows, 1)
        a = rng.normal(scale=10.0 ** rng.uniform(-8, 8, size=(rows, 1)), size=(rows, count))
        special = rng.random(a.shape) < 0.1
        a[special] = rng.choice(specials, size=int(special.sum()))
        a[0] = -np.inf  # an all -inf row
        a[1] = -0.0
        a[2] = np.round(a[2])  # ties
        tied = a == a.max(axis=1, keepdims=True)
        chained = a.size >= CHAIN_MIN_ELEMENTS and count < 8
        # the hypothesis axis of a (g, m, nw) table, and the contiguous
        # hypothesis axis 1 of a (g, nw, m) table's transpose
        for table, axis in ((a[None], 2), (a.T[None], 1)):
            with np.errstate(invalid="ignore"):
                for ufunc in (np.maximum, np.add):
                    recording = Recording(ufunc)
                    got = _reduce(recording, table, axis)
                    expected = ufunc.reduce(table, axis=axis, keepdims=True)
                    assert np.array_equal(bits(got), bits(expected)), (ufunc, axis)
                    assert ("reduce" in recording.paths) != chained
            counts = tied[None] if axis == 2 else tied.T[None]
            got = _reduce(np.add, counts, axis, dtype=np.float64)
            assert np.array_equal(got, counts.sum(axis=axis, keepdims=True, dtype=np.float64))


def test_joint_evaluation_peaks_below_the_earlier_kernels():
    # routes plus bounds on lib-wide's joint shape (|Z| = 4, n = 7, |W| = 5):
    # the kernels that allocated fresh temporaries peaked at 5.77 MiB
    problem = problem_of(4, 7, 5, False)
    for gamma in (0.1, 1.0, 100.0, 1e6):
        fresh = dataclasses.replace(problem)
        fresh._population_risk, fresh._log_dataset_probs
        gibbslab.gibbs._last_evaluation = None
        tracemalloc.start()
        try:
            gen_characterizations(fresh, gamma)
            bounds_table(fresh, gamma)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gibbslab.gibbs._last_evaluation = None
        assert peak <= 5.77 * 2**20, gamma


# every functional of a stack that has no IID route, as a reader
FUNCTIONALS = {
    "row_array": lambda posterior: posterior.row_array,
    "hypothesis_marginal": lambda posterior: posterior.hypothesis_marginal,
    "log_kernel": lambda posterior: posterior.log_kernel,
    "log_marginal": lambda posterior: posterior.log_marginal,
    "info": lambda posterior: posterior.info,
    "reference_divergences": lambda posterior: posterior.reference_divergences,
    "total_variation": lambda posterior: posterior.total_variation,
    "renyi": lambda posterior: posterior.renyi(ALPHAS),
}


def test_no_kernel_temporary_outlives_its_call():
    # after each functional of lib-wide's joint stack, and of a CLI-sized
    # stack below CHAIN_MIN_ELEMENTS, returns, the traced memory is that of
    # the arrays the evaluation caches: every temporary went with its call
    for problem, gammas in ((problem_of(4, 7, 5, False), (1.0,)), (problem_of(4, 3, 5, True), GAMMAS[:4])):
        problem._population_risk, problem._log_dataset_probs
        posterior = next(_gibbs_sweep(problem, gammas))

        def cached_bytes():
            owners = (vars(problem), vars(posterior._sweep))
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
        assert (posterior._sweep.log_rows.size >= CHAIN_MIN_ELEMENTS) == (len(gammas) == 1)


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
