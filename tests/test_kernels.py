"""The whole-table kernels on hypothesis-major (g, nw, m) tables: every
number, the concavity probe's too, bit for bit against frozen copies of
the formulas they replaced, the layout of every cached table, the memory
each call keeps, and numbers that do not depend on the BLAS thread
count."""

import dataclasses
import inspect
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
    IdentityMismatch,
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
from gibbslab.cli import DEFAULTS
from gibbslab.gibbs import CONCAVITY_SLACK, GenReport, _gibbs_sweep, _log_population, gibbs_posterior
from gibbslab.probability import BLOCK_ELEMENTS, _divergence_pair, _logsumexp, _renyi_sums

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
    """Every functional of a stacked evaluation, by the frozen formulas, on
    (g, nw, m) tables: hypothesis sums over axis 1, dataset sums over the
    last axis."""
    risk = problem._stack._empirical_risk[0, 0]
    probs = problem._stack._dataset_probs[0, 0]
    logits = problem.prior.log_weights[:, None] - np.array(gammas)[:, None, None] * risk
    log_rows = logits - frozen_logsumexp(logits, axis=1, keepdims=True)
    rows = np.exp(log_rows)
    rows /= rows.sum(axis=1, keepdims=True)
    log_kernel = log_rows - frozen_logsumexp(log_rows, axis=1, keepdims=True)
    log_joint = problem._stack._log_dataset_probs[0, 0] + log_kernel
    log_marginal = frozen_logsumexp(log_joint, axis=2)

    def expected(log_reference):
        forward, reverse = frozen_divergence_pair(log_kernel, log_reference[:, :, None], axis=1)
        return list(zip((forward * probs).sum(axis=1).tolist(), (reverse * probs).sum(axis=1).tolist()))

    joint_table = rows * probs
    product_table = joint_table.sum(axis=-1)[..., :, None] * joint_table.sum(axis=-2)[..., None, :]
    support = probs > 0.0
    joint = np.compress(support, log_joint, axis=2)
    product = problem._stack._log_dataset_probs[0, 0][support] + log_marginal[:, :, None]
    sums = frozen_renyi_sums(joint, product, ALPHAS) + frozen_renyi_sums(product, joint, ALPHAS)
    return {
        "log_rows": log_rows,
        "row_array": rows,
        "hypothesis_marginal": joint_table.sum(axis=2),
        "log_kernel": log_kernel,
        "log_joint": log_joint,
        "log_marginal": log_marginal,
        "info": expected(log_marginal),
        "reference_divergences": expected(_log_population(problem._stack, np.array(gammas)[:, None])[0]),
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
        sweep = next(_gibbs_sweep(problem._stack, gammas))._sweep
        assert sweep.gammas == gammas
        expected = frozen_evaluation(problem, gammas)
        for name, value in expected.items():
            got = sweep.renyi(ALPHAS) if name == "renyi" else getattr(sweep, name)
            if isinstance(got, np.ndarray):
                # the problem's stack of one
                got = got[0]
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
    # lib-wide's joint table, a stack of three and a CLI-sized stack
    for shape in ((1, 5, 16384), (3, 5, 2048), (2, 5, 64)):
        log_p = np.log(rng.dirichlet(np.ones(math.prod(shape[1:])), size=shape[0])).reshape(shape)
        for log_q in (np.log(rng.dirichlet(np.ones(log_p[0].size), size=shape[0])).reshape(shape),
                      log_p + 1e-3 * rng.standard_normal(shape)):
            expected = frozen_renyi_sums(log_p, log_q, ALPHAS, 0.01, 0.02)
            got = _renyi_sums(log_p, log_q, ALPHAS, 0.01, 0.02)
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
    # the kernels that allocated fresh temporaries peaked at 5.77 MiB
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
        assert peak <= 5.77 * 2**20, gamma


def test_joint_evaluation_holds_the_joint_law_once():
    # a lone joint evaluation on lib-wide's shape (|Z| = 4, n = 7, |W| = 5)
    # at gamma 1, with the posterior alive: the problem's 128 KiB law is
    # the stack's dataset law, not a copy.  Evaluations that copied it
    # kept 4,357 KiB (one copy) and 4,488 KiB (two copies)
    problem = problem_of(4, 7, 5, False)
    tracemalloc.start()
    try:
        posterior = gibbs_posterior(problem, 1.0)
        GenReport.from_posterior(posterior)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.shares_memory(posterior._sweep.stack._dataset_probs, problem.data_model.weights)
    assert retained <= 4357 * 2**10


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
    # stack, returns, the traced memory is that of the arrays the
    # evaluation caches: every temporary went with its call
    for problem, gammas in ((problem_of(4, 7, 5, False), (1.0,)), (problem_of(4, 3, 5, True), GAMMAS[:4])):
        problem._stack._population_risk, problem._stack._log_dataset_probs
        posterior = next(_gibbs_sweep(problem._stack, gammas))

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
    # of one, the risk table (p, 1, nw, m), and every member reads (m, nw)
    # views of them
    lone = ((problem_of(4, 7, 5, False), (1.0,)), (problem_of(4, 3, 5, True), GAMMAS[:4]))
    shape_stack = [problem_of(4, 3, 5, True, seed) for seed in (15, 16, 17)]
    cases = [(problem._stack, gammas) for problem, gammas in lone]
    cases.append((gibbslab.gibbs._Stack(shape_stack), GAMMAS[:4]))
    for stack, gammas in cases:
        p, m, nw = len(stack.problems), stack.num_samples_symbols**stack.n, stack.num_hypotheses
        risk = stack._empirical_risk
        assert risk.shape == (p, 1, nw, m) and risk.flags.c_contiguous
        members = list(_gibbs_sweep(stack, gammas))
        assert len(members) == p * len(gammas)
        sweep = members[0]._sweep
        for name in ("log_rows", "row_array", "log_kernel", "log_joint"):
            table = getattr(sweep, name)
            assert table.shape == (p, len(gammas), nw, m) and table.flags.c_contiguous, name
        for posterior in members:
            assert posterior._sweep is sweep
            for name in ("log_rows", "row_array", "log_kernel"):
                view = getattr(posterior, name)
                assert view.shape == (m, nw) and view.flags.f_contiguous, name
                assert np.shares_memory(view, getattr(sweep, name)), name
    # gibbs_posterior is a sweep of the problem's stack of one at one gamma
    problem = lone[0][0]
    assert gibbs_posterior(problem, 1.0)._sweep.log_rows.shape == (1, 1, 5, 4**7)


# Frozen copies of the fixed-kernel expectations that concavity_probe read
# before it read its kernel through _Kernels.means, and the probe as it was
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
    rows = gibbs_posterior(mixture_problem, gamma).row_array.T
    empirical = mixture_problem._stack._empirical_risk[0, 0]
    gen_mixture = frozen_gen_under_law(rows, empirical, mixture_problem._stack._dataset_probs[0, 0])
    avg_gen = sum(
        float(w) * frozen_gen_under_law(rows, empirical, probs)
        for w, probs in zip(weights.weights, component_probs)
    )
    return gen_mixture, avg_gen


def assert_probe_matches_the_frozen_one(components, problem, gamma):
    expected = frozen_concavity(components, problem, gamma)
    try:
        got = concavity_probe(components, problem, gamma)
    except IdentityMismatch:
        assert expected[0] < expected[1] - CONCAVITY_SLACK
    else:
        assert bits(got).tolist() == bits(expected).tolist()


def test_concavity_probe_matches_the_frozen_expectations_on_the_default_mixtures():
    config = DEFAULTS["verify-identities"]
    for i in range(config["mixture_instances"]):
        rng = instance_rng(config["seed"], 30_000 + i)
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
    log_rows = gibbslab.gibbs._gibbs_log_rows

    def counted(*args):
        built.append(log_rows(*args))
        return built[-1]

    monkeypatch.setattr(gibbslab.gibbs, "_gibbs_log_rows", counted)
    problem = problem_of(3, 2, 4, True)
    marginal = problem.data_model.marginal
    for count in (1, 2, 5):
        built.clear()
        concavity_probe([(1.0 / count, IIDData(marginal))] * count, problem, 2.0)
        assert [table.shape for table in built] == [(1, 1, 4, 9)]


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
