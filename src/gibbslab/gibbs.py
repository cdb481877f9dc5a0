"""Exact Gibbs learning on enumerable problems.

A learning problem here is fully tabulated: finite sample alphabet, finite
hypothesis set, a loss table, a prior, and a data law for n-sample training
tuples (IID product or an arbitrary joint law).  Because every dataset can
be enumerated, the Gibbs posterior and all of its information functionals
are computed exactly, which turns the theory's identities into machine
checkable statements:

  * gen_error_direct evaluates the definition, the expected gap between
    population and empirical risk under the joint law of (W, S);
  * gen_characterizations re-derives the same number four more ways: from
    the symmetrized KL information of (W, S), from the expected symmetrized
    KL divergence to the population-risk Gibbs law, from the conditional
    information between W and supersample selectors (IID only), and from
    the replace-one-sample divergence sum (IID only).

All five agree to 1e-9 relative on any valid instance; GenReport enforces
this at construction.  Datasets are ordered tuples enumerated in
lexicographic order; only the supersample sweep collapses its states, to
one representative per orbit of pair swaps and pair permutations (see
_Stack._supersample_geometry).  One cap, ELEMENT_CAP, bounds every
enumerated array: _check_elements counts the largest array of a problem
before its first table, and each IID route's own count before that route
allocates.

One evaluation of a (problem, gamma) pair is what every route and bound
reads: the routes through GenReport.from_posterior (which also carries
the numbers behind RatioConstants.from_report and InfoDivergenceReport),
the bounds through bounds._bounds_rows.  There is one evaluation path:
_gibbs_sweep evaluates a _Stack of p problems of one shape (data model
kind, |Z|, n and |W|) at g gammas as one (p, g, nw, m) log-row table, and
a problem on its own is a stack of one, which it caches
(LearningProblem._stack), so every enumerated table leads with (p, 1) and
every sweep table with (p, g), and a problem read at several gammas builds
its tables once.  Each functional is computed for every member the first
time any member asks, in the same operations, reductions and order
whatever p and g, so each member's numbers are bit for bit those of a
stack of one at one gamma.  _shape_sweep reads instances in windows of at
most BLOCK_ELEMENTS table elements and evaluates the problems of a window
that share a shape as one stack; the shape-only data (the index matrix,
the supersample orbits and replace-one's ids) is built once per stack.
Every table is hypothesis-major and C-contiguous, (..., nw, m) with the
datasets last, and every sum is numpy's own reduction: over the
contiguous dataset axis it is pairwise, over hypotheses it adds rows in
order, and no sum goes through BLAS, so no number depends on its kernel
or thread count.  The gammas go in chunks whose table holds at most
max(m * nw, BLOCK_ELEMENTS) elements (probability.BLOCK_ELEMENTS), and
the supersample and replace-one sweeps work in blocks of the same
budget, stacking only as many members as fit, so however many gammas
there are, peak memory stays near that of one evaluation or one block,
whichever is larger, plus replace-one's (|Z|, m) divergence tables of
the members in its block.
The kernels of probability own their temporaries, each call taking what
it needs and freeing it on return, so an evaluation holds only the
arrays it caches and threads reading one share no temporary.
The two IID-only routes are read through a posterior alone
(supersample_info, replace_one), and both run the same size checks
before they allocate anything.  The verify-identities and bounds-table
subcommands read their sweeps through _shape_sweep, and
empirical_risk_curve through _gibbs_sweep.  gibbs_posterior is the sweep
of one gamma.  gen_characterizations and bounds.bounds_table, the library's
per-pair entry points, share one module-level slot (_evaluation) that
holds the evaluation either read last, so a caller that asks for the
routes and then the bounds of a pair pays for one build, and at most one
evaluation outlives its callers.  Every array an evaluation caches is
read-only, so no caller can alter a shared one.
One method, _Kernels.means, forms every mean of a (..., nw, m) table under
the product of the marginals P_W x P_S and under the joint law P_{W,S}:
gen is the gap of the empirical risk's two means (_Kernels.risks),
regularized_gen reads gen, the regularizer gap and the covariance trace
as such gaps under the Gibbs kernel of its penalized energy, and
concavity_probe reads one kernel under a stack of the mixture and
component laws.
Its information functionals never leave the log domain, so the identity
holds in the large-gamma (ERM) regime too, where linear-domain rows
underflow; the tests check it at gamma up to 1e6.
Log-sum-exp is the private numpy kernel probability._logsumexp, which
reproduces scipy's logsumexp results bit for bit without its per-call
dispatch cost.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import probability
from .errors import (
    EnumerationTooLarge,
    EpsilonOutOfRange,
    GammaNonPositive,
    IdentityMismatch,
    InvalidInput,
    NotIID,
)
from .probability import (
    InfoReport,
    JointTable,
    ProbVec,
    ZERO_CUTOFF,
    _divergence_pair,
    _labels,
    _logsumexp,
    _per_block,
    _product_of_marginals,
    _renyi_sums,
    _require_order,
    _total_variation,
    info_triple,
)

# the most elements any one enumerated array may hold: an evaluation peaks
# at 85 to 105 bytes per element of its largest count (tracemalloc), so
# 0.65 to 0.85 GB at the cap, and the 6,223,360 supersample states of
# |Z| = 4, n = 8 fit
ELEMENT_CAP = 8 * 10**6
REL_TOL = 1e-9
ABS_TOL = 1e-12
COMPARE_TOL = 1e-10
# how far concavity_probe lets the mixture error fall below the average
CONCAVITY_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class IIDData:
    """Training samples drawn independently from a single marginal law."""

    marginal: ProbVec


@dataclass(frozen=True, eq=False)
class JointData:
    """An arbitrary joint law over ordered n-sample tuples.

    weights[k] is the probability of the k-th dataset in lexicographic
    order over the sample alphabet; length must equal |Z|**n.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        vec = ProbVec(self.weights)
        object.__setattr__(self, "weights", vec.weights)


DataModel = IIDData | JointData


@dataclass(frozen=True, eq=False)
class LearningProblem:
    """A finite supervised learning problem with an explicit data law.

    loss[w, z] is the nonnegative loss of hypothesis w on sample z; the
    prior must be strictly positive so every Gibbs posterior shares the
    prior's support.  Its enumerated tables belong to its stack of one
    (_stack), so they are built once however many gammas it is read at.
    """

    sample_alphabet: tuple | range
    hypothesis_set: tuple | range
    loss: np.ndarray
    prior: ProbVec
    data_model: DataModel
    n: int

    def __post_init__(self) -> None:
        samples = _labels(self.sample_alphabet)
        hypotheses = _labels(self.hypothesis_set)
        loss = np.asarray(self.loss, dtype=np.float64)
        if loss.shape != (len(hypotheses), len(samples)):
            raise InvalidInput(
                f"loss table shape {loss.shape} does not match "
                f"({len(hypotheses)} hypotheses, {len(samples)} samples)"
            )
        if not np.all(np.isfinite(loss)) or np.any(loss < 0.0):
            raise InvalidInput("loss entries must be finite and nonnegative")
        if len(self.prior) != len(hypotheses):
            raise InvalidInput("prior length does not match hypothesis set")
        if float(self.prior.weights.min()) < ZERO_CUTOFF:
            raise InvalidInput("prior must be strictly positive on every hypothesis")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise InvalidInput(f"n must be a positive integer, got {self.n!r}")
        if isinstance(self.data_model, IIDData):
            if len(self.data_model.marginal) != len(samples):
                raise InvalidInput("IID marginal length does not match sample alphabet")
        elif isinstance(self.data_model, JointData):
            size = self.data_model.weights.size
            # a power above the size is never formed: with two or more
            # symbols, an n of size.bit_length() or more already exceeds it
            if len(samples) ** min(self.n, size.bit_length()) != size:
                raise InvalidInput(
                    f"joint law has {size} entries, expected |Z|**n = {len(samples)}**{self.n}"
                )
        else:
            raise InvalidInput(f"unknown data model {type(self.data_model).__name__}")
        loss = loss.copy()
        loss.flags.writeable = False
        object.__setattr__(self, "sample_alphabet", samples)
        object.__setattr__(self, "hypothesis_set", hypotheses)
        object.__setattr__(self, "loss", loss)

    @property
    def num_samples_symbols(self) -> int:
        return len(self.sample_alphabet)

    @property
    def num_hypotheses(self) -> int:
        return len(self.hypothesis_set)

    @property
    def dataset_count(self) -> int:
        return len(self.sample_alphabet) ** self.n

    def is_iid(self) -> bool:
        return isinstance(self.data_model, IIDData)

    @cached_property
    def _stack(self) -> _Stack:
        return _Stack((self,))


class _Stack:
    """Problems of one shape (data model kind, |Z|, n and |W|) evaluated as
    one; a problem evaluated on its own is a stack of one.  The stack owns
    the enumerated arrays, each built on first use and cached read-only
    with a (p, 1) lead, so that they broadcast against its (p, g, ...)
    sweep tables.  They read three stacked inputs, the loss tables (loss),
    the priors' log weights (_log_prior) and the data models' weights
    (_law_weights), which a stack of one views instead of copying, and the
    index matrix (_dataset_indices), which like the supersample orbits
    depends on the shape alone and is built once for all the problems.  A
    stack of two or more needs every dataset law positive on every
    dataset for its Renyi sums, which compress the support of a stack of
    one only (see _Sweep.renyi).

    The stack refers to its problems weakly: a problem caches its stack of
    one, and a reference back would make a cycle that only the garbage
    collector frees, keeping a dropped problem's tables until it runs.
    Whoever draws posteriors from a stack keeps its problems alive."""

    def __init__(self, problems: Sequence[LearningProblem]) -> None:
        first = problems[0]
        self.n = first.n
        self.num_samples_symbols = first.num_samples_symbols
        self.num_hypotheses = first.num_hypotheses
        self._iid = first.is_iid()
        self._problems = tuple(map(weakref.ref, problems))
        self.loss = _stacked([problem.loss for problem in problems])
        self._log_prior = _stacked([problem.prior.log_weights for problem in problems])
        models = (problem.data_model for problem in problems)
        weights = [model.marginal.weights if self._iid else model.weights for model in models]
        self._law_weights = _stacked(weights)

    @property
    def problems(self) -> tuple[LearningProblem, ...]:
        return tuple(ref() for ref in self._problems)

    def is_iid(self) -> bool:
        return self._iid

    @cached_property
    def _dataset_indices(self) -> np.ndarray:
        """(m, n) sample indices of every dataset, lexicographic order.
        Every enumerated table starts here, so the size check runs here
        first, on m * max(n, nw) elements: the largest of this matrix, the
        dataset law, the risk table, every (nw, m) evaluation array and the
        (nw, |Z|) loss table (|Z| <= m), per problem."""
        _check_elements(
            "dataset enumeration",
            max(self.n, self.num_hypotheses),
            self.num_samples_symbols,
            self.n,
        )
        return _index_matrix(self.num_samples_symbols, self.n)

    @cached_property
    def _dataset_probs(self) -> np.ndarray:
        """The law of every dataset: the product of an IID marginal over each
        tuple, or a joint law's own weights, not copied."""
        if not self._iid:
            return self._law_weights
        probs = np.prod(self._law_weights[..., self._dataset_indices], axis=-1)
        probs.flags.writeable = False
        return probs

    @cached_property
    def _log_dataset_probs(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            log_probs = np.log(self._dataset_probs)
        log_probs.flags.writeable = False
        return log_probs

    @cached_property
    def _empirical_risk(self) -> np.ndarray:
        """(p, 1, num_hypotheses, m) empirical risk of every (w, dataset)
        pair, C-contiguous like every evaluation table, from (p, 1, nw, b, n)
        loss gathers of b datasets within BLOCK_ELEMENTS; each mean runs
        over one pair's n losses, so no bit depends on the blocks."""
        cols = self._dataset_indices
        loss = self.loss
        risk = np.empty(loss.shape[:-1] + cols.shape[:1])
        block = _per_block(math.prod(loss.shape[:-1]) * self.n)
        for start in range(0, cols.shape[0], block):
            risk[..., start : start + block] = loss[..., cols[start : start + block]].mean(axis=-1)
        risk.flags.writeable = False
        return risk

    @cached_property
    def _population_risk(self) -> np.ndarray:
        risk = _expect(self._empirical_risk, self._dataset_probs[..., None, :])
        risk.flags.writeable = False
        return risk

    @cached_property
    def _supersample_geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """The gamma-independent part of the supersample sweep, one entry
        per orbit of supersamples (see _supersample_orbits): each problem's
        (p, 1, orbits) total probability of the orbit, and the (orbits,
        2**n) ids of the dataset each selector string picks from the orbit's
        representative.  IID models only; callers check the enumeration
        size first."""
        first, second, orbit_size, dataset_ids = _supersample_orbits(
            self.num_samples_symbols, self.n
        )
        weights = self._law_weights
        super_probs = np.prod(weights[..., first] * weights[..., second], axis=-1) * orbit_size
        super_probs.flags.writeable = False
        return super_probs, dataset_ids


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """Same-shape read-only arrays stacked with a (p, 1) lead; a single
    array is viewed, not copied."""
    values = np.stack(arrays)[:, None] if len(arrays) > 1 else arrays[0][None, None]
    values.flags.writeable = False
    return values


def _supersample_orbits(nz: int, n: int) -> tuple[np.ndarray, ...]:
    """The shape-only part of the supersample sweep over |Z| = nz symbols
    and n pairs, one row per orbit of supersamples: the (orbits, n) first
    and second symbols of the representative's pairs, the orbit's size and
    the (orbits, 2**n) ids of the dataset each selector string picks.

    The term I(W; U | supersample) is constant on an orbit of two
    symmetries.  Swapping the two elements of a pair only relabels that
    selector bit, and permuting the pairs permutes the datasets, which
    an IID posterior cannot see because the empirical risk is a mean.
    The representative is a sorted multiset of n unordered pairs
    (a <= b); its orbit holds n! / prod_k m_k! * 2**d ordered tuples of
    equal probability, m_k being how often pair type k appears and d
    the number of pairs with a != b."""
    pair_first, pair_second = np.triu_indices(nz)
    orbits = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(pair_first.size), n)
        ),
        dtype=np.intp,
    ).reshape(-1, n)
    first = pair_first[orbits]
    second = pair_second[orbits]
    # rows are sorted, so column j repeats the type of column j - 1 when
    # a run continues; the running run lengths multiply to prod_k m_k!
    run = np.ones(orbits.shape, dtype=np.float64)
    for j in range(1, n):
        run[:, j] = np.where(orbits[:, j] == orbits[:, j - 1], run[:, j - 1] + 1.0, 1.0)
    orbit_size = math.factorial(n) / run.prod(axis=1) * 2.0 ** (first != second).sum(axis=1)
    powers = nz ** np.arange(n - 1, -1, -1)
    selectors = _index_matrix(2, n)
    # dataset ids stay below ELEMENT_CAP, so int32 holds them
    dataset_ids = np.empty((orbits.shape[0], selectors.shape[0]), dtype=np.int32)
    for k, bits in enumerate(selectors):
        chosen = np.where(bits[None, :] == 1, second, first)
        dataset_ids[:, k] = chosen @ powers
    dataset_ids.flags.writeable = False
    return first, second, orbit_size, dataset_ids


def _index_matrix(base: int, length: int) -> np.ndarray:
    """All base**length tuples of indices, lexicographic, one per row."""
    count = base**length
    idx = np.arange(count)
    powers = base ** np.arange(length - 1, -1, -1)
    cols = (idx[:, None] // powers[None, :]) % base
    cols.flags.writeable = False
    return cols


def _check_elements(what: str, factor: int, base: int = 1, exponent: int = 0) -> None:
    """Refuse an array of factor * base**exponent elements above
    ELEMENT_CAP, before anything is allocated, without forming a power
    above the cap: with a base of 2 or more an exponent of
    ELEMENT_CAP.bit_length() (23) or more already exceeds it, so the
    exponent is clipped there first, and EnumerationTooLarge.required then
    carries that lower bound instead of the count."""
    required = factor * base ** min(exponent, ELEMENT_CAP.bit_length())
    if required > ELEMENT_CAP:
        raise EnumerationTooLarge(
            f"{what} needs more elements than the cap of {ELEMENT_CAP}",
            required=required,
            cap=ELEMENT_CAP,
        )


@dataclass(frozen=True, eq=False)
class _Kernels:
    """Kernels from datasets to hypotheses, one per (problem, gamma) of a
    _Stack of p problems at g gammas, given by C-contiguous (p, g,
    num_hypotheses, m) log rows, and the functionals that need nothing
    else, each computed for every kernel on first use and cached
    read-only.  The stack's arrays lead with (p, 1) and so broadcast
    against the tables without being copied; a problem on its own is a
    stack of one, (1, g, ...), and one kernel read under the p dataset
    laws of a stack is a (1, 1, ...) table.

    Elementwise steps run on the whole table; sums over hypotheses run over
    axis -2 and sums over datasets over the last axis, so each row reduces
    on its own and each kernel's numbers are bit for bit those of a stack
    of one at one gamma.  A functional that gives one value per kernel
    lists them in member order, problem by problem and gamma by gamma."""

    stack: _Stack
    log_rows: np.ndarray

    @cached_property
    def row_array(self) -> np.ndarray:
        """Posterior rows, renormalized in the linear domain so each row
        sums to 1 at machine precision."""
        rows = np.exp(self.log_rows)
        rows /= rows.sum(axis=-2, keepdims=True)
        rows.flags.writeable = False
        return rows

    @cached_property
    def hypothesis_marginal(self) -> np.ndarray:
        """The induced marginal over hypotheses under the data law."""
        marg = _expect(self.row_array, self.stack._dataset_probs[..., None, :])
        marg.flags.writeable = False
        return marg

    @cached_property
    def log_kernel(self) -> np.ndarray:
        """log_rows normalized again, for the information functionals: the
        first log-sum-exp leaves each row's total off by rounding that grows
        with gamma times the risk; a second pass near zero removes it."""
        log_kernel = self.log_rows - _logsumexp(self.log_rows, axis=-2, keepdims=True)
        log_kernel.flags.writeable = False
        return log_kernel

    @cached_property
    def log_joint(self) -> np.ndarray:
        """The joint law of (S, W) in the log domain, (p, g, num_hypotheses, m)."""
        log_joint = self.stack._log_dataset_probs[..., None, :] + self.log_kernel
        log_joint.flags.writeable = False
        return log_joint

    @cached_property
    def log_marginal(self) -> np.ndarray:
        """The hypothesis marginal in the log domain."""
        log_marg = _logsumexp(self.log_joint, axis=-1)
        log_marg.flags.writeable = False
        return log_marg

    def _expected_divergences(self, log_reference: np.ndarray) -> list[tuple[float, float]]:
        """Per kernel, (E D(row || reference), E D(reference || row)) over
        datasets, for one (p, g, num_hypotheses) reference per kernel."""
        probs = self.stack._dataset_probs
        forward, reverse = _divergence_pair(self.log_kernel, log_reference[..., None], axis=-2)
        forward, reverse = _expect(forward, probs), _expect(reverse, probs)
        return list(zip(forward.ravel().tolist(), reverse.ravel().tolist()))

    @cached_property
    def info(self) -> tuple[InfoReport, ...]:
        """Mutual, lautum and symmetrized information of (W, S)."""
        return tuple(
            InfoReport(mutual=mutual, lautum=lautum, symmetrized=mutual + lautum)
            for mutual, lautum in self._expected_divergences(self.log_marginal)
        )

    def means(self, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per kernel, the mean of a (..., num_hypotheses, m) table f(w, s)
        under the product of the hypothesis marginal and the data law, and
        under the joint law of (W, S), each with the kernels' lead.  The
        product mean less the joint mean is the gap that gen (f the
        empirical risk) and the regularizer gap (f = R) are."""
        probs = self.stack._dataset_probs[..., None, :]
        terms = np.multiply(self.row_array, table)
        terms *= probs
        joint = terms.sum(axis=-1).sum(axis=-1)
        # the table's mean under the data law, in the same memory, so a call
        # holds one table-sized temporary at a time
        data_mean = np.multiply(table, probs, out=terms).sum(axis=-1)
        return _expect(self.hypothesis_marginal, data_mean), joint

    @cached_property
    def risks(self) -> list[tuple[float, float]]:
        """(population, empirical): the mean empirical risk under the product
        law, which is the expected population risk of the hypothesis
        marginal, and under the joint law of (W, S)."""
        population, empirical = self.means(self.stack._empirical_risk)
        return list(zip(population.ravel().tolist(), empirical.ravel().tolist()))


@dataclass(frozen=True, eq=False)
class _Sweep(_Kernels):
    """The Gibbs posteriors of each problem of a _Stack at several gammas,
    stacked: the remaining functionals the routes and bounds read, each
    computed for every member at once on first use.  Its members are
    GibbsPosterior objects, one per (problem, gamma), each reading its own
    slice."""

    gammas: tuple[float, ...]

    @cached_property
    def reference_divergences(self) -> list[tuple[float, float]]:
        """(d_fwd, d_rev): the expected divergences from the posterior rows
        to the population-risk Gibbs law and back."""
        gammas = np.array(self.gammas)[:, None]
        return self._expected_divergences(_log_population(self.stack, gammas))

    @cached_property
    def total_variation(self) -> list[float]:
        """Unnormalized total variation between the joint law of (W, S) and
        the product of its marginals."""
        joint = np.multiply(self.row_array, self.stack._dataset_probs[..., None, :])
        tv = _total_variation(joint, _product_of_marginals(joint), axis=(-2, -1))
        return tv.ravel().tolist()

    def renyi(self, alphas: tuple[float, ...]) -> list[tuple[float, ...]]:
        """Per member, the sum of the two directed Renyi divergences of
        each order in alphas between the joint law of (W, S) and the
        product of its marginals.  The values of the last alphas asked are
        kept."""
        last = self.__dict__.get("_renyi")
        if last is None or last[0] != alphas:
            stack = self.stack
            log_probs = stack._log_dataset_probs
            joint = self.log_joint
            support = stack._dataset_probs[0, 0] > 0.0
            if not support.all():
                # a stack of one: a larger stack's laws are positive everywhere
                log_probs = log_probs[..., support]
                joint = np.compress(support, joint, axis=-1)
            product = log_probs[..., None, :] + self.log_marginal[..., None]
            # one (nw, m') pair of laws per member
            joint = joint.reshape((-1,) + joint.shape[-2:])
            product = product.reshape(joint.shape)
            # the reverse call's log ratio is the exact negation of the
            # forward one's
            sums = _renyi_sums(joint, product, alphas)
            sums += _renyi_sums(product, joint, alphas)
            last = self.__dict__["_renyi"] = (alphas, [tuple(row) for row in sums.T.tolist()])
        return last[1]

    @cached_property
    def supersample_info(self) -> list[InfoReport]:
        """Per member, the conditional mutual, lautum and symmetrized
        information between W and the selector string U given a supersample
        of n sample pairs.  IID data models only.

        The supersample holds 2n IID draws arranged as n pairs; U picks one
        element of each pair to form the training tuple, uniformly and
        independently.  The expectation over supersamples runs over orbits
        rather than ordered tuples: swapping a pair's elements relabels one
        selector bit, and permuting the pairs permutes every selected
        dataset, which leaves an IID posterior unchanged, so I(W; U |
        supersample) is constant on each orbit.  One sorted multiset of n
        unordered pairs stands for its orbit, weighted by n! / prod_k m_k!
        * 2**d times its own probability (m_k counts pair type k, d the
        pairs of two distinct symbols).  _require_iid_routes counts the
        states visited before anything is allocated."""
        _require_iid_routes(self.stack)
        return _supersample_infos(self.stack, self.log_kernel)

    @cached_property
    def replace_one(self) -> np.ndarray:
        """(p, g, 2, n): per member, the forward and the reverse replace-one
        divergences.  For each coordinate i, averaged over (S, Z) with Z an
        independent fresh sample: forward[i] = E[D(posterior(S) ||
        posterior(S with slot i = Z))], and reverse[i] the opposite
        direction.  IID data models only.

        Both IID routes run the same checks first, so a problem either
        refuses allocates neither route, whichever is read first."""
        _require_iid_routes(self.stack)
        both = _replace_one_stack(self.stack, self.log_kernel)
        both.flags.writeable = False
        return both


class _Slice:
    """A GibbsPosterior attribute: the member's slice of the sweep's value
    of the same name, a list or an array whose (p, g) lead is read as one
    member axis; transposed when dataset_major: a (num_hypotheses, m)
    table is then read as its (m, num_hypotheses) view."""

    def __init__(self, dataset_major: bool = False) -> None:
        self.dataset_major = dataset_major

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, member, owner=None):
        if member is None:
            return self
        value = getattr(member._sweep, self.name)
        if isinstance(value, np.ndarray):
            value = value.reshape((-1,) + value.shape[2:])
        value = value[member._index]
        return value.T if self.dataset_major else value


class GibbsPosterior:
    """The Gibbs conditional law prior(w) * exp(-gamma * risk(w, s)) / V(s),
    tabulated per enumerated dataset and held in the log domain; build it
    with gibbs_posterior.  It is one member of a stacked sweep over the
    gammas of the problems of a _Stack, a problem on its own being a stack
    of one (see _gibbs_sweep): each functional below is the member's slice
    of the sweep's, which the sweep computes for all its members the first
    time any of them asks.  Every array is read-only.  log_rows, row_array
    and log_kernel are (m, num_hypotheses), one row per dataset: views of
    the sweep's (p, g, num_hypotheses, m) tables."""

    def __init__(self, sweep: _Sweep, index: int) -> None:
        self._sweep = sweep
        self._index = index
        gammas = len(sweep.gammas)
        self._problem = sweep.stack.problems[index // gammas]
        self._gamma = sweep.gammas[index % gammas]

    @property
    def problem(self) -> LearningProblem:
        return self._problem

    @property
    def gamma(self) -> float:
        return self._gamma

    log_rows = _Slice(dataset_major=True)
    row_array = _Slice(dataset_major=True)
    hypothesis_marginal = _Slice()
    log_kernel = _Slice(dataset_major=True)
    log_marginal = _Slice()
    info = _Slice()
    reference_divergences = _Slice()
    risks = _Slice()
    total_variation = _Slice()
    supersample_info = _Slice()
    replace_one = _Slice()

    def renyi(self, alphas: Sequence[float]) -> tuple[float, ...]:
        """The sum of the two directed Renyi divergences of each order in
        alphas between the joint law of (W, S) and the product of its
        marginals.  Raises AlphaOutOfRange, as renyi_divergence does, for
        an order that is not a finite real, positive and != 1."""
        alphas = tuple(alphas)
        for alpha in alphas:
            _require_order(alpha)
        return self._sweep.renyi(alphas)[self._index]


def _gibbs_sweep(stack: _Stack, gammas: Sequence[float]) -> Iterator[GibbsPosterior]:
    """The Gibbs posteriors of each problem of stack at each of gammas, as
    stacked evaluations: the gammas go in chunks whose (p, g, nw, m)
    log-row table holds at most max(p * m * nw, BLOCK_ELEMENTS) elements,
    and each functional is computed for a whole chunk at once.  The
    posteriors come problem by problem within each chunk, each problem's
    gammas in order; a problem on its own is its stack of one, and
    _shape_sweep builds only stacks that fit in one chunk.  The stacked
    blocks of the supersample and replace-one sweeps keep within the same
    budget, so whatever the number of gammas, peak memory stays at that of
    one evaluation or one block, whichever is larger.  A chunk is built
    when its first member is reached and kept only by its members: a
    caller that drops each member before asking for the next (map, or
    next() inside a call) holds one chunk at a time.  Raises
    GammaNonPositive, then EnumerationTooLarge, before any table is
    built."""
    for gamma in gammas:
        _require_gamma(gamma)
    values = [float(gamma) for gamma in gammas]
    risk = stack._empirical_risk
    size = _per_block(risk.size)
    for start in range(0, len(values), size):
        chunk = values[start : start + size]
        log_rows = _gibbs_log_rows(stack._log_prior, np.array(chunk)[:, None, None], risk)
        sweep = _Sweep(stack=stack, log_rows=log_rows, gammas=tuple(chunk))
        for index in range(math.prod(log_rows.shape[:-2])):
            yield GibbsPosterior(sweep, index)
        del sweep


def _gibbs_log_rows(
    log_prior: np.ndarray, gamma: float | np.ndarray, energy: np.ndarray
) -> np.ndarray:
    """The read-only log rows of the Gibbs kernels prior(w) * exp(-gamma *
    energy(w, s)) / V(s), from (..., nw) log priors, a gamma or a (g, 1, 1)
    column of them, and a (..., nw, m) energy table: the empirical risk, or
    it plus a penalty."""
    logits = log_prior[..., None] - gamma * energy
    log_rows = logits - _logsumexp(logits, axis=-2, keepdims=True)
    log_rows.flags.writeable = False
    return log_rows


def _shape_sweep(
    instances: Iterable[tuple[int, LearningProblem]], gammas: Sequence[float]
) -> Iterator[tuple[int, LearningProblem, float, GibbsPosterior]]:
    """(index, problem, gamma, posterior) for every (index, problem) of
    instances at each of gammas, in (instance, gamma) order, with the
    problems of one shape evaluated together.  The instances are read in
    windows of at most BLOCK_ELEMENTS table elements (m * nw per gamma), or
    of one instance when that is larger, and the problems of a window that
    share data model kind, |Z|, n and |W| are evaluated as one _Stack, in
    one chunk of _gibbs_sweep.  A problem whose dataset law has a zero is
    its own stack of one, since the Renyi sums compress its support.  Every
    posterior reads bit for bit what a lone gibbs_posterior build gives."""
    window: list[tuple[int, LearningProblem]] = []
    elements = 0
    for index, problem in instances:
        size = problem.dataset_count * problem.num_hypotheses * len(gammas)
        if window and elements + size > probability.BLOCK_ELEMENTS:
            yield from _window_sweep(window, gammas)
            window, elements = [], 0
        window.append((index, problem))
        elements += size
    yield from _window_sweep(window, gammas)


def _window_sweep(
    window: list[tuple[int, LearningProblem]], gammas: Sequence[float]
) -> Iterator[tuple[int, LearningProblem, float, GibbsPosterior]]:
    """_shape_sweep over one window: a member iterator per shape stack,
    from which each problem takes its posteriors in window order."""
    shapes: dict[tuple, list[LearningProblem]] = {}
    for _, problem in window:
        key = (problem.is_iid(), problem.num_samples_symbols, problem.n, problem.num_hypotheses)
        shapes.setdefault(key, []).append(problem)
    members = {}
    for group in shapes.values():
        for stack in _shape_stacks(group):
            sweep = _gibbs_sweep(stack, gammas)
            for problem in stack.problems:
                members[problem] = sweep
    for index, problem in window:
        sweep = members.pop(problem)
        for gamma in gammas:
            yield index, problem, gamma, next(sweep)


def _shape_stacks(group: list[LearningProblem]) -> list[_Stack]:
    """The same-shape problems of a window as one _Stack, but each problem
    whose dataset law has a zero as its own stack of one."""
    if len(group) < 2:
        return [problem._stack for problem in group]
    stack = _Stack(group)
    positive = (stack._dataset_probs > 0.0).all(axis=(1, 2)).tolist()
    if all(positive):
        return [stack]
    alone = [problem._stack for problem, full in zip(group, positive) if not full]
    return alone + _shape_stacks([problem for problem, full in zip(group, positive) if full])


def gibbs_posterior(problem: LearningProblem, gamma: float) -> GibbsPosterior:
    """Tabulate the Gibbs posterior for every dataset, in the log domain: a
    sweep over the one gamma of the problem's stack of one.  Raises
    EnumerationTooLarge when m * max(n, nw) is above ELEMENT_CAP, before any
    table is built.  Every call evaluates anew, on the tables the problem
    built at its first call; see _evaluation for the one evaluation that
    gen_characterizations and bounds_table share."""
    return next(_gibbs_sweep(problem._stack, (gamma,)))


# the evaluation that gen_characterizations or bounds_table read last
_last_evaluation: GibbsPosterior | None = None


def _evaluation(problem: LearningProblem, gamma: float) -> GibbsPosterior:
    """gibbs_posterior(problem, gamma), kept in one module-level slot so that
    gen_characterizations and bounds_table, called in turn on one pair,
    read one evaluation.  A hit needs the same problem object and an int
    or float gamma equal to the slot's as a float.  A hit returns what a
    fresh build would, bit for bit: the problem's arrays and every cached
    array of the posterior are read-only, and its numbers depend on nothing
    else.  A miss empties the slot before it builds, so at most one
    evaluation outlives its callers, and it holds only the functionals a
    next reader may share, since every kernel frees its own temporaries.
    Threads racing on the slot can only cost extra builds: every posterior
    it holds is complete and immutable."""
    global _last_evaluation
    last = _last_evaluation
    if (
        last is not None
        and last.problem is problem
        and isinstance(gamma, (int, float))
        and float(gamma) == last.gamma
    ):
        return last
    del last
    _last_evaluation = None
    _last_evaluation = gibbs_posterior(problem, gamma)
    return _last_evaluation


def _log_population(stack: _Stack, gamma) -> np.ndarray:
    """The log population-risk Gibbs law of each problem of a stack at a
    gamma, (p, 1, nw), or one row per gamma of a (g, 1) column, (p, g, nw);
    normalized twice, for the reason given at _Kernels.log_kernel."""
    logits = stack._log_prior - gamma * stack._population_risk
    logits = logits - _logsumexp(logits, axis=-1, keepdims=True)
    return logits - _logsumexp(logits, axis=-1, keepdims=True)


def population_gibbs(problem: LearningProblem, gamma: float) -> ProbVec:
    """The Gibbs law built on the population risk instead of the empirical
    risk; the hypothesis-space reference measure of the divergence form."""
    _require_gamma(gamma)
    weights = np.exp(_log_population(problem._stack, gamma)[0, 0])
    weights /= weights.sum()
    return ProbVec(weights, problem.hypothesis_set)


def gen_error_direct(posterior: GibbsPosterior) -> float:
    """Expected generalization error straight from the definition:
    E[population risk - empirical risk] under the joint law of (W, S)."""
    population, empirical = posterior.risks
    return population - empirical


def expected_empirical_risk(posterior: GibbsPosterior) -> float:
    """E[empirical risk] under the joint law of (W, S)."""
    return posterior.risks[1]


def _expect(table: np.ndarray, law: np.ndarray) -> np.ndarray:
    """The expectation of each row of a table under a law on its last,
    contiguous axis: one pairwise sum per row, so a row of a stack reads
    what it reads alone."""
    return np.multiply(table, law).sum(axis=-1)


def _require_iid_routes(stack: _Stack) -> None:
    """Refuse a non-IID model, or either IID route's count above
    ELEMENT_CAP, before anything is allocated: replace-one's m * |Z|
    divergences per gamma, then the supersample sweep's C(K + n - 1, n)
    orbits times 2**n selectors, K = |Z|(|Z|+1)/2 pair types (see
    _Sweep.supersample_info).  The stack's own check has already bounded
    n, so the binomial stays small."""
    if not stack.is_iid():
        raise NotIID("the supersample and replace-one routes require an IID data model")
    nz = stack.num_samples_symbols
    n = stack.n
    _check_elements("replace-one divergences", nz, nz, n)
    _check_elements("supersample enumeration", math.comb(nz * (nz + 1) // 2 + n - 1, n), 2, n)


def _member_blocks(lead: tuple[int, int], count: int) -> list[tuple]:
    """Index tuples that split a sweep's members, its (p, g) lead, into
    blocks of at most count members: runs of gammas of one problem, or runs
    of whole problems when count holds all of a problem's gammas.  A tuple
    without its last entry indexes the stack's (p, 1) arrays."""
    problems, gammas = lead
    if count >= gammas:
        step = count // gammas
        return [(slice(start, start + step), slice(None)) for start in range(0, problems, step)]
    return [
        (k, slice(start, start + count)) for k in range(problems) for start in range(0, gammas, count)
    ]


def _supersample_infos(stack: _Stack, log_rows: np.ndarray) -> list[InfoReport]:
    """The supersample information of each kernel of a (p, g, nw, m) table,
    after the checks.  A block holds BLOCK_ELEMENTS // (2**n * nw) orbits of
    one kernel, as for a lone kernel, so each kernel's sums run over the
    same blocks; when one block holds every orbit, it stacks as many
    kernels as fit in it."""
    super_probs, dataset_ids = stack._supersample_geometry
    num_super, num_u = dataset_ids.shape
    lead = log_rows.shape[:-2]
    per_kernel = num_u * log_rows.shape[-2]
    block = _per_block(per_kernel)
    mutual = np.zeros(lead)
    lautum = np.zeros(lead)
    for members in _member_blocks(lead, _per_block(per_kernel * num_super)):
        kernels = log_rows[members]
        laws = super_probs[members[:-1]]
        for start in range(0, num_super, block):
            stop = min(start + block, num_super)
            # orbits last, as datasets are in the table
            log_cond = np.take(kernels, dataset_ids[start:stop].T, axis=-1)  # (..., nw, num_u, b)
            # log of the mixture over u, max-shifted in place
            shift = log_cond.max(axis=-2, keepdims=True)
            scaled = np.subtract(log_cond, shift)
            np.exp(scaled, out=scaled)
            log_mix = shift + np.log(scaled.mean(axis=-2, keepdims=True))
            del scaled
            forward, reverse = _divergence_pair(log_cond, log_mix, axis=(-3, -2))
            weights = laws[..., start:stop] / num_u
            mutual[members] += _expect(forward, weights)
            lautum[members] += _expect(reverse, weights)
    return [
        InfoReport(mutual=m, lautum=l, symmetrized=m + l)
        for m, l in zip(mutual.ravel().tolist(), lautum.ravel().tolist())
    ]


def _replace_one_stack(stack: _Stack, log_rows: np.ndarray) -> np.ndarray:
    """(p, g, 2, n) forward and reverse replace-one divergences of each
    kernel of a (p, g, nw, m) table, after the checks.  For slot i, each dataset's
    kernel is compared with those of its |Z| one-slot replacements,
    gathered in (..., nw, |Z|, b) blocks of b datasets, into (..., |Z|, m)
    forward and reverse divergences, then averaged over the dataset and
    the fresh sample.  A block stacks as many kernels as fit in
    BLOCK_ELEMENTS with every dataset, and splits one kernel's datasets
    only when their gather is above that; the replacements' ids depend on
    the shape alone, so one block of kernels computes them for every
    problem of a stack.  Each divergence sums the hypotheses of one
    (dataset, replacement) pair, so no bit depends on the blocks."""
    nz = stack.num_samples_symbols
    n = stack.n
    cols = stack._dataset_indices
    probs = stack._dataset_probs[..., None, :]
    marginal = stack._law_weights
    powers = nz ** np.arange(n - 1, -1, -1)
    lead = log_rows.shape[:-2]
    nw, m = log_rows.shape[-2:]
    ids = np.arange(m)
    symbols = np.arange(nz)[:, None]
    block = _per_block(nz * nw)
    out = np.empty(lead + (2, n))
    for members in _member_blocks(lead, _per_block(nz * nw * m)):
        kernels = log_rows[members]
        law, fresh = probs[members[:-1]], marginal[members[:-1]]
        forward = np.empty(kernels.shape[:-2] + (nz, m))
        reverse = np.empty_like(forward)
        for i in range(n):
            for start in range(0, m, block):
                sets = slice(start, start + block)
                replaced = ids[sets] + (symbols - cols[sets, i]) * powers[i]
                log_alt = np.take(kernels, replaced, axis=-1)  # (..., nw, nz, b)
                forward[..., sets], reverse[..., sets] = _divergence_pair(
                    kernels[..., :, None, sets], log_alt, axis=-3
                )
            out[members + (0, i)] = _expect(_expect(forward, law), fresh)
            out[members + (1, i)] = _expect(_expect(reverse, law), fresh)
    return out


def _require_gamma(gamma: float) -> None:
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise GammaNonPositive(f"gamma must be a finite real >= 0, got {gamma!r}")


def _require_positive_gamma(gamma: float) -> None:
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise GammaNonPositive(f"gamma must be > 0, got {gamma!r}")


@dataclass(frozen=True)
class GenReport:
    """One generalization error computed five ways, with the numbers behind
    the routes.

    direct comes from the definition; via_iskl from the symmetrized KL
    information of (W, S) divided by gamma; via_skl_div from the expected
    symmetrized KL divergence d_fwd + d_rev to the population-risk Gibbs
    law; via_cmi from the supersample selector information (conditional);
    via_replace_one from the replace-one divergence sums.  The last two are
    None on joint (non-IID) data models.  Construction fails unless all
    present values agree within 1e-9 relative or 1e-12 absolute, whichever
    is larger.
    """

    gamma: float
    direct: float
    info: InfoReport
    d_fwd: float
    d_rev: float
    conditional: InfoReport | None = None
    replace_forward: tuple[float, ...] | None = None
    replace_reverse: tuple[float, ...] | None = None

    @classmethod
    def from_posterior(cls, posterior: GibbsPosterior) -> "GenReport":
        """Read every route from one evaluation; gamma must be > 0 (at
        gamma = 0 the error is identically zero and the information forms
        degenerate to 0/0)."""
        _require_positive_gamma(posterior.gamma)
        d_fwd, d_rev = posterior.reference_divergences
        extras = {}
        if posterior.problem.is_iid():
            forward, reverse = posterior.replace_one
            extras = {
                "conditional": posterior.supersample_info,
                "replace_forward": tuple(forward.tolist()),
                "replace_reverse": tuple(reverse.tolist()),
            }
        direct = gen_error_direct(posterior)
        return cls(posterior.gamma, direct, posterior.info, d_fwd, d_rev, **extras)

    @property
    def via_iskl(self) -> float:
        return self.info.symmetrized / self.gamma

    @property
    def via_skl_div(self) -> float:
        return (self.d_fwd + self.d_rev) / self.gamma

    @property
    def via_cmi(self) -> float | None:
        if self.conditional is None:
            return None
        return 2.0 * self.conditional.symmetrized / self.gamma

    @property
    def via_replace_one(self) -> float | None:
        if self.replace_forward is None:
            return None
        total = sum(f + r for f, r in zip(self.replace_forward, self.replace_reverse))
        return total / (2.0 * self.gamma)

    def values(self) -> dict[str, float]:
        out = {
            "direct": self.direct,
            "via_iskl": self.via_iskl,
            "via_skl_div": self.via_skl_div,
        }
        if self.via_cmi is not None:
            out["via_cmi"] = self.via_cmi
        if self.via_replace_one is not None:
            out["via_replace_one"] = self.via_replace_one
        return out

    def max_pairwise_gap(self) -> float:
        vals = list(self.values().values())
        return max(abs(a - b) for a in vals for b in vals)

    def __post_init__(self) -> None:
        gap = self.max_pairwise_gap()
        scale = max(abs(v) for v in self.values().values())
        # absolute floor: below scale 1e-3 a pure relative test would demand
        # agreement finer than the error floor of the O(1) intermediate terms
        limit = max(REL_TOL * scale, ABS_TOL)
        if gap > limit:
            raise IdentityMismatch(
                f"characterizations disagree by {gap!r} (scale {scale!r}, limit {limit!r})"
            )


def gen_characterizations(problem: LearningProblem, gamma: float) -> GenReport:
    """The expected generalization error by definition and by every exact
    characterization available for the data model, all read from one
    evaluation of (problem, gamma).

    Requires gamma > 0.  On joint data models the supersample and
    replace-one forms are undefined and reported as None.  The evaluation
    is the shared one of _evaluation, so bounds_table on the same pair
    next reads it instead of building its own.
    """
    return GenReport.from_posterior(_evaluation(problem, gamma))


@dataclass(frozen=True)
class InfoDivergenceReport:
    """Mutual and lautum information next to the directed divergences from
    and to the population-risk Gibbs law.

    Enforces mutual <= d_fwd, lautum >= d_rev, and the exact exchange
    mutual + lautum = d_fwd + d_rev, all with 1e-10 slack.  Build it from
    the numbers behind a GenReport: InfoDivergenceReport(report.info.mutual,
    report.info.lautum, report.d_fwd, report.d_rev).
    """

    mutual: float
    lautum: float
    d_fwd: float
    d_rev: float

    def __post_init__(self) -> None:
        scale = max(1.0, abs(self.mutual) + abs(self.lautum))
        if self.mutual > self.d_fwd + COMPARE_TOL * scale:
            raise IdentityMismatch(
                f"mutual {self.mutual!r} exceeds forward divergence {self.d_fwd!r}"
            )
        if self.lautum < self.d_rev - COMPARE_TOL * scale:
            raise IdentityMismatch(
                f"lautum {self.lautum!r} is below reverse divergence {self.d_rev!r}"
            )
        if abs((self.mutual + self.lautum) - (self.d_fwd + self.d_rev)) > COMPARE_TOL * scale:
            raise IdentityMismatch("information sum does not match divergence sum")


@dataclass(frozen=True)
class RegularizedGenReport:
    """Generalization error of a regularized Gibbs posterior next to its
    exact decomposition: gen = iskl_over_gamma - lam * reg_gap, where
    reg_gap is the product-minus-joint expectation gap of the regularizer.

    For squared-distance regularizers |w - T(s)|^2 the gap equals twice the
    covariance trace between the hypothesis embedding and the target, which
    is reported as trace_cov.
    """

    gen: float
    iskl_over_gamma: float
    reg_gap: float
    lam: float
    trace_cov: float | None = None

    def __post_init__(self) -> None:
        lhs = self.gen
        rhs = self.iskl_over_gamma - self.lam * self.reg_gap
        gap = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs))
        if gap > max(ABS_TOL, REL_TOL * scale):
            raise IdentityMismatch(
                f"regularized decomposition off by {gap!r} (gen {lhs!r} vs {rhs!r})"
            )
        if self.trace_cov is not None:
            gap2 = abs(self.reg_gap - 2.0 * self.trace_cov)
            if gap2 > max(ABS_TOL, REL_TOL * abs(self.reg_gap)):
                raise IdentityMismatch(
                    f"reg_gap {self.reg_gap!r} is not twice the covariance trace "
                    f"{self.trace_cov!r}"
                )


def regularized_gen(
    problem: LearningProblem,
    gamma: float,
    lam: float,
    regularizer: np.ndarray | None = None,
    *,
    embedding: np.ndarray | None = None,
    target: np.ndarray | None = None,
) -> RegularizedGenReport:
    """Generalization error of the Gibbs posterior for the penalized energy
    empirical risk + lam * R(w, s), still measured on the base loss.

    R is a (num_hypotheses, dataset_count) table of nonnegative values.
    Alternatively pass embedding (num_hypotheses, k) and target
    (dataset_count, k) to use R(w, s) = |embedding[w] - target[s]|^2, which
    additionally reports the covariance trace identity.
    """
    _require_positive_gamma(gamma)
    if not (math.isfinite(lam) and lam >= 0.0):
        raise InvalidInput(f"lam must be a finite real >= 0, got {lam!r}")
    stack = problem._stack
    m = stack._dataset_indices.shape[0]
    nw = problem.num_hypotheses
    emb = tgt = None
    if regularizer is None:
        if embedding is None or target is None:
            raise InvalidInput("pass either a regularizer table or embedding + target")
        emb = np.asarray(embedding, dtype=np.float64).reshape(nw, -1)
        # (k, m): the datasets last, as in every table
        tgt = np.ascontiguousarray(np.asarray(target, dtype=np.float64).reshape(m, -1).T)
        if emb.shape[1] != tgt.shape[0]:
            raise InvalidInput("embedding and target dimensions differ")
        _check_elements("regularizer differences", nw * emb.shape[1] * m)
        diff = emb[:, :, None] - tgt  # (nw, k, m)
        regularizer = (diff * diff).sum(axis=1)
    else:
        if embedding is not None or target is not None:
            raise InvalidInput("pass either a regularizer table or embedding + target, not both")
        regularizer = np.asarray(regularizer, dtype=np.float64)
        if regularizer.shape != (nw, m):
            raise InvalidInput(
                f"regularizer shape {regularizer.shape} must be ({nw}, {m})"
            )
        if not np.all(np.isfinite(regularizer)) or np.any(regularizer < 0.0):
            raise InvalidInput("regularizer entries must be finite and nonnegative")

    # the Gibbs kernel of the penalized energy, built as _gibbs_sweep builds
    # the plain one: at lam = 0 it is that kernel bit for bit
    energy = stack._empirical_risk + lam * regularizer
    kernel = _Kernels(stack, _gibbs_log_rows(stack._log_prior, gamma, energy))

    def gap(table: np.ndarray) -> float:
        product, joint = kernel.means(table)
        return product.item() - joint.item()

    trace_cov = None
    if emb is not None:
        # emb[w] . tgt[:, s] for every pair, in the diff table's memory; the
        # covariance is its joint mean less its product mean
        trace_cov = -gap(np.multiply(emb[:, :, None], tgt, out=diff).sum(axis=1))
    return RegularizedGenReport(
        gen=gap(stack._empirical_risk),
        iskl_over_gamma=kernel.info[0].symmetrized / gamma,
        reg_gap=gap(regularizer),
        lam=float(lam),
        trace_cov=trace_cov,
    )


def empirical_risk_curve(
    problem: LearningProblem, gammas: Sequence[float]
) -> list[float]:
    """E[empirical risk] per inverse temperature; the sequence is
    non-increasing for ascending gammas.  The sweep refuses a gamma that is
    not a finite real >= 0 before it builds anything."""
    values = list(gammas)
    if not values:
        raise InvalidInput("need at least one gamma")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise InvalidInput("gammas must be strictly increasing")
    return list(map(expected_empirical_risk, _gibbs_sweep(problem._stack, values)))


def concavity_probe(
    components: Sequence[tuple[float, DataModel]],
    problem: LearningProblem,
    gamma: float,
) -> tuple[float, float]:
    """Generalization error of the mixture data law versus the component
    average, both evaluated with the single Gibbs kernel of the mixture
    problem (the kernel depends only on loss, prior, and gamma, so it is
    also each component's own kernel).  The mixture value is asserted to
    be at least the component average within CONCAVITY_SLACK.

    Caution: the asserted inequality is not a theorem.  The mutual
    information part of the error is concave in the data law, but the
    reverse-order (lautum) part is not, and on roughly 1% of random
    two-component mixtures the total dips below the average by amounts
    far above rounding (1e-6 to 1e-3, confirmed with 50-digit
    arithmetic).  Callers sampling generic mixtures should be prepared
    to catch IdentityMismatch.
    """
    _require_gamma(gamma)
    weights = ProbVec(np.array([w for w, _ in components], dtype=np.float64))
    laws = [
        dataclasses.replace(problem, data_model=model)._stack._dataset_probs[0, 0]
        for _, model in components
    ]
    mixture = np.zeros(problem.dataset_count)
    for w, probs in zip(weights.weights, laws):
        mixture += w * probs
    # one member per law, the mixture's first, all read with one kernel
    stack = _Stack(
        [dataclasses.replace(problem, data_model=JointData(law)) for law in [mixture, *laws]]
    )
    log_rows = _gibbs_log_rows(stack._log_prior[:1], gamma, stack._empirical_risk[:1])
    kernel = _Kernels(stack, log_rows)
    gen_mixture, *gens = [population - empirical for population, empirical in kernel.risks]
    avg_gen = sum(float(w) * gen for w, gen in zip(weights.weights, gens))
    if gen_mixture < avg_gen - CONCAVITY_SLACK:
        raise IdentityMismatch(
            f"mixture error {gen_mixture!r} fell below the component average {avg_gen!r}"
        )
    return gen_mixture, avg_gen


@dataclass(frozen=True)
class ChainRuleReport:
    """Symmetrized information of a hypothesis against each of two samples
    and against the pair; whether the single-sample sum exceeds the joint
    value depends on the construction, so both are reported."""

    info_first: InfoReport
    info_second: InfoReport
    info_pair: InfoReport
    individual_sum: float
    sum_exceeds_joint: bool


def chain_rule_example(epsilon: float) -> ChainRuleReport:
    """A three-bit joint law whose symmetrized information is not
    subadditive or superadditive uniformly: the comparison between the sum
    of single-sample values and the pair value flips with epsilon.

    The law over (w, z1, z2) puts 1/8 on each cell with (z1, z2) = (0, 0),
    1/4 - epsilon on cells with w = 1 and (z1, z2) != (0, 0), and epsilon
    on cells with w = 0 and (z1, z2) != (0, 0).
    """
    if not (isinstance(epsilon, (int, float)) and 0.0 < epsilon < 0.125):
        raise EpsilonOutOfRange(f"epsilon must lie in (0, 1/8), got {epsilon!r}")
    cube = np.empty((2, 2, 2))
    cube[:, 0, 0] = 0.125
    for z1, z2 in ((0, 1), (1, 0), (1, 1)):
        cube[1, z1, z2] = 0.25 - epsilon
        cube[0, z1, z2] = epsilon

    info_first = info_triple(JointTable(cube.sum(axis=2), (0, 1), (0, 1)))
    info_second = info_triple(JointTable(cube.sum(axis=1), (0, 1), (0, 1)))
    pair_alphabet = ((0, 0), (0, 1), (1, 0), (1, 1))
    info_pair = info_triple(JointTable(cube.reshape(2, 4), (0, 1), pair_alphabet))
    individual_sum = info_first.symmetrized + info_second.symmetrized
    return ChainRuleReport(
        info_first=info_first,
        info_second=info_second,
        info_pair=info_pair,
        individual_sum=individual_sum,
        sum_exceeds_joint=individual_sum > info_pair.symmetrized,
    )
