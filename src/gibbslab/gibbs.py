"""Exact Gibbs learning on enumerable problems.

A learning problem here is fully tabulated: finite sample alphabet, finite
hypothesis set, a loss table, a prior, and a data law for n-sample training
tuples (IID product or an arbitrary joint law).  Because every dataset can
be enumerated, the Gibbs posterior and all of its information functionals
are computed exactly, and the expected generalization error comes out five
ways (ROUTES): from the definition (gen_error_direct), from the
symmetrized KL information of (W, S), from the expected symmetrized KL
divergence to the population-risk Gibbs law, and on IID models from the
conditional information between W and supersample selectors and from the
replace-one divergence sum.  All five agree to 1e-9 relative on any valid
instance.  Datasets are ordered tuples in lexicographic order; only the
supersample sweep collapses its states, to one per orbit of pair swaps and
pair permutations.  One cap, ELEMENT_CAP, bounds every enumerated array,
counted (_check_elements) before anything is allocated.

There is one evaluation path.  _gibbs_sweep evaluates the _Stack of p
problems of one shape (data model kind, |Z|, n and |W|) at g gammas as one
_Sweep of two (p, g, nw, m) tables; a problem on its own is a stack of one,
which it caches (LearningProblem._stack).  Each functional of the _Sweep is
computed for all its (problem, gamma) members the first time any member
asks, in the same operations, reductions and order whatever p and g, so
each member's numbers are bit for bit those of a stack of one at one
gamma.  Tables keep the (p, g) lead; every per-member number is a column
with one value per member: the routes (_Sweep.routes) and their check
(_route_check) here, the ratio constants and every bound in
bounds._BoundTable.  The verify-identities and bounds-table subcommands
read the columns of the stacks of _shape_sweep, which stacks the
same-shape problems of a window of instances; GenReport, InfoReport and
InfoDivergenceReport are one-member views, each checking itself by its
columns' check on a member of one.  gen_characterizations and
bounds.bounds_table, the per-pair entry points, share one module-level
slot (_evaluation), so the routes and then the bounds of a pair cost one
evaluation.

Every table is hypothesis-major and C-contiguous, (..., nw, m) with the
datasets last, and every sum is numpy's own reduction, none through BLAS,
so no number depends on the BLAS kernel or thread count.  Gammas go in
chunks, and the supersample and replace-one sweeps in blocks, of
probability.BLOCK_ELEMENTS, so peak memory stays near one evaluation or
one block.  Every cached array is read-only.  _Sweep.means forms every
mean of a table under the product of the marginals and under the joint law:
gen, regularized_gen's gaps and concavity_probe's errors are such gaps.
The information functionals never leave the log domain, so the identity
holds in the large-gamma (ERM) regime too; the tests check it at gamma up
to 1e6.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import probability
from .errors import (
    AlphaOutOfRange,
    EnumerationTooLarge,
    EpsilonOutOfRange,
    GammaNonPositive,
    IdentityMismatch,
    InvalidInput,
    NotIID,
    require_count,
    require_real,
)
from .probability import (
    InfoReport,
    JointTable,
    ProbVec,
    ZERO_CUTOFF,
    _divergence_pair,
    _failures,
    _logsumexp,
    _one,
    _per_block,
    _renyi_logsums,
    info_triple,
)

# the most elements any one enumerated array may hold: at the cap an
# evaluation peaks at 61 to 89 bytes per element of its largest count
# (tracemalloc; 61 on joint laws, 89 on IID ones), so 470 to 680 MiB,
# and the 6,223,360 supersample states of |Z| = 4, n = 8 fit
ELEMENT_CAP = 8 * 10**6
REL_TOL = 1e-9
ABS_TOL = 1e-12
COMPARE_TOL = 1e-10


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


def _labels(given) -> tuple | range:
    """Labels as a tuple, or as the range given, so that range labels take
    constant memory however many there are."""
    return given if isinstance(given, range) else tuple(given)


@dataclass(frozen=True, eq=False)
class LearningProblem:
    """A finite supervised learning problem with an explicit data law.

    loss[w, z] is the nonnegative loss of hypothesis w on sample z; the
    prior must be strictly positive so every Gibbs posterior shares the
    prior's support.  Its tables belong to its cached stack of one.
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
        require_count("n", self.n, ">=", 1)
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
    one.  The stack owns the enumerated arrays, built on first use and
    cached read-only with a (p, 1) lead that broadcasts against its (p, g,
    ...) sweep tables.  It holds arrays only, never its problems, so a
    problem that caches its stack of one makes no reference cycle."""

    def __init__(self, problems: Sequence[LearningProblem]) -> None:
        first = problems[0]
        self.n = first.n
        self.num_samples_symbols = first.num_samples_symbols
        self.num_hypotheses = first.num_hypotheses
        self._iid = first.is_iid()
        self.loss = _stacked([problem.loss for problem in problems])
        self._log_prior = _stacked([problem.prior.log_weights for problem in problems])
        models = (problem.data_model for problem in problems)
        weights = [model.marginal.weights if self._iid else model.weights for model in models]
        self._law_weights = _stacked(weights)

    def is_iid(self) -> bool:
        return self._iid

    @cached_property
    def _dataset_indices(self) -> np.ndarray:
        """(m, n) sample indices of every dataset, lexicographic order.
        Every enumerated table starts here, so the size check runs here
        first, on m * max(n, nw) elements, the largest array per problem."""
        nz, n = self.num_samples_symbols, self.n
        _check_elements("dataset enumeration", max(n, self.num_hypotheses), nz, n)
        return _index_matrix(nz, n)

    @cached_property
    def _dataset_probs(self) -> np.ndarray:
        """The law of every dataset: the product of an IID marginal over each
        tuple, or a joint law's own weights, not copied."""
        if not self._iid:
            return self._law_weights
        return _frozen(np.prod(self._law_weights[..., self._dataset_indices], axis=-1))

    @cached_property
    def _log_dataset_probs(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return _frozen(np.log(self._dataset_probs))

    @cached_property
    def _empirical_risk(self) -> np.ndarray:
        """(p, 1, num_hypotheses, m) empirical risk of every (w, dataset)
        pair, from loss gathers of blocks of datasets; each mean runs over
        one pair's n losses, so no bit depends on the blocks."""
        cols = self._dataset_indices
        loss = self.loss
        risk = np.empty(loss.shape[:-1] + cols.shape[:1])
        block = _per_block(math.prod(loss.shape[:-1]) * self.n)
        for start in range(0, cols.shape[0], block):
            risk[..., start : start + block] = loss[..., cols[start : start + block]].mean(axis=-1)
        return _frozen(risk)

    @cached_property
    def _population_risk(self) -> np.ndarray:
        return _frozen(_expect(self._empirical_risk, self._dataset_probs[..., None, :]))

    @cached_property
    def _supersample_geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """The gamma-independent part of the supersample sweep: each
        problem's (p, 1, orbits) total probability of each orbit, and the
        (orbits, 2**n) dataset ids of _supersample_orbits.  IID models only;
        callers check the enumeration size first."""
        nz, n = self.num_samples_symbols, self.n
        first, second, orbit_size, dataset_ids = _supersample_orbits(nz, n)
        weights = self._law_weights
        super_probs = np.prod(weights[..., first] * weights[..., second], axis=-1) * orbit_size
        return _frozen(super_probs), dataset_ids


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """Same-shape read-only arrays stacked with a (p, 1) lead; a single
    array is viewed, not copied."""
    return _frozen(np.stack(arrays)[:, None] if len(arrays) > 1 else arrays[0][None, None])


def _frozen(array: np.ndarray) -> np.ndarray:
    """The array, made read-only."""
    array.flags.writeable = False
    return array


def _supersample_orbits(nz: int, n: int) -> tuple[np.ndarray, ...]:
    """The shape-only part of the supersample sweep over |Z| = nz symbols
    and n pairs, one row per orbit of supersamples: the (orbits, n) first
    and second symbols of the representative's pairs, the orbit's size and
    the (orbits, 2**n) ids of the dataset each selector string picks.

    I(W; U | supersample) is constant on an orbit: swapping a pair's
    elements relabels one selector bit, and permuting the pairs permutes
    the datasets, which an IID posterior cannot see.  The representative is
    a sorted multiset of n unordered pairs (a <= b); its orbit holds n! /
    prod_k m_k! * 2**d ordered tuples of equal probability, m_k being how
    often pair type k appears and d the number of pairs with a != b."""
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
    return first, second, orbit_size, _frozen(dataset_ids)


def _index_matrix(base: int, length: int) -> np.ndarray:
    """All base**length tuples of indices, lexicographic, one per row."""
    count = base**length
    idx = np.arange(count)
    powers = base ** np.arange(length - 1, -1, -1)
    return _frozen((idx[:, None] // powers[None, :]) % base)


def _check_elements(what: str, factor: int, base: int = 1, exponent: int = 0) -> None:
    """Refuse an array of factor * base**exponent elements above
    ELEMENT_CAP, before anything is allocated, without forming a power
    above the cap: the exponent is clipped at ELEMENT_CAP.bit_length(),
    which with a base of 2 or more already exceeds it, and
    EnumerationTooLarge.required then carries that lower bound."""
    required = factor * base ** min(exponent, ELEMENT_CAP.bit_length())
    if required > ELEMENT_CAP:
        raise EnumerationTooLarge(f"{what} needs more elements than the cap of {ELEMENT_CAP}",
                                  required=required, cap=ELEMENT_CAP)


@dataclass(frozen=True, eq=False)
class _Sweep:
    """The one evaluation object: the Gibbs kernels from datasets to
    hypotheses of each problem of a _Stack at g gammas, one per (problem,
    gamma) member, given by C-contiguous (p, g, num_hypotheses, m) log_rows
    and row_array, and every functional of them, computed for all members
    on first use and cached read-only.  Tables keep the (p, g) lead; a
    per-member number is a column whose member axis runs problem by problem
    and gamma by gamma.  Sums over hypotheses run over axis -2 and over
    datasets over the last axis, so each row reduces on its own and each
    member's numbers are bit for bit those of a stack of one at one gamma."""

    stack: _Stack
    log_rows: np.ndarray
    row_array: np.ndarray
    gammas: tuple[float, ...]

    @cached_property
    def gamma(self) -> np.ndarray:
        """(members,): each member's gamma."""
        return _frozen(np.array(self.gammas * self.log_rows.shape[0]))

    @cached_property
    def hypothesis_marginal(self) -> np.ndarray:
        """The induced marginal over hypotheses under the data law."""
        return _frozen(_expect(self.row_array, self.stack._dataset_probs[..., None, :]))

    @cached_property
    def log_marginal(self) -> np.ndarray:
        """The hypothesis marginal in the log domain: a log-sum-exp over
        datasets of the log joint law of (S, W), a temporary."""
        log_joint = self.stack._log_dataset_probs[..., None, :] + self.log_rows
        return _frozen(_logsumexp(log_joint, axis=-1))

    def _expected_divergences(self, log_reference: np.ndarray) -> np.ndarray:
        """(2, members): E D(row || reference) and E D(reference || row) over
        datasets, for one (p, g, num_hypotheses) reference per member."""
        probs = self.stack._dataset_probs
        forward, reverse = _divergence_pair(self.log_rows, log_reference[..., None], axis=-2)
        return _frozen(np.array((_expect(forward, probs).ravel(), _expect(reverse, probs).ravel())))

    @cached_property
    def information(self) -> np.ndarray:
        """(2, members): the mutual and the lautum information of (W, S)."""
        return self._expected_divergences(self.log_marginal)

    def means(self, table: np.ndarray, laws: np.ndarray | None = None) -> tuple:
        """Per member, the mean of a (..., num_hypotheses, m) table f(w, s)
        under the product of the hypothesis marginal and the data law (the
        stack's, or (..., m) laws given), and under the joint law of (W, S),
        with the lead of the members and the laws.  The product mean less
        the joint mean is the gap that gen (f the empirical risk) and the
        regularizer gap (f = R) are."""
        if laws is None:
            laws, marginal = self.stack._dataset_probs, self.hypothesis_marginal
        else:
            marginal = _expect(self.row_array, laws[..., None, :])
        probs = laws[..., None, :]
        terms = np.multiply(self.row_array, table)
        terms *= probs
        joint = terms.sum(axis=-1).sum(axis=-1)
        # the table's mean under the data law, in the same memory, so a call
        # holds one table-sized temporary at a time
        data_mean = np.multiply(table, probs, out=terms).sum(axis=-1)
        return _expect(marginal, data_mean), joint

    @cached_property
    def risks(self) -> np.ndarray:
        """(2, members): population and empirical, the mean empirical risk
        under the product law, which is the expected population risk of the
        hypothesis marginal, and under the joint law of (W, S)."""
        population, empirical = self.means(self.stack._empirical_risk)
        return _frozen(np.array((population.ravel(), empirical.ravel())))

    @cached_property
    def references(self) -> np.ndarray:
        """(2, members): d_fwd and d_rev, the expected divergences from the
        posterior rows to the population-risk Gibbs law and back."""
        gammas = np.array(self.gammas)[:, None]
        return self._expected_divergences(_log_population(self.stack, gammas))

    @cached_property
    def total_variation(self) -> np.ndarray:
        """(members,): unnormalized total variation between the joint law of
        (W, S) and the product of its marginals, the expected sum over
        hypotheses of |row - hypothesis marginal|.  At each dataset's
        largest row entry the difference is taken as minus the sum of the
        others, which keep the digits that rounding near 1 would lose."""
        diff = np.subtract(self.row_array, self.hypothesis_marginal[..., None])
        np.put_along_axis(diff, self.row_array.argmax(axis=-2, keepdims=True), 0.0, axis=-2)
        dominant = np.abs(diff.sum(axis=-2))
        distances = np.abs(diff, out=diff).sum(axis=-2) + dominant
        return _frozen(_expect(distances, self.stack._dataset_probs).ravel())

    def renyi(self, alphas: tuple[float, ...]) -> np.ndarray:
        """(len(alphas), members): per member, the sum of the two directed
        Renyi divergences of each order in alphas between the joint law of
        (W, S) and the product of its marginals, kept per alphas asked."""
        return self.columns(_renyi_columns, alphas)

    @cached_property
    def supersample_information(self) -> np.ndarray:
        """(2, members): per member, the conditional mutual and lautum
        information between W and the selector string U given a supersample
        of n sample pairs (2n IID draws; U picks one element of each pair to
        form the training tuple, uniformly and independently), summed over
        orbits of supersamples (_supersample_orbits).  IID data models only;
        _require_iid_routes counts the states before anything is allocated."""
        _require_iid_routes(self.stack)
        return _supersample_infos(self.stack, self.log_rows)

    @cached_property
    def replace_one(self) -> np.ndarray:
        """(2, members, n): per member, the forward and the reverse
        replace-one divergences.  For each coordinate i, averaged over (S, Z)
        with Z an independent fresh sample: forward[i] = E[D(posterior(S) ||
        posterior(S with slot i = Z))], and reverse[i] the opposite
        direction.  IID data models only; both IID routes run the same
        checks first, so a problem either refuses allocates neither."""
        _require_iid_routes(self.stack)
        return _frozen(_replace_one_stack(self.stack, self.log_rows))

    @cached_property
    def routes(self) -> dict[str, np.ndarray]:
        """Every route of gen as a column of members (the IID two on IID
        stacks only), from the numbers that GenReport.from_posterior reads,
        in its order, so a stack raises what its first member's would.  Its
        readers reach it at gammas already checked to be > 0 (_evaluation
        or the CLI's RANGES)."""
        extras = {}
        if self.stack.is_iid():
            forward, reverse = self.replace_one
            conditional = _symmetrized(self.supersample_information)
            extras = {"conditional": conditional, "forward": forward, "reverse": reverse}
        population, empirical = self.risks
        symmetrized = _symmetrized(self.information)
        return _routes(self.gamma, population - empirical, symmetrized, *self.references, **extras)

    @cached_property
    def route_check(self) -> tuple[np.ndarray, dict[int, IdentityMismatch]]:
        """_route_check of routes: each member's gap and failure."""
        return _route_check(self.routes)

    def columns(self, build, *args):
        """build(self, *args), columns that are computed on first use and
        kept with these functionals."""
        kept = self.__dict__.setdefault("_columns", {})
        key = (build, *args)
        if key not in kept:
            kept[key] = build(self, *args)
        return kept[key]


def _renyi_columns(sweep: _Sweep, alphas: tuple[float, ...]) -> np.ndarray:
    """sweep.renyi(alphas), computed from one log ratio r = log kernel - log
    hypothesis marginal and the product law q of the hypothesis marginal
    and the data law: per order alpha, the log-sums at exponents alpha (the
    joint law to the product) and 1 - alpha (the product to the joint law),
    each over alpha - 1.  A dataset of probability zero adds exact zeros:
    its q is zero, and its r is set to zero."""
    log_probs = sweep.stack._log_dataset_probs[..., None, :]
    r = np.subtract(sweep.log_rows, sweep.log_marginal[..., None])
    np.copyto(r, 0.0, where=log_probs == -np.inf)
    # one (nw, m) table per member, and the (1, m) law and (nw, 1) marginal
    # whose log sum is its log q
    nw, m = r.shape[-2:]
    log_probs = np.broadcast_to(log_probs, r.shape[:-2] + (1, m)).reshape(-1, 1, m)
    log_marginal = sweep.log_marginal.reshape(-1, nw, 1)
    betas = alphas + tuple(1.0 - alpha for alpha in alphas)
    logsums = _renyi_logsums(r.reshape(-1, nw, m), log_probs, log_marginal, betas)
    orders = np.array(alphas)[:, None] - 1.0
    return _frozen(logsums[: len(alphas)] / orders + logsums[len(alphas) :] / orders)


def _info_report(pair: np.ndarray) -> InfoReport:
    """The InfoReport of one member's mutual and lautum entries."""
    mutual, lautum = pair.tolist()
    return InfoReport(mutual, lautum, mutual + lautum)


def _symmetrized(pairs: np.ndarray) -> np.ndarray:
    """mutual + lautum of (2, members) columns, after InfoReport's checks."""
    mutual, lautum = pairs
    for error in InfoReport.failures(mutual, lautum, mutual + lautum).values():
        raise error
    return mutual + lautum


class GibbsPosterior:
    """The Gibbs conditional law prior(w) * exp(-gamma * risk(w, s)) / V(s),
    tabulated per enumerated dataset and held in the log domain; build it
    with gibbs_posterior.  It is one member of a _Sweep, and each
    functional below reads its own read-only entries of the sweep's tables
    and columns: log_rows (the log kernel, normalized twice) and row_array
    are (num_hypotheses, m) views, replace_one a (2, n) view."""

    def __init__(self, sweep: _Sweep, index: int, problem: LearningProblem) -> None:
        self._sweep = sweep
        self._index = index
        self._position = divmod(index, len(sweep.gammas))
        self._problem = problem
        self._gamma = sweep.gammas[self._position[1]]

    @property
    def problem(self) -> LearningProblem:
        return self._problem

    @property
    def gamma(self) -> float:
        return self._gamma

    log_rows = property(lambda self: self._sweep.log_rows[self._position])
    row_array = property(lambda self: self._sweep.row_array[self._position])
    hypothesis_marginal = property(lambda self: self._sweep.hypothesis_marginal[self._position])
    log_marginal = property(lambda self: self._sweep.log_marginal[self._position])

    def _entry(self, name: str) -> np.ndarray:
        """The member's entry of the sweep's (2, members, ...) column name."""
        return getattr(self._sweep, name)[:, self._index]

    info = property(lambda self: _info_report(self._entry("information")))
    supersample_info = property(lambda self: _info_report(self._entry("supersample_information")))
    reference_divergences = property(lambda self: tuple(self._entry("references").tolist()))
    risks = property(lambda self: tuple(self._entry("risks").tolist()))
    replace_one = property(lambda self: self._entry("replace_one"))
    total_variation = property(lambda self: self._sweep.total_variation[self._index])

    def renyi(self, alphas: Sequence[float]) -> tuple[float, ...]:
        """The sum of the two directed Renyi divergences of each order in
        alphas between the joint law of (W, S) and the product of its
        marginals.  Raises AlphaOutOfRange for an order that is not a
        finite real, positive and != 1."""
        alphas = tuple(alphas)
        for alpha in alphas:
            require_real("alpha", alpha, ">", 0, "!=", 1, error=AlphaOutOfRange)
        return tuple(self._sweep.renyi(alphas)[:, self._index].tolist())


def _gibbs_sweep(
    problems: Sequence[LearningProblem], gammas: Sequence[float]
) -> Iterator[GibbsPosterior]:
    """The Gibbs posteriors of each of problems, all of one shape, at each
    of gammas, as stacked evaluations of their _Stack (a lone problem's
    cached stack of one, or a new one): the gammas go in chunks whose (p,
    g, nw, m) tables hold at most max(p * m * nw, BLOCK_ELEMENTS) elements
    each, and each functional is computed for a whole chunk at once.  The
    posteriors come problem by problem within each chunk, each problem's
    gammas in order, each carrying its problem.  A chunk is built when its
    first member is reached and kept only by its members, so a caller that
    drops each member before asking for the next holds one chunk at a
    time.  Every gamma was checked by the caller."""
    values = [float(gamma) for gamma in gammas]
    stack = problems[0]._stack if len(problems) == 1 else _Stack(problems)
    risk = stack._empirical_risk
    size = _per_block(risk.size)
    for start in range(0, len(values), size):
        chunk = values[start : start + size]
        column = np.array(chunk)[:, None, None]
        sweep = _Sweep(stack, *_gibbs_log_rows(stack._log_prior, column, risk), tuple(chunk))
        for index in range(len(problems) * len(chunk)):
            yield GibbsPosterior(sweep, index, problems[index // len(chunk)])
        del sweep


def _gibbs_log_rows(log_prior: np.ndarray, gamma, energy: np.ndarray) -> tuple:
    """The read-only (log_rows, row_array) of the Gibbs kernels prior(w) *
    exp(-gamma * energy(w, s)) / V(s), from (..., nw) log priors, a gamma or
    a (g, 1, 1) column of them, and a (..., nw, m) energy table: the
    empirical risk, or it plus a penalty.  row_array is the exponential of
    the logits less their log-sum-exp, renormalized so each row sums to 1
    at machine precision; log_rows, which the information functionals
    read, is normalized a second time, since the first pass leaves each
    row's total off by rounding that grows with gamma times the energy."""
    logits = log_prior[..., None] - gamma * energy
    logits -= _logsumexp(logits, axis=-2, keepdims=True)
    rows = np.exp(logits)
    rows /= rows.sum(axis=-2, keepdims=True)
    logits -= _logsumexp(logits, axis=-2, keepdims=True)
    return _frozen(logits), _frozen(rows)


def _shape_sweep(
    instances: Iterable[tuple[int, LearningProblem]], gammas: Sequence[float]
) -> Iterator[tuple[int, LearningProblem, float, GibbsPosterior]]:
    """(index, problem, gamma, posterior) for every (index, problem) of
    instances at each of gammas, in (instance, gamma) order.  The instances
    are read in windows of at most BLOCK_ELEMENTS table elements, or one
    instance, and the problems of a window that share a shape are one
    _Stack in one chunk of _gibbs_sweep, whatever zeros their dataset laws
    hold.  Every posterior reads bit for bit what a lone gibbs_posterior
    gives."""
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
    """_shape_sweep over one window: a member iterator per shape stack."""
    shapes: dict[tuple, list[LearningProblem]] = {}
    for _, problem in window:
        key = (problem.is_iid(), problem.num_samples_symbols, problem.n, problem.num_hypotheses)
        shapes.setdefault(key, []).append(problem)
    members = {}
    for group in shapes.values():
        sweep = _gibbs_sweep(group, gammas)
        for problem in group:
            members[problem] = sweep
    for index, problem in window:
        sweep = members.pop(problem)
        for gamma in gammas:
            yield index, problem, gamma, next(sweep)


def gibbs_posterior(problem: LearningProblem, gamma: float) -> GibbsPosterior:
    """Tabulate the Gibbs posterior for every dataset, in the log domain: a
    sweep over the one gamma of the problem's stack of one, evaluated anew
    on every call.  Raises GammaNonPositive, then EnumerationTooLarge when
    m * max(n, nw) is above ELEMENT_CAP, before any table is built."""
    _require_gamma(gamma)
    return next(_gibbs_sweep((problem,), (gamma,)))


# the evaluation that gen_characterizations or bounds_table read last
_last_evaluation: GibbsPosterior | None = None


def _evaluation(problem: LearningProblem, gamma: float) -> GibbsPosterior:
    """gibbs_posterior(problem, gamma), kept in one module-level slot so that
    gen_characterizations and bounds_table, called in turn on one pair,
    read one evaluation.  Both need gamma > 0, which is checked first, so
    a hit refuses what a miss refuses and a refusal builds nothing; a miss
    then builds through _gibbs_sweep, which checks no gamma.  A hit
    needs the same problem object and a gamma equal to the slot's as a
    float, and returns what a fresh build would, bit for bit, every cached
    array being read-only.  A miss empties the slot
    before it builds, so at most one evaluation outlives its callers.
    Threads racing on the slot can only cost extra builds: every posterior
    it holds is complete and immutable."""
    global _last_evaluation
    _require_positive_gamma(gamma)
    last = _last_evaluation
    if last is not None and last.problem is problem and float(gamma) == last.gamma:
        return last
    del last
    _last_evaluation = None
    _last_evaluation = next(_gibbs_sweep((problem,), (gamma,)))
    return _last_evaluation


def _log_population(stack: _Stack, gamma) -> np.ndarray:
    """The log population-risk Gibbs law of each problem of a stack at a
    gamma, (p, 1, nw), or one row per gamma of a (g, 1) column, (p, g, nw):
    the log_rows of _gibbs_log_rows with the population risk as the energy
    of a single dataset."""
    energy = stack._population_risk[..., None]
    return _gibbs_log_rows(stack._log_prior, np.expand_dims(gamma, -1), energy)[0][..., 0]


def gen_error_direct(posterior: GibbsPosterior) -> float:
    """Expected generalization error straight from the definition:
    E[population risk - empirical risk] under the joint law of (W, S)."""
    population, empirical = posterior.risks
    return population - empirical


def _expect(table: np.ndarray, law: np.ndarray) -> np.ndarray:
    """The expectation of each row of a table under a law on its last,
    contiguous axis: one pairwise sum per row, so a row of a stack reads
    what it reads alone."""
    return np.multiply(table, law).sum(axis=-1)


def _require_iid_routes(stack: _Stack) -> None:
    """Refuse a non-IID model, or either IID route's count above
    ELEMENT_CAP, before anything is allocated: replace-one's m * |Z|
    divergences per gamma, then the supersample sweep's C(K + n - 1, n)
    orbits times 2**n selectors, K = |Z|(|Z|+1)/2 pair types."""
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


def _supersample_infos(stack: _Stack, log_rows: np.ndarray) -> np.ndarray:
    """The (2, members) supersample mutual and lautum information of each
    kernel of a (p, g, nw, m) table, after the checks.  A block holds
    BLOCK_ELEMENTS // (2**n * nw) orbits of one kernel, as for a lone
    kernel, so each kernel's sums run over the same blocks; when one block
    holds every orbit, it stacks as many kernels as fit in it."""
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
    return _frozen(np.array((mutual.ravel(), lautum.ravel())))


def _replace_one_stack(stack: _Stack, log_rows: np.ndarray) -> np.ndarray:
    """(2, members, n) forward and reverse replace-one divergences of each
    kernel of a (p, g, nw, m) table, after the checks.  For slot i, each
    dataset's kernel is compared with those of its |Z| one-slot
    replacements, gathered in (..., nw, |Z|, b) blocks of b datasets, then
    averaged over the dataset and the fresh sample.  A block stacks as
    many kernels as fit in BLOCK_ELEMENTS with every dataset, and splits
    one kernel's datasets only when their gather is above that.  Each
    divergence sums the hypotheses of one (dataset, replacement) pair, so
    no bit depends on the blocks."""
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
    out = np.empty((2,) + lead + (n,))
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
            out[(0, *members, i)] = _expect(_expect(forward, law), fresh)
            out[(1, *members, i)] = _expect(_expect(reverse, law), fresh)
    return out.reshape(2, -1, n)


def _require_gamma(gamma: float) -> float:
    return require_real("gamma", gamma, ">=", 0, error=GammaNonPositive)


def _require_positive_gamma(gamma: float) -> float:
    return require_real("gamma", gamma, ">", 0, error=GammaNonPositive)


# the five routes of gen, in the order every report and table lists them
ROUTES = ("direct", "via_iskl", "via_skl_div", "via_cmi", "via_replace_one")


def _routes(
    gamma, direct, symmetrized, d_fwd, d_rev, conditional=None, forward=None, reverse=None
) -> dict[str, np.ndarray]:
    """Each route of gen as a column over members: direct from the
    definition, via_iskl from the symmetrized information of (W, S),
    via_skl_div from the divergences to the population Gibbs law, and when
    given via_cmi from the symmetrized supersample information and
    via_replace_one from the (members, n) replace-one divergences, whose
    slots are added in order, not by numpy's pairwise sum."""
    routes = {"direct": direct, "via_iskl": symmetrized / gamma,
              "via_skl_div": (d_fwd + d_rev) / gamma}
    if conditional is not None:
        routes["via_cmi"] = 2.0 * conditional / gamma
    if forward is not None:
        # a running sum from 0, as Python's sum adds the slots
        total = 0.0 + np.add.accumulate(forward + reverse, axis=-1)[..., -1]
        routes["via_replace_one"] = total / (2.0 * gamma)
    return routes


def _route_check(routes: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[int, IdentityMismatch]]:
    """Each member's largest pairwise gap between its routes, max - min
    (rounding is monotone, so it is the largest |a - b| bit for bit), and
    the failure of each member whose routes are not all finite or differ
    by more than 1e-9 relative or 1e-12 absolute, whichever is larger."""
    table = np.array(list(routes.values()))
    with np.errstate(invalid="ignore"):
        gap = table.max(axis=0) - table.min(axis=0)
    scale = np.abs(table).max(axis=0)
    # absolute floor: below scale 1e-3 a pure relative test would demand
    # agreement finer than the error floor of the O(1) intermediate terms
    limit = np.maximum(REL_TOL * scale, ABS_TOL)
    finite = np.isfinite(table).all(axis=0)
    return gap, _failures(
        # max and min drop a NaN that is not first, so test finiteness apart
        (~finite, lambda k: IdentityMismatch(
            f"characterizations must be finite, got {dict(zip(routes, table[:, k].tolist()))!r}")),
        (gap > limit, lambda k: IdentityMismatch(
            f"characterizations disagree by {gap[k].item()!r} (scale {scale[k].item()!r}, "
            f"limit {limit[k].item()!r})")),
    )


@dataclass(frozen=True)
class GenReport:
    """One generalization error computed five ways, with the numbers behind
    the routes, which are _routes on a member of one; via_cmi and
    via_replace_one are None on joint (non-IID) data models.  Construction
    fails unless all present values agree (_route_check)."""

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
            forward, reverse = map(tuple, posterior.replace_one.tolist())
            extras = {"conditional": posterior.supersample_info, "replace_forward": forward,
                      "replace_reverse": reverse}
        direct = gen_error_direct(posterior)
        return cls(posterior.gamma, direct, posterior.info, d_fwd, d_rev, **extras)

    @cached_property
    def _routes(self) -> dict[str, np.ndarray]:
        cond = None if self.conditional is None else self.conditional.symmetrized
        return _routes(*map(_one, (self.gamma, self.direct, self.info.symmetrized, self.d_fwd,
                                  self.d_rev, cond, self.replace_forward, self.replace_reverse)))

    # the routes, None where the data model has none
    via_iskl = property(lambda self: self.values()["via_iskl"])
    via_skl_div = property(lambda self: self.values()["via_skl_div"])
    via_cmi = property(lambda self: self.values().get("via_cmi"))
    via_replace_one = property(lambda self: self.values().get("via_replace_one"))

    def values(self) -> dict[str, float]:
        return {name: column.item() for name, column in self._routes.items()}

    def max_pairwise_gap(self) -> float:
        return _route_check(self._routes)[0].item()

    def __post_init__(self) -> None:
        for error in _route_check(self._routes)[1].values():
            raise error


def gen_characterizations(problem: LearningProblem, gamma: float) -> GenReport:
    """The expected generalization error by definition and by every exact
    characterization available for the data model, all read from the one
    evaluation of (problem, gamma) that _evaluation shares with
    bounds_table.  Requires gamma > 0; on joint data models the supersample
    and replace-one forms are undefined and reported as None."""
    return GenReport.from_posterior(_evaluation(problem, gamma))


@dataclass(frozen=True)
class InfoDivergenceReport:
    """Mutual and lautum information next to the directed divergences from
    and to the population-risk Gibbs law, which a GenReport holds.  Enforces
    mutual <= d_fwd, lautum >= d_rev, and the exact exchange mutual + lautum
    = d_fwd + d_rev, all with 1e-10 slack."""

    mutual: float
    lautum: float
    d_fwd: float
    d_rev: float

    def __post_init__(self) -> None:
        values = (self.mutual, self.lautum, self.d_fwd, self.d_rev)
        for error in InfoDivergenceReport.failures(*map(_one, values)).values():
            raise error

    @staticmethod
    def failures(mutual, lautum, d_fwd, d_rev) -> dict[int, IdentityMismatch]:
        """The checks of a report over columns of members, each failing
        member's first failure.  A report is a member of one."""
        values = np.array((mutual, lautum, d_fwd, d_rev))
        slack = COMPARE_TOL * np.maximum(1.0, np.abs(mutual) + np.abs(lautum))
        with np.errstate(invalid="ignore"):
            exceeds, below = mutual > d_fwd + slack, lautum < d_rev - slack
            unequal = np.abs((mutual + lautum) - (d_fwd + d_rev)) > slack
        return _failures(
            (~np.isfinite(values).all(axis=0), lambda k: IdentityMismatch(
                "information and divergences must be finite, got "
                f"{tuple(values[:, k].tolist())!r}")),
            (exceeds, lambda k: IdentityMismatch(
                f"mutual {mutual[k].item()!r} exceeds forward divergence {d_fwd[k].item()!r}")),
            (below, lambda k: IdentityMismatch(
                f"lautum {lautum[k].item()!r} is below reverse divergence {d_rev[k].item()!r}")),
            (unequal, lambda k: IdentityMismatch("information sum does not match divergence sum")),
        )


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
        values = (self.gen, self.iskl_over_gamma, self.reg_gap, self.lam)
        if self.trace_cov is not None:
            values += (self.trace_cov,)
        if not all(map(math.isfinite, values)):
            raise IdentityMismatch(f"decomposition terms must be finite, got {values!r}")
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
    require_real("lam", lam, ">=", 0)
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
    kernel = _Sweep(stack, *_gibbs_log_rows(stack._log_prior, gamma, energy), (gamma,))

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
        iskl_over_gamma=_info_report(kernel.information[:, 0]).symmetrized / gamma,
        reg_gap=gap(regularizer),
        lam=float(lam),
        trace_cov=trace_cov,
    )


def empirical_risk_curve(
    problem: LearningProblem, gammas: Sequence[float]
) -> list[float]:
    """E[empirical risk] per inverse temperature; the sequence is
    non-increasing for ascending gammas.  A gamma that is not a finite real
    >= 0 raises GammaNonPositive before the order is checked."""
    values = [_require_gamma(gamma) for gamma in gammas]
    if not values:
        raise InvalidInput("need at least one gamma")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise InvalidInput("gammas must be strictly increasing")
    # map keeps no member between calls, so one chunk is alive at a time; a
    # loop variable over the members would hold one into the next chunk
    risks = map(operator.attrgetter("risks"), _gibbs_sweep((problem,), values))
    return [empirical for _, empirical in risks]


def concavity_probe(
    components: Sequence[tuple[float, DataModel]],
    problem: LearningProblem,
    gamma: float,
) -> tuple[float, float]:
    """(gen_mixture, avg_gen): the generalization error of the mixture
    data law and the weighted average of the components' errors, both read
    with the problem's one Gibbs kernel (it depends only on loss, prior and
    gamma) under each law, on the problem's own index matrix.  Comparing
    the two is the CLI's mixture_concavity gate, not a theorem: the mutual
    information part of the error is concave in the data law, but the
    lautum part is not, and on roughly 1% of random two-component mixtures
    the total dips below the average by amounts far above rounding (1e-6
    to 1e-3, confirmed with 50-digit arithmetic)."""
    _require_gamma(gamma)
    components = tuple(components)
    weights = ProbVec(np.array([w for w, _ in components], dtype=np.float64))
    own = problem._stack
    indices = own._dataset_indices
    laws = []
    for _, model in components:
        if isinstance(model, IIDData) and len(model.marginal) == problem.num_samples_symbols:
            # _Stack._dataset_probs of the component on its own
            laws.append(np.prod(model.marginal.weights[indices], axis=-1))
        elif isinstance(model, JointData) and model.weights.size == indices.shape[0]:
            laws.append(model.weights)
        else:
            raise InvalidInput("a component law does not match the problem's datasets")
    mixture = np.zeros(problem.dataset_count)
    for w, probs in zip(weights.weights, laws):
        mixture += w * probs
    # one kernel read under each law, the mixture's first
    laws = np.stack([mixture, *laws])[:, None]
    kernel = _Sweep(own, *_gibbs_log_rows(own._log_prior, gamma, own._empirical_risk), (gamma,))
    risk = np.broadcast_to(own._empirical_risk, laws.shape[:2] + own._empirical_risk.shape[2:])
    population, empirical = kernel.means(risk, laws)
    gen_mixture, *gens = (population - empirical).ravel().tolist()
    avg_gen = sum(float(w) * gen for w, gen in zip(weights.weights, gens))
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
    require_real("epsilon", epsilon, ">", 0, "<", 0.125, error=EpsilonOutOfRange)
    cube = np.empty((2, 2, 2))
    cube[:, 0, 0] = 0.125
    for z1, z2 in ((0, 1), (1, 0), (1, 1)):
        cube[1, z1, z2] = 0.25 - epsilon
        cube[0, z1, z2] = epsilon

    info_first = info_triple(JointTable(cube.sum(axis=2)))
    info_second = info_triple(JointTable(cube.sum(axis=1)))
    # the pair (z1, z2) as one column symbol, 2 * z1 + z2
    info_pair = info_triple(JointTable(cube.reshape(2, 4)))
    individual_sum = info_first.symmetrized + info_second.symmetrized
    return ChainRuleReport(
        info_first=info_first,
        info_second=info_second,
        info_pair=info_pair,
        individual_sum=individual_sum,
        sum_exceeds_joint=individual_sum > info_pair.symmetrized,
    )
