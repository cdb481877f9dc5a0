"""Closed forms for Gibbs mean estimation with Gaussian priors.

The model: n samples with mean mu and isotropic covariance sigmaZ_sq * I_d,
squared-error loss, Gaussian prior N(mu0, sigma0_sq * I_d), and inverse
temperature gamma = n / (2 * sigma_sq).  The Gibbs posterior is then the
Bayes posterior of a Gaussian likelihood with variance sigma_sq, which
makes every quantity of interest available in closed form:

  * posterior variance sigma1_sq = sigma0_sq * sigma_sq / (n * sigma0_sq + sigma_sq);
  * expected generalization error 2 d sigma0_sq sigmaZ_sq / (n sigma0_sq + sigma_sq),
    which holds for ANY sample law with covariance sigmaZ_sq * I_d, not
    just the Gaussian one;
  * mutual and lautum information of the linear Gaussian channel that
    carries the sample sum, whose SNR matrix is a multiple q I of the
    identity: (d/2) ln(1 + q) and d q minus that (see mean_closed_forms).

The module also evaluates two comparison bounds on the same example: a
per-sample mutual information bound (reproduced exactly as displayed in
its source, including the constant; see ismi_bound) and a high-probability
PAC-Bayes style bound.  The squared loss is not globally sub-Gaussian, so
the PAC-Bayes coverage experiment uses a truncated loss clip((w-z)^2, 0, b),
which is bounded in [0, b] and hence (b/2)-sub-Gaussian; the honest Gibbs
posterior of the truncated loss is computed by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    DeltaOutOfRange,
    IdentityMismatch,
    InvalidInput,
    NTooSmall,
    require_count,
    require_real,
)
from .samplers import block_gaps, check_trials, mean_and_std_error

MAX_DIM = 64
IDENTITY_TOL = 1e-12
# w-grid points and Gauss-Hermite nodes of the coverage experiment
COVERAGE_GRID = 801
HERMITE_NODES = 64
# numpy's ufunc buffer while the coverage kernel runs: one grid row, as
# setbufsize takes only multiples of 16 (see pac_bayes_coverage)
COVERAGE_BUFSIZE = 16 * (COVERAGE_GRID // 16)


def _as_vector(x: object, d: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    if arr.size == 1 and d > 1:
        arr = np.full(d, float(arr[0]))
    if arr.size != d:
        raise InvalidInput(f"{name} must have length {d}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class GaussianMeanConfig:
    """Parameters of the Gaussian mean-estimation example.

    sigmaZ_sq may be zero (a degenerate point-mass sample law); the other
    variances must be strictly positive.  The inverse temperature is the
    derived quantity gamma = n / (2 * sigma_sq).
    """

    d: int
    mu: np.ndarray
    mu0: np.ndarray
    sigma0_sq: float
    sigmaZ_sq: float
    sigma_sq: float
    n: int

    def __post_init__(self) -> None:
        require_count("d", self.d, ">=", 1, "<=", MAX_DIM)
        require_count("n", self.n, ">=", 1)
        require_real("sigma0_sq", self.sigma0_sq, ">", 0)
        require_real("sigma_sq", self.sigma_sq, ">", 0)
        require_real("sigmaZ_sq", self.sigmaZ_sq, ">=", 0)
        object.__setattr__(self, "mu", _as_vector(self.mu, self.d, "mu"))
        object.__setattr__(self, "mu0", _as_vector(self.mu0, self.d, "mu0"))

    @property
    def gamma(self) -> float:
        return self.n / (2.0 * self.sigma_sq)

    @property
    def sigma1_sq(self) -> float:
        return self.sigma0_sq * self.sigma_sq / (self.n * self.sigma0_sq + self.sigma_sq)

    def posterior_mean(self, samples: np.ndarray) -> np.ndarray:
        """Posterior mean for (..., n, d) samples: one per leading index."""
        s1 = self.sigma1_sq
        return s1 * (self.mu0 / self.sigma0_sq + samples.sum(axis=-2) / self.sigma_sq)


@dataclass(frozen=True)
class MeanClosedForms:
    """All closed forms of the mean-estimation example in one record."""

    sigma1_sq: float
    gen: float
    mutual: float
    lautum: float
    iskl: float

    def __post_init__(self) -> None:
        values = (self.sigma1_sq, self.gen, self.mutual, self.lautum, self.iskl)
        if not all(map(math.isfinite, values)):
            raise IdentityMismatch(f"closed forms must be finite, got {values!r}")
        gap = abs((self.mutual + self.lautum) - self.iskl)
        if gap > IDENTITY_TOL * max(1.0, abs(self.iskl)):
            raise IdentityMismatch(
                f"mutual + lautum differs from the symmetrized information by {gap!r}"
            )


def mean_closed_forms(config: GaussianMeanConfig) -> MeanClosedForms:
    """Posterior variance, generalization error, and the information triple.

    The information split uses the reduced d x d channel Y = A X + N that
    carries the centered sample sum: A = (sigma1_sq / sigma_sq) I, input
    covariance Sigma = n sigmaZ_sq I, noise covariance SigmaN = sigma1_sq I.
    For Gaussian X and N with snr = SigmaN^{-1} A Sigma A^T, mutual =
    h(Y) - h(Y | X) = ln det(I + snr) / 2; under the product of marginals
    Y - A X has covariance SigmaN + 2 A Sigma A^T, so lautum =
    E_prod[ln p(Y) - ln p(Y | X)] = tr(snr) - mutual.  Here snr = q I with
    the scalar q = n sigmaZ_sq sigma1_sq / sigma_sq^2, hence

        mutual = (d / 2) ln(1 + q),    lautum = d q - mutual.

    With sigma1_sq = sigma0_sq sigma_sq / (n sigma0_sq + sigma_sq), d q
    equals gamma * gen, the symmetrized value iskl; MeanClosedForms checks
    that the two formulas agree.  iskl = gamma * gen holds for any sample
    law with covariance sigmaZ_sq I; the split into mutual and lautum is
    exact when the sample law is Gaussian.
    """
    d = config.d
    denom = config.n * config.sigma0_sq + config.sigma_sq
    gen = 2.0 * d * config.sigma0_sq * config.sigmaZ_sq / denom
    iskl = config.gamma * gen
    q = config.n * config.sigmaZ_sq * config.sigma1_sq / config.sigma_sq**2
    mutual = 0.5 * d * math.log1p(q)
    lautum = d * q - mutual
    return MeanClosedForms(
        sigma1_sq=config.sigma1_sq, gen=gen, mutual=mutual, lautum=lautum, iskl=iskl
    )


def _draw_noise(rng: np.random.Generator, law: str, out: np.ndarray) -> None:
    """Fill ``out`` with unit-variance noise of the sample law."""
    if law == "gaussian":
        rng.standard_normal(out=out)
    else:  # two_point: a Rademacher sign per coordinate, matched variance
        np.multiply(rng.integers(0, 2, size=out.shape), 2.0, out=out)
        out -= 1.0


def mc_mean_gen(
    config: GaussianMeanConfig,
    trials: int,
    seed: int,
    law: str = "gaussian",
) -> tuple[float, float]:
    """Monte Carlo estimate of the generalization error of the example.

    Per trial: draw the training block, draw W from the exact Gibbs
    posterior, draw a fresh test block of the same size, and average
    |W - fresh_i|^2 - |W - train_i|^2 over coordinates i.  That difference
    is an unbiased sample of the population-minus-empirical risk gap.
    law selects the sample distribution: "gaussian" or "two_point" (a
    variance-matched Rademacher law, exercising the fact that the closed
    form depends on the sample law only through its covariance).
    Trials are drawn in blocks and evaluated in chunks of blocks (see
    samplers.block_gaps) as arrays of shape (chunk, n, d).  Returns
    (estimate, standard error); bit-reproducible for a fixed seed.
    """
    check_trials(trials)
    if law not in ("gaussian", "two_point"):
        raise InvalidInput(f"law must be 'gaussian' or 'two_point', got {law!r}")
    n, d = config.n, config.d
    scale = math.sqrt(config.sigmaZ_sq)
    post_scale = math.sqrt(config.sigma1_sq)

    def gap_chunk(size: int, blocks: Iterator) -> np.ndarray:
        train = np.empty((size, n, d))
        w = np.empty((size, d))
        fresh = np.empty((size, n, d))
        for rng, rows in blocks:
            _draw_noise(rng, law, train[rows])
            rng.standard_normal(out=w[rows])
            _draw_noise(rng, law, fresh[rows])
        for samples in (train, fresh):
            samples *= scale
            samples += config.mu
        # W is the posterior mean plus the scaled posterior noise
        w *= post_scale
        w += config.posterior_mean(train)
        # the squared deviations overwrite the samples
        for samples in (fresh, train):
            np.subtract(w[:, None, :], samples, out=samples)
            np.multiply(samples, samples, out=samples)
        gaps = fresh.sum(axis=2)
        gaps -= train.sum(axis=2)
        return gaps.mean(axis=1)

    # a trial holds n * d train and fresh elements and, while the gaps
    # are summed, n squared distances of each
    return mean_and_std_error(block_gaps(trials, seed, gap_chunk, 2 * n * (d + 1)))


@dataclass(frozen=True)
class IsmiBoundReport:
    """Per-sample mutual information bound pieces for the mean example."""

    per_sample_mi: float
    sigma_ell_sq: float
    eta: float
    bound: float

    def __post_init__(self) -> None:
        if self.per_sample_mi < 0.0 or self.bound < 0.0:
            raise InvalidInput("per-sample information and bound must be nonnegative")


def ismi_bound(config: GaussianMeanConfig) -> IsmiBoundReport:
    """The per-sample mutual information upper bound on the example.

    Uses the displayed form sqrt((d^2 s^4 + 2 d s^2 eta) / 2 * ln(1 + x))
    where s^2 is the scale of the squared-loss chi-square law, eta its
    non-centrality, and (d/2) ln(1 + x) the per-sample information.  It is
    reproduced exactly as displayed, which for very small n can dip below
    the exact generalization error; from n of about 10 on it dominates and
    scales like 1/sqrt(n) against the exact 1/n.
    """
    if config.n < 2:
        raise NTooSmall(f"the per-sample information form requires n >= 2, got {config.n}")
    d = config.d
    n = config.n
    s0 = config.sigma0_sq
    sz = config.sigmaZ_sq
    ss = config.sigma_sq
    s1 = config.sigma1_sq
    x = s0 * sz / ((n - 1) * s0 * sz + n * s0 * ss + ss * ss)
    per_sample_mi = 0.5 * d * math.log1p(x)
    sigma_ell_sq = (n * s1 * s1 / (ss * ss) + 1.0) * sz + s1
    shift = config.mu0 - config.mu
    eta = ss / (n * s0 + ss) * float(shift @ shift)
    radicand = (d * d * sigma_ell_sq**2 + 2.0 * d * sigma_ell_sq * eta) / 2.0 * math.log1p(x)
    return IsmiBoundReport(
        per_sample_mi=per_sample_mi,
        sigma_ell_sq=sigma_ell_sq,
        eta=eta,
        bound=math.sqrt(radicand),
    )


def pac_bayes_bound(
    config: GaussianMeanConfig,
    prime_shift: float,
    delta: float,
    c_p: float,
    sigma: float,
) -> float:
    """High-probability bound on the posterior-averaged risk gap.

    prime_shift is the KL divergence (nats) from the reference sample law
    that defines the prior to the true one; c_p is the divergence-ratio
    constant of that prior (zero is always admissible); sigma is the
    sub-Gaussian parameter of the loss, supplied by the caller because the
    squared loss is not globally sub-Gaussian (use a truncated loss with
    sigma = b / 2).  Holds with probability at least 1 - 2 delta.
    """
    require_real("delta", delta, ">", 0, "<", 0.5, error=DeltaOutOfRange)
    require_real("c_p", c_p, ">=", 0)
    require_real("prime_shift", prime_shift, ">=", 0)
    require_real("sigma", sigma, ">", 0)
    gamma = config.gamma
    n = config.n
    eps = (2.0 * sigma * sigma * math.log(1.0 / delta) / n) ** 0.25
    base = sigma * sigma * gamma / ((1.0 + c_p) * n)
    return 2.0 * base + 2.0 * math.sqrt(base) * (
        (2.0 * sigma * sigma * prime_shift) ** 0.25 + eps
    ) + eps * eps


@dataclass(frozen=True, eq=False)
class CoverageReport:
    """Empirical coverage of the high-probability bound on one experiment."""

    bounds: dict[float, float]
    coverage: dict[float, float]
    trials: int
    mean_gap: float
    max_gap: float


def pac_bayes_coverage(
    config: GaussianMeanConfig,
    clip: float,
    trials: int,
    seed: int,
    deltas: tuple[float, ...] = (0.05, 0.1),
) -> CoverageReport:
    """Coverage experiment for the high-probability bound, d = 1 only.

    The loss is min((w - z)^2, clip), bounded in [0, clip] and therefore
    (clip / 2)-sub-Gaussian under any sample law.  Each trial draws a
    Gaussian training set, forms the exact Gibbs posterior of the
    truncated empirical risk on a w-grid of COVERAGE_GRID points, and
    records the absolute posterior-averaged gap between truncated
    population and empirical risk; population risk comes from
    Gauss-Hermite quadrature on HERMITE_NODES nodes.  The prior reference
    law is the true sample law, so the divergence shift is zero and
    c_p = 0 is admissible.  Coverage per delta is the fraction of
    trials whose gap stays below the bound.  Trials are drawn in blocks
    (see samplers.block_gaps), whose empirical risks and posteriors are
    (block, grid) arrays.

    A chunk's empirical risks are summed over its samples only on the
    grid columns [lo, hi) within reach of the chunk's sample range, reach
    being sqrt(clip) (1 + 1e-9) plus 4 eps times the largest grid
    magnitude, eps the float64 machine epsilon.  A column g outside lies
    farther than reach from every sample z.  The rounding of the window's
    ends (under an ulp of the grid magnitude wherever it can move a
    column), of g - z and of its square (a relative ulp each) cannot
    bring fl((g - z)^2) below clip, so every term there truncates to clip
    and the full loop would sum 0.0 + clip + ... + clip in draw order.
    Those columns take that one sum, computed in the same order, so they
    hold the full loop's bits; n * clip would not (at clip = 0.1 it
    differs from 6 samples on, and clip itself from the quotient by n
    from 3 on).  The posterior's max, exp, sum and product still read
    whole rows.

    The kernel runs with numpy's ufunc buffer at COVERAGE_BUFSIZE
    elements, one grid row, and the caller's size is restored on return
    or raise.  Each sample's subtraction and the prior, max and sum steps
    broadcast a (block, 1) column or a (grid,) row against the block, and
    numpy's buffered iterator copies such an operand through its buffer:
    at the default 8192 elements one block's 20 sample passes took
    1.5 ms on a window of 377 columns and 2.1 ms on all 801, against
    0.65 ms and 1.17 ms at one row.  The elementwise ops, row reductions
    and row products give the same bits at any buffer size (checked from
    16 to 65536 elements with numpy 2.4.6), so the buffer moves only the
    time.
    """
    if config.d != 1:
        raise InvalidInput("the coverage experiment is one-dimensional")
    require_real("clip", clip, ">", 0)
    check_trials(trials)
    for delta in deltas:
        require_real("delta", delta, ">", 0, "<", 0.5, error=DeltaOutOfRange)

    mu = float(config.mu[0])
    mu0 = float(config.mu0[0])
    s0 = math.sqrt(config.sigma0_sq)
    sz = math.sqrt(config.sigmaZ_sq)
    span = 10.0 * max(s0, sz, 1e-3)
    lo = min(mu0, mu) - span
    hi = max(mu0, mu) + span
    grid = np.linspace(lo, hi, COVERAGE_GRID)
    log_prior = -((grid - mu0) ** 2) / (2.0 * config.sigma0_sq)

    nodes, weights = np.polynomial.hermite.hermgauss(HERMITE_NODES)
    z_nodes = mu + math.sqrt(2.0) * sz * nodes
    z_weights = weights / math.sqrt(math.pi)
    pop_risk = np.minimum((grid[:, None] - z_nodes[None, :]) ** 2, clip) @ z_weights

    n = config.n
    gamma = config.gamma
    # the empirical risk sum of a cell that every sample truncates to clip
    outside = 0.0
    for _ in range(n):
        outside += clip
    reach = math.sqrt(clip) * (1.0 + 1e-9) + 4.0 * np.finfo(float).eps * float(np.abs(grid).max())

    def gap_chunk(size: int, blocks: Iterator) -> np.ndarray:
        samples = np.empty((size, n))
        for rng, rows in blocks:
            rng.standard_normal(out=samples[rows])
        samples *= sz
        samples += mu
        # only the columns [lo, hi) lie within reach of the chunk's samples
        lo = int(grid.searchsorted(samples.min() - reach))
        hi = int(grid.searchsorted(samples.max() + reach, side="right"))
        # truncated empirical risk of every trial on the grid, summed
        # over the samples in their draw order
        emp = np.zeros((size, COVERAGE_GRID))
        term = np.empty((size, COVERAGE_GRID))
        emp[:, :lo] = outside
        emp[:, hi:] = outside
        # the window's scratch rows sit packed at the front of term: a
        # strided (size, hi - lo) view of it took about a sixth longer
        part = term.reshape(-1)[: size * (hi - lo)].reshape(size, hi - lo)
        row, window = grid[lo:hi], emp[:, lo:hi]
        for i in range(n):
            np.subtract(row, samples[:, i, None], out=part)
            np.square(part, out=part)
            np.minimum(part, clip, out=part)
            window += part
        emp /= n
        # the posterior reuses the scratch buffer, keeping a chunk at two
        # (chunk, grid) arrays
        post = np.multiply(emp, -gamma, out=term)
        post += log_prior
        post -= post.max(axis=1, keepdims=True)
        np.exp(post, out=post)
        post /= post.sum(axis=1, keepdims=True)
        return np.abs(np.einsum("bg,bg->b", post, np.subtract(pop_risk, emp, out=emp)))

    # two (chunk, grid) arrays: a chunk is one block.  setbufsize, not
    # errstate, which restores the buffer size only from numpy 2.0 on
    old = np.setbufsize(COVERAGE_BUFSIZE)
    try:
        gaps = block_gaps(trials, seed, gap_chunk, 2 * COVERAGE_GRID)
    finally:
        np.setbufsize(old)

    sigma = clip / 2.0
    bounds = {
        float(delta): pac_bayes_bound(config, 0.0, float(delta), 0.0, sigma)
        for delta in deltas
    }
    coverage = {
        delta: float((gaps <= bound).mean()) for delta, bound in bounds.items()
    }
    return CoverageReport(
        bounds=bounds,
        coverage=coverage,
        trials=trials,
        mean_gap=float(gaps.mean()),
        max_gap=float(gaps.max()),
    )
