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
  * mutual and lautum information through the linear Gaussian channel
    identity (trace and log-determinant of the SNR matrix).

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

import numpy as np

from .errors import (
    DeltaOutOfRange,
    IdentityMismatch,
    InvalidInput,
    NTooSmall,
    NotPositiveDefinite,
)
from .samplers import block_gaps, check_trials, mean_and_std_error

MAX_DIM = 64
IDENTITY_TOL = 1e-12
# w-grid points and Gauss-Hermite nodes of the coverage experiment
COVERAGE_GRID = 801
HERMITE_NODES = 64


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
        if not (isinstance(self.d, int) and 1 <= self.d <= MAX_DIM):
            raise InvalidInput(f"d must be an integer in [1, {MAX_DIM}], got {self.d!r}")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise InvalidInput(f"n must be a positive integer, got {self.n!r}")
        for name in ("sigma0_sq", "sigma_sq"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidInput(f"{name} must be > 0, got {value!r}")
        if not (math.isfinite(self.sigmaZ_sq) and self.sigmaZ_sq >= 0.0):
            raise InvalidInput(f"sigmaZ_sq must be >= 0, got {self.sigmaZ_sq!r}")
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


def _linalg():
    """scipy.linalg, imported at the first Cholesky factorization.

    Its import takes longer than the rest of the package's (about 0.3 s on
    a 2-core machine, most of it scipy's array-API layer), and only the
    Gaussian channel and the asymptotic MLE rate factor a matrix: a
    process that runs only the exact enumeration never loads it.
    """
    import scipy.linalg

    return scipy.linalg


def _spd_cholesky(matrix: np.ndarray, name: str):
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotPositiveDefinite(f"{name} must be a square matrix, got shape {arr.shape}")
    if arr.shape[0] > MAX_DIM:
        raise InvalidInput(f"{name} exceeds the dense dimension cap {MAX_DIM}")
    scale = float(np.abs(arr).max()) or 1.0
    if float(np.abs(arr - arr.T).max()) > 1e-10 * scale:
        raise NotPositiveDefinite(f"{name} must be symmetric")
    try:
        return _linalg().cho_factor((arr + arr.T) / 2.0, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{name} is not positive definite") from exc


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """A linear channel Y = A X + N with Gaussian input and noise.  The
    Cholesky factor of SigmaN that validates it is kept (_noise_factor) for
    gaussian_channel_info."""

    A: np.ndarray
    Sigma: np.ndarray
    SigmaN: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.A, dtype=np.float64)
        if a.ndim != 2:
            raise InvalidInput(f"A must be a matrix, got shape {a.shape}")
        _spd_cholesky(self.Sigma, "Sigma")
        noise = _spd_cholesky(self.SigmaN, "SigmaN")
        sig = np.asarray(self.Sigma, dtype=np.float64)
        sign = np.asarray(self.SigmaN, dtype=np.float64)
        if a.shape[1] != sig.shape[0] or a.shape[0] != sign.shape[0]:
            raise InvalidInput(
                f"shapes disagree: A {a.shape}, Sigma {sig.shape}, SigmaN {sign.shape}"
            )
        for field_name, arr in (("A", a), ("Sigma", sig), ("SigmaN", sign)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, field_name, arr)
        noise[0].flags.writeable = False
        object.__setattr__(self, "_noise_factor", noise)


def gaussian_channel_info(channel: GaussianChannel) -> tuple[float, float]:
    """Mutual and lautum information of a Gaussian linear channel.

    With snr = SigmaN^{-1} A Sigma A^T, mutual = ln det(I + snr) / 2 and
    lautum = tr(snr) - mutual; lautum >= mutual always because the trace
    dominates the log-determinant.
    """
    noise = channel._noise_factor
    m = channel.A @ channel.Sigma @ channel.A.T
    trace_term = float(np.trace(_linalg().cho_solve(noise, m)))
    total = channel.SigmaN + m
    sign, logdet_total = np.linalg.slogdet(total)
    if sign <= 0:
        raise NotPositiveDefinite("output covariance is not positive definite")
    logdet_noise = 2.0 * float(np.log(np.diag(noise[0])).sum())
    mutual = 0.5 * (logdet_total - logdet_noise)
    lautum = trace_term - mutual
    return mutual, lautum


@dataclass(frozen=True)
class MeanClosedForms:
    """All closed forms of the mean-estimation example in one record."""

    sigma1_sq: float
    gen: float
    mutual: float
    lautum: float
    iskl: float

    def __post_init__(self) -> None:
        gap = abs((self.mutual + self.lautum) - self.iskl)
        if gap > IDENTITY_TOL * max(1.0, abs(self.iskl)):
            raise IdentityMismatch(
                f"mutual + lautum differs from the symmetrized information by {gap!r}"
            )


def mean_closed_forms(config: GaussianMeanConfig) -> MeanClosedForms:
    """Posterior variance, generalization error, and the information triple.

    The information split uses the reduced d x d channel carrying the
    centered sample sum: A = (sigma1_sq / sigma_sq) I, input covariance
    n sigmaZ_sq I, noise covariance sigma1_sq I.  The symmetrized value
    iskl always equals gamma * gen; the split into mutual and lautum is
    exact when the sample law is Gaussian.
    """
    d = config.d
    denom = config.n * config.sigma0_sq + config.sigma_sq
    gen = 2.0 * d * config.sigma0_sq * config.sigmaZ_sq / denom
    iskl = config.gamma * gen
    if config.sigmaZ_sq == 0.0:
        mutual = lautum = 0.0
    else:
        s1 = config.sigma1_sq
        eye = np.eye(d)
        channel = GaussianChannel(
            A=(s1 / config.sigma_sq) * eye,
            Sigma=config.n * config.sigmaZ_sq * eye,
            SigmaN=s1 * eye,
        )
        mutual, lautum = gaussian_channel_info(channel)
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

    def gap_chunk(size: int, blocks: list) -> np.ndarray:
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
    if not (isinstance(delta, (int, float)) and 0.0 < delta < 0.5):
        raise DeltaOutOfRange(f"delta must lie in (0, 1/2), got {delta!r}")
    if not (math.isfinite(c_p) and c_p >= 0.0):
        raise InvalidInput(f"c_p must be >= 0, got {c_p!r}")
    if not (math.isfinite(prime_shift) and prime_shift >= 0.0):
        raise InvalidInput(f"prime_shift must be >= 0, got {prime_shift!r}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise InvalidInput(f"sigma must be > 0, got {sigma!r}")
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
    """
    if config.d != 1:
        raise InvalidInput("the coverage experiment is one-dimensional")
    if not (math.isfinite(clip) and clip > 0.0):
        raise InvalidInput(f"clip must be > 0, got {clip!r}")
    check_trials(trials)
    for delta in deltas:
        if not 0.0 < delta < 0.5:
            raise DeltaOutOfRange(f"delta must lie in (0, 1/2), got {delta!r}")

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

    def gap_chunk(size: int, blocks: list) -> np.ndarray:
        samples = np.empty((size, n))
        for rng, rows in blocks:
            rng.standard_normal(out=samples[rows])
        samples *= sz
        samples += mu
        # truncated empirical risk of every trial on the grid, summed
        # over the samples in their draw order
        emp = np.zeros((size, COVERAGE_GRID))
        term = np.empty((size, COVERAGE_GRID))
        for i in range(n):
            np.subtract(grid, samples[:, i, None], out=term)
            np.square(term, out=term)
            np.minimum(term, clip, out=term)
            emp += term
        emp /= n
        # the posterior reuses the scratch buffer, keeping a chunk at two
        # (chunk, grid) arrays
        post = np.multiply(emp, -gamma, out=term)
        post += log_prior
        post -= post.max(axis=1, keepdims=True)
        np.exp(post, out=post)
        post /= post.sum(axis=1, keepdims=True)
        return np.abs(np.einsum("bg,bg->b", post, np.subtract(pop_risk, emp, out=emp)))

    # two (chunk, grid) arrays: a chunk is one block
    gaps = block_gaps(trials, seed, gap_chunk, 2 * COVERAGE_GRID)

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
