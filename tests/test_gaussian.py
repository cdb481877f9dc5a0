"""Gaussian mean-estimation example: closed forms, sampling, bounds."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gibbslab import (
    DeltaOutOfRange,
    GaussianMeanConfig,
    IdentityMismatch,
    InvalidInput,
    NTooSmall,
    ismi_bound,
    mc_mean_gen,
    mean_closed_forms,
    pac_bayes_bound,
    pac_bayes_coverage,
)
import gibbslab.gaussian
from gibbslab.gaussian import COVERAGE_GRID, HERMITE_NODES, MAX_DIM
from gibbslab.samplers import BLOCK_TRIALS, counter_rng


def make_config(d=2, n=12, sigma0_sq=1.5, sigmaZ_sq=0.7, sigma_sq=1.0, shift=None):
    mu = np.zeros(d)
    mu0 = np.zeros(d) if shift is None else np.full(d, shift)
    return GaussianMeanConfig(
        d=d, mu=mu, mu0=mu0, sigma0_sq=sigma0_sq,
        sigmaZ_sq=sigmaZ_sq, sigma_sq=sigma_sq, n=n,
    )


def test_config_derived_quantities():
    cfg = make_config()
    assert cfg.gamma == cfg.n / (2.0 * cfg.sigma_sq)
    oracle = cfg.sigma0_sq * cfg.sigma_sq / (cfg.n * cfg.sigma0_sq + cfg.sigma_sq)
    assert abs(cfg.sigma1_sq - oracle) < 1e-16


def test_config_validation():
    with pytest.raises(InvalidInput):
        make_config(d=0)
    with pytest.raises(InvalidInput):
        make_config(d=MAX_DIM + 1)
    with pytest.raises(InvalidInput):
        make_config(sigma0_sq=-1.0)
    with pytest.raises(InvalidInput):
        make_config(sigma_sq=0.0)
    with pytest.raises(InvalidInput):
        make_config(sigmaZ_sq=-0.1)
    with pytest.raises(InvalidInput):
        GaussianMeanConfig(
            d=2, mu=(0.0, 0.0, 0.0), mu0=(0.0, 0.0), sigma0_sq=1.0,
            sigmaZ_sq=1.0, sigma_sq=1.0, n=5,
        )


def test_posterior_mean_shrinkage():
    cfg = make_config(d=1, n=4, sigma0_sq=2.0, sigmaZ_sq=1.0, sigma_sq=1.0)
    samples = np.array([[1.0], [2.0], [3.0], [2.0]])
    s1 = cfg.sigma1_sq
    oracle = s1 * (cfg.mu0 / cfg.sigma0_sq + samples.sum(axis=0) / cfg.sigma_sq)
    assert np.allclose(cfg.posterior_mean(samples), oracle, atol=1e-15)


def test_closed_form_gen_matches_coupling_formula():
    # gen = 2 tr Cov(W, mean of Z) = 2 d sigma1^2 sigmaZ^2 / sigma^2,
    # independent of the prior-mean shift
    rng = np.random.default_rng(0)
    for _ in range(20):
        cfg = make_config(
            d=int(rng.integers(1, 6)),
            n=int(rng.integers(1, 40)),
            sigma0_sq=float(rng.uniform(0.2, 4.0)),
            sigmaZ_sq=float(rng.uniform(0.0, 3.0)),
            sigma_sq=float(rng.uniform(0.3, 3.0)),
            shift=float(rng.uniform(-1.0, 1.0)),
        )
        forms = mean_closed_forms(cfg)
        oracle = 2.0 * cfg.d * cfg.sigma1_sq * cfg.sigmaZ_sq / cfg.sigma_sq
        assert abs(forms.gen - oracle) <= 1e-12 * max(1.0, oracle)


def test_closed_form_information_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        cfg = make_config(
            d=int(rng.integers(1, 5)),
            n=int(rng.integers(2, 60)),
            sigmaZ_sq=float(rng.uniform(0.1, 2.0)),
            shift=float(rng.uniform(-0.8, 0.8)),
        )
        forms = mean_closed_forms(cfg)
        assert abs(forms.iskl - (forms.mutual + forms.lautum)) < 1e-10 * max(1.0, forms.iskl)
        assert abs(forms.iskl - cfg.gamma * forms.gen) < 1e-10 * max(1.0, forms.iskl)


def test_closed_forms_degenerate_samples():
    # a point-mass sample law carries no information and no error gap
    cfg = make_config(sigmaZ_sq=0.0)
    forms = mean_closed_forms(cfg)
    assert forms.gen == 0.0
    assert abs(forms.mutual) < 1e-14
    assert abs(forms.lautum) < 1e-14


def gaussian_kl(mean_a, cov_a, mean_b, cov_b):
    # KL(N_a || N_b) for full covariance matrices
    d = cov_a.shape[0]
    solve = np.linalg.solve(cov_b, cov_a)
    quad = np.linalg.solve(cov_b, mean_b - mean_a) @ (mean_b - mean_a)
    _, logdet_a = np.linalg.slogdet(cov_a)
    _, logdet_b = np.linalg.slogdet(cov_b)
    return 0.5 * (np.trace(solve) - d + quad + logdet_b - logdet_a)


def channel_oracle(A, Sigma, SigmaN):
    """(mutual, lautum) of Y = A X + N with Gaussian input and noise, as the
    two KL divergences between the block covariances of the joint law of
    (X, Y) and of the product of its marginals."""
    dx, dy = Sigma.shape[0], SigmaN.shape[0]
    cross = Sigma @ A.T
    output = A @ Sigma @ A.T + SigmaN
    joint = np.block([[Sigma, cross], [cross.T, output]])
    product = np.block([[Sigma, np.zeros((dx, dy))], [np.zeros((dy, dx)), output]])
    zero = np.zeros(dx + dy)
    return gaussian_kl(zero, joint, zero, product), gaussian_kl(zero, product, zero, joint)


def reduced_channel_oracle(cfg):
    """The oracle on mean_closed_forms' reduced channel: the centered sample
    sum through A = (sigma1_sq / sigma_sq) I, with input covariance
    n sigmaZ_sq I and noise covariance sigma1_sq I."""
    eye = np.eye(cfg.d)
    return channel_oracle(
        (cfg.sigma1_sq / cfg.sigma_sq) * eye, cfg.n * cfg.sigmaZ_sq * eye, cfg.sigma1_sq * eye
    )


def test_channel_info_against_block_covariance_oracle():
    rng = np.random.default_rng(2)
    for _ in range(15):
        cfg = make_config(
            d=int(rng.integers(1, 5)), n=int(rng.integers(1, 200)),
            sigma0_sq=float(rng.uniform(0.1, 3.0)), sigmaZ_sq=float(rng.uniform(0.1, 3.0)),
            sigma_sq=float(rng.uniform(0.1, 3.0)),
        )
        forms = mean_closed_forms(cfg)
        mutual_oracle, lautum_oracle = reduced_channel_oracle(cfg)
        assert abs(forms.mutual - mutual_oracle) < 1e-10 * max(1.0, mutual_oracle)
        assert abs(forms.lautum - lautum_oracle) < 1e-10 * max(1.0, lautum_oracle)


def test_channel_info_scalar_closed_form():
    # d = 1: mutual is -ln(1 - rho^2) / 2 for the squared correlation rho^2
    # of the sample sum and W
    cfg = make_config(d=1, n=3, sigma0_sq=2.0, sigmaZ_sq=0.5, sigma_sq=1.5)
    forms = mean_closed_forms(cfg)
    a = cfg.sigma1_sq / cfg.sigma_sq
    signal = a * a * cfg.n * cfg.sigmaZ_sq
    rho_sq = signal / (signal + cfg.sigma1_sq)
    assert abs(forms.mutual - (-0.5 * math.log(1.0 - rho_sq))) < 1e-14
    mutual_oracle, lautum_oracle = reduced_channel_oracle(cfg)
    assert abs(forms.mutual - mutual_oracle) < 1e-10 * max(1.0, mutual_oracle)
    assert abs(forms.lautum - lautum_oracle) < 1e-10 * max(1.0, lautum_oracle)
    assert forms.lautum > forms.mutual > 0.0


def test_mean_closed_forms_reject_a_non_finite_value():
    # a NaN gap is not above any limit, so finiteness is tested apart
    forms = mean_closed_forms(make_config())
    for name in ("sigma1_sq", "gen", "mutual", "lautum", "iskl"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(IdentityMismatch):
                dataclasses.replace(forms, **{name: bad})


def test_ismi_per_sample_information_matches_channel():
    # I(W; Z_i) through the scalar channel Z_i -> W with the other n - 1
    # samples and the posterior noise folded into the channel noise
    cfg = make_config(d=1, n=9, sigma0_sq=1.2, sigmaZ_sq=0.8, sigma_sq=1.1)
    report = ismi_bound(cfg)
    a = cfg.sigma1_sq / cfg.sigma_sq
    noise = a * a * (cfg.n - 1) * cfg.sigmaZ_sq + cfg.sigma1_sq
    mutual, _ = channel_oracle(
        np.array([[a]]), np.array([[cfg.sigmaZ_sq]]), np.array([[noise]])
    )
    assert abs(report.per_sample_mi - mutual) < 1e-12


def test_ismi_bound_scaling_and_domination():
    # the bound decays like 1 / sqrt(n) against the exact 1 / n error
    b_small = ismi_bound(make_config(d=1, n=100, sigmaZ_sq=1.0))
    b_large = ismi_bound(make_config(d=1, n=10000, sigmaZ_sq=1.0))
    ratio = b_small.bound / b_large.bound
    assert abs(ratio - 10.0) < 1.0
    for n in (20, 100, 1000, 10000):
        cfg = make_config(d=1, n=n, sigmaZ_sq=1.0)
        assert ismi_bound(cfg).bound >= mean_closed_forms(cfg).gen


def test_ismi_bound_rejects_tiny_n():
    with pytest.raises(NTooSmall):
        ismi_bound(make_config(n=1))


def test_mc_mean_gen_matches_closed_form():
    cfg = make_config(d=2, n=10, sigmaZ_sq=1.0, shift=0.4)
    forms = mean_closed_forms(cfg)
    for law in ("gaussian", "two_point"):
        est, se = mc_mean_gen(cfg, 4000, 11, law=law)
        assert abs(est - forms.gen) <= 4.0 * se


def test_mc_mean_gen_deterministic():
    cfg = make_config(d=1, n=5)
    first = mc_mean_gen(cfg, 1000, 3)
    second = mc_mean_gen(cfg, 1000, 3)
    assert first == second
    other = mc_mean_gen(cfg, 1000, 4)
    assert first != other


def test_mc_mean_gen_validation():
    cfg = make_config()
    with pytest.raises(InvalidInput):
        mc_mean_gen(cfg, 999, 0)
    with pytest.raises(InvalidInput):
        mc_mean_gen(cfg, 1000, 0, law="uniform")


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_mc_mean_gen_rejects_a_seed_philox_cannot_take(seed):
    with pytest.raises(InvalidInput, match="seed"):
        mc_mean_gen(make_config(), 1000, seed)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize(
    "record, trials, seed, pins",
    [
        # 2000 = 31 * 64 + 16 trials in chunks of 7 blocks at n * d = 80
        ({"d": 4, "mu": 0.0, "mu0": 0.5, "sigma0_sq": 1.0, "sigmaZ_sq": 0.5,
          "sigma_sq": 2.0, "n": 20}, 2000, 7,
         {"gaussian": ("0x1.8c651e24bda7dp-3", "0x1.8ec30f451ef64p-7"),
          "two_point": ("0x1.744989d8322b3p-3", "0x1.d224b4361a2aep-8")}),
        # 25,000 = 390 * 64 + 40 trials in chunks of 78 blocks at n * d = 5
        ({"d": 1, "mu": 0.0, "mu0": 0.0, "sigma0_sq": 1.0, "sigmaZ_sq": 1.0,
          "sigma_sq": 1.0, "n": 5}, 25_000, 11,
         {"gaussian": ("0x1.4cf4ba4833719p-2", "0x1.b7a82072c5c25p-8"),
          "two_point": ("0x1.48af85cd6f1eap-2", "0x1.31458ccade10bp-8")}),
    ],
)
def test_mc_mean_gen_pinned_digits(record, trials, seed, pins):
    # recorded when every block's arithmetic ran on its own; a trial's
    # gap must not depend on how its block is grouped with others
    cfg = GaussianMeanConfig(**record)
    for law, expected in pins.items():
        estimate, std_error = mc_mean_gen(cfg, trials, seed, law=law)
        assert (estimate.hex(), std_error.hex()) == expected


def test_mc_mean_gen_memory_is_gaps_plus_one_block():
    # the (trials,) gaps (0.8 MB), the deviations the standard error takes
    # from them, and one chunk of blocks, whose train and fresh draws and
    # squared distances stay within BLOCK_ELEMENTS (0.8 MB) together; one
    # unblocked (trials, n, d) draw alone would take 64 MB
    cfg = make_config(d=4, n=20)
    assert traced_peak(mc_mean_gen, cfg, 100_000, 1) < 3_000_000


def pac_config(n, sigma_sq):
    return GaussianMeanConfig(
        d=1, mu=(0.0,), mu0=(0.0,), sigma0_sq=1.0,
        sigmaZ_sq=1.0, sigma_sq=sigma_sq, n=n,
    )


def test_pac_bayes_bound_frozen_values():
    # spot values computed once with 50-digit arithmetic
    cases = [
        ((20, 1.0), (0.0, 0.05, 0.0, 1.0), 2.5935955417947424),
        ((50, 12.5), (0.3, 0.1, 0.25, 0.5), 0.34875235268465033),
        ((400, 2.0), (1.5, 0.25, 1.0, 2.0), 4.3757393970022603),
    ]
    for (n, sigma_sq), (shift, delta, c_p, sigma), expected in cases:
        value = pac_bayes_bound(pac_config(n, sigma_sq), shift, delta, c_p, sigma)
        assert abs(value - expected) <= 1e-12 * expected


def test_pac_bayes_bound_monotone_in_delta():
    cfg = pac_config(30, 1.0)
    values = [pac_bayes_bound(cfg, 0.1, delta, 0.0, 1.0) for delta in (0.01, 0.05, 0.2, 0.4)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_pac_bayes_bound_validation():
    cfg = pac_config(30, 1.0)
    for bad in (0.0, 0.5, 0.9, -0.1):
        with pytest.raises(DeltaOutOfRange):
            pac_bayes_bound(cfg, 0.0, bad, 0.0, 1.0)
    with pytest.raises(InvalidInput):
        pac_bayes_bound(cfg, -0.1, 0.05, 0.0, 1.0)
    with pytest.raises(InvalidInput):
        pac_bayes_bound(cfg, 0.0, 0.05, -0.5, 1.0)
    with pytest.raises(InvalidInput):
        pac_bayes_bound(cfg, 0.0, 0.05, 0.0, 0.0)


def test_pac_bayes_coverage_report():
    cfg = pac_config(20, 1.0)
    report = pac_bayes_coverage(cfg, 2.0, 1000, 3)
    assert report.trials == 1000
    assert set(report.bounds) == {0.05, 0.1}
    for delta, bound in report.bounds.items():
        assert report.coverage[delta] >= 1.0 - 2.0 * delta
        assert bound > 0.0
    assert 0.0 <= report.mean_gap <= report.max_gap
    # clipped losses keep every gap under the coarsest possible bound
    assert report.max_gap <= max(report.bounds.values())


def test_pac_bayes_coverage_deterministic():
    cfg = pac_config(20, 1.0)
    a = pac_bayes_coverage(cfg, 2.0, 1000, 5)
    b = pac_bayes_coverage(cfg, 2.0, 1000, 5)
    assert a.coverage == b.coverage and a.mean_gap == b.mean_gap


def coverage_grid(config):
    mu, mu0 = float(config.mu[0]), float(config.mu0[0])
    span = 10.0 * max(math.sqrt(config.sigma0_sq), math.sqrt(config.sigmaZ_sq), 1e-3)
    return np.linspace(min(mu0, mu) - span, max(mu0, mu) + span, COVERAGE_GRID)


def coverage_draws(config, trials, seed):
    """pac_bayes_coverage's (trials, n) standard normal draws."""
    return np.concatenate([
        counter_rng(seed, 0, first // BLOCK_TRIALS).standard_normal(
            (min(BLOCK_TRIALS, trials - first), config.n))
        for first in range(0, trials, BLOCK_TRIALS)
    ])


def coverage_gaps_of_draws(config, clip, draws):
    """pac_bayes_coverage's gaps, one trial at a time on a 1-D grid row, in
    the kernel's order of operations: the empirical risk summed over the
    samples in draw order on every grid point, then / n, * -gamma, + log
    prior, the max shift, exp, normalizing, and the product with
    pop_risk - emp."""
    mu, mu0 = float(config.mu[0]), float(config.mu0[0])
    sz = math.sqrt(config.sigmaZ_sq)
    grid = coverage_grid(config)
    log_prior = -((grid - mu0) ** 2) / (2.0 * config.sigma0_sq)
    nodes, weights = np.polynomial.hermite.hermgauss(HERMITE_NODES)
    z_nodes = mu + math.sqrt(2.0) * sz * nodes
    pop_risk = np.minimum((grid[:, None] - z_nodes[None, :]) ** 2, clip) @ (
        weights / math.sqrt(math.pi))
    gaps = []
    for samples in draws * sz + mu:
        emp = np.zeros(COVERAGE_GRID)
        for z in samples:
            emp += np.minimum(np.square(grid - z), clip)
        emp /= config.n
        post = emp * -config.gamma
        post += log_prior
        post -= post.max()
        post = np.exp(post)
        post /= post.sum()
        gaps.append(abs(np.einsum("g,g->", post, pop_risk - emp)))
    return np.array(gaps)


def coverage_gaps_by_trial(config, clip, trials, seed):
    return coverage_gaps_of_draws(config, clip, coverage_draws(config, trials, seed))


@pytest.mark.parametrize("seed", [0, 11])
def test_pac_bayes_coverage_equals_a_per_trial_loop(seed):
    config = GaussianMeanConfig(d=1, mu=(0.4,), mu0=(-0.3,), sigma0_sq=2.0,
                                sigmaZ_sq=0.8, sigma_sq=3.0, n=5)
    # 1000 trials: 15 full blocks and a short last one
    report = pac_bayes_coverage(config, 1.5, 1000, seed)
    gaps = coverage_gaps_by_trial(config, 1.5, 1000, seed)
    assert report.mean_gap == gaps.mean()
    assert report.max_gap == gaps.max()
    assert report.coverage == {
        delta: float((gaps <= bound).mean()) for delta, bound in report.bounds.items()
    }


def kernel_gaps(monkeypatch, config, clip, trials, seed, draws=None):
    """pac_bayes_coverage's per-trial gaps.  Given ``draws``, each block
    takes its standard normal draws from the next rows of draws instead of
    its generator."""
    real = gibbslab.gaussian.block_gaps
    captured = []

    class Rows:
        taken = 0

        def standard_normal(self, out):
            out[...] = draws[self.taken : self.taken + len(out)]
            self.taken += len(out)

    def capturing(trials, seed, gap_chunk, trial_elements):
        if draws is not None:
            inner, rows = gap_chunk, Rows()
            gap_chunk = lambda size, blocks: inner(size, ((rows, r) for _, r in blocks))
        captured.append(real(trials, seed, gap_chunk, trial_elements))
        return captured[-1]

    monkeypatch.setattr(gibbslab.gaussian, "block_gaps", capturing)
    pac_bayes_coverage(config, clip, trials, seed)
    return captured[0]


def window_config(n=5, **changes):
    fields = dict(d=1, mu=(0.4,), mu0=(-0.3,), sigma0_sq=2.0, sigmaZ_sq=0.8, sigma_sq=3.0, n=n)
    return GaussianMeanConfig(**{**fields, **changes})


@pytest.mark.parametrize("config, clip", [
    # clips whose sums over the samples are not multiples of clip
    (window_config(), 0.1),
    (window_config(), 0.3),
    # sqrt(clip) exceeds the grid's width: the window is the whole grid
    (window_config(), 1e4),
    # samples reach far past the prior's mass
    (window_config(sigma0_sq=1e-4, sigmaZ_sq=4.0), 0.3),
    # the rounding of the window's ends at the grid's magnitude
    (window_config(mu=(1e6,), mu0=(1e6 + 0.5,)), 0.1),
    *[(window_config(n=n), 0.1) for n in (1, 2, 3, 7, 50)],
])
def test_pac_bayes_coverage_window_keeps_every_gap(monkeypatch, config, clip):
    # every grid column outside a block's window holds the bits the sum
    # over all columns gives
    gaps = kernel_gaps(monkeypatch, config, clip, 1000, 4)
    assert np.array_equal(gaps, coverage_gaps_by_trial(config, clip, 1000, 4))


@pytest.mark.parametrize("mu, below, above", [
    # g = 0: the edge samples lie sqrt(clip) from g, and reach must not
    # fall short of sqrt(clip)
    (0.0, -math.sqrt(0.3), math.sqrt(0.3)),
    # g = 0.05 + 7e-16: g - z rounds down to sqrt(clip) from above it,
    # so reach must exceed sqrt(clip)
    (0.05, -0.5477225575051654, 0.5477225575051667),
])
def test_pac_bayes_coverage_window_edges_hold_to_one_ulp(monkeypatch, mu, below, above):
    # the narrow prior puts nearly all the posterior on grid column 400,
    # g, so a gap reads emp there to the ulp.  Block 0's largest sample
    # and block 1's smallest, mu + below and mu + above, put (g - z)^2
    # one ulp below clip, at the window's edges; blocks 2 to 4 reach past
    # the grid's ends, blocks 3 and 4 wholly, which empties their windows
    config = GaussianMeanConfig(d=1, mu=(mu,), mu0=(mu,), sigma0_sq=1e-6,
                                sigmaZ_sq=1.0, sigma_sq=1.0, n=1)
    clip = 0.3
    g = coverage_grid(config)[400]
    for z in (mu + below, mu + above):
        assert (g - z) ** 2 == np.nextafter(clip, 0.0)
    draws = coverage_draws(config, 1000, 2)
    spread = np.abs(draws[:64]) + 0.01
    draws[:64], draws[0] = below - spread, below
    draws[64:128], draws[64] = above + spread, above
    draws[128:192] = np.copysign(12.0 + 3.0 * spread, draws[128:192])
    draws[192:256] = 11.0 + spread
    draws[256:320] = -11.0 - spread
    gaps = kernel_gaps(monkeypatch, config, clip, 1000, 2, draws)
    assert np.array_equal(gaps, coverage_gaps_of_draws(config, clip, draws))


def test_pac_bayes_coverage_restores_the_ufunc_buffer_size(monkeypatch):
    # the kernel runs with a buffer of one grid row; the caller's own size
    # comes back on return and on a raise inside that scope
    old = np.setbufsize(4096)
    try:
        pac_bayes_coverage(pac_config(5, 1.0), 2.0, 1000, 0)
        assert np.getbufsize() == 4096

        def raising(*args):
            assert np.getbufsize() == gibbslab.gaussian.COVERAGE_BUFSIZE
            raise MemoryError("chunk")

        monkeypatch.setattr(gibbslab.gaussian, "block_gaps", raising)
        with pytest.raises(MemoryError, match="chunk"):
            pac_bayes_coverage(pac_config(5, 1.0), 2.0, 1000, 0)
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)


def test_pac_bayes_coverage_memory_is_gaps_plus_one_block():
    # the (trials,) gaps (80 kB) and two (64, grid) arrays (0.4 MB each);
    # an unblocked (trials, n) draw alone would take 1.6 MB and the
    # (trials, grid) empirical risks 64 MB
    assert traced_peak(pac_bayes_coverage, pac_config(20, 1.0), 2.0, 10_000, 1) < 1_500_000


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_pac_bayes_coverage_rejects_a_seed_philox_cannot_take(seed):
    with pytest.raises(InvalidInput, match="seed"):
        pac_bayes_coverage(pac_config(20, 1.0), 2.0, 1000, seed)


def test_pac_bayes_coverage_validation():
    cfg = pac_config(20, 1.0)
    with pytest.raises(InvalidInput):
        pac_bayes_coverage(cfg, 2.0, 300, 3)
    wide = make_config(d=2, n=20)
    with pytest.raises(InvalidInput):
        pac_bayes_coverage(wide, 2.0, 1000, 3)
