"""Gaussian mean-estimation example: closed forms, sampling, bounds."""

import math
import tracemalloc

import numpy as np
import pytest

from gibbslab import (
    DeltaOutOfRange,
    GaussianChannel,
    GaussianMeanConfig,
    InvalidInput,
    NTooSmall,
    gaussian_channel_info,
    ismi_bound,
    mc_mean_gen,
    mean_closed_forms,
    pac_bayes_bound,
    pac_bayes_coverage,
)
from gibbslab.gaussian import MAX_DIM


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


def test_channel_info_against_block_covariance_oracle():
    rng = np.random.default_rng(2)
    for _ in range(15):
        dx = int(rng.integers(1, 4))
        dy = int(rng.integers(1, 4))
        A = rng.normal(size=(dy, dx))
        root = rng.normal(size=(dx, dx))
        Sigma = root @ root.T + 0.3 * np.eye(dx)
        rootn = rng.normal(size=(dy, dy))
        SigmaN = rootn @ rootn.T + 0.3 * np.eye(dy)
        mutual, lautum = gaussian_channel_info(
            GaussianChannel(A=A, Sigma=Sigma, SigmaN=SigmaN)
        )
        cross = Sigma @ A.T
        joint = np.block([[Sigma, cross], [cross.T, A @ Sigma @ A.T + SigmaN]])
        product = np.block(
            [[Sigma, np.zeros((dx, dy))], [np.zeros((dy, dx)), A @ Sigma @ A.T + SigmaN]]
        )
        zero = np.zeros(dx + dy)
        mutual_oracle = gaussian_kl(zero, joint, zero, product)
        lautum_oracle = gaussian_kl(zero, product, zero, joint)
        assert abs(mutual - mutual_oracle) < 1e-10 * max(1.0, mutual_oracle)
        assert abs(lautum - lautum_oracle) < 1e-10 * max(1.0, lautum_oracle)


def test_channel_info_scalar_closed_form():
    mutual, lautum = gaussian_channel_info(
        GaussianChannel(A=np.array([[1.0]]), Sigma=np.array([[2.0]]), SigmaN=np.array([[0.5]]))
    )
    rho_sq = 2.0 / 2.5
    assert abs(mutual - (-0.5 * math.log(1.0 - rho_sq))) < 1e-14
    assert lautum > 0.0


def test_channel_info_is_the_scipy_cholesky_solve_bit_for_bit():
    # pins the solver: a switch to another factorization moves digits
    from scipy.linalg import cho_factor, cho_solve

    rng = np.random.default_rng(3)
    for _ in range(20):
        dx = int(rng.integers(2, 6))
        dy = int(rng.integers(2, 6))
        A = rng.normal(size=(dy, dx))
        root = rng.normal(size=(dx, dx))
        rootn = rng.normal(size=(dy, dy))
        channel = GaussianChannel(
            A=A, Sigma=root @ root.T + 0.3 * np.eye(dx), SigmaN=rootn @ rootn.T + 0.3 * np.eye(dy)
        )
        noise = cho_factor((channel.SigmaN + channel.SigmaN.T) / 2.0, lower=True)
        m = channel.A @ channel.Sigma @ channel.A.T
        _, logdet_total = np.linalg.slogdet(channel.SigmaN + m)
        mutual = 0.5 * (logdet_total - 2.0 * float(np.log(np.diag(noise[0])).sum()))
        lautum = float(np.trace(cho_solve(noise, m))) - mutual
        assert gaussian_channel_info(channel) == (mutual, lautum)


def test_mean_closed_forms_factors_each_covariance_once(monkeypatch):
    # the channel keeps the SigmaN factor that validates it, so the
    # information split factors Sigma and SigmaN once each
    import scipy.linalg

    calls = []
    factor = scipy.linalg.cho_factor

    def counted(*args, **kwargs):
        calls.append(args)
        return factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counted)
    for d in (1, 3):
        calls.clear()
        mean_closed_forms(make_config(d=d))
        assert len(calls) == 2


def test_ismi_per_sample_information_matches_channel():
    # I(W; Z_i) through the scalar channel Z_i -> W with the other n - 1
    # samples and the posterior noise folded into the channel noise
    cfg = make_config(d=1, n=9, sigma0_sq=1.2, sigmaZ_sq=0.8, sigma_sq=1.1)
    report = ismi_bound(cfg)
    a = cfg.sigma1_sq / cfg.sigma_sq
    noise = a * a * (cfg.n - 1) * cfg.sigmaZ_sq + cfg.sigma1_sq
    mutual, _ = gaussian_channel_info(
        GaussianChannel(
            A=np.array([[a]]),
            Sigma=np.array([[cfg.sigmaZ_sq]]),
            SigmaN=np.array([[noise]]),
        )
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


def test_pac_bayes_coverage_memory_is_gaps_plus_one_block():
    # the (trials,) gaps (80 kB) and two (64, grid) arrays (0.4 MB each);
    # an unblocked (trials, n) draw alone would take 1.6 MB and the
    # (trials, grid) empirical risks 64 MB
    assert traced_peak(pac_bayes_coverage, pac_config(20, 1.0), 2.0, 10_000, 1) < 1_500_000


def test_pac_bayes_coverage_validation():
    cfg = pac_config(20, 1.0)
    with pytest.raises(InvalidInput):
        pac_bayes_coverage(cfg, 2.0, 300, 3)
    wide = make_config(d=2, n=20)
    with pytest.raises(InvalidInput):
        pac_bayes_coverage(wide, 2.0, 1000, 3)
