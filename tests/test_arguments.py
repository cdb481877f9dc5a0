"""The one argument rule: every scalar argument of the library refuses a
value that is not a finite real (or, for a count, not an int) with its
documented GibbsLabError subclass and a message that names the argument
first; a bool is not a number anywhere."""

import math

import numpy as np
import pytest

from gibbslab import (
    AlphaOutOfRange,
    DeltaOutOfRange,
    EpsilonOutOfRange,
    GammaNonPositive,
    GaussianMeanConfig,
    IIDData,
    InvalidInput,
    LearningProblem,
    MleSpec,
    ProbVec,
    SgldConfig,
    WellSample,
    bayes_location_regime_exact,
    bayes_location_regime_gen,
    bounds_table,
    chain_rule_example,
    concavity_probe,
    empirical_risk_curve,
    format_float,
    gen_characterizations,
    gibbs_posterior,
    instance_rng,
    instance_sweep,
    mc_mean_gen,
    pac_bayes_bound,
    pac_bayes_coverage,
    random_problem,
    regularized_gen,
)
from gibbslab.errors import OPERATORS, require_count, require_real
from gibbslab.samplers import check_seed, check_trials

NOT_REALS = [None, "1", True, math.nan, math.inf]
NOT_COUNTS = NOT_REALS + [2.0]


def problem():
    return LearningProblem(
        sample_alphabet=range(2), hypothesis_set=range(2), loss=np.array([[0.0, 1.0], [1.0, 0.5]]),
        prior=ProbVec(np.array([0.5, 0.5])), data_model=IIDData(ProbVec(np.array([0.3, 0.7]))),
        n=2,
    )


def gaussian(**fields):
    values = {"d": 1, "mu": (0.0,), "mu0": (0.0,), "sigma0_sq": 1.0, "sigmaZ_sq": 1.0,
              "sigma_sq": 1.0, "n": 20, **fields}
    return GaussianMeanConfig(**values)


def well(weight):
    return WellSample(minimizer=np.zeros(1), hessian=np.eye(1), weight=weight)


# (site, argument name, kind, error class, call of the bad value)
SITES = [
    ("LearningProblem", "n", "count", InvalidInput,
     lambda v: LearningProblem(sample_alphabet=range(2), hypothesis_set=range(2),
                               loss=np.zeros((2, 2)), prior=ProbVec(np.array([0.5, 0.5])),
                               data_model=IIDData(ProbVec(np.array([0.5, 0.5]))), n=v)),
    ("gibbs_posterior", "gamma", "real", GammaNonPositive, lambda v: gibbs_posterior(problem(), v)),
    ("gen_characterizations", "gamma", "real", GammaNonPositive,
     lambda v: gen_characterizations(problem(), v)),
    ("empirical_risk_curve", "gamma", "real", GammaNonPositive,
     lambda v: empirical_risk_curve(problem(), [0.5, v])),
    ("concavity_probe", "gamma", "real", GammaNonPositive,
     lambda v: concavity_probe([(1.0, problem().data_model)], problem(), v)),
    ("regularized_gen", "gamma", "real", GammaNonPositive,
     lambda v: regularized_gen(problem(), v, 1.0, np.zeros((2, 4)))),
    ("regularized_gen", "lam", "real", InvalidInput,
     lambda v: regularized_gen(problem(), 1.0, v, np.zeros((2, 4)))),
    ("chain_rule_example", "epsilon", "real", EpsilonOutOfRange, chain_rule_example),
    ("GibbsPosterior.renyi", "alpha", "real", AlphaOutOfRange,
     lambda v: gibbs_posterior(problem(), 1.0).renyi((2.0, v))),
    ("bounds_table", "alpha", "real", AlphaOutOfRange,
     lambda v: bounds_table(problem(), 1.0, (2.0, v))),
    ("bounds_table", "gamma", "real", GammaNonPositive, lambda v: bounds_table(problem(), v)),
    ("GaussianMeanConfig", "d", "count", InvalidInput, lambda v: gaussian(d=v)),
    ("GaussianMeanConfig", "n", "count", InvalidInput, lambda v: gaussian(n=v)),
    ("GaussianMeanConfig", "sigma0_sq", "real", InvalidInput, lambda v: gaussian(sigma0_sq=v)),
    ("GaussianMeanConfig", "sigmaZ_sq", "real", InvalidInput, lambda v: gaussian(sigmaZ_sq=v)),
    ("GaussianMeanConfig", "sigma_sq", "real", InvalidInput, lambda v: gaussian(sigma_sq=v)),
    ("pac_bayes_bound", "prime_shift", "real", InvalidInput,
     lambda v: pac_bayes_bound(gaussian(), v, 0.1, 0.0, 1.0)),
    ("pac_bayes_bound", "delta", "real", DeltaOutOfRange,
     lambda v: pac_bayes_bound(gaussian(), 0.0, v, 0.0, 1.0)),
    ("pac_bayes_bound", "c_p", "real", InvalidInput,
     lambda v: pac_bayes_bound(gaussian(), 0.0, 0.1, v, 1.0)),
    ("pac_bayes_bound", "sigma", "real", InvalidInput,
     lambda v: pac_bayes_bound(gaussian(), 0.0, 0.1, 0.0, v)),
    ("pac_bayes_coverage", "clip", "real", InvalidInput,
     lambda v: pac_bayes_coverage(gaussian(), v, 1000, 0)),
    ("pac_bayes_coverage", "trials", "count", InvalidInput,
     lambda v: pac_bayes_coverage(gaussian(), 1.0, v, 0)),
    ("pac_bayes_coverage", "seed", "count", InvalidInput,
     lambda v: pac_bayes_coverage(gaussian(), 1.0, 1000, v)),
    ("pac_bayes_coverage", "delta", "real", DeltaOutOfRange,
     lambda v: pac_bayes_coverage(gaussian(), 1.0, 1000, 0, (0.1, v))),
    ("WellSample", "weight", "real", InvalidInput, well),
    ("MleSpec", "n", "count", InvalidInput, lambda v: MleSpec(J=np.eye(1), fisher=np.eye(1), n=v)),
    ("bayes_location_regime_exact", "n", "count", InvalidInput, bayes_location_regime_exact),
    ("bayes_location_regime_exact", "prior_var", "real", InvalidInput,
     lambda v: bayes_location_regime_exact(5, v)),
    ("bayes_location_regime_gen", "n", "count", InvalidInput,
     lambda v: bayes_location_regime_gen(v, 1000, 0)),
    ("bayes_location_regime_gen", "prior_mean", "real", InvalidInput,
     lambda v: bayes_location_regime_gen(5, 1000, 0, v)),
    ("bayes_location_regime_gen", "trials", "count", InvalidInput,
     lambda v: bayes_location_regime_gen(5, v, 0)),
    ("bayes_location_regime_gen", "seed", "count", InvalidInput,
     lambda v: bayes_location_regime_gen(5, 1000, v)),
    ("mc_mean_gen", "trials", "count", InvalidInput, lambda v: mc_mean_gen(gaussian(), v, 0)),
    ("mc_mean_gen", "seed", "count", InvalidInput, lambda v: mc_mean_gen(gaussian(), 1000, v)),
    ("mc_mean_gen", "stream", "count", InvalidInput,
     lambda v: mc_mean_gen(gaussian(), 1000, 0, stream=v)),
    ("check_trials", "trials", "count", InvalidInput, check_trials),
    ("check_seed", "seed", "count", InvalidInput, check_seed),
    ("SgldConfig", "step", "real", InvalidInput, lambda v: SgldConfig(v, 1.0, 10)),
    ("SgldConfig", "gamma", "real", InvalidInput, lambda v: SgldConfig(0.1, v, 10)),
    ("SgldConfig", "iterations", "count", InvalidInput, lambda v: SgldConfig(0.1, 1.0, v)),
    ("SgldConfig", "seed", "count", InvalidInput, lambda v: SgldConfig(0.1, 1.0, 10, v)),
    ("instance_rng", "seed", "count", InvalidInput, lambda v: instance_rng(v, 0)),
    ("instance_rng", "index", "count", InvalidInput, lambda v: instance_rng(0, v)),
    ("instance_sweep", "count", "count", InvalidInput, lambda v: instance_sweep(v, 1)),
    ("instance_sweep", "seed", "count", InvalidInput, lambda v: instance_sweep(1, v)),
    *[("random_problem", cap, "count", InvalidInput,
       lambda v, cap=cap: random_problem(instance_rng(0, 0), **{cap: v}))
      for cap in ("max_symbols", "max_hypotheses", "max_n")],
    ("format_float", "value", "real", InvalidInput, format_float),
    ("format_float", "sig", "count", InvalidInput, lambda v: format_float(1.0, v)),
]


@pytest.mark.parametrize(
    "name, kind, error, call, value",
    [(name, kind, error, call, value) for _, name, kind, error, call in SITES
     for value in (NOT_COUNTS if kind == "count" else NOT_REALS)],
    ids=[f"{site}-{name}-{value!r}" for site, name, kind, _, _ in SITES
         for value in (NOT_COUNTS if kind == "count" else NOT_REALS)],
)
def test_every_scalar_argument_refuses_a_non_number(name, kind, error, call, value):
    with pytest.raises(error) as caught:
        call(value)
    kind_text = "an integer" if kind == "count" else "a finite real"
    assert str(caught.value).startswith(f"{name} must be {kind_text}"), str(caught.value)


def test_the_rule_reads_its_pairs_in_order():
    assert require_real("x", 0.25, ">", 0, "<", 0.5) == 0.25
    assert require_real("x", np.float64(2.0)) == 2.0
    assert require_count("k", 7, ">=", 1, "!=", 3) == 7
    with pytest.raises(InvalidInput, match=r"^x must be a finite real > 0 and < 0\.5, got 0\.5$"):
        require_real("x", 0.5, ">", 0, "<", 0.5)
    with pytest.raises(InvalidInput, match=r"^k must be an integer >= 1 and != 3, got 3$"):
        require_count("k", 3, ">=", 1, "!=", 3)
    # an int beyond the float range is not a finite real, and is refused
    # without an OverflowError
    with pytest.raises(InvalidInput, match=r"^x must be a finite real, got 1000"):
        require_real("x", 10**400)
    # numpy scalars other than float64 are neither reals nor counts
    for value in (np.float32(1.0), np.int64(1)):
        with pytest.raises(InvalidInput):
            require_real("x", value)
        with pytest.raises(InvalidInput):
            require_count("k", value)
    # the error class is the caller's, and it is given the message
    with pytest.raises(GammaNonPositive, match="^gamma must be a finite real > 0, got 0$"):
        require_real("gamma", 0, ">", 0, error=GammaNonPositive)
    assert set(OPERATORS) == {"<", "<=", "==", "!=", ">=", ">"}
