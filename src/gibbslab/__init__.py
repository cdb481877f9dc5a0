"""Exact numerical laboratory for Gibbs-posterior generalization error.

The package enumerates small learning problems exactly, computes the
expected generalization error of the Gibbs algorithm through several
information-theoretic routes that must agree to machine precision, and
evaluates the surrounding bounds, Gaussian closed forms, asymptotic
approximations, and sampling-based estimators against those exact
values.
"""

__version__ = "0.1.0"

from .asymptotics import (
    MleSpec,
    WellSample,
    bayes_location_regime_exact,
    bayes_location_regime_gen,
    mle_asymptotic_gen,
    single_well_gen,
)
from .bounds import (
    BoundRow,
    RatioConstants,
    bounds_table,
    sandwich_violations,
)
from .errors import (
    AbsoluteContinuityViolation,
    AlphaOutOfRange,
    ConfigInvalid,
    DeltaOutOfRange,
    Diverged,
    EnumerationTooLarge,
    EpsilonOutOfRange,
    GammaNonPositive,
    GibbsLabError,
    IdentityMismatch,
    InvalidDistribution,
    InvalidInput,
    NTooSmall,
    NotIID,
    NotPositiveDefinite,
    SingularHessian,
)
from .gaussian import (
    CoverageReport,
    GaussianMeanConfig,
    IsmiBoundReport,
    MeanClosedForms,
    ismi_bound,
    mc_mean_gen,
    mean_closed_forms,
    pac_bayes_bound,
    pac_bayes_coverage,
)
from .gibbs import (
    ChainRuleReport,
    GenReport,
    GibbsPosterior,
    IIDData,
    JointData,
    LearningProblem,
    InfoDivergenceReport,
    RegularizedGenReport,
    chain_rule_example,
    concavity_probe,
    empirical_risk_curve,
    gen_characterizations,
    gen_error_direct,
    gibbs_posterior,
    regularized_gen,
)
from .probability import InfoReport, JointTable, ProbVec, info_triple
from .problems import instance_rng, instance_sweep, random_mixture_components, random_problem
from .samplers import SgldConfig, sgld_run
from .serialize import (
    dumps_csv,
    dumps_json,
    format_float,
    load_json,
    write_csv,
    write_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
