"""Command line front end: one subcommand per experiment family.

Every subcommand reads an optional JSON config (defaults reproduce the
documented acceptance runs), writes CSV/JSON artifacts plus a
manifest.json into --out, prints one PASS/FAIL line per check, and exits
0 when all checks pass, 1 on a check failure, 2 on a config error, 3 on
a numerical error (enumeration overflow, singular matrices, divergent
chains), and 4 on any other exception, whose traceback goes to stderr.
Apart from the manifest's duration and timings fields, outputs are a
pure function of config and seed.

Each check is a Check: a numeric gate holds its observed value, a
comparison from OPERATORS and its limit, and its verdict, margin and
detail line are computed from those three; a boolean gate gives its own
verdict and leaves them None.  The manifest records all four numbers
(the margin is positive on the passing side), writing a non-finite one
as null.

validate_config checks a whole config against the subcommand's DEFAULTS
before any work starts: each key takes its default's type, objects merge
over their defaults key by key, lists replace theirs whole, every record
in a list needs every key, and RANGES bounds the numbers.  A bad config
exits 2 with the path of the offending key.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import operator
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .asymptotics import (
    MleSpec,
    WellSample,
    bayes_location_regime_exact,
    bayes_location_regime_gen,
    mle_asymptotic_gen,
    single_well_gen,
)
from .bounds import RatioConstants, _bounds_rows, sandwich_violations
from .errors import ConfigInvalid, GibbsLabError, IdentityMismatch, InvalidInput
from .gaussian import (
    GaussianMeanConfig,
    ismi_bound,
    mc_mean_gen,
    mean_closed_forms,
    pac_bayes_bound,
    pac_bayes_coverage,
)
from .gibbs import (
    CONCAVITY_SLACK,
    ELEMENT_CAP,
    GenReport,
    InfoDivergenceReport,
    _shape_sweep,
    chain_rule_example,
    concavity_probe,
    empirical_risk_curve,
)
from .problems import (
    instance_rng,
    instance_sweep,
    random_mixture_components,
    random_problem,
)
from .samplers import MIN_TRIALS, SgldConfig, sgld_run
from .serialize import load_json, write_csv, write_json

DEFAULT_SEED = 20260814

# Reference values of the canonical two-sample construction: at the small
# epsilon the two single-sample symmetrized values add up to more than the
# pair value; at the large epsilon the comparison flips.
COUNTEREXAMPLE_SMALL = {
    "epsilon": 0.0001,
    "mutual_single": 0.0943,
    "lautum_single": 0.3257,
    "iskl_single": 0.4200,
    "iskl_pair": 0.7329,
    "sum_exceeds_pair": True,
}
COUNTEREXAMPLE_LARGE = {
    "epsilon": 0.01,
    "iskl_single": 0.1255,
    "iskl_pair": 0.2741,
    "sum_exceeds_pair": False,
}


@dataclass(frozen=True)
class Check:
    """One named gate.

    A numeric gate holds the value it observed, a comparison from
    OPERATORS and its limit, and passes when the comparison holds for a
    finite observed value.  A boolean gate leaves those three None and
    gives its own ``verdict``.  ``context`` says what was observed; the
    detail line is the context followed by the comparison.  A timed gate
    observes a wall time, which the manifest keeps under timings, apart
    from the reproducible record.  ``extra`` holds further numeric fields
    of the record, such as where an aggregate gate saw its worst case.
    """

    name: str
    context: str
    observed: float | None = None
    comparison: str | None = None
    limit: float | None = None
    verdict: bool | None = None
    timed: bool = False
    extra: dict | None = None

    @property
    def passed(self) -> bool:
        if self.observed is None:
            return bool(self.verdict)
        return math.isfinite(self.observed) and OPERATORS[self.comparison](
            self.observed, self.limit
        )

    @property
    def margin(self) -> float | None:
        """How far the observed value lies on the passing side of the limit."""
        if self.observed is None:
            return None
        gap = self.observed - self.limit
        if self.comparison == "==":
            gap = abs(gap)
        return gap if self.comparison.startswith(">") else 0.0 - gap

    @property
    def detail(self) -> str:
        if self.observed is None:
            return self.context
        # an exact comparison shows every digit
        shown = repr if self.comparison == "==" else "{:.6g}".format
        observed = f"timings.{self.name}" if self.timed else shown(self.observed)
        return f"{self.context}: {observed} {self.comparison} {shown(self.limit)}"

    def record(self) -> dict:
        """The manifest entry; a measured time and any non-finite number
        are written as null."""
        observed, margin = (None, None) if self.timed else (self.observed, self.margin)
        return {
            "name": self.name, "passed": self.passed, "detail": self.detail,
            "observed": _finite(observed), "comparison": self.comparison,
            "limit": _finite(self.limit), "margin": _finite(margin),
            **{key: _finite(value) for key, value in (self.extra or {}).items()},
        }


def _finite(value: float | None) -> float | None:
    return value if value is not None and math.isfinite(value) else None


def _worst(values) -> float:
    """The largest value, NaN if any is NaN; 0.0 when there are none, so
    a gate over nothing passes."""
    return float(np.max(values)) if len(values) else 0.0


def _first(failures: list[str]) -> str:
    return f"; first: {failures[:3]}" if failures else ""


def _laplace_config(
    n: int, gamma: float, sigma0_sq: float, sigmaZ_sq: float, **_
) -> GaussianMeanConfig:
    return GaussianMeanConfig(
        d=1, mu=0.0, mu0=0.0, sigma0_sq=sigma0_sq, sigmaZ_sq=sigmaZ_sq,
        sigma_sq=n / (2.0 * gamma), n=n,
    )


def _spot_config(n: int, sigma_sq: float, **_) -> GaussianMeanConfig:
    return GaussianMeanConfig(
        d=1, mu=0.0, mu0=0.0, sigma0_sq=1.0, sigmaZ_sq=1.0, sigma_sq=sigma_sq, n=n
    )


def _sgld_config(step: float, gamma: float, iterations: int, seed: int, **_) -> SgldConfig:
    return SgldConfig(step=step, gamma=gamma, iterations=iterations, seed=seed)


def _problem_kind(problem) -> str:
    return "iid" if problem.is_iid() else "joint"


def _instance_posteriors(config: dict, seed: int):
    """(index, problem, gamma, posterior) for every configured instance at
    every configured gamma, in (instance, gamma) order; the instances of
    one shape are evaluated together (gibbs._shape_sweep), and each
    posterior goes straight into its rows, so only the current window's
    stacks stay alive."""
    instances = instance_sweep(
        config["instances"],
        seed,
        max_symbols=config["max_symbols"],
        max_hypotheses=config["max_hypotheses"],
        max_n=config["max_n"],
    )
    return _shape_sweep(instances, config["gammas"])


# ---------------------------------------------------------------- identities


def cmd_verify_identities(config: dict, out_dir: str, seed: int) -> list[Check]:
    count = config["instances"]
    gammas = config["gammas"]

    identity_rows = []
    prop_rows = []
    failures = []
    ratio_failures = []
    started = time.monotonic()
    for index, problem, gamma, posterior in _instance_posteriors(config, seed):
        try:
            report = GenReport.from_posterior(posterior)
        except IdentityMismatch as exc:
            failures.append(f"instance {index} gamma {gamma}: {exc}")
            continue
        identity_rows.append(
            [index, gamma, _problem_kind(problem), problem.n, problem.num_samples_symbols,
             problem.num_hypotheses, report.direct, report.via_iskl, report.via_skl_div,
             report.via_cmi, report.via_replace_one, report.max_pairwise_gap()]
        )
        # both gates read the numbers behind the report just checked
        try:
            prop = InfoDivergenceReport(
                report.info.mutual, report.info.lautum, report.d_fwd, report.d_rev
            )
            ratios = RatioConstants.from_report(report)
        except IdentityMismatch as exc:
            ratio_failures.append(f"instance {index} gamma {gamma}: {exc}")
            continue
        prop_rows.append(
            [index, gamma, prop.mutual, prop.lautum, prop.d_fwd, prop.d_rev, ratios.c_i,
             ratios.c_k, ratios.degenerate]
        )
    sweep_seconds = time.monotonic() - started

    write_csv(
        os.path.join(out_dir, "identities.csv"),
        ["instance", "gamma", "data_kind", "n", "num_samples", "num_hypotheses", "direct",
         "via_iskl", "via_skl_div", "via_cmi", "via_replace_one", "max_gap"],
        identity_rows,
    )
    write_csv(
        os.path.join(out_dir, "divergence_order.csv"),
        ["instance", "gamma", "mutual", "lautum", "d_fwd", "d_rev", "c_i", "c_k", "degenerate"],
        prop_rows,
    )

    # every evaluation gives either a row or a failure, so a count of
    # failures against 0 is also a count of rows against the evaluations
    worst = max(identity_rows, key=lambda row: row[-1], default=None)
    worst_gap, worst_instance, worst_gamma = (
        (0.0, None, None) if worst is None else (worst[-1], worst[0], worst[1])
    )
    where = "" if worst is None else f" at instance {worst_instance} gamma {worst_gamma:g}"
    iid_rows = [row for row in identity_rows if row[2] == "iid"]
    checks = [
        Check("four_way_identities",
              f"evaluations of {count * len(gammas)} whose routes disagreed (worst pairwise "
              f"gap {worst_gap:.3e}{where}){_first(failures)}", len(failures), "==", 0,
              extra={"worst_gap": worst_gap, "worst_gap_instance": worst_instance,
                     "worst_gap_gamma": worst_gamma}),
        Check("cmi_and_replace_one_on_iid",
              f"{len(iid_rows)} iid evaluations carried both conditional forms",
              verdict=bool(iid_rows) and all(
                  row[9] is not None and row[10] is not None for row in iid_rows)),
        Check("divergence_order_and_ratio_constants",
              f"evaluations of {len(identity_rows)} that broke the divergence comparison or "
              f"c_k <= c_i{_first(ratio_failures)}", len(ratio_failures), "==", 0),
        Check("sweep_runtime", "identity sweep wall time", sweep_seconds, "<=", 60.0,
              timed=True),
    ]

    curve_count = config["curve_instances"]
    curve_gammas = config["curve_gammas"]
    curve_rows = []
    rises = []
    for i in range(curve_count):
        problem = random_problem(instance_rng(seed, 20_000 + i), iid=(i % 2 == 0))
        values = empirical_risk_curve(problem, curve_gammas)
        for gamma, value in zip(curve_gammas, values):
            curve_rows.append([i, gamma, value])
        rises.extend(b - a for a, b in zip(values, values[1:]))
    write_csv(
        os.path.join(out_dir, "risk_curve.csv"),
        ["instance", "gamma", "expected_empirical_risk"],
        curve_rows,
    )
    checks.append(
        Check("risk_curve_non_increasing",
              f"largest rise along {curve_count} curves over gammas {curve_gammas}",
              _worst(rises), "<=", 1e-12)
    )

    mixture_count = config["mixture_instances"]
    mixture_gamma = config["mixture_gamma"]
    mixture_rows = []
    mixture_failures = []
    for i in range(mixture_count):
        rng = instance_rng(seed, 30_000 + i)
        problem = random_problem(rng, iid=True)
        components = random_mixture_components(rng, problem)
        try:
            mixture_gen, component_avg = concavity_probe(components, problem, mixture_gamma)
        except IdentityMismatch as exc:
            mixture_failures.append(f"mixture {i}: {exc}")
            continue
        mixture_rows.append(
            [i, mixture_gamma, mixture_gen, component_avg, mixture_gen - component_avg]
        )
    write_csv(
        os.path.join(out_dir, "concavity.csv"),
        ["instance", "gamma", "mixture_gen", "component_avg", "slack"],
        mixture_rows,
    )
    checks.append(
        Check("mixture_concavity",
              f"mixtures of {mixture_count} whose error fell more than {CONCAVITY_SLACK:g} "
              f"below the component average{_first(mixture_failures)}",
              len(mixture_failures), "==", 0)
    )
    return checks


# ------------------------------------------------------------ counterexample


def cmd_counterexample(config: dict, out_dir: str, seed: int) -> list[Check]:
    del seed  # fully deterministic
    epsilons = config["epsilons"]
    rows = []
    reports = {}
    for epsilon in epsilons:
        report = chain_rule_example(epsilon)
        reports[epsilon] = report
        rows.append(
            [epsilon, report.info_first.mutual, report.info_first.lautum,
             report.info_first.symmetrized, report.info_pair.symmetrized, report.individual_sum,
             report.sum_exceeds_joint]
        )
    write_csv(
        os.path.join(out_dir, "counterexample.csv"),
        ["epsilon", "mutual_single", "lautum_single", "iskl_single", "iskl_pair", "individual_sum",
         "sum_exceeds_pair"],
        rows,
    )

    checks = []
    for size, reference in (("small", COUNTEREXAMPLE_SMALL), ("large", COUNTEREXAMPLE_LARGE)):
        report = reports.get(reference["epsilon"])
        if report is None:
            continue
        values = {
            "mutual_single": report.info_first.mutual,
            "lautum_single": report.info_first.lautum,
            "iskl_single": report.info_first.symmetrized,
            "iskl_pair": report.info_pair.symmetrized,
        }
        deviations = [abs(values[k] - reference[k]) for k in values if k in reference]
        checks.append(
            Check(f"{size}_epsilon_reference_values", "largest deviation from the pinned values",
                  _worst(deviations), "<=", config["tolerance"])
        )
        checks.append(
            Check(f"{size}_epsilon_direction",
                  f"individual sum {report.individual_sum:.4f} vs pair "
                  f"{report.info_pair.symmetrized:.4f}",
                  verdict=report.sum_exceeds_joint == reference["sum_exceeds_pair"])
        )
    if not checks:
        checks.append(
            Check("reference_epsilons_present",
                  "config omitted both canonical epsilon values, nothing to verify",
                  verdict=False)
        )
    return checks


# ------------------------------------------------------------- gaussian mean


def cmd_gaussian_mean(config: dict, out_dir: str, seed: int) -> list[Check]:
    trials = config["trials"]
    configs = [GaussianMeanConfig(**record) for record in config["configs"]]

    jobs = [(cfg, "gaussian") for cfg in configs]
    jobs.append((configs[config["two_point_config_index"]], "two_point"))
    mc_rows = []
    z_scores = []
    for index, (cfg, law) in enumerate(jobs):
        closed = mean_closed_forms(cfg)
        estimate, std_error = mc_mean_gen(cfg, trials, seed + index, law=law)
        z = (estimate - closed.gen) / std_error if std_error > 0.0 else 0.0
        z_scores.append(abs(z))
        mc_rows.append(
            [index, law, cfg.d, cfg.n, cfg.sigma0_sq, cfg.sigmaZ_sq, cfg.sigma_sq, closed.gen,
             estimate, std_error, z]
        )
    write_csv(
        os.path.join(out_dir, "gaussian_mc.csv"),
        ["config", "law", "d", "n", "sigma0_sq", "sigmaZ_sq", "sigma_sq", "closed_gen", "estimate",
         "std_error", "z_score"],
        mc_rows,
    )

    z_limit = 4.0
    checks = [
        Check("mc_matches_closed_form", f"worst |z| of {len(configs)} configs at {trials} trials",
              _worst(z_scores[:-1]), "<=", z_limit),
        Check("two_point_law_same_gen", "|z| of the variance-matched two-point law",
              z_scores[-1], "<=", z_limit),
    ]

    decay_n = config["decay_n"]
    cfg_n = GaussianMeanConfig(**config["decay_config"], n=decay_n)
    cfg_2n = GaussianMeanConfig(**config["decay_config"], n=2 * decay_n)
    ratio = mean_closed_forms(cfg_n).gen / mean_closed_forms(cfg_2n).gen
    checks.append(
        Check("inverse_n_decay", f"|gen(n)/gen(2n) - 2| at n = {decay_n} (ratio {ratio:.6f})",
              abs(ratio - 2.0), "<=", config["decay_tolerance"] * 2.0)
    )

    ismi_ns = config["ismi_ns"]
    ismi_rows = []
    ratios = []
    for n in ismi_ns:
        cfg = GaussianMeanConfig(**config["ismi_config"], n=n)
        bound = ismi_bound(cfg)
        gen = mean_closed_forms(cfg).gen
        ismi_rows.append([n, cfg.gamma, bound.per_sample_mi, bound.bound, gen, bound.bound / gen])
        ratios.append(bound.bound / gen)
    write_csv(
        os.path.join(out_dir, "ismi.csv"),
        ["n", "gamma", "per_sample_mi", "bound", "exact_gen", "ratio"],
        ismi_rows,
    )
    slope = float(np.polyfit(np.log(ismi_ns), np.log(ratios), 1)[0])
    checks.append(
        Check("ismi_gap_exponent", f"|log-log slope of bound/gen - 0.5| (slope {slope:.4f})",
              abs(slope - 0.5), "<=", 0.1)
    )
    return checks


# -------------------------------------------------------------- bounds table


def cmd_bounds_table(config: dict, out_dir: str, seed: int) -> list[Check]:
    count = config["instances"]
    gammas = config["gammas"]
    alphas = tuple(config["alphas"])
    probe_alpha = config["probe_alpha"]

    # only the probe gammas that the table sweeps have rows to compare
    probe_gammas = set(config["probe_gammas"]) & set(gammas)
    sweep_alphas = sorted(set(alphas) | {probe_alpha}, reverse=True)
    # the probe order rides in the same table; its row is written only if listed
    table_alphas = alphas if probe_alpha in alphas else alphas + (probe_alpha,)
    probe_name = f"renyi_upper_alpha_{probe_alpha:g}"

    all_rows = []
    probe_rows = []
    violations = []
    sweep_failures = []
    # the orders are checked by RANGES, as bounds_table would check them
    for index, problem, gamma, posterior in _instance_posteriors(config, seed):
        table = _bounds_rows(posterior, table_alphas)
        value = {row.bound_name: row.value for row in table}
        rows = [r for r in table if probe_alpha in alphas or r.bound_name != probe_name]
        for row in rows:
            all_rows.append(
                [index, gamma, _problem_kind(problem), row.bound_name, row.value,
                 row.feasible, row.regime, row.constants_used, row.side]
            )
        violations.extend(
            f"instance {index} gamma {gamma}: {v}" for v in sandwich_violations(rows)
        )
        gen = value["exact_gen"]
        sweep = [value[f"renyi_upper_alpha_{a:g}"] for a in sweep_alphas]
        if any(b > a + 1e-12 for a, b in zip(sweep, sweep[1:])):
            sweep_failures.append(
                f"instance {index} gamma {gamma}: values not decreasing along "
                f"alphas {sweep_alphas}"
            )
        if sweep[-1] < gen - 1e-10:
            sweep_failures.append(
                f"instance {index} gamma {gamma}: order-{probe_alpha} value "
                f"{sweep[-1]!r} fell below gen {gen!r}"
            )
        excess = sweep[-1] / gen - 1.0 if gen > 1e-300 else 0.0
        probe_rows.append([index, gamma, gen, sweep[-1], excess])

    write_csv(
        os.path.join(out_dir, "bounds.csv"),
        ["instance", "gamma", "data_kind", "bound_name", "value", "feasible", "regime",
         "constants_used", "side"],
        all_rows,
    )
    write_csv(
        os.path.join(out_dir, "renyi_probe.csv"),
        ["instance", "gamma", "gen", f"renyi_{probe_alpha:g}", "excess_ratio"],
        probe_rows,
    )
    first = (0, gammas[0])  # the sweep starts at instance 0
    write_csv(
        os.path.join(out_dir, "suite_example.csv"),
        ["bound_name", "value", "feasible", "regime", "constants_used"],
        [row[3:8] for row in all_rows if (row[0], row[1]) == first],
    )

    worst_excess = {
        gamma: max(row[4] for row in probe_rows if row[1] == gamma) for gamma in gammas
    }
    profile = ", ".join(f"{e:.2%} at gamma {g:g}" for g, e in worst_excess.items())
    return [
        Check("bound_sandwich",
              f"violations over {count * len(gammas)} suites{_first(violations)}",
              len(violations), "==", 0),
        Check("renyi_sweep_decreasing_to_gen",
              f"comparisons where orders {sweep_alphas} rose or fell below gen"
              f"{_first(sweep_failures)}", len(sweep_failures), "==", 0),
        Check("renyi_order_near_one",
              f"worst excess of order {probe_alpha} over gen at gammas {sorted(probe_gammas)}, "
              f"the near-1 expansion regime (full sweep: {profile})",
              _worst([row[4] for row in probe_rows if row[1] in probe_gammas]), "<=",
              config["probe_rel_tol"] + 1e-12),
    ]


# --------------------------------------------------------------- asymptotics


def cmd_asymptotics(config: dict, out_dir: str, seed: int) -> list[Check]:
    pairs = config["aic_pairs"]
    rng = instance_rng(seed, 1)
    aic_rows = []
    gaps = []
    for k in range(pairs):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(10, 10_001))
        a = rng.standard_normal((d, d))
        j = a @ a.T + (0.1 + rng.random()) * np.eye(d)
        b = rng.standard_normal((d, d))
        fisher = b @ b.T
        spec = MleSpec(J=j, fisher=fisher, n=n)
        value = mle_asymptotic_gen(spec)
        vals, vecs = np.linalg.eigh(j)
        oracle = float(np.trace(fisher @ (vecs @ np.diag(1.0 / vals) @ vecs.T))) / n
        diff = abs(value - oracle)
        gaps.append(diff / max(1.0, abs(oracle)))
        aic_rows.append([k, d, n, value, oracle, diff])
    write_csv(
        os.path.join(out_dir, "aic.csv"),
        ["pair", "d", "n", "factorized_value", "eigen_value", "abs_diff"],
        aic_rows,
    )
    checks = [
        Check("mle_rate_matches_eigen_oracle", f"worst relative gap of {pairs} random pairs",
              _worst(gaps), "<=", 1e-10)
    ]

    d_exact = 3
    j_exact = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 1.0]])
    spec_exact = MleSpec(J=j_exact, fisher=j_exact.copy(), n=7)
    value_exact = mle_asymptotic_gen(spec_exact)
    checks.append(
        Check("well_specified_rate_exact", "rate of matched matrices against d/n",
              value_exact, "==", d_exact / 7)
    )

    laplace = config["laplace"]
    n = laplace["n"]
    gamma = laplace["gamma"]
    sigma_z = math.sqrt(laplace["sigmaZ_sq"])
    signs = ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1) * 2 - 1
    means = (sigma_z * signs).mean(axis=1)
    weight = 1.0 / 2**n
    wells = [
        WellSample(minimizer=np.array([m]), hessian=np.array([[2.0]]), weight=weight)
        for m in means
    ]
    laplace_value = single_well_gen(wells)
    exact = mean_closed_forms(_laplace_config(**laplace)).gen
    rel = abs(laplace_value - exact) / exact
    write_json(
        os.path.join(out_dir, "laplace.json"),
        {
            "n": n,
            "gamma": gamma,
            "laplace_value": laplace_value,
            "exact_gen": exact,
            "relative_gap": rel,
        },
    )
    checks.append(
        Check("laplace_single_well",
              f"relative gap of the zero-temperature prediction {laplace_value:.6f} to exact "
              f"{exact:.6f}", rel, "<=", laplace["tolerance"])
    )

    bn = config["bayes"]["n"]
    btrials = config["bayes"]["trials"]
    estimate, std_error = bayes_location_regime_gen(bn, btrials, seed)
    exact_bayes = bayes_location_regime_exact(bn)
    scaled = bn * estimate
    write_json(
        os.path.join(out_dir, "bayes.json"),
        {
            "n": bn,
            "trials": btrials,
            "estimate": estimate,
            "std_error": std_error,
            "exact": exact_bayes,
            "n_times_estimate": scaled,
        },
    )
    checks.append(
        Check("bayes_regime_dimension_rate",
              f"|n * gen - 1| (n * gen = {scaled:.4f}, exact {bn * exact_bayes:.4f})",
              abs(scaled - 1.0), "<=", config["bayes"]["tolerance"])
    )
    return checks


# ---------------------------------------------------------------------- sgld


def cmd_sgld_demo(config: dict, out_dir: str, seed: int) -> list[Check]:
    step = config["step"]
    gamma = config["gamma"]
    iterations = config["iterations"]
    target_mean = config["target_mean"]
    batch_count = config["batch_count"]

    # one-element arrays: numpy combines them with w faster than Python
    # floats, and to the same values
    two, target = np.full(1, 2.0), np.full(1, target_mean)

    def gradient(w, dataset):
        del dataset
        return two * (w - target)

    sgld_config = SgldConfig(step=step, gamma=gamma, iterations=iterations, seed=seed)
    samples = sgld_run(gradient, np.array([0.0]), sgld_config)
    again = sgld_run(gradient, np.array([0.0]), sgld_config)
    flat = samples[:, 0]

    usable = (flat.size // batch_count) * batch_count
    batches = flat[:usable].reshape(batch_count, -1).mean(axis=1)
    se_mean = float(batches.std(ddof=1) / math.sqrt(batch_count))
    mean = float(flat.mean())
    variance = float(flat.var(ddof=1))
    target_var = 1.0 / (2.0 * gamma)
    discrete_var = 1.0 / (2.0 * gamma * (1.0 - step))

    write_json(
        os.path.join(out_dir, "sgld.json"),
        {
            "iterations": iterations,
            "burn_in": sgld_config.burn_in,
            "step": step,
            "gamma": gamma,
            "target_mean": target_mean,
            "mean": mean,
            "se_mean": se_mean,
            "variance": variance,
            "target_variance": target_var,
            "discrete_chain_variance": discrete_var,
            "sha256": hashlib.sha256(samples.tobytes()).hexdigest(),
        },
    )
    return [
        Check("stationary_mean",
              f"|mean - target| (mean {mean:.5f}, target {target_mean}, batch-means SE "
              f"{se_mean:.5f})", abs(mean - target_mean), "<=", 3.0 * se_mean),
        Check("stationary_variance",
              f"|variance - 1/(2 gamma)| (variance {variance:.6f}, 1/(2 gamma) = "
              f"{target_var:.6f}, discrete-chain value {discrete_var:.6f})",
              abs(variance - target_var), "<=", config["var_tolerance"] * target_var),
        Check("seed_determinism", "two runs with the same seed produced bit-identical iterates",
              verdict=bool(np.array_equal(samples, again))),
    ]


# ----------------------------------------------------------------- pac-bayes


def cmd_pac_bayes(config: dict, out_dir: str, seed: int) -> list[Check]:
    checks = []
    spot_rows = []
    for i, spot in enumerate(config["spot_checks"]):
        cfg = _spot_config(**spot)
        value = pac_bayes_bound(
            cfg,
            prime_shift=spot["prime_shift"],
            delta=spot["delta"],
            c_p=spot["c_p"],
            sigma=spot["sigma"],
        )
        expected = spot["expected"]
        rel = abs(value - expected) / abs(expected)
        spot_rows.append(
            [i, cfg.gamma, cfg.n, spot["sigma"], spot["delta"], spot["prime_shift"],
             spot["c_p"], value, expected, rel]
        )
    write_csv(
        os.path.join(out_dir, "spot_checks.csv"),
        ["case", "gamma", "n", "sigma", "delta", "prime_shift", "c_p",
         "value", "expected", "relative_gap"],
        spot_rows,
    )
    checks.append(
        Check("bound_formula_spot_checks",
              f"worst relative gap of {len(spot_rows)} parameter sets to high-precision "
              "reference values", _worst([row[-1] for row in spot_rows]), "<=", 1e-12)
    )

    cfg = GaussianMeanConfig(**config["config"])
    clip = config["clip"]
    trials = config["trials"]
    deltas = tuple(config["deltas"])
    report = pac_bayes_coverage(cfg, clip, trials, seed, deltas=deltas)
    write_json(
        os.path.join(out_dir, "pac_bayes.json"),
        {
            "clip": clip,
            "trials": trials,
            "bounds": {f"{d:g}": report.bounds[d] for d in report.bounds},
            "coverage": {f"{d:g}": report.coverage[d] for d in report.coverage},
            "mean_gap": report.mean_gap,
            "max_gap": report.max_gap,
        },
    )
    for delta in deltas:
        checks.append(
            Check(f"coverage_delta_{delta:g}",
                  f"coverage (bound {report.bounds[delta]:.4f}, max gap {report.max_gap:.4f})",
                  report.coverage[delta], ">=", 1.0 - 2.0 * delta)
        )
    return checks


# --------------------------------------------------------------------- main


DEFAULTS = {
    "verify-identities": {
        "seed": DEFAULT_SEED,
        "instances": 200,
        "gammas": [0.1, 1.0, 10.0, 100.0],
        "max_symbols": 4,
        "max_hypotheses": 5,
        "max_n": 3,
        "curve_instances": 50,
        "curve_gammas": [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0],
        "mixture_instances": 50,
        "mixture_gamma": 2.0,
    },
    "counterexample": {
        "seed": DEFAULT_SEED,
        "epsilons": [0.0001, 0.01],
        "tolerance": 1e-3,
    },
    "gaussian-mean": {
        "seed": DEFAULT_SEED,
        "trials": 100_000,
        "configs": [
            {"d": 1, "mu": 0.0, "mu0": 0.0, "sigma0_sq": 1.0, "sigmaZ_sq": 1.0,
             "sigma_sq": 1.0, "n": 5},
            {"d": 2, "mu": 0.5, "mu0": 0.0, "sigma0_sq": 2.0, "sigmaZ_sq": 1.0,
             "sigma_sq": 1.0, "n": 10},
            {"d": 3, "mu": -1.0, "mu0": 1.0, "sigma0_sq": 0.5, "sigmaZ_sq": 2.0,
             "sigma_sq": 4.0, "n": 3},
            {"d": 1, "mu": 2.0, "mu0": 0.0, "sigma0_sq": 4.0, "sigmaZ_sq": 0.25,
             "sigma_sq": 1.0, "n": 20},
            {"d": 4, "mu": 0.0, "mu0": 0.5, "sigma0_sq": 1.0, "sigmaZ_sq": 0.5,
             "sigma_sq": 2.0, "n": 8},
        ],
        "two_point_config_index": 0,
        "decay_config": {"d": 1, "mu": 0.0, "mu0": 0.0, "sigma0_sq": 1.0,
                         "sigmaZ_sq": 1.0, "sigma_sq": 1.0},
        "decay_n": 10_000,
        "decay_tolerance": 0.01,
        "ismi_config": {"d": 1, "mu": 0.0, "mu0": 0.0, "sigma0_sq": 1.0,
                        "sigmaZ_sq": 1.0, "sigma_sq": 1.0},
        "ismi_ns": [100, 1000, 10_000],
    },
    "bounds-table": {
        "seed": DEFAULT_SEED,
        "instances": 200,
        "gammas": [0.1, 1.0, 10.0, 100.0],
        "max_symbols": 4,
        "max_hypotheses": 5,
        "max_n": 3,
        "alphas": [1.5, 2.0, 4.0],
        "probe_alpha": 1.01,
        "probe_rel_tol": 0.02,
        "probe_gammas": [0.1, 1.0],
    },
    "asymptotics": {
        "seed": DEFAULT_SEED,
        "aic_pairs": 20,
        "laplace": {"n": 10, "gamma": 1e4, "sigma0_sq": 1.0, "sigmaZ_sq": 1.0,
                    "tolerance": 0.05},
        "bayes": {"n": 1000, "trials": 10_000, "tolerance": 0.10},
    },
    "sgld-demo": {
        "seed": 20,
        "step": 1e-3,
        "gamma": 4.0,
        "iterations": 100_000,
        "target_mean": 1.25,
        "batch_count": 50,
        "var_tolerance": 0.05,
    },
    "pac-bayes": {
        "seed": DEFAULT_SEED,
        "trials": 10_000,
        "deltas": [0.05, 0.1],
        "clip": 2.0,
        "config": {"d": 1, "mu": 0.0, "mu0": 0.0, "sigma0_sq": 1.0, "sigmaZ_sq": 1.0,
                   "sigma_sq": 1.0, "n": 20},
        "spot_checks": [
            {"sigma": 1.0, "delta": 0.05, "prime_shift": 0.0, "c_p": 0.0,
             "n": 20, "sigma_sq": 1.0, "expected": 2.5935955417947424},
            {"sigma": 0.5, "delta": 0.1, "prime_shift": 0.3, "c_p": 0.25,
             "n": 50, "sigma_sq": 12.5, "expected": 0.34875235268465033},
            {"sigma": 2.0, "delta": 0.25, "prime_shift": 1.5, "c_p": 1.0,
             "n": 400, "sigma_sq": 2.0, "expected": 4.3757393970022603},
        ],
    },
}

HANDLERS = {
    "verify-identities": cmd_verify_identities,
    "counterexample": cmd_counterexample,
    "gaussian-mean": cmd_gaussian_mean,
    "bounds-table": cmd_bounds_table,
    "asymptotics": cmd_asymptotics,
    "sgld-demo": cmd_sgld_demo,
    "pac-bayes": cmd_pac_bayes,
}


# The numeric ranges that no library constructor checks, as (operator,
# bound) pairs keyed by config path, with "[]" for every index of a list.
# GaussianMeanConfig and SgldConfig check the other fields.
RANGES = {
    # gaussian-mean keys its Philox streams by seed + config index < 2**64
    "seed": (">=", 0, "<", 2**63),
    # the sweep holds one window of instances at a time (gibbs._shape_sweep)
    # and keeps only their rows; at the default sizes one instance takes
    # about 0.9 ms (verify-identities) to 1.4 ms (bounds-table) over four
    # gammas on a 2-core x86 machine, so 10**4 instances take about 14 s
    "instances": (">=", 1, "<=", 10**4),
    "gammas[]": (">", 0),
    # an instance whose m * max(n, nw) exceeds ELEMENT_CAP raises
    # EnumerationTooLarge before its tables are drawn; each bound is the
    # largest value some instance can take: m >= |Z| >= 2 and nw >= 2, so
    # |Z| and nw stay within ELEMENT_CAP // 2, and n * 2**n <= ELEMENT_CAP
    "max_symbols": (">=", 2, "<=", ELEMENT_CAP // 2),
    "max_hypotheses": (">=", 2, "<=", ELEMENT_CAP // 2),
    "max_n": (">=", 1, "<=", max(n for n in range(1, 64) if n * 2**n <= ELEMENT_CAP)),
    # one curve or mixture takes under 1 ms at the default sizes and is
    # freed after it: 10**5 take about a minute
    "curve_instances": (">=", 1, "<=", 10**5),
    "curve_gammas[]": (">=", 0),
    "mixture_instances": (">=", 1, "<=", 10**5),
    "mixture_gamma": (">=", 0),
    "epsilons[]": (">", 0, "<", 0.125),
    # block_gaps fills one (trials,) float64 array: 2**27 trials are 1 GiB
    "trials": (">=", MIN_TRIALS, "<=", 2**27),
    # a gaussian-mean chunk holds at least one block, whose train and fresh
    # (64, n, d) float64 draws take 2 * 64 * 64 * 8 B = 64 KiB per unit of n
    # at d = 64: 1 GiB at n = 2**14
    "configs[].n": ("<=", 2**14),
    "two_point_config_index": (">=", 0),
    "decay_n": (">=", 2),
    # the decay and ismi checks divide by gen, which is zero at sigmaZ_sq = 0
    "decay_config.sigmaZ_sq": (">", 0),
    "ismi_config.sigmaZ_sq": (">", 0),
    "ismi_ns[]": (">=", 2),
    "alphas[]": (">", 1),
    "probe_alpha": (">", 1),
    "probe_gammas[]": (">", 0),
    # one pair takes about 0.2 ms: 10**5 pairs take about 20 s
    "aic_pairs": (">=", 1, "<=", 10**5),
    # the check enumerates 2**n wells: 3 s and 120 MB at n = 16
    "laplace.n": (">=", 1, "<=", 16),
    "laplace.gamma": (">", 0),
    "laplace.sigmaZ_sq": (">", 0),
    "bayes.n": (">=", 1),
    "bayes.trials": (">=", MIN_TRIALS, "<=", 2**27),  # as "trials"
    # the chain on the quadratic has a stationary law only for step < 1
    "step": ("<", 1),
    # sgld_run fills an (iterations, 1) float64 noise array and an iterates
    # array of that shape, and sgld-demo keeps one run's iterates while a
    # second run draws: three such arrays, 768 MiB at 2**25 iterations
    "iterations": (">=", 10, "<=", 2**25),
    "batch_count": (">=", 2),
    "deltas[]": (">", 0, "<", 0.5),
    "clip": (">", 0),
    "config.d": ("==", 1),  # the coverage experiment is one-dimensional
    # a coverage block makes n passes over its (64, grid) arrays, about
    # 0.11 ms per unit of n on a 2-core x86 machine: at n = 10**4 a block
    # takes about 1 s, and the fewest trials, 16 blocks, about 20 s
    "config.n": ("<=", 10**4),
    "spot_checks[].sigma": (">", 0),
    "spot_checks[].delta": (">", 0, "<", 0.5),
    "spot_checks[].prime_shift": (">=", 0),
    "spot_checks[].c_p": (">=", 0),
    "spot_checks[].expected": ("!=", 0),
}
OPERATORS = {
    "<": operator.lt, "<=": operator.le, "==": operator.eq,
    "!=": operator.ne, ">=": operator.ge, ">": operator.gt,
}
NONEMPTY = ("gammas", "curve_gammas", "probe_gammas", "ismi_ns")
# keys whose real default also admits a list of d reals
VECTOR_KEYS = ("mu", "mu0")


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _checked(default: object, value: object, path: str, key: str, record: bool = False):
    """``value`` with the type of ``default``, within RANGES.

    An object merges over the default key by key and, as a record in a
    list, needs every key; a list replaces the default whole, and its
    first default entry types every entry.  Reals come back as floats.
    ``path`` names the value in errors (a list of numbers reports at its
    own path); ``key`` is its RANGES key.
    """
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigInvalid(f"expected an object, got {value!r}", path=path)
        unknown = [name for name in value if name not in default]
        missing = [name for name in default if name not in value] if record else []
        if unknown or missing:
            name = (unknown or missing)[0]
            problem = f"unknown key {name!r}" if unknown else f"missing keys {missing}"
            raise ConfigInvalid(problem, path=_join(path, name))
        result = {
            name: _checked(entry, value[name], _join(path, name), _join(key, name))
            if name in value else entry
            for name, entry in default.items()
        }
    elif isinstance(default, list) or (
        isinstance(value, list) and key.rpartition(".")[2] in VECTOR_KEYS
    ):
        if not isinstance(value, list) or (not value and key in NONEMPTY):
            kind = "a nonempty list" if key in NONEMPTY else "a list"
            raise ConfigInvalid(f"expected {kind}, got {value!r}", path=path)
        entry = default[0] if isinstance(default, list) else default
        nested = isinstance(entry, dict)
        result = [
            _checked(entry, item, f"{path}[{i}]" if nested else path, f"{key}[]", nested)
            for i, item in enumerate(value)
        ]
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"expected a number, got {value!r}", path=path)
    elif isinstance(default, float):
        if not abs(value) <= sys.float_info.max:
            raise ConfigInvalid(f"expected a finite real, got {value!r}", path=path)
        result = float(value)
    elif isinstance(value, int):
        result = value
    else:
        raise ConfigInvalid(f"expected an integer, got {value!r}", path=path)
    rule = RANGES.get(key, ())
    for op, bound in zip(rule[::2], rule[1::2]):
        if not OPERATORS[op](result, bound):
            raise ConfigInvalid(f"must be {op} {bound}, got {result!r}", path=path)
    return result


def _built(path: str, record: dict, make: Callable, **fields):
    """make(**record, **fields); the InvalidInput of a constructor becomes a
    config error at the record key its message starts with (the
    constructors name the offending field first), else at ``path``."""
    try:
        return make(**record, **fields)
    except InvalidInput as exc:
        name = str(exc).split()[0]
        raise ConfigInvalid(str(exc), path=_join(path, name) if name in record else path) from exc


def validate_config(subcommand: str, user: object, seed: int | None = None) -> dict:
    """The effective config of ``subcommand``: the parsed JSON ``user``
    checked whole and merged over DEFAULTS, with ``seed``, when given, in
    place of the config's seed under the same rule.  Raises ConfigInvalid
    at the path of the first bad value, before any work starts."""
    config = _checked(DEFAULTS[subcommand], user, "", "")
    if seed is not None:
        config["seed"] = _checked(DEFAULT_SEED, seed, "--seed", "seed")
    if subcommand == "verify-identities":
        if config["curve_gammas"] != sorted(set(config["curve_gammas"])):
            raise ConfigInvalid("must be strictly increasing", path="curve_gammas")
    elif subcommand == "bounds-table":
        # the near-one probe compares only the rows at these gammas
        if not set(config["probe_gammas"]) & set(config["gammas"]):
            raise ConfigInvalid(f"must share a value with gammas {config['gammas']}, got "
                                f"{config['probe_gammas']}", path="probe_gammas")
    elif subcommand == "gaussian-mean":
        for i, record in enumerate(config["configs"]):
            _built(f"configs[{i}]", record, GaussianMeanConfig)
        _built("decay_config", config["decay_config"], GaussianMeanConfig, n=config["decay_n"])
        # the rate is the slope of a line fitted through the sizes
        if len(set(config["ismi_ns"])) < 2:
            raise ConfigInvalid(f"needs two distinct sizes, got {config['ismi_ns']}",
                                path="ismi_ns")
        for n in config["ismi_ns"]:
            _built("ismi_config", config["ismi_config"], GaussianMeanConfig, n=n)
        index, count = config["two_point_config_index"], len(config["configs"])
        if index >= count:
            raise ConfigInvalid(f"must be below the {count} configs, got {index}",
                                path="two_point_config_index")
    elif subcommand == "asymptotics":
        _built("laplace", config["laplace"], _laplace_config)
    elif subcommand == "sgld-demo":
        sgld = _built("", config, _sgld_config)
        kept = sgld.iterations - sgld.burn_in
        if config["batch_count"] > kept:
            raise ConfigInvalid(f"must be at most the {kept} iterates kept after burn-in, "
                                f"got {config['batch_count']}", path="batch_count")
    elif subcommand == "pac-bayes":
        _built("config", config["config"], GaussianMeanConfig)
        for i, spot in enumerate(config["spot_checks"]):
            _built(f"spot_checks[{i}]", spot, _spot_config)
    return config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbslab",
        description="Exact Gibbs-posterior generalization experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="JSON config overriding the defaults")
        p.add_argument("--out", required=True, help="output directory for artifacts")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        user = {} if args.config is None else load_json(args.config)
        config = validate_config(args.subcommand, user, args.seed)
        seed = config["seed"]
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigInvalid(f"cannot create a directory: {exc}", path="--out") from exc
        checks = HANDLERS[args.subcommand](config, args.out, seed)
        passed = all(check.passed for check in checks)
        manifest = {
            "subcommand": args.subcommand,
            "version": __version__,
            "seed": seed,
            "config": config,
            "checks": [check.record() for check in checks],
            "passed": passed,
            "duration_seconds": time.monotonic() - started,
            "timings": {c.name: c.observed for c in checks if c.timed},
        }
        write_json(os.path.join(args.out, "manifest.json"), manifest)
    except ConfigInvalid as exc:
        where = f" at {exc.path}" if exc.path else ""
        print(f"config error{where}: {exc}", file=sys.stderr)
        return 2
    except GibbsLabError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a crash must not read as a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 4
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    print(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
