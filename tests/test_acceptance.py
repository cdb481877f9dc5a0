"""Acceptance gate: every headline claim at its stated tolerance.

Each criterion below is exactly one documented CLI invocation at its
default configuration (gibbslab <subcommand> --out <dir>); the fixtures
run each subcommand once and the tests assert the named checks from its
manifest.  Run with -v to get one pass/fail line per criterion.
"""

import json
import math
import os

import pytest

from gibbslab.cli import main


def run_subcommand(tmp_path_factory, name):
    out = str(tmp_path_factory.mktemp(name.replace("-", "_")))
    code = main([name, "--out", out])
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    return code, manifest


@pytest.fixture(scope="module")
def identities(tmp_path_factory):
    return run_subcommand(tmp_path_factory, "verify-identities")


@pytest.fixture(scope="module")
def counterexample(tmp_path_factory):
    return run_subcommand(tmp_path_factory, "counterexample")


@pytest.fixture(scope="module")
def gaussian(tmp_path_factory):
    return run_subcommand(tmp_path_factory, "gaussian-mean")


@pytest.fixture(scope="module")
def bounds(tmp_path_factory):
    return run_subcommand(tmp_path_factory, "bounds-table")


@pytest.fixture(scope="module")
def asymptotics(tmp_path_factory):
    return run_subcommand(tmp_path_factory, "asymptotics")


@pytest.fixture(scope="module")
def sgld(tmp_path_factory):
    return run_subcommand(tmp_path_factory, "sgld-demo")


@pytest.fixture(scope="module")
def pac_bayes(tmp_path_factory):
    return run_subcommand(tmp_path_factory, "pac-bayes")


def require(result, check_names, label):
    code, manifest = result
    checks = {c["name"]: c for c in manifest["checks"]}
    failed = []
    for name in check_names:
        assert name in checks, f"{label}: missing check {name}"
        check = checks[name]
        if not check["passed"]:
            failed.append(
                f"{name}: {check['detail']} (observed {check['observed']} "
                f"{check['comparison']} limit {check['limit']}, margin {check['margin']})"
            )
    status = "PASS" if (code == 0 and not failed) else "FAIL"
    print(f"[{status}] {label}")
    assert not failed, f"{label} failed: " + "; ".join(failed)
    assert code == 0, f"{label}: driver exit code {code}"


def test_criterion_01_four_way_identity_sweep(identities):
    require(
        identities,
        ["four_way_identities", "cmi_and_replace_one_on_iid", "sweep_runtime"],
        "criterion 1: 200 random problems x 4 temperatures, all exact "
        "characterizations agree within max(1e-9 rel, 1e-12 abs), the two "
        "iid-only routes included, inside the 60 s budget",
    )


def test_criterion_02_chain_rule_counterexample(counterexample):
    require(
        counterexample,
        [
            "small_epsilon_reference_values",
            "small_epsilon_direction",
            "large_epsilon_reference_values",
            "large_epsilon_direction",
        ],
        "criterion 2: three-bit construction reproduces the pinned values "
        "within 1e-3 and the single-versus-pair comparison flips direction",
    )


def test_criterion_03_gaussian_monte_carlo(gaussian):
    require(
        gaussian,
        ["mc_matches_closed_form", "two_point_law_same_gen", "inverse_n_decay"],
        "criterion 3: 1e5-trial Monte Carlo inside 4 standard errors of the "
        "closed form on every config, covariance-matched two-point law too, "
        "and the 1/n decay ratio within 1 percent of 2",
    )


def test_criterion_04_ismi_rate_exponent(gaussian):
    require(
        gaussian,
        ["ismi_gap_exponent"],
        "criterion 4: per-sample information bound decays with log-log "
        "slope 0.5 +/- 0.1 against the exact error",
    )


def test_criterion_05_bound_sandwich_and_order(bounds):
    require(
        bounds,
        ["bound_sandwich", "renyi_sweep_decreasing_to_gen", "renyi_order_near_one"],
        "criterion 5: no bound violations across the sweep, the order sweep "
        "decreases onto the exact value, and order 1.01 sits within 2 "
        "percent in its expansion regime",
    )


def test_criterion_06_information_inequalities(identities):
    require(
        identities,
        ["divergence_order_and_ratio_constants"],
        "criterion 6: mutual <= forward divergence, lautum >= reverse "
        "divergence, sums agree within 1e-10, and the ratio constants "
        "order as c_k <= c_i",
    )


def test_criterion_07_risk_curve_and_mixtures(identities):
    require(
        identities,
        ["risk_curve_non_increasing", "mixture_concavity"],
        "criterion 7: expected empirical risk non-increasing in the inverse "
        "temperature and 50 two-component mixtures keep slack >= -1e-12",
    )


def test_criterion_08_asymptotic_rates(asymptotics):
    require(
        asymptotics,
        [
            "mle_rate_matches_eigen_oracle",
            "well_specified_rate_exact",
            "laplace_single_well",
            "bayes_regime_dimension_rate",
        ],
        "criterion 8: trace rate within 1e-10 of the eigendecomposition "
        "oracle on 20 draws, exactly d/n when well specified, the "
        "zero-temperature well within 5 percent, and n x error within 10 "
        "percent of the parameter count",
    )


def test_criterion_09_langevin_chain(sgld):
    require(
        sgld,
        ["stationary_mean", "stationary_variance", "seed_determinism"],
        "criterion 9: chain mean within 3 batch standard errors, stationary "
        "variance within 5 percent of the discrete closed form, reruns "
        "bit-identical",
    )


def test_criterion_10_high_probability_bounds(pac_bayes):
    require(
        pac_bayes,
        ["bound_formula_spot_checks", "coverage_delta_0.05", "coverage_delta_0.1"],
        "criterion 10: bound formula matches frozen spot values at 1e-12 "
        "relative and empirical coverage reaches 1 - 2 delta at both "
        "confidence levels",
    )


# ------------------------------------------------------------- check shape

BOOLEAN_CHECKS = {
    "cmi_and_replace_one_on_iid",
    "small_epsilon_direction",
    "large_epsilon_direction",
    "seed_determinism",
}


def test_checks_carry_observed_limit_and_margin(
    identities, counterexample, gaussian, bounds, asymptotics, sgld, pac_bayes
):
    results = (identities, counterexample, gaussian, bounds, asymptotics, sgld, pac_bayes)
    booleans = set()
    for _, manifest in results:
        for check in manifest["checks"]:
            comparison = check["comparison"]
            if comparison is None:
                booleans.add(check["name"])
                assert [check["observed"], check["limit"], check["margin"]] == [None] * 3
                continue
            limit = check["limit"]
            if check["name"] in manifest["timings"]:
                # a measured time stays out of the reproducible record
                assert check["observed"] is None and check["margin"] is None
                observed = manifest["timings"][check["name"]]
                margin = limit - observed
            else:
                observed, margin = check["observed"], check["margin"]
                expected = {
                    "<": limit - observed, "<=": limit - observed,
                    ">": observed - limit, ">=": observed - limit,
                    "==": -abs(observed - limit),
                }[comparison]
                assert margin == expected, check
            assert math.isfinite(observed) and math.isfinite(limit), check
            holds = margin > 0 or (margin == 0 and comparison in ("<=", ">=", "=="))
            assert holds == check["passed"], check
    assert booleans == BOOLEAN_CHECKS


def differences(a, b, path=""):
    """The paths at which two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        return [p for key in a for p in differences(a[key], b[key], f"{path}.{key}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, pair in enumerate(zip(a, b)) for p in differences(*pair, f"{path}[{i}]")]
    return [] if a == b else [path]


def test_one_input_moves_one_check(asymptotics, tmp_path):
    # the Laplace temperature moves the exact value the single-well check
    # compares against, and nothing else
    config = tmp_path / "laplace.json"
    config.write_text(json.dumps({"laplace": {"gamma": 2e4}}), encoding="utf-8")
    out = str(tmp_path / "asym")
    assert main(["asymptotics", "--config", str(config), "--out", out]) == 0
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as handle:
        perturbed = json.load(handle)
    base = dict(asymptotics[1])
    for manifest in (base, perturbed):
        manifest.pop("duration_seconds"), manifest.pop("timings")
    assert differences(base, perturbed) == [
        ".config.laplace.gamma",
        ".checks[2].detail",
        ".checks[2].observed",
        ".checks[2].margin",
    ]
    assert perturbed["checks"][2]["name"] == "laplace_single_well"
