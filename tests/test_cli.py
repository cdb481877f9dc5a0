"""Command-line driver: config validation, exit codes, manifests, determinism."""

import csv
import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbslab.cli
import gibbslab.errors
import gibbslab.gibbs
import gibbslab.probability
from gibbslab import (
    ConfigInvalid, IdentityMismatch, IIDData, InfoDivergenceReport, JointData, LearningProblem,
    ProbVec, RatioConstants, bounds_table, gen_characterizations, write_csv, write_json
)
from gibbslab.cli import (
    DEFAULT_SEED, DEFAULTS, NONEMPTY, OPERATORS, RANGES, main, validate_config
)


IDENTITY_HEADER = ["instance", "gamma", "data_kind", "n", "num_samples", "num_hypotheses",
                   "direct", "via_iskl", "via_skl_div", "via_cmi", "via_replace_one", "max_gap"]
BOUNDS_HEADER = ["instance", "gamma", "data_kind", "bound_name", "value", "feasible", "regime",
                 "constants_used", "side"]


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
        return json.load(handle)


SMALL_IDENTITIES = {
    "instances": 6,
    "gammas": [0.5, 2.0],
    "curve_instances": 3,
    "mixture_instances": 4,
}


def run_identities(tmp_path, label, extra_args=()):
    out = str(tmp_path / label)
    config = write_config(tmp_path, f"{label}.json", SMALL_IDENTITIES)
    code = main(["verify-identities", "--config", config, "--out", out, *extra_args])
    return code, out


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, "bad.json", {"instances": 5, "bogus": 1})
    code = main(["verify-identities", "--config", config, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    code = main(["counterexample", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "JSON" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    code = main(
        ["counterexample", "--config", str(tmp_path / "absent.json"),
         "--out", str(tmp_path / "o")]
    )
    assert code == 2


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main([])


def test_verify_identities_small_run(tmp_path, capsys):
    code, out = run_identities(tmp_path, "run")
    assert code == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed and "FAIL" not in printed
    manifest = read_manifest(out)
    assert manifest["subcommand"] == "verify-identities"
    assert manifest["seed"] == DEFAULT_SEED
    assert manifest["passed"] is True
    assert manifest["config"]["instances"] == 6
    names = [c["name"] for c in manifest["checks"]]
    assert names == [
        "four_way_identities",
        "cmi_and_replace_one_on_iid",
        "divergence_order_and_ratio_constants",
        "sweep_runtime",
        "risk_curve_non_increasing",
        "mixture_concavity",
    ]
    assert all(c["passed"] for c in manifest["checks"])
    with open(os.path.join(out, "identities.csv"), encoding="utf-8") as handle:
        lines = handle.read().strip().split("\n")
    assert len(lines) == 1 + 6 * 2  # header + instances x gammas
    # the identity check names where its worst pairwise gap was seen
    rows = list(csv.DictReader(lines))
    worst = max(rows, key=lambda row: float(row["max_gap"]))
    check = manifest["checks"][0]
    assert check["worst_gap_instance"] == int(worst["instance"])
    assert check["worst_gap_gamma"] == float(worst["gamma"])
    assert check["worst_gap"] == pytest.approx(float(worst["max_gap"]), rel=1e-10)
    where = f"at instance {worst['instance']} gamma {float(worst['gamma']):g}"
    assert where in check["detail"]
    for name in ("divergence_order.csv", "risk_curve.csv", "concavity.csv"):
        assert os.path.exists(os.path.join(out, name))


def test_verify_identities_deterministic_reruns(tmp_path, monkeypatch):
    # a clock that ticks by a different step per run, so the two sweeps
    # measure different seconds
    def run_with_clock(label, step):
        ticks = itertools.count(0.0, step)
        monkeypatch.setattr(gibbslab.cli.time, "monotonic", lambda: next(ticks))
        return run_identities(tmp_path, label)

    _, first = run_with_clock("first", 1.0)
    _, second = run_with_clock("second", 7.0)
    for name in ("identities.csv", "divergence_order.csv", "risk_curve.csv", "concavity.csv"):
        with open(os.path.join(first, name), "rb") as handle:
            a = handle.read()
        with open(os.path.join(second, name), "rb") as handle:
            b = handle.read()
        assert a == b, name
    ma, mb = read_manifest(first), read_manifest(second)
    assert ma["timings"] != mb["timings"]
    # everything except the measured seconds is reproducible
    for manifest in (ma, mb):
        manifest.pop("duration_seconds"), manifest.pop("timings")
    assert ma == mb


def test_ratio_constant_failure_has_its_own_check(tmp_path, monkeypatch):
    # the ratio-constant check that RatioConstants and the sweep's columns
    # share refuses every member
    def refuse(c_i, c_k, c_c, c_s_ratio, degenerate):
        return {k: IdentityMismatch("c_k exceeds c_i") for k in range(c_i.size)}

    monkeypatch.setattr(RatioConstants, "failures", staticmethod(refuse))
    code, out = run_identities(tmp_path, "ratios")
    assert code == 1
    checks = {c["name"]: c for c in read_manifest(out)["checks"]}
    assert checks["four_way_identities"]["passed"] is True
    assert checks["divergence_order_and_ratio_constants"]["passed"] is False
    evaluations = SMALL_IDENTITIES["instances"] * len(SMALL_IDENTITIES["gammas"])
    assert checks["divergence_order_and_ratio_constants"]["observed"] == evaluations


def test_seed_flag_changes_outputs(tmp_path):
    _, base = run_identities(tmp_path, "base")
    code, reseeded = run_identities(tmp_path, "reseeded", extra_args=["--seed", "7"])
    assert code == 0
    assert read_manifest(reseeded)["seed"] == 7
    with open(os.path.join(base, "identities.csv"), "rb") as handle:
        a = handle.read()
    with open(os.path.join(reseeded, "identities.csv"), "rb") as handle:
        b = handle.read()
    assert a != b


def test_counterexample_run_and_failure_signalling(tmp_path):
    out = str(tmp_path / "ce")
    assert main(["counterexample", "--out", out]) == 0
    manifest = read_manifest(out)
    names = [c["name"] for c in manifest["checks"]]
    assert "small_epsilon_direction" in names and "large_epsilon_direction" in names
    assert os.path.exists(os.path.join(out, "counterexample.csv"))
    # an unreachable tolerance must flip the exit code, not crash
    strict = write_config(tmp_path, "strict.json", {"tolerance": 1e-9})
    code = main(["counterexample", "--config", strict, "--out", str(tmp_path / "ce2")])
    assert code == 1
    assert read_manifest(str(tmp_path / "ce2"))["passed"] is False


def test_gaussian_mean_reduced_run(tmp_path):
    config = write_config(tmp_path, "gm.json", {"trials": 4000})
    out = str(tmp_path / "gm")
    assert main(["gaussian-mean", "--config", config, "--out", out]) == 0
    manifest = read_manifest(out)
    names = [c["name"] for c in manifest["checks"]]
    assert names == [
        "mc_matches_closed_form",
        "two_point_law_same_gen",
        "inverse_n_decay",
        "ismi_gap_exponent",
    ]
    assert os.path.exists(os.path.join(out, "gaussian_mc.csv"))
    assert os.path.exists(os.path.join(out, "ismi.csv"))


def test_bounds_table_reduced_run(tmp_path):
    config = write_config(
        tmp_path, "bt.json", {"instances": 10, "gammas": [0.1, 1.0]}
    )
    out = str(tmp_path / "bt")
    assert main(["bounds-table", "--config", config, "--out", out]) == 0
    manifest = read_manifest(out)
    names = [c["name"] for c in manifest["checks"]]
    assert names == [
        "bound_sandwich",
        "renyi_sweep_decreasing_to_gen",
        "renyi_order_near_one",
    ]
    for name in ("bounds.csv", "renyi_probe.csv", "suite_example.csv"):
        assert os.path.exists(os.path.join(out, name))


def test_asymptotics_run(tmp_path):
    out = str(tmp_path / "asym")
    assert main(["asymptotics", "--out", out]) == 0
    names = [c["name"] for c in read_manifest(out)["checks"]]
    assert names == [
        "mle_rate_matches_eigen_oracle",
        "well_specified_rate_exact",
        "laplace_single_well",
        "bayes_regime_dimension_rate",
    ]
    for name in ("aic.csv", "laplace.json", "bayes.json"):
        assert os.path.exists(os.path.join(out, name))


@pytest.mark.parametrize(
    "bayes, path",
    [
        ({"n": 1000, "trials": 500, "tolerance": 0.1}, "bayes.trials"),
        ({"n": 0, "trials": 10_000, "tolerance": 0.1}, "bayes.n"),
    ],
)
def test_asymptotics_bad_bayes_config_exits_2(tmp_path, capsys, bayes, path):
    config = write_config(tmp_path, "asym.json", {"bayes": bayes})
    code = main(["asymptotics", "--config", config, "--out", str(tmp_path / "asym")])
    assert code == 2
    assert f"config error at {path}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand, key, value",
    [
        (subcommand, key, value)
        for subcommand, keys in (
            ("verify-identities", ("gammas", "curve_gammas")),
            ("bounds-table", ("gammas", "probe_gammas")),
        )
        for key in keys
        for value in ("ab", 5, [-1], [], [1.0, True], [1.0, "2"])
    ]
    # gamma 0 is valid only on the risk curve, which must ascend
    + [
        ("verify-identities", "gammas", [0.0, 1.0]),
        ("bounds-table", "probe_gammas", [0.0]),
        ("verify-identities", "curve_gammas", [0.0, 1.0, 0.5]),
        ("verify-identities", "curve_gammas", [0.0, 1.0, 1.0]),
        # a probe that shares no gamma with the table compares no row
        ("bounds-table", "probe_gammas", [0.5]),
    ],
)
def test_bad_gamma_list_exits_2(tmp_path, capsys, subcommand, key, value):
    config = write_config(tmp_path, "gammas.json", {"instances": 2, key: value})
    code = main([subcommand, "--config", config, "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config error at {key}:" in capsys.readouterr().err


def test_renyi_probe_detail_names_only_the_compared_gammas(tmp_path):
    # gamma 0.5 has no rows in a table swept at 10 and 100
    config = write_config(tmp_path, "probe.json",
                          {"gammas": [10.0, 100.0], "probe_gammas": [0.5, 10.0], "instances": 5})
    out = str(tmp_path / "bt")
    main(["bounds-table", "--config", config, "--out", out])
    [check] = [c for c in read_manifest(out)["checks"] if c["name"] == "renyi_order_near_one"]
    assert " at gammas [10.0], " in check["detail"]
    assert "0.5" not in check["detail"]


SCIPY_PROBE = """
import contextlib, io, json, os, sys
import gibbslab, gibbslab.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(sub, config):
    path = os.path.join(sys.argv[1], sub + ".json")
    with open(path, "w") as handle:
        json.dump(config, handle)
    with contextlib.redirect_stdout(io.StringIO()):
        return gibbslab.cli.main([sub, "--config", path, "--out", os.path.join(sys.argv[1], sub)])

seen = {"import": scipy_modules()}
codes = []
for sub, config in json.loads(sys.argv[2]):
    codes.append(run(sub, config))
    seen[sub] = scipy_modules()
print(json.dumps({"codes": codes, "seen": seen}))
"""

# every subcommand at a small config, in one process
SMALL_RUNS = [
    ("counterexample", {}),
    ("verify-identities",
     {"instances": 4, "max_n": 2, "curve_instances": 2, "mixture_instances": 2}),
    ("bounds-table", {"instances": 4, "max_n": 2}),
    ("gaussian-mean", {"trials": 4000, "ismi_ns": [100, 1000]}),
    ("pac-bayes", {"trials": 1000}),
    ("asymptotics", {"aic_pairs": 2, "bayes": {"n": 100, "trials": 1000}}),
    ("sgld-demo", {}),
]


def test_cli_import_does_not_load_scipy_special(tmp_path):
    # the package depends on numpy alone: no subcommand loads any scipy module
    src = os.path.dirname(os.path.dirname(os.path.abspath(gibbslab.cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path), json.dumps(SMALL_RUNS)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(SMALL_RUNS)
    assert result["seen"] == {"import": [], **{sub: [] for sub, _ in SMALL_RUNS}}


def test_subcommands_leave_the_ufunc_buffer_size_as_found(tmp_path):
    # pac-bayes runs its kernel with a one-row ufunc buffer; after every
    # subcommand the process has the caller's buffer size again
    old = np.setbufsize(4096)
    try:
        for sub, config in SMALL_RUNS:
            path = write_config(tmp_path, f"{sub}.json", config)
            assert main([sub, "--config", path, "--out", str(tmp_path / sub)]) == 0
            assert np.getbufsize() == 4096, sub
    finally:
        np.setbufsize(old)


def test_sgld_demo_run(tmp_path):
    out = str(tmp_path / "sgld")
    assert main(["sgld-demo", "--out", out]) == 0
    manifest = read_manifest(out)
    names = [c["name"] for c in manifest["checks"]]
    assert names == ["stationary_mean", "stationary_variance", "seed_determinism"]
    with open(os.path.join(out, "sgld.json"), encoding="utf-8") as handle:
        payload = json.load(handle)
    # the iterates pinned in tests/test_samplers.py
    assert payload["sha256"] == "060ae023d5094ea4cc543af49d3a05a928879b8d56dd91a22447a7a91835fc63"


def test_pac_bayes_reduced_run(tmp_path):
    config = write_config(tmp_path, "pb.json", {"trials": 1000})
    out = str(tmp_path / "pb")
    assert main(["pac-bayes", "--config", config, "--out", out]) == 0
    manifest = read_manifest(out)
    names = [c["name"] for c in manifest["checks"]]
    assert names == [
        "bound_formula_spot_checks",
        "coverage_delta_0.05",
        "coverage_delta_0.1",
    ]
    assert os.path.exists(os.path.join(out, "spot_checks.csv"))
    assert os.path.exists(os.path.join(out, "pac_bayes.json"))


def test_negative_spot_check_expectation_can_fail(tmp_path):
    # the relative gap divides by |expected|, so a wrong sign is caught
    spot = {**DEFAULTS["pac-bayes"]["spot_checks"][0], "expected": -2.5}
    config = write_config(tmp_path, "pb.json", {"trials": 1000, "spot_checks": [spot]})
    out = str(tmp_path / "pb")
    assert main(["pac-bayes", "--config", config, "--out", out]) == 1
    checks = {c["name"]: c["passed"] for c in read_manifest(out)["checks"]}
    assert checks == {
        "bound_formula_spot_checks": False,
        "coverage_delta_0.05": True,
        "coverage_delta_0.1": True,
    }


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep", encoding="utf-8")
    assert main(["counterexample", "--out", str(out)]) == 2
    assert "config error at --out:" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "keep"


# (subcommand, config, extra flags, path of the offending key); every one
# must stop before any work, so none of them needs a reduced config
CONFIG_ERRORS = [
    ("bounds-table", {"probe_alpha": "x"}, (), "probe_alpha"),
    ("bounds-table", {"probe_rel_tol": "x"}, (), "probe_rel_tol"),
    ("verify-identities", {"mixture_gamma": "x"}, (), "mixture_gamma"),
    ("pac-bayes", {"clip": "x"}, (), "clip"),
    ("sgld-demo", {"var_tolerance": "x"}, (), "var_tolerance"),
    ("counterexample", {"tolerance": "x"}, (), "tolerance"),
    ("gaussian-mean", {"decay_tolerance": "x"}, (), "decay_tolerance"),
    ("counterexample", {"epsilons": "ab"}, (), "epsilons"),
    ("gaussian-mean", {"configs": 5}, (), "configs"),
    ("pac-bayes", {"spot_checks": [{"sigma": 1.0}]}, (), "spot_checks[0].delta"),
    # ranges the library checks only once the work has started
    ("bounds-table", {"alphas": [0.5]}, (), "alphas"),
    ("pac-bayes", {"deltas": [0.7]}, (), "deltas"),
    ("counterexample", {"epsilons": [0.5]}, (), "epsilons"),
    ("gaussian-mean", {"ismi_ns": [1]}, (), "ismi_ns"),
    ("sgld-demo", {"gamma": -1}, (), "gamma"),
    ("sgld-demo", {"step": -1}, (), "step"),
    ("gaussian-mean", {"configs": [{**DEFAULTS["gaussian-mean"]["configs"][1], "mu": [1.0] * 3}]},
     (), "configs[0].mu"),
    ("asymptotics", {"laplace": {"extra": 1}}, (), "laplace.extra"),
    ("sgld-demo", {}, ("--seed", "-1"), "--seed"),
    ("verify-identities", {}, ("--seed", "-1"), "--seed"),
    ("sgld-demo", {"seed": 2**64}, (), "seed"),
    ("asymptotics", {"laplace": {"n": 64}}, (), "laplace.n"),
    ("sgld-demo", {"batch_count": 5000, "iterations": 2000}, (), "batch_count"),
    # work sizes whose one array would not fit in memory
    ("pac-bayes", {"trials": 10**30}, (), "trials"),
    ("gaussian-mean", {"trials": 2**27 + 1}, (), "trials"),
    ("asymptotics", {"bayes": {"trials": 2**27 + 1}}, (), "bayes.trials"),
    ("sgld-demo", {"iterations": 2**25 + 1}, (), "iterations"),
    # counts that would hold every instance's tables or run for minutes
    ("verify-identities", {"instances": 10**4 + 1}, (), "instances"),
    ("bounds-table", {"instances": 10**4 + 1}, (), "instances"),
    ("verify-identities", {"curve_instances": 10**5 + 1}, (), "curve_instances"),
    ("verify-identities", {"mixture_instances": 10**5 + 1}, (), "mixture_instances"),
    ("asymptotics", {"aic_pairs": 10**5 + 1}, (), "aic_pairs"),
    # problem sizes that no instance within the element cap can take
    ("bounds-table", {"max_symbols": 4 * 10**6 + 1}, (), "max_symbols"),
    ("verify-identities", {"max_hypotheses": 4 * 10**6 + 1}, (), "max_hypotheses"),
    # n >= 19 never fits the element cap, and a huge n can neither be
    # drawn as an int64 nor have its dataset count printed in decimal
    ("verify-identities", {"max_n": 100_000, "instances": 4}, (), "max_n"),
    ("verify-identities", {"max_n": 10**30}, (), "max_n"),
    ("bounds-table", {"max_n": 19}, (), "max_n"),
    # Monte Carlo sample sizes whose one block would not fit in memory or
    # would run for minutes
    ("gaussian-mean",
     {"configs": [{**DEFAULTS["gaussian-mean"]["configs"][0], "n": 10**12}]}, (), "configs[0].n"),
    ("gaussian-mean",
     {"configs": [*DEFAULTS["gaussian-mean"]["configs"][:2],
                  {**DEFAULTS["gaussian-mean"]["configs"][2], "n": 2**14 + 1}]},
     (), "configs[2].n"),
    ("pac-bayes", {"config": {"n": 10**12}}, (), "config.n"),
    ("pac-bayes", {"config": {"n": 10**4 + 1}}, (), "config.n"),
    # a rate fitted through one distinct size measures nothing
    ("gaussian-mean", {"ismi_ns": [100]}, (), "ismi_ns"),
    ("gaussian-mean", {"ismi_ns": [100, 100]}, (), "ismi_ns"),
]


@pytest.mark.parametrize("subcommand, override, flags, path", CONFIG_ERRORS)
def test_config_error_exits_2_at_its_path(tmp_path, capsys, subcommand, override, flags, path):
    config = write_config(tmp_path, "bad.json", override)
    out = str(tmp_path / "o")
    assert main([subcommand, "--config", config, "--out", out, *flags]) == 2
    assert f"config error at {path}:" in capsys.readouterr().err
    assert not os.path.exists(out)  # rejected before any work started


@pytest.mark.parametrize("subcommand", ["verify-identities", "bounds-table"])
def test_largest_max_n_ends_with_a_documented_exit(tmp_path, capsys, subcommand):
    # instance 2 of the default seed draws |Z| = 3 and n = 18: its 3**18
    # datasets exceed the cap, a numerical error
    config = write_config(tmp_path, "n.json", {"max_n": RANGES["max_n"][-1], "instances": 4})
    assert main([subcommand, "--config", config, "--out", str(tmp_path / "o")]) == 3
    assert "numerical error: EnumerationTooLarge: " in capsys.readouterr().err


@pytest.mark.parametrize("budget", [None, 10**6])
@pytest.mark.parametrize(
    "subcommand, table", [("verify-identities", "identities.csv"), ("bounds-table", "bounds.csv")]
)
def test_instance_above_the_cap_stops_the_windowed_sweep(tmp_path, capsys, monkeypatch, budget,
                                                         subcommand, table):
    # instance 2 of the default seed draws 3**18 datasets, above the cap: it
    # ends the run with exit 3 and no table, whether it comes after a window
    # was evaluated (at the default budget instance 0, 104,976 table
    # elements at four gammas, is a window of its own) or shares a window
    # with instances 0 and 1, so that neither is evaluated (10**6 elements)
    if budget is not None:
        monkeypatch.setattr(gibbslab.probability, "BLOCK_ELEMENTS", budget)
    config = write_config(tmp_path, "n.json", {"max_n": RANGES["max_n"][-1], "instances": 4})
    out = tmp_path / "o"
    assert main([subcommand, "--config", config, "--out", str(out)]) == 3
    assert "numerical error: EnumerationTooLarge: " in capsys.readouterr().err
    assert not (out / table).exists()


def oracle_problem(rng, nz, n, nw, iid, zero=False):
    weights = rng.random(nz if iid else nz**n) + 0.05
    if zero:
        weights[-1] = 0.0
    weights /= weights.sum()
    prior = rng.random(nw) + 0.1
    return LearningProblem(
        sample_alphabet=range(nz), hypothesis_set=range(nw), loss=rng.random((nw, nz)),
        prior=ProbVec(prior / prior.sum()),
        data_model=IIDData(ProbVec(weights)) if iid else JointData(weights), n=n,
    )


def test_repeated_gammas_write_the_rows_of_single_builds(tmp_path, monkeypatch):
    # IID and joint problems, several per shape stack, and an IID problem
    # whose law has a zero, which is evaluated on its own, at gammas with a
    # repeat: every row of the four tables is the one that lone
    # gen_characterizations and bounds_table calls give
    rng = np.random.default_rng(23)
    shapes = [(2, 2, 3, True), (2, 2, 3, False), (3, 1, 4, True), (2, 2, 3, True),
              (2, 2, 3, False), (3, 1, 4, True), (2, 2, 3, True)]
    problems = [oracle_problem(rng, *shape) for shape in shapes]
    problems.insert(3, oracle_problem(rng, 2, 2, 3, True, zero=True))
    instances = list(enumerate(problems))
    monkeypatch.setattr(gibbslab.cli, "instance_sweep", lambda count, seed, **_: iter(instances))
    gammas = [0.5, 2.0, 2.0, 10.0]
    vi = write_config(tmp_path, "vi.json", {"instances": len(instances), "gammas": gammas,
                                            "curve_instances": 1, "mixture_instances": 1})
    bt = write_config(tmp_path, "bt.json", {"instances": len(instances), "gammas": gammas,
                                            "probe_gammas": [0.5]})
    assert main(["verify-identities", "--config", vi, "--out", str(tmp_path / "vi")]) == 0
    assert main(["bounds-table", "--config", bt, "--out", str(tmp_path / "bt")]) == 0
    tables = {
        "identities": ("vi", IDENTITY_HEADER, []),
        "divergence_order": ("vi", ["instance", "gamma", "mutual", "lautum", "d_fwd", "d_rev",
                                    "c_i", "c_k", "degenerate"], []),
        "bounds": ("bt", BOUNDS_HEADER, []),
        "renyi_probe": ("bt", ["instance", "gamma", "gen", "renyi_1.01", "excess_ratio"], []),
    }
    for index, problem in instances:
        kind = "iid" if problem.is_iid() else "joint"
        for gamma in gammas:
            report = gen_characterizations(problem, gamma)
            tables["identities"][2].append(
                [index, gamma, kind, problem.n, problem.num_samples_symbols,
                 problem.num_hypotheses, report.direct, report.via_iskl, report.via_skl_div,
                 report.via_cmi, report.via_replace_one, report.max_pairwise_gap()]
            )
            prop = InfoDivergenceReport(
                report.info.mutual, report.info.lautum, report.d_fwd, report.d_rev
            )
            ratios = RatioConstants.from_report(report)
            tables["divergence_order"][2].append(
                [index, gamma, prop.mutual, prop.lautum, prop.d_fwd, prop.d_rev, ratios.c_i,
                 ratios.c_k, ratios.degenerate]
            )
            rows = bounds_table(problem, gamma, (1.5, 2.0, 4.0, 1.01))
            tables["bounds"][2].extend(
                [index, gamma, kind, *dataclasses.astuple(row)] for row in rows
                if row.bound_name != "renyi_upper_alpha_1.01"
            )
            value = {row.bound_name: row.value for row in rows}
            gen, near = value["exact_gen"], value["renyi_upper_alpha_1.01"]
            excess = near / gen - 1.0 if gen > 1e-300 else 0.0
            tables["renyi_probe"][2].append([index, gamma, gen, near, excess])
    for name, (run, header, rows) in tables.items():
        write_csv(str(tmp_path / f"{name}.csv"), header, rows)
        written = (tmp_path / run / f"{name}.csv").read_bytes()
        assert written == (tmp_path / f"{name}.csv").read_bytes(), name


# a config whose IID instances 0, 2 and 4 share one shape stack of three
# problems at two gammas, six members
INJECTED = {"instances": 6, "gammas": [0.5, 2.0], "max_symbols": 2, "max_hypotheses": 2,
            "max_n": 1, "curve_instances": 1, "mixture_instances": 1}


def test_a_mismatch_in_one_member_of_a_stack_reads_as_a_lone_failure(tmp_path, monkeypatch):
    # the population Gibbs law of one member (problem 1, gamma 2.0) of the
    # IID stack is moved, so its divergence route alone disagrees; the
    # detail is the text that building one report per member gave
    config = write_config(tmp_path, "inject.json", INJECTED)
    assert main(["verify-identities", "--config", config, "--out", str(tmp_path / "clean")]) == 0
    original = gibbslab.gibbs._log_population

    def moved(stack, gamma):
        log_population = original(stack, gamma)
        if stack.is_iid() and stack.loss.shape[0] > 1:
            log_population = log_population.copy()
            log_population[1, 1, 0] += 0.5
        return log_population

    monkeypatch.setattr(gibbslab.gibbs, "_log_population", moved)
    assert main(["verify-identities", "--config", config, "--out", str(tmp_path / "bad")]) == 1
    checks = {check["name"]: check for check in read_manifest(str(tmp_path / "bad"))["checks"]}
    identities = checks["four_way_identities"]
    assert identities["observed"] == 1
    assert identities["detail"] == (
        "evaluations of 12 whose routes disagreed (worst pairwise gap 2.220e-16 at instance 0 "
        "gamma 0.5); first: ['instance 2 gamma 2.0: characterizations disagree by "
        "0.08118502779261674 (scale 0.11903052957179873, limit 1.1903052957179875e-10)']: 1 == 0"
    )
    assert checks["divergence_order_and_ratio_constants"]["passed"] is True
    for name in ("identities.csv", "divergence_order.csv"):
        clean = (tmp_path / "clean" / name).read_text(encoding="utf-8").splitlines()
        bad = (tmp_path / "bad" / name).read_text(encoding="utf-8").splitlines()
        assert [line for line in clean if line.startswith("2,2.00000000000e+00,")] != []
        assert bad == [line for line in clean if not line.startswith("2,2.00000000000e+00,")]


# each size key of RANGES at its bound, with a seed whose first instance
# lies just within ELEMENT_CAP, so that the run evaluates it: (|Z|, nw, n)
# of (2660500, 3, 1), (1555293, 5, 1), (2, 3, 18) and (2, 3964134, 1),
# m * max(n, nw) of 4.7 to 8.0 million elements; its peak, about 1.3 GB
# at most, stays below an address-space limit of 3 GiB
RANGE_CORNERS = {
    "symbols-n1": ({"max_symbols": RANGES["max_symbols"][-1], "max_n": 1}, 94),
    "symbols-n2": ({"max_symbols": RANGES["max_symbols"][-1], "max_n": 2}, 23),
    "n-two-symbols": ({"max_symbols": 2, "max_n": RANGES["max_n"][-1]}, 178),
    "hypotheses": ({"max_hypotheses": RANGES["max_hypotheses"][-1]}, 35),
}


@pytest.mark.parametrize("corner", list(RANGE_CORNERS))
@pytest.mark.parametrize("subcommand", ["verify-identities", "bounds-table"])
def test_range_corners_end_with_a_documented_exit(tmp_path, subcommand, corner):
    # the child sets the limit on itself before it imports gibbslab, so
    # that it holds for the run alone; an allocation above it would end
    # the run with exit 4
    src = os.path.dirname(os.path.dirname(os.path.abspath(gibbslab.cli.__file__)))
    sizes, seed = RANGE_CORNERS[corner]
    config = write_config(
        tmp_path, "corner.json", {**sizes, "seed": seed, "instances": 1, "gammas": [1.0]}
    )
    run = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30)); "
        "from gibbslab.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", run, subcommand, "--config", config, "--out", str(tmp_path / "o")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode in (0, 1, 3), proc.stderr


@pytest.mark.parametrize(
    "key, partial", [("laplace", {"n": 10}), ("bayes", {"n": 100, "trials": 1000})]
)
def test_partial_nested_override_merges_over_defaults(tmp_path, key, partial):
    config = write_config(tmp_path, "asym.json", {key: partial})
    out = str(tmp_path / "asym")
    assert main(["asymptotics", "--config", config, "--out", out]) == 0
    assert read_manifest(out)["config"][key] == {**DEFAULTS["asymptotics"][key], **partial}


def test_laplace_cap_rejects_before_allocating(tmp_path):
    config = write_config(tmp_path, "asym.json", {"laplace": {"n": 64}})
    tracemalloc.start()
    try:
        code = main(["asymptotics", "--config", config, "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20


def test_largest_seed_runs(tmp_path):
    config = write_config(tmp_path, "sgld.json", {"iterations": 2000})
    out = str(tmp_path / "sgld")
    seed = 2**63 - 1
    # 2000 iterations are too few for the stationarity checks: the run
    # must end with a manifest, not pass
    assert main(["sgld-demo", "--config", config, "--out", out, "--seed", str(seed)]) in (0, 1)
    manifest = read_manifest(out)
    assert manifest["seed"] == seed
    assert {c["name"]: c["passed"] for c in manifest["checks"]}["seed_determinism"]


def test_nan_estimate_fails_its_check_with_a_manifest(tmp_path, capsys, monkeypatch):
    real = gibbslab.cli.mc_mean_gen

    def nan_estimate(*args, **kwargs):
        return math.nan, real(*args, **kwargs)[1]

    monkeypatch.setattr(gibbslab.cli, "mc_mean_gen", nan_estimate)
    config = write_config(tmp_path, "gm.json", {"trials": 4000})
    out = str(tmp_path / "gm")
    assert main(["gaussian-mean", "--config", config, "--out", out]) == 1
    assert "FAIL mc_matches_closed_form: " in capsys.readouterr().out
    check = read_manifest(out)["checks"][0]
    assert check["name"] == "mc_matches_closed_form" and check["passed"] is False
    assert check["observed"] is None and check["margin"] is None and check["limit"] == 4.0


def test_unexpected_exception_exits_4_without_manifest(tmp_path, capsys, monkeypatch):
    def crash(config, out_dir, seed):
        raise RuntimeError("boom")

    monkeypatch.setitem(gibbslab.cli.HANDLERS, "counterexample", crash)
    out = str(tmp_path / "ce")
    assert main(["counterexample", "--out", out]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: boom")
    assert "Traceback" in err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_non_finite_artifact_is_a_numerical_error(tmp_path, capsys, monkeypatch):
    def nan_artifact(config, out_dir, seed):
        write_json(os.path.join(out_dir, "nan.json"), {"value": float("nan")})
        return []

    monkeypatch.setitem(gibbslab.cli.HANDLERS, "counterexample", nan_artifact)
    out = str(tmp_path / "ce")
    assert main(["counterexample", "--out", out]) == 3
    assert "numerical error: InvalidInput" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("subcommand, extra, gamma_checks", [
    ("bounds-table", {}, 0),
    # two curves over the seven default curve gammas and two mixtures,
    # each checked by its public entry point
    ("verify-identities", {"curve_instances": 2, "mixture_instances": 2}, 2 * 7 + 2),
], ids=["bounds-table", "verify-identities"])
def test_rule_calls_do_not_scale_with_gammas(tmp_path, monkeypatch, subcommand, extra,
                                             gamma_checks):
    # the config checks every gamma once; the sweep behind it checks none
    # again, so a run makes as many rule calls at eight gammas as at four
    calls = []
    rule = gibbslab.errors._require

    def counting(*args):
        calls.append(args[0])
        return rule(*args)

    monkeypatch.setattr(gibbslab.errors, "_require", counting)
    counts = []
    for gammas in ([0.1, 1.0, 10.0, 100.0], [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0]):
        config = validate_config(subcommand, {"instances": 4, "gammas": gammas, **extra})
        out = tmp_path / str(len(gammas))
        out.mkdir()
        calls.clear()
        gibbslab.cli.HANDLERS[subcommand](config, str(out), config["seed"])
        counts.append(len(calls))
        assert calls.count("gamma") == gamma_checks
    assert counts[0] == counts[1]


# ---------------------------------------------------------------- fuzzing


def config_paths(default, prefix=()):
    """Every path into a default config, plus an unknown key in each object."""
    entries = {0: default[0]} if isinstance(default, list) else dict(default)
    if isinstance(default, dict):
        entries["bogus"] = None
    for name, entry in entries.items():
        yield prefix + (name,)
        if isinstance(entry, (dict, list)):
            yield from config_paths(entry, prefix + (name,))


def place(default, path, value):
    """A user config that sets value at path; a list record keeps its
    other default keys, so the value is the only thing wrong with it."""
    if not path:
        return value
    head, *rest = path
    if isinstance(head, int):
        entry = default[0]
        inner = place(entry, rest, value)
        return [{**entry, **inner} if rest else inner]
    return {head: place(default.get(head) if isinstance(default, dict) else None, rest, value)}


def assert_typed(default, value, key=""):
    """Every leaf has its default's type and lies in its range."""
    if isinstance(default, dict):
        assert isinstance(value, dict) and list(value) == list(default)
        for name, entry in default.items():
            assert_typed(entry, value[name], f"{key}.{name}" if key else name)
    elif isinstance(default, list):
        assert isinstance(value, list)
        for item in value:
            assert_typed(default[0], item, f"{key}[]")
    elif isinstance(value, list):
        assert key.rpartition(".")[2] in ("mu", "mu0")
        assert all(type(v) is float and math.isfinite(v) for v in value)
    else:
        assert type(value) is type(default)
        assert not isinstance(value, float) or math.isfinite(value)
    rule = RANGES.get(key, ())
    assert all(OPERATORS[op](value, bound) for op, bound in zip(rule[::2], rule[1::2]))
    assert key not in NONEMPTY or value


# errors that a value at one key may raise at the other key of a rule
# relating the two
PARTNERS = {
    "configs": "two_point_config_index",
    "iterations": "batch_count",
    "gammas": "probe_gammas",
}

TARGETS = [(sub, path) for sub in DEFAULTS for path in config_paths(DEFAULTS[sub])]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(TARGETS),
    JSON_VALUES | st.lists(st.integers() | st.floats(), max_size=4),
    st.none() | st.integers(),
)
def test_validation_types_every_leaf_or_names_the_key(target, value, seed):
    subcommand, path = target
    user = place(DEFAULTS[subcommand], path, value)
    try:
        config = validate_config(subcommand, user, seed)
    except ConfigInvalid as exc:
        if exc.path == "--seed":
            assert not 0 <= seed < 2**63
            return
        top = path[0]
        assert re.match(rf"({re.escape(top)}|{PARTNERS.get(top, top)})($|[.\[])", exc.path), (
            exc.path, path
        )
        return
    assert_typed(DEFAULTS[subcommand], config)
    assert seed is None or config["seed"] == seed
