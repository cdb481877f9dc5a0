"""Bounds: ratio constants, the sub-Gaussian entries, and the sandwich table."""

import dataclasses
import math

import numpy as np
import pytest

from gibbslab import (
    AlphaOutOfRange,
    BoundRow,
    GammaNonPositive,
    IdentityMismatch,
    InvalidInput,
    RatioConstants,
    bounds_table,
    InfoDivergenceReport,
    gen_characterizations,
    instance_sweep,
    random_problem,
    sandwich_violations,
)
from gibbslab.bounds import REGIMES, _bounds_rows, _sub_gaussian
from gibbslab.cli import DEFAULTS
from gibbslab.gibbs import _shape_sweep


def test_ratio_constants_on_iid_instances():
    rng = np.random.default_rng(30)
    for _ in range(15):
        problem = random_problem(rng, iid=True)
        gamma = float(rng.uniform(0.3, 8.0))
        ratios = RatioConstants.from_report(gen_characterizations(problem, gamma))
        if ratios.degenerate:
            continue
        assert ratios.c_i >= 0.0
        assert 0.0 <= ratios.c_k <= ratios.c_i + 1e-12
        assert ratios.c_c is not None and ratios.c_c >= 0.0
        assert ratios.c_s_ratio is not None and ratios.c_s_ratio >= 0.0


def test_ratio_constants_joint_model_has_no_iid_extras():
    rng = np.random.default_rng(31)
    problem = random_problem(rng, iid=False)
    ratios = RatioConstants.from_report(gen_characterizations(problem, 2.0))
    assert ratios.c_c is None
    assert ratios.c_s_ratio is None


def test_ratio_constants_constant_loss_degenerate():
    rng = np.random.default_rng(32)
    problem = random_problem(rng, iid=True)
    flat = dataclasses.replace(problem, loss=np.full_like(problem.loss, 0.25))
    ratios = RatioConstants.from_report(gen_characterizations(flat, 3.0))
    assert ratios.degenerate is True
    assert ratios.c_i == 0.0 and ratios.c_k == 0.0


@pytest.mark.parametrize("field", ["c_i", "c_k", "c_c", "c_s_ratio"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
def test_ratio_constants_refuse_a_bad_constant(field, value):
    # c_k is kept at most c_i, so only the field under test is bad
    good = {"c_i": 0.5, "c_k": 0.25, "c_c": 0.125, "c_s_ratio": 0.0}
    rule = "a finite nonnegative real" if field in ("c_i", "c_k") else "None or >= 0"
    with pytest.raises(InvalidInput, match=rf"^{field} must be {rule}, got {value!r}$"):
        RatioConstants(**{**good, field: value})


def test_ratio_constants_refuse_c_k_above_c_i():
    with pytest.raises(IdentityMismatch, match=r"^c_k=0\.75 exceeds c_i=0\.5;"):
        RatioConstants(c_i=0.5, c_k=0.75, c_c=None, c_s_ratio=None)
    # within 1e-9 relative c_k may exceed c_i, and a degenerate coupling
    # is not held to the order at all
    assert RatioConstants(c_i=0.5, c_k=0.5 + 1e-10, c_c=None, c_s_ratio=None).c_k > 0.5
    assert RatioConstants(c_i=0.0, c_k=0.75, c_c=None, c_s_ratio=None, degenerate=True).c_k == 0.75


def sub_gaussian_entries(c_i, c_k, c_c, c_s, sigma=1.0):
    """_sub_gaussian's (value, constants_used) entries at gamma 4 and n 50,
    for one member."""
    gamma, sigma, *constants = (np.array([value]) for value in (4.0, sigma, c_i, c_k, c_c, c_s))
    columns = _sub_gaussian(gamma, 50, sigma, *constants)
    return {name: (values.item(), texts[0]) for name, (values, texts) in columns.items()}


def sub_gaussian_values(c_i, c_k, c_c, c_s):
    """_sub_gaussian's values at gamma 4, n 50 and sigma 1, for one member."""
    return {name: value for name, (value, _) in sub_gaussian_entries(c_i, c_k, c_c, c_s).items()}


def test_sub_gaussian_classical_limit():
    # zero ratio constants reproduce the classical 2 sigma^2 gamma / n rate
    values = sub_gaussian_values(0.0, 0.0, 0.0, 0.0)
    assert abs(values["sub_gaussian_c_i"] - 2.0 * 4.0 / 50) < 1e-15
    assert abs(values["sub_gaussian_c_k"] - 2.0 * 4.0 / 50) < 1e-15


# each sub-Gaussian entry at gamma 4 and n 50 as a function of (sigma,
# c_i, c_k, c_c, c_s), and the constants its row prints
SUB_GAUSSIAN_FORMS = {
    "sub_gaussian_c_i": (lambda s, ci, ck, cc, cs: 2.0 * s**2 * 4.0 / ((1.0 + ci) * 50),
                         "c_i={1:.12g}, sigma={0:.12g}"),
    "sub_gaussian_c_k": (lambda s, ci, ck, cc, cs: 2.0 * s**2 * 4.0 / ((1.0 + ck) * 50),
                         "c_k={2:.12g}, sigma={0:.12g}"),
    "bounded_c_c": (lambda s, ci, ck, cc, cs: 4.0 / ((1.0 + cc) * 50), "c_c={3:.12g}"),
    "stability_c_s": (lambda s, ci, ck, cc, cs: 4.0 * s**2 * 4.0 / ((1.0 + cs) * 50),
                      "c_s={4:.12g}, tau={0:.12g}"),
}


@pytest.mark.parametrize("name", list(SUB_GAUSSIAN_FORMS))
@pytest.mark.parametrize("sigma, c_i, c_k, c_c, c_s", [(1.3, 0.8, 0.5, 0.3, 0.2),
                                                       (0.25, 3.0, 1.5, 7.0, 0.05)])
def test_sub_gaussian_entry_is_its_closed_form(name, sigma, c_i, c_k, c_c, c_s):
    value, constants = sub_gaussian_entries(c_i, c_k, c_c, c_s, sigma)[name]
    form, text = SUB_GAUSSIAN_FORMS[name]
    expected = form(sigma, c_i, c_k, c_c, c_s)
    assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert constants == text.format(sigma, c_i, c_k, c_c, c_s)


@pytest.mark.parametrize("name", ["sub_gaussian_c_i", "sub_gaussian_c_k", "bounded_c_c",
                                  "stability_c_s"])
def test_sub_gaussian_positive_constants_tighten(name):
    base = sub_gaussian_values(0.0, 0.0, 0.0, 0.0)
    tight = sub_gaussian_values(0.8, 0.5, 0.3, 0.2)
    assert tight[name] < base[name]


def row_value(problem, gamma, name):
    """The value of the named bounds_table row."""
    return next(row.value for row in bounds_table(problem, gamma) if row.bound_name == name)


def test_tv_lower_bound_properties():
    rng = np.random.default_rng(33)
    for _ in range(15):
        problem = random_problem(rng, iid=bool(rng.integers(0, 2)))
        gamma = float(rng.uniform(0.2, 10.0))
        value = row_value(problem, gamma, "tv_lower")
        gen = gen_characterizations(problem, gamma).direct
        assert -1e-15 <= value <= gen + 1e-10
        assert value <= 4.0 / gamma + 1e-15


def test_tv_lower_bound_constant_loss_is_zero():
    rng = np.random.default_rng(34)
    problem = random_problem(rng, iid=True)
    flat = dataclasses.replace(problem, loss=np.full_like(problem.loss, 0.9))
    assert row_value(flat, 2.0, "tv_lower") == 0.0
    with pytest.raises(GammaNonPositive):
        row_value(problem, 0.0, "tv_lower")


def test_renyi_upper_bound_order():
    rng = np.random.default_rng(35)
    for _ in range(10):
        problem = random_problem(rng, iid=bool(rng.integers(0, 2)))
        gamma = float(rng.uniform(0.2, 5.0))
        gen = gen_characterizations(problem, gamma).direct
        alphas = (4.0, 2.0, 1.5, 1.01)
        rows = {row.bound_name: row.value for row in bounds_table(problem, gamma, alphas=alphas)}
        values = [rows[f"renyi_upper_alpha_{a:g}"] for a in alphas]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] >= gen - 1e-10


def test_renyi_upper_bound_validation():
    rng = np.random.default_rng(36)
    problem = random_problem(rng)
    for bad in (1.0, 0.5, -1.0):
        with pytest.raises(AlphaOutOfRange):
            bounds_table(problem, 1.0, alphas=(bad,))
    with pytest.raises(GammaNonPositive):
        bounds_table(problem, -1.0, alphas=(2.0,))


def test_kl_based_bound_consistency_and_validity():
    rng = np.random.default_rng(37)
    for _ in range(10):
        problem = random_problem(rng, iid=True)
        gamma = float(rng.uniform(0.3, 6.0))
        sigma = float(problem.loss.max() - problem.loss.min()) / 2.0
        if sigma == 0.0:
            continue
        # bounds_table takes sigma = (max - min) / 2 of the loss table too
        value = row_value(problem, gamma, "kl_based")
        # the square recovers the expected forward divergence
        report = gen_characterizations(problem, gamma)
        d_fwd = InfoDivergenceReport(
            report.info.mutual, report.info.lautum, report.d_fwd, report.d_rev
        ).d_fwd
        assert abs(value * value * problem.n / (2.0 * sigma * sigma) - d_fwd) < 1e-10
        gen = report.direct
        assert value >= gen - 1e-10


def test_bounds_table_structure_and_sandwich():
    rng = np.random.default_rng(38)
    for _ in range(10):
        problem = random_problem(rng, iid=True)
        gamma = float(rng.uniform(0.3, 6.0))
        rows = bounds_table(problem, gamma)
        names = [r.bound_name for r in rows]
        assert names[0] == "exact_gen"
        assert "tv_lower" in names and "kl_based" in names
        assert "renyi_upper_alpha_2" in names
        assert sandwich_violations(rows) == []


def test_bounds_table_scale_covariance():
    # scaling the loss by c and gamma by 1 / c scales every applicable
    # bound by c; the [0, 1]-specific row is flagged not applicable
    rng = np.random.default_rng(39)
    problem = random_problem(rng, iid=True)
    gamma = 2.0
    c = 2.5
    scaled = dataclasses.replace(problem, loss=problem.loss * c)
    base_rows = {r.bound_name: r for r in bounds_table(problem, gamma)}
    scaled_rows = {r.bound_name: r for r in bounds_table(scaled, gamma / c)}
    for name, row in base_rows.items():
        other = scaled_rows[name]
        if name == "bounded_c_c":
            assert "not applicable" in other.regime
            continue
        if not (row.feasible and row.value is not None):
            continue
        assert other.value == pytest.approx(c * row.value, rel=1e-9, abs=1e-12)


def test_bounds_table_joint_model_has_only_distribution_free_rows():
    # the parametric bounds are written for IID sampling, so a joint
    # model's table holds the exact value and the bounds that need none
    rng = np.random.default_rng(40)
    problem = random_problem(rng, iid=False)
    rows = bounds_table(problem, 2.0)
    assert [r.bound_name for r in rows] == [
        "exact_gen", "tv_lower", "renyi_upper_alpha_1.5", "renyi_upper_alpha_2",
        "renyi_upper_alpha_4"]
    assert all(r.feasible and r.value is not None for r in rows)
    assert sandwich_violations(rows) == []


def test_no_two_bounds_agree_on_every_member_of_the_default_sweep():
    # a row that repeats another on every member is one number under two
    # names; each pair of names must differ by more than 1e-12 relative on
    # some member that has both
    config = DEFAULTS["bounds-table"]
    instances = instance_sweep(config["instances"], config["seed"],
                               max_symbols=config["max_symbols"],
                               max_hypotheses=config["max_hypotheses"], max_n=config["max_n"])
    columns: dict[str, dict[int, float]] = {}
    members = _shape_sweep(instances, config["gammas"])
    for k, (*_, posterior) in enumerate(members):
        for row in _bounds_rows(posterior, tuple(config["alphas"])):
            columns.setdefault(row.bound_name, {})[k] = row.value
    assert len(columns) == 2 + len(config["alphas"]) + len(REGIMES)
    names = sorted(columns)
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            shared = columns[first].keys() & columns[second].keys()
            assert any(
                abs(columns[first][k] - columns[second][k])
                > 1e-12 * max(abs(columns[first][k]), abs(columns[second][k]))
                for k in shared), (first, second)


def test_bounds_table_constant_loss_short_circuit():
    rng = np.random.default_rng(41)
    problem = random_problem(rng, iid=True)
    flat = dataclasses.replace(problem, loss=np.full_like(problem.loss, 0.5))
    rows = bounds_table(flat, 2.0)
    by_name = {r.bound_name: r for r in rows}
    assert abs(by_name["exact_gen"].value) < 1e-15
    assert by_name["kl_based"].value == 0.0
    assert sandwich_violations(rows) == []


@pytest.mark.parametrize("name", list(REGIMES))
def test_parametric_row_states_its_regime(name):
    # the regime and constants texts are bytes of bounds.csv: an IID
    # problem's row states its assumption and a constant loss's row its
    # short circuit; a joint model has no such row
    rng = np.random.default_rng(42)
    iid = random_problem(rng, iid=True)
    assert 0.0 <= iid.loss.min() and iid.loss.max() <= 1.0
    joint = random_problem(rng, iid=False)
    flat = dataclasses.replace(iid, loss=np.full_like(iid.loss, 0.5))
    row, flat_row = (next(r for r in bounds_table(problem, 2.0) if r.bound_name == name)
                     for problem in (iid, flat))
    assert (row.regime, row.feasible, row.side) == (REGIMES[name], True, "upper")
    assert row.constants_used.startswith("sigma=" if name == "kl_based" else "c_")
    assert name not in [r.bound_name for r in bounds_table(joint, 2.0)]
    assert (flat_row.regime, flat_row.value, flat_row.constants_used) == (
        "constant loss", 0.0, "sigma=0")


def test_sandwich_violations_detects_bad_rows():
    rows = [
        BoundRow("exact_gen", 1.0, True, "definition", "", "exact"),
        BoundRow("upper_ok", 2.0, True, "", "", "upper"),
        BoundRow("upper_bad", 0.5, True, "", "", "upper"),
        BoundRow("lower_bad", 1.5, True, "", "", "lower"),
        BoundRow("skipped", 0.1, True, "NOTE: loss leaves [0, 1], bound not applicable", "", "upper"),
        BoundRow("infeasible", None, False, "", "", "upper"),
    ]
    messages = sandwich_violations(rows)
    assert len(messages) == 2
    assert any("upper_bad" in m for m in messages)
    assert any("lower_bad" in m for m in messages)
    with pytest.raises(InvalidInput):
        sandwich_violations(rows[1:])
