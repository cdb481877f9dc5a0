"""Bound suite: dual inverses, fixed points, and the sandwich table."""

import dataclasses
import math

import numpy as np
import pytest

from gibbslab import (
    AlphaOutOfRange,
    BoundRow,
    GammaNonPositive,
    InvalidInput,
    NoPositiveRoot,
    RatioConstants,
    SubExponential,
    SubGamma,
    SubGaussian,
    bound_suite,
    bounds_table,
    fixed_point_kappa,
    InfoDivergenceReport,
    gen_characterizations,
    random_problem,
    sandwich_violations,
)
from gibbslab.bounds import _bisect_fixed_point


def test_sub_gaussian_dual_inverse():
    tail = SubGaussian(2.0)
    assert tail.psi_star_inverse(0.5) == 2.0
    assert tail.psi_star_inverse(0.0) == 0.0
    with pytest.raises(InvalidInput):
        tail.psi_star_inverse(-0.1)


def test_sub_exponential_dual_inverse_branches():
    tail = SubExponential(sigma_e_sq=0.8, b=0.5)
    bp = tail.branch_point
    assert abs(bp - 0.8 / (2.0 * 0.25)) < 1e-15
    # the square-root and linear branches meet at the branch point
    below = tail.psi_star_inverse(bp * (1.0 - 1e-9))
    above = tail.psi_star_inverse(bp * (1.0 + 1e-9))
    assert abs(below - above) < 1e-8
    assert abs(tail.psi_star_inverse(bp) - math.sqrt(2.0 * 0.8 * bp)) < 1e-15
    y = 3.0 * bp
    assert abs(tail.psi_star_inverse(y) - (0.5 * y + 0.8 / 1.0)) < 1e-15


def test_sub_gamma_dual_inverse():
    tail = SubGamma(tau_sq=1.3, c_s=0.4)
    y = 0.7
    assert abs(tail.psi_star_inverse(y) - (math.sqrt(2.0 * 1.3 * y) + 0.4 * y)) < 1e-15


def test_tail_parameter_validation():
    with pytest.raises(InvalidInput):
        SubGaussian(0.0)
    with pytest.raises(InvalidInput):
        SubExponential(sigma_e_sq=1.0, b=-1.0)
    with pytest.raises(InvalidInput):
        SubGamma(tau_sq=-2.0, c_s=0.5)


def test_fixed_point_sub_gaussian_closed_form():
    # crossing of sigma sqrt(2 kappa / n) with kappa / gamma
    assert abs(fixed_point_kappa(SubGaussian(1.0), 5.0, 100, 0.0) - 0.5) < 1e-15
    kappa = fixed_point_kappa(SubGaussian(1.5), 3.0, 40, 0.7)
    oracle = 2.0 * 1.5**2 * 3.0**2 / (40 * 1.7**2)
    assert abs(kappa - oracle) < 1e-14


def test_fixed_point_bisect_agrees_with_closed_form():
    tails = [
        SubGaussian(1.2),
        SubExponential(sigma_e_sq=0.9, b=0.3),
        SubExponential(sigma_e_sq=0.9, b=1.0),
        SubGamma(tau_sq=1.1, c_s=0.2),
    ]
    for tail in tails:
        for gamma, n, c in ((0.5, 30, 0.0), (8.0, 10, 0.4), (2.0, 200, 1.3)):
            auto = fixed_point_kappa(tail, gamma, n, c)
            bisect = _bisect_fixed_point(tail, gamma, n, c)
            assert abs(auto - bisect) <= 1e-10 * max(1.0, auto)
            # the returned value satisfies the crossing equation
            residual = tail.psi_star_inverse(auto / n) - (1.0 + c) * auto / gamma
            assert abs(residual) <= 1e-10 * max(1.0, auto)


def test_fixed_point_infeasible_sub_gamma():
    with pytest.raises(NoPositiveRoot):
        fixed_point_kappa(SubGamma(tau_sq=1.0, c_s=2.0), 100.0, 10, 0.0)
    with pytest.raises(NoPositiveRoot):
        _bisect_fixed_point(SubGamma(tau_sq=1.0, c_s=2.0), 100.0, 10, 0.0)


def test_fixed_point_argument_validation():
    tail = SubGaussian(1.0)
    with pytest.raises((InvalidInput, GammaNonPositive)):
        fixed_point_kappa(tail, 0.0, 10, 0.0)
    with pytest.raises(InvalidInput):
        fixed_point_kappa(tail, 1.0, 0, 0.0)
    with pytest.raises(InvalidInput):
        fixed_point_kappa(tail, 1.0, 10, -0.5)


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


def test_bound_suite_classical_limit():
    # zero ratio constants reproduce the classical 2 sigma^2 gamma / n rate
    zero = RatioConstants(c_i=0.0, c_k=0.0, c_c=0.0, c_s_ratio=0.0)
    suite = bound_suite(4.0, 50, SubGaussian(1.0), zero)
    assert abs(suite["sub_gaussian_c_i"].value - 2.0 * 4.0 / 50) < 1e-15
    assert abs(suite["sub_gaussian_c_k"].value - 2.0 * 4.0 / 50) < 1e-15
    assert abs(suite["fixed_point"].value - suite["sub_gaussian_c_i"].value) < 1e-12


def test_bound_suite_positive_constants_tighten():
    zero = RatioConstants(c_i=0.0, c_k=0.0, c_c=0.0, c_s_ratio=0.0)
    rich = RatioConstants(c_i=0.8, c_k=0.5, c_c=0.3, c_s_ratio=0.2)
    base = bound_suite(4.0, 50, SubGaussian(1.0), zero)
    tight = bound_suite(4.0, 50, SubGaussian(1.0), rich)
    for name in ("sub_gaussian_c_i", "sub_gaussian_c_k", "bounded_c_c", "stability_c_s"):
        assert tight[name].value < base[name].value


def test_bound_suite_sub_exponential_gating():
    tail = SubExponential(sigma_e_sq=1.0, b=1.0)
    zero = RatioConstants(c_i=0.0, c_k=0.0, c_c=None, c_s_ratio=None)
    both = bound_suite(2.0, 100, tail, zero)
    assert "sub_exponential_large_n" in both and "sub_exponential_small_n" in both
    # a small mutual information selects the large-n branch
    gated = bound_suite(2.0, 100, tail, zero, mutual=0.5)
    assert set(k for k in gated if k.startswith("sub_exp")) == {"sub_exponential"}
    assert gated["sub_exponential"].value == both["sub_exponential_large_n"].value
    # a huge mutual information forces the small-n branch
    small = bound_suite(2.0, 100, tail, zero, mutual=80.0)
    assert small["sub_exponential"].value == both["sub_exponential_small_n"].value


def test_bound_suite_sub_exponential_fixed_point_consistency():
    # small-n regime: generic crossing equals the branch closed form
    tail = SubExponential(sigma_e_sq=1.0, b=1.0)
    zero = RatioConstants(c_i=0.0, c_k=0.0, c_c=None, c_s_ratio=None)
    suite = bound_suite(8.0, 10, tail, zero)
    assert abs(suite["fixed_point"].value - suite["sub_exponential_small_n"].value) < 1e-12


def test_bound_suite_sub_gamma_infeasible_entry():
    zero = RatioConstants(c_i=0.0, c_k=0.0, c_c=None, c_s_ratio=None)
    suite = bound_suite(100.0, 10, SubGamma(tau_sq=1.0, c_s=2.0), zero)
    assert suite["sub_gamma"].feasible is False
    assert suite["sub_gamma"].value is None
    assert suite["fixed_point"].feasible is False


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


def test_bounds_table_joint_model_parametric_rows_infeasible():
    rng = np.random.default_rng(40)
    problem = random_problem(rng, iid=False)
    rows = bounds_table(problem, 2.0)
    by_name = {r.bound_name: r for r in rows}
    for name in ("sub_gaussian_c_i", "kl_based", "fixed_point"):
        assert by_name[name].feasible is False
        assert by_name[name].value is None
    assert sandwich_violations(rows) == []


def test_bounds_table_constant_loss_short_circuit():
    rng = np.random.default_rng(41)
    problem = random_problem(rng, iid=True)
    flat = dataclasses.replace(problem, loss=np.full_like(problem.loss, 0.5))
    rows = bounds_table(flat, 2.0)
    by_name = {r.bound_name: r for r in rows}
    assert abs(by_name["exact_gen"].value) < 1e-15
    assert by_name["kl_based"].value == 0.0
    assert sandwich_violations(rows) == []


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
