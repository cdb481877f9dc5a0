"""Upper and lower bounds on the expected Gibbs generalization error.

Three ingredients combine here:

  * tail classes describing the loss (sub-Gaussian, sub-exponential,
    sub-gamma) through the inverse ``psi_star_inverse`` of the Legendre
    dual of their cumulant bound;
  * ratio constants measured on an exactly enumerable problem: the
    lautum/mutual ratio c_i, the reverse/forward divergence ratio c_k
    against the population Gibbs reference, the conditional
    lautum/mutual ratio c_c from the supersample construction, and the
    worst per-coordinate reverse/forward replace-one ratio c_s;
  * closed-form parametric bounds of the shape const * gamma / ((1 + c) n),
    all of which are fixed points of psi_star_inverse(kappa / n) =
    (1 + c) kappa / gamma.

Every parametric bound assumes IID training samples; on joint data
models the table marks them infeasible instead of silently emitting
numbers.  Two distribution-free comparisons that need no sampling
assumption are included as well: a total-variation lower bound
(TV^2 / gamma, with TV the unnormalized two-sided difference, so the
bound never exceeds 4 / gamma) and a Renyi-divergence upper bound
valid for every order above one.

_bounds_rows is the one path to the bound values of a Gibbs posterior:
every row reads that one evaluation, and the ratio constants come from
its GenReport through RatioConstants.from_report.  Every posterior is a
member of a stacked sweep over the gammas of a stack of same-shape
problems (gibbs._gibbs_sweep), a problem on its own being a stack of one,
and its functionals, the Renyi sums of every order among them, are
computed for all of the sweep's (problem, gamma) members at once.
bounds_table gives the rows of a (problem, gamma) pair, a sweep of the
problem's stack of one at that gamma; it shares one module-level slot
with gibbs.gen_characterizations that holds the evaluation either read
last, so calling both on one pair builds it once, and the slot holds one
evaluation at a time.  The bounds-table subcommand instead reads the rows
of each member of the sweeps of gibbs._shape_sweep, which stacks the
same-shape problems of a window of instances at all its gammas.  bound_suite
evaluates the closed forms for given constants and a given tail class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    AlphaOutOfRange,
    GammaNonPositive,
    IdentityMismatch,
    InvalidInput,
    NoPositiveRoot,
)
from .gibbs import GenReport, GibbsPosterior, LearningProblem, _evaluation

DEGENERACY_TOL = 1e-15
BISECT_REL_TOL = 1e-12
MAX_BRACKET_DOUBLINGS = 60
SANDWICH_SLACK = 1e-12


def _require_positive(name: str, value: float) -> float:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
        raise InvalidInput(f"{name} must be a finite positive real, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SubGaussian:
    """Loss whose centered cumulant is bounded by sigma^2 lambda^2 / 2."""

    sigma: float

    def __post_init__(self) -> None:
        _require_positive("sigma", self.sigma)

    def psi_star_inverse(self, y: float) -> float:
        if y < 0.0:
            raise InvalidInput(f"psi_star_inverse needs y >= 0, got {y!r}")
        return math.sqrt(2.0 * self.sigma**2 * y)


@dataclass(frozen=True)
class SubExponential:
    """Cumulant bounded by sigma_e_sq lambda^2 / 2 on |lambda| <= 1/b.

    The dual inverse follows the sub-Gaussian square root up to the
    branch point sigma_e_sq / (2 b^2), where it continues linearly with
    slope b; the branch point is where the two expressions meet.
    """

    sigma_e_sq: float
    b: float

    def __post_init__(self) -> None:
        _require_positive("sigma_e_sq", self.sigma_e_sq)
        _require_positive("b", self.b)

    @property
    def branch_point(self) -> float:
        return self.sigma_e_sq / (2.0 * self.b**2)

    def psi_star_inverse(self, y: float) -> float:
        if y < 0.0:
            raise InvalidInput(f"psi_star_inverse needs y >= 0, got {y!r}")
        if y <= self.branch_point:
            return math.sqrt(2.0 * self.sigma_e_sq * y)
        return self.b * y + self.sigma_e_sq / (2.0 * self.b)


@dataclass(frozen=True)
class SubGamma:
    """Cumulant bounded by tau^2 lambda^2 / (2 (1 - c_s |lambda|))."""

    tau_sq: float
    c_s: float

    def __post_init__(self) -> None:
        _require_positive("tau_sq", self.tau_sq)
        _require_positive("c_s", self.c_s)

    def psi_star_inverse(self, y: float) -> float:
        if y < 0.0:
            raise InvalidInput(f"psi_star_inverse needs y >= 0, got {y!r}")
        return math.sqrt(2.0 * self.tau_sq * y) + self.c_s * y


TailClass = SubGaussian | SubExponential | SubGamma


def _validate_fixed_point_args(gamma: float, n: int, c_ratio: float) -> None:
    if not (isinstance(gamma, (int, float)) and math.isfinite(gamma) and gamma > 0.0):
        raise GammaNonPositive(f"gamma must be > 0, got {gamma!r}")
    if not (isinstance(n, int) and n >= 1):
        raise InvalidInput(f"n must be a positive integer, got {n!r}")
    if not (isinstance(c_ratio, (int, float)) and math.isfinite(c_ratio) and c_ratio >= 0.0):
        raise InvalidInput(f"c_ratio must be >= 0, got {c_ratio!r}")


def _bisect_fixed_point(tail: TailClass, gamma: float, n: int, c_ratio: float) -> float:
    slope = (1.0 + c_ratio) / gamma

    def excess(kappa: float) -> float:
        return tail.psi_star_inverse(kappa / n) - slope * kappa

    hi = 10.0 * n * max(tail.psi_star_inverse(1.0), 1.0)
    doublings = 0
    while excess(hi) >= 0.0:
        hi *= 2.0
        doublings += 1
        if doublings > MAX_BRACKET_DOUBLINGS:
            raise NoPositiveRoot(
                "the line never overtakes the dual inverse",
                condition=f"(1 + c) * n must exceed gamma times the asymptotic slope; c={c_ratio!r}",
            )
    lo = hi * 1e-300
    while hi - lo > BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fixed_point_kappa(tail: TailClass, gamma: float, n: int, c_ratio: float) -> float:
    """The positive crossing of psi_star_inverse(kappa / n) with the line
    (1 + c_ratio) kappa / gamma, from the closed form of the tail class.

    The crossing caps the information measure whose ratio constant is
    c_ratio, and (1 + c_ratio) kappa / gamma is then the induced bound
    on the generalization error.  The tests check the closed forms
    against _bisect_fixed_point, which brackets and bisects
    psi_star_inverse directly.
    """
    _validate_fixed_point_args(gamma, n, c_ratio)
    one_c = 1.0 + c_ratio
    if isinstance(tail, SubGaussian):
        return 2.0 * tail.sigma**2 * gamma**2 / (n * one_c**2)
    if isinstance(tail, SubExponential):
        if n * one_c >= 2.0 * gamma * tail.b:
            return 2.0 * tail.sigma_e_sq * gamma**2 / (n * one_c**2)
        denom = one_c * n - gamma * tail.b
        if denom <= 0.0:
            raise NoPositiveRoot(
                "the line never overtakes the linear branch",
                condition=f"requires (1 + c) * n > gamma * b = {gamma * tail.b!r}",
            )
        return tail.sigma_e_sq * gamma * n / (2.0 * tail.b * denom)
    denom = one_c * n - gamma * tail.c_s
    if denom <= 0.0:
        raise NoPositiveRoot(
            "the line never overtakes the linear branch",
            condition=f"requires (1 + c) * n > gamma * c_s = {gamma * tail.c_s!r}",
        )
    return 2.0 * tail.tau_sq * gamma**2 * n / denom**2


@dataclass(frozen=True)
class RatioConstants:
    """Divergence ratios of one enumerable problem at one temperature.

    c_i = lautum / mutual of the hypothesis-sample coupling; c_k is the
    reverse/forward conditional divergence ratio against the population
    Gibbs reference (never larger than c_i); c_c and c_s come from the
    supersample and replace-one constructions and exist only for IID
    data models.  degenerate flags a coupling with (numerically) zero
    mutual information, where every ratio is reported as zero, the
    always-admissible choice.
    """

    c_i: float
    c_k: float
    c_c: float | None
    c_s_ratio: float | None
    degenerate: bool = False

    def __post_init__(self) -> None:
        for name in ("c_i", "c_k"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise InvalidInput(f"{name} must be a finite nonnegative real, got {value!r}")
        for name in ("c_c", "c_s_ratio"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 0.0):
                raise InvalidInput(f"{name} must be None or >= 0, got {value!r}")
        if not self.degenerate and self.c_k > self.c_i + 1e-9 * max(1.0, self.c_i):
            raise IdentityMismatch(
                f"c_k={self.c_k!r} exceeds c_i={self.c_i!r}; the reverse/forward ratio "
                "can never beat the lautum/mutual ratio"
            )

    @classmethod
    def from_report(cls, report: GenReport) -> "RatioConstants":
        """The ratios of the numbers behind one GenReport.

        Uses the largest admissible value of each constant, which gives the
        tightest version of each parametric bound.  Conditional and
        replace-one ratios whose denominators vanish fall back to zero,
        which keeps the resulting bounds valid (smaller constants only
        loosen them).
        """
        info = report.info
        iid = report.conditional is not None
        if info.mutual <= DEGENERACY_TOL:
            zero = 0.0 if iid else None
            return cls(c_i=0.0, c_k=0.0, c_c=zero, c_s_ratio=zero, degenerate=True)
        c_i = info.lautum / info.mutual
        c_k = report.d_rev / report.d_fwd if report.d_fwd > DEGENERACY_TOL else 0.0
        if not iid:
            return cls(c_i=c_i, c_k=c_k, c_c=None, c_s_ratio=None)
        cond = report.conditional
        c_c = cond.lautum / cond.mutual if cond.mutual > DEGENERACY_TOL else 0.0
        usable = [
            rev / fwd
            for fwd, rev in zip(report.replace_forward, report.replace_reverse)
            if fwd > DEGENERACY_TOL
        ]
        return cls(c_i=c_i, c_k=c_k, c_c=c_c, c_s_ratio=min(usable, default=0.0))


@dataclass(frozen=True)
class BoundEntry:
    """One bound evaluation: value is None when the regime is infeasible."""

    value: float | None
    feasible: bool
    regime: str
    constants_used: str


def bound_suite(
    gamma: float,
    n: int,
    tail: TailClass,
    ratios: RatioConstants,
    mutual: float | None = None,
) -> dict[str, BoundEntry]:
    """Every closed-form parametric bound available for one tail class.

    All entries assume IID samples.  For sub-exponential tails the two
    regimes switch on the mutual information: pass it to select the
    applicable branch, or omit it to get both branches labeled with
    their applicability conditions.  The fixed_point entry is
    (1 + c_i) kappa / gamma with kappa from fixed_point_kappa, itself a
    closed form of the crossing: for sub-Gaussian tails it equals
    sub_gaussian_c_i up to rounding, and for the other classes it is
    the c_i bound of the crossing construction.
    """
    _validate_fixed_point_args(gamma, n, ratios.c_i)
    entries: dict[str, BoundEntry] = {}
    one_ci = 1.0 + ratios.c_i

    if isinstance(tail, SubGaussian):
        s2 = tail.sigma**2
        entries["sub_gaussian_c_i"] = BoundEntry(
            2.0 * s2 * gamma / (one_ci * n),
            True,
            "iid; loss sub-Gaussian on the left tail under the sample law",
            f"c_i={ratios.c_i:.12g}, sigma={tail.sigma:.12g}",
        )
        entries["sub_gaussian_c_k"] = BoundEntry(
            2.0 * s2 * gamma / ((1.0 + ratios.c_k) * n),
            True,
            "iid; loss sub-Gaussian under the sample law",
            f"c_k={ratios.c_k:.12g}, sigma={tail.sigma:.12g}",
        )
        if ratios.c_c is not None:
            entries["bounded_c_c"] = BoundEntry(
                gamma / ((1.0 + ratios.c_c) * n),
                True,
                "iid; loss bounded in [0, 1]",
                f"c_c={ratios.c_c:.12g}",
            )
        if ratios.c_s_ratio is not None:
            entries["stability_c_s"] = BoundEntry(
                4.0 * s2 * gamma / ((1.0 + ratios.c_s_ratio) * n),
                True,
                "iid; loss sub-Gaussian under the posterior for every dataset",
                f"c_s={ratios.c_s_ratio:.12g}, tau={tail.sigma:.12g}",
            )
    elif isinstance(tail, SubExponential):
        large = 2.0 * tail.sigma_e_sq * gamma / (one_ci * n)
        denom = one_ci * n - gamma * tail.b
        small = (
            tail.sigma_e_sq / (2.0 * tail.b) * (gamma * tail.b / denom + 1.0)
            if denom > 0.0
            else None
        )
        constants = f"c_i={ratios.c_i:.12g}, sigma_e_sq={tail.sigma_e_sq:.12g}, b={tail.b:.12g}"
        gate = f"2 * b * mutual / sigma_e_sq = {2.0 * tail.b * mutual / tail.sigma_e_sq:.12g}" if mutual is not None else "2 * b * mutual / sigma_e_sq"
        if mutual is None:
            entries["sub_exponential_large_n"] = BoundEntry(
                large, True, f"iid; applies when n >= {gate}", constants
            )
            entries["sub_exponential_small_n"] = BoundEntry(
                small,
                small is not None,
                f"iid; applies when gamma * b / (1 + c_i) < n < {gate}"
                if small is not None
                else "infeasible: requires (1 + c_i) * n > gamma * b",
                constants,
            )
        elif n >= 2.0 * tail.b * mutual / tail.sigma_e_sq:
            entries["sub_exponential"] = BoundEntry(
                large, True, f"iid, large-n branch (n >= {gate})", constants
            )
        else:
            entries["sub_exponential"] = BoundEntry(
                small,
                small is not None,
                f"iid, small-n branch (n < {gate})"
                if small is not None
                else "infeasible: requires (1 + c_i) * n > gamma * b",
                constants,
            )
    else:
        denom = one_ci * n - gamma * tail.c_s
        constants = f"c_i={ratios.c_i:.12g}, tau_sq={tail.tau_sq:.12g}, c_s={tail.c_s:.12g}"
        if denom > 0.0:
            entries["sub_gamma"] = BoundEntry(
                2.0 * tail.tau_sq * gamma * one_ci * n / denom**2,
                True,
                "iid; loss sub-gamma on the left tail under the sample law",
                constants,
            )
        else:
            entries["sub_gamma"] = BoundEntry(
                None, False, "infeasible: requires (1 + c_i) * n > gamma * c_s", constants
            )

    try:
        kappa = fixed_point_kappa(tail, gamma, n, ratios.c_i)
        entries["fixed_point"] = BoundEntry(
            one_ci * kappa / gamma,
            True,
            "iid; generic crossing of the dual inverse with the ratio line",
            f"c_i={ratios.c_i:.12g}, kappa={kappa:.12g}",
        )
    except NoPositiveRoot as exc:
        entries["fixed_point"] = BoundEntry(
            None, False, f"infeasible: {exc.condition}", f"c_i={ratios.c_i:.12g}"
        )
    return entries


@dataclass(frozen=True)
class BoundRow:
    """One labeled row of a bounds table; side is 'lower', 'upper', or
    'exact' and tells the sandwich check which comparison applies."""

    bound_name: str
    value: float | None
    feasible: bool
    regime: str
    constants_used: str
    side: str


def bounds_table(
    problem: LearningProblem,
    gamma: float,
    alphas: tuple[float, ...] = (1.5, 2.0, 4.0),
) -> list[BoundRow]:
    """Exact generalization error next to every applicable bound.

    Distribution-free rows are always present: tv_lower is TV^2 / gamma,
    TV being the unnormalized total variation between the joint law of
    (W, S) and the product of its marginals, so it lies in [0, 4 / gamma];
    renyi_upper_alpha_<a> sums the two directed Renyi divergences of order
    a > 1 between those laws and divides by gamma, decreasing in a toward
    the exact value as a approaches one.  Parametric rows appear with
    measured ratio constants on IID models and as infeasible placeholders
    on joint models, where their sampling assumption fails; kl_based is
    sqrt(2 sigma^2 d_fwd / n), d_fwd the expected forward divergence to the
    population Gibbs law.  The sub-Gaussian parameter sigma is
    (max - min) / 2 of the loss table; a constant loss short-circuits to
    exact zeros.  Every row reads the one evaluation
    gibbs_posterior(problem, gamma), the sweep of the problem's stack of
    one at gamma: the shared slot's when gen_characterizations or
    bounds_table last read the same problem object at an equal gamma, a
    new one otherwise, on the tables the problem built at its first
    evaluation.  The bounds-table subcommand, which visits each problem at
    several gammas, instead reads _bounds_rows of each member of
    gibbs._shape_sweep, which stacks the gammas of the same-shape problems
    of a window of instances: the same rows bit for bit, with every
    functional computed for a whole stack at once and peak memory held to
    one window or one block of BLOCK_ELEMENTS, whichever is larger.
    """
    for alpha in alphas:
        if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha > 1.0):
            raise AlphaOutOfRange(f"the Renyi upper bound requires alpha > 1, got {alpha!r}")
    return _bounds_rows(_evaluation(problem, gamma), alphas)


def _bounds_rows(posterior: GibbsPosterior, alphas: tuple[float, ...]) -> list[BoundRow]:
    """The rows of bounds_table for one evaluation, every order in alphas
    already checked to exceed one."""
    problem = posterior.problem
    gamma = posterior.gamma
    report = GenReport.from_posterior(posterior)
    tv = posterior.total_variation
    rows = [
        BoundRow("exact_gen", report.direct, True, "definition", "", "exact"),
        BoundRow("tv_lower", tv * tv / gamma, True, "any data model", "", "lower"),
    ]
    for alpha, renyi in zip(alphas, posterior.renyi(alphas)):
        rows.append(
            BoundRow(
                f"renyi_upper_alpha_{alpha:g}",
                renyi / gamma,
                True,
                "any data model; order > 1",
                f"alpha={alpha:.12g}",
                "upper",
            )
        )
    loss = problem.loss
    sigma = float(loss.max() - loss.min()) / 2.0
    parametric_names = (
        "sub_gaussian_c_i",
        "sub_gaussian_c_k",
        "bounded_c_c",
        "stability_c_s",
        "fixed_point",
    )
    if not problem.is_iid():
        for name in parametric_names + ("kl_based",):
            rows.append(
                BoundRow(name, None, False, "requires iid sampling", "", "upper")
            )
        return rows
    if sigma == 0.0:
        for name in parametric_names + ("kl_based",):
            rows.append(BoundRow(name, 0.0, True, "constant loss", "sigma=0", "upper"))
        return rows
    ratios = RatioConstants.from_report(report)
    suite = bound_suite(gamma, problem.n, SubGaussian(sigma), ratios, mutual=None)
    for name in parametric_names:
        if name not in suite:
            continue
        entry = suite[name]
        regime = entry.regime
        if name == "bounded_c_c" and (loss.min() < 0.0 or loss.max() > 1.0):
            regime += "; NOTE: loss leaves [0, 1], bound not applicable"
        rows.append(
            BoundRow(name, entry.value, entry.feasible, regime, entry.constants_used, "upper")
        )
    rows.append(
        BoundRow(
            "kl_based",
            math.sqrt(2.0 * sigma**2 * report.d_fwd / problem.n),
            True,
            "iid; loss sub-Gaussian under the sample law",
            f"sigma={sigma:.12g}",
            "upper",
        )
    )
    return rows


def sandwich_violations(rows: list[BoundRow]) -> list[str]:
    """Compare every feasible bound row against the exact_gen row.

    Returns human-readable violation strings; empty means the exact
    value sits inside every applicable bound up to a 1e-12 absolute
    slack.  Rows flagged not applicable in their regime are skipped.
    """
    exact = [r for r in rows if r.side == "exact"]
    if len(exact) != 1:
        raise InvalidInput(f"expected exactly one exact row, got {len(exact)}")
    gen = exact[0].value
    violations = []
    for row in rows:
        if row.side == "exact" or not row.feasible or row.value is None:
            continue
        if "not applicable" in row.regime:
            continue
        slack = SANDWICH_SLACK * max(1.0, abs(gen))
        if row.side == "upper" and row.value < gen - slack:
            violations.append(
                f"{row.bound_name}={row.value!r} fell below the exact value {gen!r}"
            )
        if row.side == "lower" and row.value > gen + slack:
            violations.append(
                f"{row.bound_name}={row.value!r} rose above the exact value {gen!r}"
            )
    return violations
