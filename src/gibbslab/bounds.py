"""Upper and lower bounds on the expected Gibbs generalization error.

Two ingredients combine here:

  * ratio constants measured on an exactly enumerable problem: the
    lautum/mutual ratio c_i, the reverse/forward divergence ratio c_k
    against the population Gibbs reference, the conditional
    lautum/mutual ratio c_c from the supersample construction, and the
    worst per-coordinate reverse/forward replace-one ratio c_s;
  * closed-form sub-Gaussian bounds of the shape const * gamma / ((1 + c) n),
    sigma = (max - min) / 2 of the loss table being a sub-Gaussian
    parameter of every finite loss.

Every parametric bound, kl_based included, is written for IID training
samples, and a joint data model gets none of them.  Two distribution-free
comparisons are included as well: a total-variation lower bound (TV^2 /
gamma, with TV the unnormalized two-sided difference, so at most 4 /
gamma) and a Renyi-divergence upper bound for every order above one.

Every bound of a sweep is a column with one value per (problem, gamma)
member, computed for the whole stack at once (_BoundTable, which the
bounds-table subcommand reads), as are the ratio constants (_ratios) and
the sub-Gaussian entries (_sub_gaussian).  bounds_table, from_report and
sandwich_violations read one member, and each record checks itself by
its columns' check on a member of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AlphaOutOfRange, IdentityMismatch, InvalidInput, require_real
from .gibbs import GenReport, GibbsPosterior, LearningProblem, _evaluation, _Sweep
from .probability import _failures, _one

DEGENERACY_TOL = 1e-15
SANDWICH_SLACK = 1e-12


def _squares(column: np.ndarray) -> np.ndarray:
    """Each value squared by Python's float power, which bounds.csv has
    always used: numpy's square rounds differently on about 1 in 1,000
    values."""
    return np.array([value**2 for value in column.tolist()])


@dataclass(frozen=True)
class RatioConstants:
    """Divergence ratios of one enumerable problem at one temperature.

    c_i = lautum / mutual of the hypothesis-sample coupling; c_k is the
    reverse/forward conditional divergence ratio against the population
    Gibbs reference (never larger than c_i); c_c and c_s come from the
    supersample and replace-one constructions, IID data models only.
    degenerate flags a coupling with (numerically) zero mutual
    information, where every ratio is zero, the always-admissible choice.
    """

    c_i: float
    c_k: float
    c_c: float | None
    c_s_ratio: float | None
    degenerate: bool = False

    def __post_init__(self) -> None:
        columns = (_one(getattr(self, name)) for name in ("c_i", "c_k", "c_c", "c_s_ratio"))
        for error in RatioConstants.failures(*columns, _one(self.degenerate)).values():
            raise error

    @staticmethod
    def failures(c_i, c_k, c_c, c_s_ratio, degenerate) -> dict:
        """The checks of a record over columns of members: each failing
        member's first failure, in the order a lone record tests them.  A
        record is a member of one."""

        def refuse(name: str, column: np.ndarray, rule: str):
            return ~(np.isfinite(column) & (column >= 0.0)), lambda k: InvalidInput(
                f"{name} must be {rule}, got {column[k].item()!r}")

        checks = [refuse("c_i", c_i, "a finite nonnegative real"),
                  refuse("c_k", c_k, "a finite nonnegative real")]
        checks += [refuse(name, column, "None or >= 0") for name, column
                   in (("c_c", c_c), ("c_s_ratio", c_s_ratio)) if column is not None]
        beaten = ~degenerate & (c_k > c_i + 1e-9 * np.maximum(1.0, c_i))
        checks.append((beaten, lambda k: IdentityMismatch(
            f"c_k={c_k[k].item()!r} exceeds c_i={c_i[k].item()!r}; the reverse/forward ratio "
            "can never beat the lautum/mutual ratio")))
        return _failures(*checks)

    @classmethod
    def from_report(cls, report: GenReport) -> "RatioConstants":
        """The ratios of the numbers behind one GenReport, by _ratios on a
        member of one: the largest admissible value of each constant, which
        gives the tightest version of each parametric bound, and zero for a
        conditional or replace-one ratio whose denominator vanishes, which
        keeps the bounds valid (smaller constants only loosen them)."""
        cond = report.conditional
        ratios = _ratios(
            _one(report.info.mutual), _one(report.info.lautum), _one(report.d_fwd),
            _one(report.d_rev), None if cond is None else (_one(cond.mutual), _one(cond.lautum)),
            _one(report.replace_forward), _one(report.replace_reverse),
        )
        return cls(**{name: None if column is None else column.item()
                      for name, column in ratios.items()})


def _ratios(mutual, lautum, d_fwd, d_rev, conditional=None, forward=None, reverse=None) -> dict:
    """RatioConstants' fields as columns over members; c_c and c_s_ratio
    from the (mutual, lautum) supersample columns and the (members, n)
    replace-one divergences, when given, and None otherwise."""
    tol = DEGENERACY_TOL
    degenerate = mutual <= tol
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = {
            "c_i": np.where(degenerate, 0.0, lautum / mutual),
            "c_k": np.where(degenerate | ~(d_fwd > tol), 0.0, d_rev / d_fwd),
            "c_c": None,
            "c_s_ratio": None,
        }
        if conditional is not None:
            cond_mutual, cond_lautum = conditional
            unusable = degenerate | ~(cond_mutual > tol)
            ratios["c_c"] = np.where(unusable, 0.0, cond_lautum / cond_mutual)
            # the smallest usable slot ratio, 0 when none is usable
            usable = forward > tol
            slots = np.where(usable, reverse / forward, np.inf).min(axis=-1)
            ratios["c_s_ratio"] = np.where(degenerate | ~usable.any(axis=-1), 0.0, slots)
    return {**ratios, "degenerate": degenerate}


def _sweep_ratios(sweep: _Sweep) -> dict:
    """_ratios of every member of a sweep, after its routes are read."""
    extras = ()
    if sweep.stack.is_iid():
        extras = (sweep.supersample_information, *sweep.replace_one)
    return _ratios(*sweep.information, *sweep.references, *extras)


# the regime of each parametric row an IID model gets
REGIMES = {
    "sub_gaussian_c_i": "iid; loss sub-Gaussian on the left tail under the sample law",
    "sub_gaussian_c_k": "iid; loss sub-Gaussian under the sample law",
    "bounded_c_c": "iid; loss bounded in [0, 1]",
    "stability_c_s": "iid; loss sub-Gaussian under the posterior for every dataset",
    "kl_based": "iid; loss sub-Gaussian under the sample law",
}


def _sub_gaussian(gamma, n: int, sigma, c_i, c_k, c_c=None, c_s=None) -> dict:
    """bounds_table's sub-Gaussian entries over columns of members, each a
    (values, constants_used) pair; bounded_c_c and stability_c_s only
    when their constants are given."""
    sigma_sq = _squares(sigma)
    entries = {
        "sub_gaussian_c_i": (2.0 * sigma_sq * gamma / ((1.0 + c_i) * n), "c_i={}, sigma={}", c_i,
                             sigma),
        "sub_gaussian_c_k": (2.0 * sigma_sq * gamma / ((1.0 + c_k) * n), "c_k={}, sigma={}", c_k,
                             sigma),
    }
    if c_c is not None:
        entries["bounded_c_c"] = (gamma / ((1.0 + c_c) * n), "c_c={}", c_c)
    if c_s is not None:
        entries["stability_c_s"] = (4.0 * sigma_sq * gamma / ((1.0 + c_s) * n), "c_s={}, tau={}",
                                    c_s, sigma)
    return {name: (values, _texts(template, *columns))
            for name, (values, template, *columns) in entries.items()}


def _texts(template: str, *columns: np.ndarray) -> list[str]:
    """template filled per member with its values of columns, .12g."""
    texts = ([format(value, ".12g") for value in column.tolist()] for column in columns)
    return [template.format(*member) for member in zip(*texts)]


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
    the exact value as a approaches one.  Parametric rows, written for
    IID sampling, appear with measured ratio constants on IID models only;
    kl_based is sqrt(2 sigma^2 d_fwd / n), d_fwd the expected forward
    divergence to the population Gibbs law.  The sub-Gaussian parameter
    sigma is (max - min) / 2 of the loss table; a constant loss
    short-circuits to exact zeros.  The rows are the pair's member of the _BoundTable of the
    evaluation that _evaluation shares with gen_characterizations, the
    table that the bounds-table subcommand reads of each stack.
    """
    for alpha in alphas:
        require_real("alpha", alpha, ">", 1, error=AlphaOutOfRange)
    return _bounds_rows(_evaluation(problem, gamma), tuple(alphas))


def _bounds_rows(posterior: GibbsPosterior, alphas: tuple[float, ...]) -> list[BoundRow]:
    """The rows of bounds_table for one evaluation, every order in alphas
    already checked to exceed one: its member of its sweep's table."""
    table = posterior._sweep.columns(_BoundTable, alphas)
    return [BoundRow(*row) for row in table.rows(posterior._index)]


class _BoundTable:
    """Every bounds_table row of each member of a sweep, as columns: per
    bound its name and side, and per member its value, regime and
    constants_used; the parametric bounds on IID stacks only.  rows
    raises, for its member alone, the failure a lone bounds_table raises:
    routes that disagree, or on IID models with a non-constant loss ratio
    constants that fail."""

    def __init__(self, sweep: _Sweep, alphas: tuple[float, ...]) -> None:
        gen = sweep.routes["direct"]
        gamma = sweep.gamma
        tv = sweep.total_variation
        renyi = sweep.renyi(alphas)
        columns = [("exact_gen", gen, "definition", "", "exact"),
                   ("tv_lower", tv * tv / gamma, "any data model", "", "lower")]
        columns += [(f"renyi_upper_alpha_{alpha:g}", sums / gamma, "any data model; order > 1",
                     f"alpha={alpha:.12g}", "upper") for alpha, sums in zip(alphas, renyi)]
        self.failures = dict(sweep.route_check[1])
        if sweep.stack.is_iid():
            columns += self._parametric(sweep, gamma)
        # a text shared by every member is kept once
        self.names, values, self.regimes, self.constants, self.sides = zip(*columns)
        self.values = [column if isinstance(column, list) else column.tolist() for column in values]

    def _parametric(self, sweep: _Sweep, gamma: np.ndarray) -> list[tuple]:
        """The sub-Gaussian columns of an IID stack, sigma = (max - min) / 2
        of each problem's loss; a constant loss reads exact zeros instead."""
        loss, per_problem, n = sweep.stack.loss, len(sweep.gammas), sweep.stack.n
        low, high = loss.min(axis=(-2, -1)).ravel(), loss.max(axis=(-2, -1)).ravel()
        sigma = ((high - low) / 2.0).repeat(per_problem)
        leaves = ((low < 0.0) | (high > 1.0)).repeat(per_problem).tolist()
        constant = (sigma == 0.0).nonzero()[0].tolist()
        ratios = _sweep_ratios(sweep)
        for k, error in RatioConstants.failures(*ratios.values()).items():
            if k not in constant:
                self.failures.setdefault(k, error)
        # a member with no valid constants raises, so its values go unread
        with np.errstate(all="ignore"):
            columns = _sub_gaussian(gamma, n, sigma, *list(ratios.values())[:4])
            kl = 2.0 * _squares(sigma) * sweep.references[0] / n
        with np.errstate(invalid="raise"):  # as math.sqrt refuses a negative
            columns["kl_based"] = (np.sqrt(kl), _texts("sigma={}", sigma))
        out = []
        for name, (values, constants) in columns.items():
            regimes = [REGIMES[name]] * gamma.size
            if name == "bounded_c_c":
                regimes = [regime + "; NOTE: loss leaves [0, 1], bound not applicable" if leave
                           else regime for regime, leave in zip(regimes, leaves)]
            values = values.tolist()
            for k in constant:
                values[k], regimes[k], constants[k] = 0.0, "constant loss", "sigma=0"
            out.append((name, values, regimes, constants, "upper"))
        return out

    def rows(self, k: int) -> list[tuple]:
        """Member k's (bound_name, value, feasible, regime, constants_used,
        side) rows, after raising its failure if it has one."""
        error = self.failures.get(k)
        if error is not None:
            raise error
        return [(name, values[k], True, _at(regime, k), _at(constants, k), side)
                for name, values, regime, constants, side
                in zip(self.names, self.values, self.regimes, self.constants, self.sides)]

    @cached_property
    def violations(self) -> list[list[tuple[str, str]]]:
        """_sandwich of every bound column."""
        return _sandwich(self.values[0], zip(self.names, self.values, self.regimes, self.sides))


def _at(text: str | list[str], k: int) -> str:
    """Member k's text of a column, or the text all members share."""
    return text if isinstance(text, str) else text[k]


def _sandwich(gen: list[float], columns) -> list[list[tuple[str, str]]]:
    """Per member, (bound_name, violation) for each (bound_name, values,
    regimes, side) column whose value lies on the wrong side of the
    member's exact value gen by more than SANDWICH_SLACK * max(1, |gen|):
    an upper side below it, a lower side above it.  A value of None (an
    infeasible bound) and a regime flagged not applicable are skipped."""
    names, values, regimes, sides = zip(*columns)
    exact = np.array(gen, dtype=np.float64)
    slack = SANDWICH_SLACK * np.maximum(1.0, np.abs(exact))
    checked = np.array(values, dtype=np.float64)  # None reads nan
    for row, regime in zip(checked, regimes):
        texts = [regime] * row.size if isinstance(regime, str) else regime
        if any(skip := ["not applicable" in text for text in texts]):
            row[skip] = np.nan
    upper, lower = (np.array([[s == side] for s in sides]) for side in ("upper", "lower"))
    wrong = upper & (checked < exact - slack) | lower & (checked > exact + slack)
    found = [[] for _ in gen]
    for k, b in zip(*(index.tolist() for index in wrong.T.nonzero())):
        name, verb = names[b], "fell below" if sides[b] == "upper" else "rose above"
        found[k].append((name, f"{name}={values[b][k]!r} {verb} the exact value {gen[k]!r}"))
    return found


def sandwich_violations(rows: list[BoundRow]) -> list[str]:
    """Compare every feasible bound row against the exact_gen row, as
    _sandwich compares a member of one: human-readable violations, none
    when the exact value sits inside every applicable bound up to a 1e-12
    absolute slack.  Rows flagged not applicable are skipped."""
    exact = [r for r in rows if r.side == "exact"]
    if len(exact) != 1:
        raise InvalidInput(f"expected exactly one exact row, got {len(exact)}")
    columns = ((r.bound_name, [r.value if r.feasible else None], r.regime, r.side) for r in rows)
    return [violation for _, violation in _sandwich([exact[0].value], columns)[0]]
