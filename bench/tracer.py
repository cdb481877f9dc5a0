"""Outside-in tracing of gibbslab's layers.

The tracer never edits the program.  It rebinds every reference that a
``gibbslab.*`` namespace holds to a traced public function (``cli`` and
``bounds`` import names directly, so patching only the defining module
would miss their calls), and restores each reference on ``uninstall``.
Every traced call becomes a span ``(name, start_ns, end_ns, parent)``;
a span's self time is its duration minus the time its child spans cover.

Besides spans it keeps counts computed from call arguments at the same
boundaries: enumerated datasets and supersample states, Monte Carlo
trials, Langevin iterations, bytes written, validated ProbVec/JointTable
constructions and Philox generator builds.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
import weakref
from collections import Counter

import numpy as np
import scipy.special

# layer -> public functions timed as spans
SPANNED = {
    "problems": ("instance_sweep", "random_problem"),
    "gibbs": (
        "gibbs_posterior",
        "gen_characterizations",
        "supersample_conditional_info",
        "replace_one_divergences",
        "info_divergence_compare",
        "joint_distribution",
        "population_gibbs",
        "empirical_risk_curve",
        "concavity_probe",
    ),
    "probability": ("info_triple", "renyi_divergence", "total_variation", "kl_divergence"),
    "bounds": (
        "bounds_table",
        "ratio_constants",
        "renyi_upper_bound",
        "tv_lower_bound",
        "kl_based_bound",
        "bound_suite",
        "sandwich_violations",
    ),
    "gaussian": ("mc_mean_gen", "pac_bayes_coverage", "mean_closed_forms", "ismi_bound"),
    "asymptotics": ("bayes_location_regime_gen", "single_well_gen", "mle_asymptotic_gen"),
    "samplers": ("sgld_run",),
    "serialize": ("write_csv", "write_json"),
}

def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _gibbslab_namespaces():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "gibbslab" or name.startswith("gibbslab."))
    ]


class Tracer:
    """Span recorder for one traced run; install, run, uninstall, read."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[int] = []  # indices of open spans, innermost last
        self._covered: list[int] = []  # child time covered, per open span
        self._patches: list[tuple[object, str, object]] = []
        self._pairs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------- spans

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append((name, 0, 0, self._open[-1] if self._open else -1))
        self._open.append(index)
        self._covered.append(0)
        return index

    def _exit(self, index: int, start: int, end: int) -> None:
        self._open.pop()
        covered = self._covered.pop()
        name, _, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)
        self.calls[name] += 1
        self.self_ns[name] += (end - start) - covered
        if self._covered:
            self._covered[-1] += end - start

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call it makes."""
        index = self._enter(name)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(index, start, time.perf_counter_ns())

    def wrap(self, name: str, fn, after=None):
        """fn timed as span ``name``; ``after(args, kwargs, result)`` counts."""

        def traced(*args, **kwargs):
            index = self._enter(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index, start, time.perf_counter_ns())
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # ----------------------------------------------------------- install

    def _rebind(self, original, replacement) -> None:
        for module in _gibbslab_namespaces():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def _set(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import gibbslab
        import gibbslab.cli  # noqa: F401  (every namespace that holds references)

        hooks = {
            "gibbs.gibbs_posterior": self._on_posterior,
            "gibbs.supersample_conditional_info": self._on_supersample,
            "gaussian.mc_mean_gen": self._on_trials("gaussian.mc_trials", 1),
            "gaussian.pac_bayes_coverage": self._on_trials("gaussian.mc_trials", 2),
            "asymptotics.bayes_location_regime_gen": self._on_trials(
                "asymptotics.mc_trials", 1
            ),
            "samplers.sgld_run": self._on_sgld,
            "serialize.write_csv": self._on_write,
            "serialize.write_json": self._on_write,
        }
        for layer, names in SPANNED.items():
            module = sys.modules.get(f"gibbslab.{layer}")
            for fn_name in names:
                original = getattr(module, fn_name, None)
                if original is None:
                    continue
                name = f"{layer}.{fn_name}"
                self._rebind(original, self.wrap(name, original, hooks.get(name)))
        self._rebind(scipy.special.logsumexp, self.wrap("ext.logsumexp", scipy.special.logsumexp))

        for cls in (gibbslab.ProbVec, gibbslab.JointTable):
            self._set(cls, "__init__", self._counting(cls.__init__))

        counts = self.counts

        class CountingPhilox(np.random.Philox):
            def __init__(self, *args, **kwargs):
                counts["ext.philox_builds"] += 1
                super().__init__(*args, **kwargs)

        self._set(np.random, "Philox", CountingPhilox)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- counts

    def _counting(self, init):
        counts = self.counts

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            counts["probability.validated_constructions"] += 1
            init(obj, *args, **kwargs)

        return counted

    def _on_posterior(self, args, kwargs, result) -> None:
        problem = _arg(args, kwargs, 0, "problem")
        gamma = float(_arg(args, kwargs, 1, "gamma"))
        self.counts["gibbs.posterior_builds"] += 1
        self.counts["gibbs.datasets_enumerated"] += problem.dataset_count
        gammas = self._pairs.get(problem)
        if gammas is None:
            gammas = self._pairs[problem] = set()
            self.counts["gibbs.problems"] += 1
            self.counts["gibbs.iid_problems"] += int(problem.is_iid())
        if gamma not in gammas:
            gammas.add(gamma)
            self.counts["gibbs.distinct_pairs"] += 1

    def _on_supersample(self, args, kwargs, result) -> None:
        problem = _arg(args, kwargs, 0, "problem")
        nz, n = problem.num_samples_symbols, problem.n
        self.counts["gibbs.supersample_states"] += nz ** (2 * n) * 2**n

    def _on_trials(self, key: str, position: int):
        def after(args, kwargs, result) -> None:
            self.counts[key] += int(_arg(args, kwargs, position, "trials"))

        return after

    def _on_sgld(self, args, kwargs, result) -> None:
        self.counts["samplers.sgld_iterations"] += _arg(args, kwargs, 2, "config").iterations

    def _on_write(self, args, kwargs, result) -> None:
        self.counts["serialize.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    # ------------------------------------------------------------- report

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """name -> (value, unit): calls and self seconds of every traced
        function, the counts, and the ratios built from them (0 when the
        base is 0)."""
        out: dict[str, tuple[float, str]] = {}
        names = [f"{layer}.{fn}" for layer, fns in SPANNED.items() for fn in fns]
        for name in names + ["ext.logsumexp"]:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_ns[name] / 1e9, "s")
        counts = self.counts
        for name in (
            "gibbs.datasets_enumerated",
            "gibbs.supersample_states",
            "gaussian.mc_trials",
            "samplers.sgld_iterations",
            "probability.validated_constructions",
            "ext.philox_builds",
        ):
            out[name] = (counts[name], "count")
        out["serialize.bytes_written"] = (counts["serialize.bytes_written"], "B")

        def ratio(num: str, den: float) -> float:
            return counts[num] / den if den else 0.0

        out["problems.iid_share"] = (ratio("gibbs.iid_problems", counts["gibbs.problems"]), "share")
        out["gibbs.posterior_builds_per_pair"] = (
            ratio("gibbs.posterior_builds", counts["gibbs.distinct_pairs"]),
            "ratio",
        )
        trials = counts["gaussian.mc_trials"] + counts["asymptotics.mc_trials"]
        out["ext.philox_builds_per_trial"] = (ratio("ext.philox_builds", trials), "ratio")
        return out
