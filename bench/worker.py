"""One benchmark workload, run in its own process by ``bench/run.py``.

Usage::

    python3 bench/worker.py --workload cli-exact --seed 20260814 \
        --seconds 20 --trace 0 --out .bench_out/cli-exact-20260814 --result r.json

The worker imports gibbslab from ``src/`` of the checkout it sits in and
drives it as one caller in a closed loop: each call starts when the
previous one returns.  It repeats whole passes of the workload for about
``--seconds`` (at least one pass per input), then writes one JSON
result: per-pass and per-unit seconds, the reference kernel's seconds
at every unit boundary, checks attempted and failed on each input, the
sha256 of every artifact, the benchmark's own verification errors and the
peak resident memory.  A unit is one CLI call, or one problem on
``lib-wide``.  With ``--trace 1`` it then installs the tracer and
runs one more pass, whose per-layer numbers and artifacts are added.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# the CLI's documented seed; at this seed every pass runs the documented
# configs unchanged (sgld-demo keeps its own documented seed, 20)
DEFAULT_SEED = 20260814
GAMMAS = (0.1, 1.0, 10.0, 100.0)

# subcommand and config overrides, in call order; {} runs the documented defaults
CLI_CALLS = {
    "cli-exact": (
        ("verify-identities", {}),
        ("bounds-table", {}),
        ("counterexample", {}),
    ),
    "cli-monte-carlo": (
        # 2e4 instead of the documented 1e5 trials: one 1e5 pass takes about 32 s
        ("gaussian-mean", {"trials": 20_000}),
        ("pac-bayes", {}),
        ("asymptotics", {}),
        ("sgld-demo", {}),
    ),
}

# tiny configs of every subcommand: one untimed round of them warms up lazy
# imports and first calls before the timed passes
WARMUP = {
    "verify-identities": {"instances": 4, "max_n": 2, "curve_instances": 2, "mixture_instances": 2},
    "bounds-table": {"instances": 4, "max_n": 2},
    "counterexample": {},
    "gaussian-mean": {"trials": 1000},
    "pac-bayes": {"trials": 1000},
    "asymptotics": {"aic_pairs": 3, "bayes": {"n": 100, "trials": 1000, "tolerance": 0.1}},
    "sgld-demo": {"iterations": 2000},
}

# four problems of fixed size, alternating IID (1.05M supersample states)
# and joint (16,384 datasets) data models
LIB_WIDE = {
    "problems": 4,
    "symbols": 4,
    "hypotheses": 5,
    "iid_n": 4,
    "joint_n": 7,
    "gammas": list(GAMMAS),
}

WORKLOADS = ("cli-exact", "lib-wide", "cli-monte-carlo")

# distinct inputs per run at a non-default seed; every run covers all of them
INPUTS_PER_RUN = 3

# the paper's reference values for the two-sample construction (tolerance 1e-3)
COUNTEREXAMPLE_REFERENCE = {
    "0.0001": {"mutual_single": 0.0943, "lautum_single": 0.3257,
               "iskl_single": 0.4200, "iskl_pair": 0.7329, "sum_exceeds_pair": "true"},
    "0.01": {"iskl_single": 0.1255, "iskl_pair": 0.2741, "sum_exceeds_pair": "false"},
}

# artifacts print 12 significant digits
PRINT_REL = 1e-11


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _artifact_digests(out: str, prefix: str) -> dict[str, str]:
    """sha256 of every CSV and JSON artifact except the manifest, whose
    duration and sweep-runtime detail hold measured seconds."""
    return {
        f"{prefix}/{name}": _sha256(os.path.join(out, name))
        for name in sorted(os.listdir(out))
        if name.endswith((".csv", ".json")) and name != "manifest.json"
    }


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


# ------------------------------------------------------------ verification
# Each verifier re-checks a written artifact independently of the program's
# own checks and returns a list of errors; any error makes the run incorrect.


def _agree(values: list[float], rel: float, floor: float) -> bool:
    scale = max(abs(v) for v in values)
    gap = max(values) - min(values)
    return gap <= max(rel * scale, floor) + PRINT_REL * scale


def verify_identities(out: str) -> list[str]:
    errors = []
    routes = ("direct", "via_iskl", "via_skl_div", "via_cmi", "via_replace_one")
    for row in _read_csv(os.path.join(out, "identities.csv")):
        values = [_num(row[k]) for k in routes]
        present = [v for v in values if v is not None]
        where = f"identities.csv instance {row['instance']} gamma {row['gamma']}"
        if not all(math.isfinite(v) for v in present):
            errors.append(f"{where}: non-finite value")
        elif not _agree(present, 1e-9, 1e-12):
            errors.append(f"{where}: routes disagree {present}")
        if (row["data_kind"] == "iid") != (len(present) == 5):
            errors.append(f"{where}: {len(present)} routes on a {row['data_kind']} problem")
    return errors


def verify_bounds(out: str) -> list[str]:
    errors = []
    groups: dict[tuple[str, str], list[dict[str, str]]] = {}
    for row in _read_csv(os.path.join(out, "bounds.csv")):
        groups.setdefault((row["instance"], row["gamma"]), []).append(row)
    for (instance, gamma), rows in groups.items():
        exact = [r for r in rows if r["side"] == "exact"]
        if len(exact) != 1:
            errors.append(f"bounds.csv instance {instance} gamma {gamma}: no exact row")
            continue
        gen = float(exact[0]["value"])
        for row in rows:
            value = _num(row["value"])
            if row["feasible"] != "true" or value is None or "not applicable" in row["regime"]:
                continue
            slack = 1e-12 * max(1.0, abs(gen)) + PRINT_REL * max(abs(gen), abs(value))
            if (row["side"] == "upper" and value < gen - slack) or (
                row["side"] == "lower" and value > gen + slack
            ):
                errors.append(
                    f"bounds.csv instance {instance} gamma {gamma}: "
                    f"{row['bound_name']}={value!r} on the wrong side of {gen!r}"
                )
    return errors


def verify_counterexample(out: str) -> list[str]:
    errors = []
    rows = {f"{float(r['epsilon']):g}": r for r in _read_csv(os.path.join(out, "counterexample.csv"))}
    for epsilon, reference in COUNTEREXAMPLE_REFERENCE.items():
        row = rows.get(epsilon)
        if row is None:
            errors.append(f"counterexample.csv: no row at epsilon {epsilon}")
            continue
        for key, expected in reference.items():
            got = row[key]
            ok = got == expected if isinstance(expected, str) else abs(float(got) - expected) <= 1e-3
            if not ok:
                errors.append(f"counterexample.csv epsilon {epsilon}: {key}={got}, expected {expected}")
    return errors


def verify_gaussian_mc(out: str) -> list[str]:
    errors = []
    for row in _read_csv(os.path.join(out, "gaussian_mc.csv")):
        closed, estimate, se, z = (float(row[k]) for k in ("closed_gen", "estimate", "std_error", "z_score"))
        if not (se > 0.0 and all(math.isfinite(v) for v in (closed, estimate, se, z))):
            errors.append(f"gaussian_mc.csv config {row['config']}: non-finite or zero SE")
        elif abs(z - (estimate - closed) / se) > 1e-9 * max(1.0, abs(z)):
            errors.append(f"gaussian_mc.csv config {row['config']}: z-score inconsistent")
    return errors


def verify_pac_bayes(out: str) -> list[str]:
    with open(os.path.join(out, "pac_bayes.json"), encoding="utf-8") as handle:
        report = json.load(handle)
    bad = [d for d, c in report["coverage"].items() if not 0.0 <= c <= 1.0]
    return [f"pac_bayes.json: coverage outside [0, 1] at delta {d}" for d in bad]


VERIFIERS = {
    "verify-identities": verify_identities,
    "bounds-table": verify_bounds,
    "counterexample": verify_counterexample,
    "gaussian-mean": verify_gaussian_mc,
    "pac-bayes": verify_pac_bayes,
}


# ------------------------------------------------------------------ passes


def pass_seed(seed: int, index: int) -> int:
    """Input seed of pass ``index``: the default seed repeats the documented
    runs; any other seed cycles through ``INPUTS_PER_RUN`` inputs of its
    own, so that one input on which a call aborts early cannot set a run's
    median, while the checks attempted and failed stay a function of the
    seed alone."""
    return seed if seed == DEFAULT_SEED else 1000 * seed + index % INPUTS_PER_RUN


class Pass:
    """Outcome of one pass over a workload's calls."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.seconds = 0.0
        self.call_seconds: dict[str, float] = {}
        self.rel: dict[str, float] = {}  # unit seconds over the reference kernel's around it
        self.aborted: list[str] = []  # units that stopped before finishing their work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks: list[tuple[str, str, bool]] = []
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def cli_pass(workload: str, seed: int, out_root: str, tracer=None, reference=None) -> Pass:
    """Run each subcommand through ``gibbslab.cli.main`` and check it."""
    import gibbslab.cli

    result = Pass(seed)
    for sub, overrides in CLI_CALLS[workload]:
        out = _fresh_dir(os.path.join(out_root, sub))
        argv = [sub, "--out", out]
        if seed != DEFAULT_SEED:
            argv += ["--seed", str(seed)]
        if overrides:
            argv += ["--config", os.path.join(out_root, f"{sub}.config.json")]
        captured = io.StringIO()
        span = tracer.span(f"cli.{sub}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = gibbslab.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed call, not a crashed benchmark
            code = "traceback"
            captured.write(traceback.format_exc())
        result.call_seconds[sub] = time.perf_counter() - start
        if reference is not None:
            result.rel[sub] = reference.ratio(result.call_seconds[sub])
        result.attempted += 1
        if code != 0:
            tail = captured.getvalue().strip().splitlines()[-1:] or [""]
            result.fail(f"{sub}: exit {code}: {tail[0][:300]}")
        if code not in (0, 1):  # 1 is a failed check after all the work was done
            result.aborted.append(sub)
        manifest_path = os.path.join(out, "manifest.json")
        if os.path.exists(manifest_path):
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
            for check in manifest["checks"]:
                result.attempted += 1
                result.checks.append((sub, check["name"], bool(check["passed"])))
                if not check["passed"]:
                    result.fail(f"{sub}: check {check['name']} failed: {check['detail'][:300]}")
            verifier = VERIFIERS.get(sub)
            if verifier is not None:
                result.errors.extend(f"{sub}: {e}" for e in verifier(out))
        result.digests.update(_artifact_digests(out, sub))
    result.seconds = sum(result.call_seconds.values())
    return result


def _positive_weights(rng, size: int):
    raw = rng.random(size) + 0.05
    return raw / raw.sum()


def lib_problems(gibbslab, seed: int) -> list:
    """The lib-wide problems: sizes fixed, values drawn from the seed."""
    problems = []
    nz, nw = LIB_WIDE["symbols"], LIB_WIDE["hypotheses"]
    for k in range(LIB_WIDE["problems"]):
        rng = gibbslab.instance_rng(seed, k)
        iid = k % 2 == 0
        n = LIB_WIDE["iid_n"] if iid else LIB_WIDE["joint_n"]
        loss = rng.random((nw, nz))
        prior = gibbslab.ProbVec(_positive_weights(rng, nw))
        if iid:
            model = gibbslab.IIDData(gibbslab.ProbVec(_positive_weights(rng, nz)))
        else:
            model = gibbslab.JointData(_positive_weights(rng, nz**n))
        problems.append(
            gibbslab.LearningProblem(
                sample_alphabet=tuple(range(nz)),
                hypothesis_set=tuple(range(nw)),
                loss=loss,
                prior=prior,
                data_model=model,
                n=n,
            )
        )
    return problems


def _verify_lib(index: int, gamma: float, problem, report, rows) -> list[str]:
    where = f"problem {index} gamma {gamma}"
    errors = []
    values = list(report.values().values())
    if not all(math.isfinite(v) for v in values) or not _agree(values, 1e-9, 1e-12):
        errors.append(f"{where}: routes disagree {values}")
    if (report.via_cmi is not None) != problem.is_iid():
        errors.append(f"{where}: supersample route presence does not match the data model")
    exact = [r.value for r in rows if r.side == "exact"]
    if len(exact) != 1 or abs(exact[0] - report.direct) > 1e-12 * max(1.0, abs(report.direct)):
        errors.append(f"{where}: bounds_table exact row {exact} differs from {report.direct!r}")
    return errors


def lib_pass(seed: int, out_root: str, tracer=None, reference=None) -> Pass:
    """gen_characterizations, bounds_table and sandwich_violations per
    (problem, gamma), with the library invariants checked afterwards; each
    problem is one timed unit."""
    import gibbslab

    result = Pass(seed)
    records = []
    evaluated = []
    span = tracer.span("lib.pass") if tracer else contextlib.nullcontext()
    with span:
        start = time.perf_counter()
        problems = lib_problems(gibbslab, seed)
        build_seconds = time.perf_counter() - start
        for index, problem in enumerate(problems):
            unit = f"problem-{index}"
            start = time.perf_counter()
            for gamma in LIB_WIDE["gammas"]:
                record = {"problem": index, "gamma": gamma}
                records.append(record)
                result.attempted += 1
                try:
                    report = gibbslab.gen_characterizations(problem, gamma)
                except gibbslab.GibbsLabError as exc:
                    result.fail(f"problem {index} gamma {gamma}: {type(exc).__name__}: {exc}")
                    result.aborted.append(unit)
                    continue
                record["routes"] = report.values()
                result.attempted += 2
                try:
                    rows = gibbslab.bounds_table(problem, gamma)
                except gibbslab.GibbsLabError as exc:
                    result.fail(f"problem {index} gamma {gamma}: {type(exc).__name__}: {exc}")
                    result.aborted.append(unit)
                    continue
                violations = gibbslab.sandwich_violations(rows)
                if violations:
                    result.fail(f"problem {index} gamma {gamma}: {violations[:2]}")
                record["rows"] = [
                    [r.bound_name, r.value, r.feasible, r.regime, r.constants_used, r.side]
                    for r in rows
                ]
                record["violations"] = violations
                evaluated.append((index, gamma, problem, report, rows))
            result.call_seconds[unit] = time.perf_counter() - start
            if reference is not None:
                result.rel[unit] = reference.ratio(result.call_seconds[unit])
    result.seconds = build_seconds + sum(result.call_seconds.values())
    for item in evaluated:
        result.errors.extend(_verify_lib(*item))
    out = _fresh_dir(os.path.join(out_root, "lib-wide"))
    with open(os.path.join(out, "results.json"), "w", encoding="utf-8") as handle:
        json.dump(records, handle, sort_keys=True, indent=1)
    result.digests.update(_artifact_digests(out, "lib-wide"))
    return result


def calibrate(repeats: int = 3) -> list[float]:
    """Seconds for a fixed reference kernel that does not touch gibbslab:
    small-array and Philox work like the per-call overhead of the exact
    and Monte Carlo layers, then large-array work like lib-wide.  The
    machine is shared and its speed drifts by tens of percent within
    seconds to minutes; this kernel, timed between units, measures that
    drift."""
    import numpy as np

    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for i in range(2500):
            rng = np.random.Generator(np.random.Philox(key=np.array([1, i], dtype=np.uint64)))
            rows = rng.random((4, 5))
            float(np.log(rows / rows.sum(axis=1, keepdims=True)).max())
        values = np.linspace(0.1, 1.0, 1 << 18)  # 2 MB: below every workload's own peak
        for _ in range(24):
            float(np.log(values).sum())
        samples.append(time.perf_counter() - start)
    return samples


class Reference:
    """The reference kernel timed at every unit boundary of a run."""

    def __init__(self) -> None:
        self.boundaries = [calibrate()]

    def ratio(self, seconds: float) -> float:
        """A unit's seconds over the median kernel seconds at the boundary
        just before it and the one just after it, which this times."""
        self.boundaries.append(calibrate())
        return seconds / statistics.median(self.boundaries[-2] + self.boundaries[-1])


def warm_up(workload: str, out_root: str) -> None:
    """One untimed, uncounted round of the workload's calls at a tiny size."""
    import gibbslab
    import gibbslab.cli

    out = _fresh_dir(os.path.join(out_root, "warm-up"))
    if workload == "lib-wide":
        for k in range(2):
            problem = gibbslab.random_problem(gibbslab.instance_rng(0, k), max_n=2, iid=k == 0)
            gibbslab.gen_characterizations(problem, 1.0)
            gibbslab.sandwich_violations(gibbslab.bounds_table(problem, 1.0))
        return
    for sub, _ in CLI_CALLS[workload]:
        config = os.path.join(out, f"{sub}.config.json")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump(WARMUP[sub], handle)
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                gibbslab.cli.main([sub, "--out", os.path.join(out, sub), "--config", config])
        except (SystemExit, Exception):  # the timed passes count failures
            pass


def run_pass(workload: str, seed: int, out_root: str, tracer=None, reference=None) -> Pass:
    if workload == "lib-wide":
        return lib_pass(seed, out_root, tracer, reference)
    return cli_pass(workload, seed, out_root, tracer, reference)


# -------------------------------------------------------------------- main


def effective_config(workload: str) -> dict:
    if workload == "lib-wide":
        return dict(LIB_WIDE)
    import gibbslab.cli

    return {sub: {**gibbslab.cli.DEFAULTS[sub], **overrides} for sub, overrides in CLI_CALLS[workload]}


def _pass_summary(p: Pass) -> dict:
    return {
        "seed": p.seed,
        "seconds": p.seconds,
        "call_seconds": p.call_seconds,
        "rel": p.rel,
        "aborted": p.aborted,
        "digests": p.digests,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import gibbslab
    import numpy
    import scipy

    location = os.path.dirname(os.path.abspath(gibbslab.__file__))
    if location != os.path.join(SRC, "gibbslab"):
        print(f"gibbslab imported from {location}, not from {SRC}", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    for sub, overrides in CLI_CALLS.get(args.workload, ()):
        if overrides:
            with open(os.path.join(args.out, f"{sub}.config.json"), "w", encoding="utf-8") as handle:
                json.dump(overrides, handle)

    # run every input once, then start another pass while it would end, on
    # the last pass's pace, less than half a pass after the budget
    inputs = {pass_seed(args.seed, k) for k in range(INPUTS_PER_RUN)}
    warm_up(args.workload, args.out)
    passes = []
    reference = Reference()
    started = time.perf_counter()
    while len(passes) < len(inputs) or (
        time.perf_counter() - started + passes[-1].seconds / 2 < args.seconds
    ):
        seed = pass_seed(args.seed, len(passes))
        passes.append(run_pass(args.workload, seed, args.out, reference=reference))
    first = passes[0]
    errors = [e for p in passes for e in p.errors]
    # the first pass on each input counts its checks and calls; a later pass
    # on that input repeats them for timing and must write the same bytes
    counted: dict[int, Pass] = {}
    for p in passes:
        if counted.setdefault(p.seed, p).digests != p.digests:
            errors.append(f"artifacts differ between passes with seed {p.seed}")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": [_pass_summary(p) for p in passes],
        "calibration_seconds": reference.boundaries,
        "attempted": sum(p.attempted for p in counted.values()),
        "failed": sum(p.failed for p in counted.values()),
        "failures": [f"seed {p.seed}: {f}" for p in counted.values() for f in p.failures][:20],
        "checks": first.checks,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "gibbslab": gibbslab.__version__,
        },
        "config": effective_config(args.workload),
    }

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(args.workload, first.seed, args.out, tracer)
        finally:
            tracer.uninstall()
        errors.extend(traced.errors)
        if traced.digests != first.digests:
            errors.append("artifacts of the traced pass differ from the untraced passes")
        result["traced"] = {**_pass_summary(traced), "layers": tracer.layer_metrics()}
        with open(os.path.join(args.out, "spans.tsv"), "w", encoding="utf-8") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\n")
            handle.writelines(f"{n}\t{s}\t{e}\t{p}\n" for n, s, e, p in tracer.spans)

    result["errors"] = errors[:50]
    result["correct"] = not errors
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
