"""gibbslab benchmark: one workload per invocation, every metric by name.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload cli-exact --seed 20260814 --seconds 30 --trace 0

Workloads (see bench/README.md for why each was chosen):

* ``cli-exact``: ``verify-identities``, ``bounds-table`` and ``counterexample``
  through ``gibbslab.cli.main`` at their documented defaults;
* ``lib-wide``: ``gen_characterizations``, ``bounds_table`` and
  ``sandwich_violations`` on four fixed-size problems at four gammas;
* ``cli-monte-carlo``: ``gaussian-mean`` (2e4 trials), ``pac-bayes``,
  ``asymptotics`` and ``sgld-demo`` through ``gibbslab.cli.main``.

At the default seed every pass runs the documented configs unchanged; any
other seed ``s`` gives pass ``k`` the input seed ``1000 * s + k % 3``, and
every run covers all three inputs.  ``attempted`` and ``failed`` count the
checks and calls of the first pass on each input, so they depend on the
seed alone; later passes repeat an input for timing.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics ``wall_rel`` (the sum over units, a unit being one CLI
call or one ``lib-wide`` problem, of the median over passes of the unit's
seconds over the seconds of a reference kernel timed just before and
after it), ``setup_s`` (median
seconds for ``import gibbslab.cli`` in a fresh interpreter) and
``peak_rss_mb`` (peak resident memory of the workload process).  With
``--trace 1`` it holds the per-layer metrics of a traced pass next to
untraced ones.  The benchmark runs the workload in a fresh
child process, one caller in a closed loop, with BLAS pinned to one
thread and ``GIBBS_ISKL_THREADS`` unset; it writes a results file with the
environment under ``.bench_out/``.  It exits 2 without a result when the
checkout has no ``src/gibbslab``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import CLI_CALLS, DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SUBCOMMANDS = [sub for calls in CLI_CALLS.values() for sub, _ in calls]
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = (
    "import os, sys, time\n"
    "start = time.perf_counter()\n"
    "import gibbslab.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(os.path.dirname(os.path.abspath(gibbslab.cli.__file__)), elapsed)\n"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for name in THREAD_VARS:
        env[name] = "1"
    env.pop("GIBBS_ISKL_THREADS", None)
    return env


def measure_setup(env: dict[str, str]) -> list[float]:
    """Seconds for ``import gibbslab.cli`` in fresh interpreters; the first
    import, which may compile bytecode, is discarded."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        location, seconds = proc.stdout.split()
        if location != os.path.join(SRC, "gibbslab"):
            raise RuntimeError(f"gibbslab imported from {location}, not from {SRC}")
        samples.append(float(seconds))
    return samples[1:]


def run_worker(args, env: dict[str, str], out: str, result_path: str) -> dict:
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", out,
        "--result", result_path,
    ]
    subprocess.run(command, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def git_revision() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def outputs_changed(workload: str, passes: list[dict]) -> tuple[int, int]:
    """(artifacts whose sha256 differs from the digests recorded at the seed
    commit for the same pass seed, artifacts compared); passes whose seed
    has no record are not compared."""
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        recorded_all = json.load(handle).get(workload, {})
    changed = compared = 0
    for seed in sorted({p["seed"] for p in passes}):
        recorded = recorded_all.get(str(seed))
        if recorded is None:
            continue
        digests = next(p["digests"] for p in passes if p["seed"] == seed)
        names = set(recorded) | set(digests)
        changed += sum(recorded.get(n) != digests.get(n) for n in names)
        compared += len(names)
    return changed, compared


def finished(passes: list[dict], unit: str | None = None) -> list[int]:
    """Indices of the passes in which the pass, or one unit, ran to the end;
    every index when none did.  An aborted unit did less work."""
    done = [
        i for i, p in enumerate(passes) if (unit not in p["aborted"] if unit else not p["aborted"])
    ]
    return done or list(range(len(passes)))


def call_seconds(passes: list[dict], call: str) -> float:
    """Median untraced seconds of one subcommand; 0 where it is not called."""
    values = [passes[i]["call_seconds"][call] for i in finished(passes, call)
              if call in passes[i]["call_seconds"]]
    return statistics.median(values) if values else 0.0


def wall_rel(passes: list[dict]) -> float:
    """Sum over units of the median, over the passes in which the unit ran
    to the end, of its seconds over the reference kernel's around it."""
    return sum(
        statistics.median(passes[i]["rel"][unit] for i in finished(passes, unit))
        for unit in passes[0]["rel"]
    )


def layer_metrics(result: dict, wall_s: float, changed: int, compared: int) -> dict[str, tuple]:
    """Per-layer metrics: untraced call times, manifest checks, the traced
    pass's layers, and the benchmark's own counters."""
    metrics = {
        f"cli.{sub}.wall_s": (call_seconds(result["passes"], sub), "s") for sub in SUBCOMMANDS
    }
    metrics["cli.checks_attempted"] = (len(result["checks"]), "count")
    metrics["cli.checks_failed"] = (sum(not passed for _, _, passed in result["checks"]), "count")
    traced = result["traced"]
    metrics.update((name, tuple(pair)) for name, pair in traced["layers"].items())
    metrics["bench.outputs_changed"] = (changed, "count")
    metrics["bench.outputs_compared"] = (compared, "count")
    metrics["bench.failed_share"] = (result["failed"] / result["attempted"], "share")
    metrics["bench.passes"] = (len(result["passes"]), "count")
    metrics["bench.wall_s"] = (wall_s, "s")
    samples = [s for boundary in result["calibration_seconds"] for s in boundary]
    metrics["bench.calibration_s"] = (statistics.median(samples), "s")
    metrics["bench.trace_overhead_share"] = ((traced["seconds"] - wall_s) / wall_s, "share")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="gibbslab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gibbslab", "__init__.py")):
        print(f"no gibbslab sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    env = child_env()
    out = os.path.join(OUT, f"{args.workload}-{args.seed}")
    os.makedirs(out, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup = [] if args.trace else measure_setup(env)
    result = run_worker(args, env, out, os.path.join(out, "worker.json"))

    passes = result["passes"]
    wall_s = statistics.median(passes[i]["seconds"] for i in finished(passes))
    changed, compared = outputs_changed(args.workload, result["passes"])
    if args.trace:
        metrics = layer_metrics(result, wall_s, changed, compared)
    else:
        metrics = {
            "wall_rel": (wall_rel(passes), "ratio"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        }

    environment = {
        **result["versions"],
        "nproc": os.cpu_count(),
        "thread_env": {name: env.get(name) for name in THREAD_VARS + ("GIBBS_ISKL_THREADS",)},
        "git_revision": git_revision(),
        "platform": sys.platform,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "config": result["config"],
        "wall_s": wall_s,
        "passes": result["passes"],
        "setup_seconds": setup,
        "calibration_seconds": result["calibration_seconds"],
        "checks": result["checks"],
        "failures": result["failures"],
        "errors": result["errors"],
        "outputs_changed": changed,
        "outputs_compared": compared,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "finished_unix": time.time(),
    }
    with open(os.path.join(OUT, f"results-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for error in result["errors"]:
        print(f"INCORRECT {error}")
    print(f"{args.workload} seed {args.seed}: {len(result['passes'])} passes, "
          f"{result['failed']}/{result['attempted']} checks and calls failed")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
