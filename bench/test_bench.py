"""Tests of the benchmark itself, at a tiny size.

Run from the root of a checkout with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gibbslab  # noqa: E402
import gibbslab.cli  # noqa: E402
import scipy.special  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = worker.WARMUP


def tiny_pass(root: str, tracer: Tracer | None = None) -> dict[str, str]:
    """Every subcommand at a tiny config plus one lib-wide style call;
    returns the sha256 of every artifact."""
    digests = {}
    for sub, overrides in TINY.items():
        out = os.path.join(root, sub)
        os.makedirs(out, exist_ok=True)
        config = os.path.join(root, f"{sub}.json")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump(overrides, handle)
        if tracer is None:
            gibbslab.cli.main([sub, "--out", out, "--config", config])
        else:
            with tracer.span(f"cli.{sub}"):
                gibbslab.cli.main([sub, "--out", out, "--config", config])
        digests.update(worker._artifact_digests(out, sub))
    problem = gibbslab.random_problem(gibbslab.instance_rng(7, 0), max_n=2)
    rows = gibbslab.bounds_table(problem, 1.0)
    digests["lib"] = repr([gibbslab.gen_characterizations(problem, 1.0), rows])
    return digests


def traced_pass(root: str) -> tuple[Tracer, dict[str, str]]:
    tracer = Tracer()
    tracer.install()
    try:
        digests = tiny_pass(root, tracer)
    finally:
        tracer.uninstall()
    return tracer, digests


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    untraced = tiny_pass(str(tmp_path_factory.mktemp("untraced")))
    first = traced_pass(str(tmp_path_factory.mktemp("traced1")))
    second = traced_pass(str(tmp_path_factory.mktemp("traced2")))
    return untraced, first, second


def test_counts_repeat_exactly(runs):
    _, (first, _), (second, _) = runs
    assert first.calls == second.calls
    assert first.counts == second.counts
    assert first.calls["gibbs.gibbs_posterior"] > 0
    assert first.calls["ext.logsumexp"] > 0
    for name in (
        "gibbs.datasets_enumerated",
        "gibbs.supersample_states",
        "ext.philox_builds",
        "probability.validated_constructions",
        "serialize.bytes_written",
    ):
        assert first.counts[name] > 0, name


def test_wrappers_leave_results_unchanged(runs):
    untraced, (_, first), (_, second) = runs
    assert first == untraced
    assert second == untraced


def test_uninstall_restores_every_reference():
    originals = {
        "cli": gibbslab.cli.gen_characterizations,
        "bounds": gibbslab.bounds.gibbs_posterior,
        "logsumexp": gibbslab.gibbs.logsumexp,
        "philox": np.random.Philox,
        "init": gibbslab.ProbVec.__init__,
    }
    tracer = Tracer()
    tracer.install()
    assert gibbslab.cli.gen_characterizations is not originals["cli"]
    assert gibbslab.bounds.gibbs_posterior is not originals["bounds"]
    tracer.uninstall()
    assert gibbslab.cli.gen_characterizations is originals["cli"]
    assert gibbslab.bounds.gibbs_posterior is originals["bounds"]
    assert gibbslab.gibbs.logsumexp is scipy.special.logsumexp is originals["logsumexp"]
    assert np.random.Philox is originals["philox"]
    assert gibbslab.ProbVec.__init__ is originals["init"]


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10_000))
    (_, o_start, o_end, o_parent), (_, i_start, i_end, i_parent) = tracer.spans
    assert (o_parent, i_parent) == (-1, 0)
    assert tracer.self_ns["outer"] == (o_end - o_start) - (i_end - i_start)
    assert tracer.self_ns["inner"] == i_end - i_start


def test_every_emitted_metric_is_declared(runs):
    _, (tracer, _), _ = runs
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    passes = [{"seed": 1, "seconds": 1.0, "call_seconds": {"verify-identities": 1.0},
               "rel": {"verify-identities": 10.0}, "aborted": [], "digests": {}}]
    result = {
        "passes": passes,
        "checks": [["verify-identities", "four_way_identities", True]],
        "failed": 0,
        "attempted": 2,
        "calibration_seconds": [[0.1], [0.1]],
        "traced": {"seconds": 1.1, "layers": tracer.layer_metrics()},
    }
    emitted = set(run.layer_metrics(result, 1.0, 0, 0))
    assert emitted == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_rel", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
