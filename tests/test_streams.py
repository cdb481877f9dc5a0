"""The table of random streams: every Philox key that a subcommand builds
is its seed and a stream of a samplers.STREAMS range named for the
subcommand, the ranges one subcommand reads are disjoint at the CLI's
caps, and no two draws of a subcommand share a key."""

import itertools
import json

import numpy as np
import pytest

from gibbslab.cli import DEFAULTS, RANGES, main
from gibbslab.samplers import STREAMS

# the STREAMS ranges that each subcommand reads, each with the RANGES key
# that caps how many of its streams a run takes (None: the range is read
# whole, or, for gaussian-mean, one stream per job)
READS = {
    "verify-identities": {"instances": "instances", "curves": "curve_instances",
                          "mixtures": "mixture_instances"},
    "bounds-table": {"instances": "instances"},
    "asymptotics": {"aic_pairs": None, "bayes": None},
    "gaussian-mean": {"gaussian_mean": None},
    "pac-bayes": {"pac_bayes": None},
    "sgld-demo": {"sgld": None},
    "counterexample": {},
}

# configs that run each subcommand in well under a second
SMALL = {
    "verify-identities": {"instances": 3, "gammas": [1.0], "curve_instances": 2,
                          "mixture_instances": 2},
    "bounds-table": {"instances": 3, "gammas": [1.0], "probe_gammas": [1.0]},
    "asymptotics": {"aic_pairs": 2, "bayes": {"trials": 1000}},
    "gaussian-mean": {"trials": 1000},
    "pac-bayes": {"trials": 1000},
    "sgld-demo": {"iterations": 2000},
    "counterexample": {},
}


def test_every_range_is_read_by_a_subcommand_and_fits_a_key_word():
    assert set(READS) == set(DEFAULTS)
    assert set(STREAMS) == set().union(*READS.values())
    assert all(0 <= r.start < r.stop <= 2**64 for r in STREAMS.values())


def test_a_capped_count_is_the_length_of_its_range():
    for reads in READS.values():
        for name, key in reads.items():
            if key is not None:
                assert RANGES[key][-2:] == ("<=", len(STREAMS[name])), key


@pytest.mark.parametrize("subcommand", sorted(READS))
def test_the_ranges_of_a_subcommand_are_disjoint_at_the_caps(subcommand):
    sized = [
        STREAMS[name] if key is None
        else range(STREAMS[name].start, STREAMS[name].start + RANGES[key][-1])
        for name, key in READS[subcommand].items()
    ]
    for a, b in itertools.combinations(sized, 2):
        assert a.stop <= b.start or b.stop <= a.start, (subcommand, a, b)


def run_keys(tmp_path, monkeypatch, subcommand, seed):
    """The Philox keys, as (seed, stream) pairs, that one run of the
    subcommand at its SMALL config and ``seed`` builds, in order."""
    keys = []
    philox = np.random.Philox

    class Recording(philox):
        def __init__(self, *args, **kwargs):
            key = kwargs.get("key")
            keys.append(None if key is None else tuple(int(word) for word in key))
            super().__init__(*args, **kwargs)

    config = tmp_path / f"{subcommand}-{seed}.json"
    config.write_text(json.dumps(SMALL[subcommand]), encoding="utf-8")
    out = str(tmp_path / f"{subcommand}-{seed}")
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "Philox", Recording)
        code = main([subcommand, "--config", str(config), "--out", out, "--seed", str(seed)])
    # a small run may fail a statistical check, but it must end with a manifest
    assert code in (0, 1)
    return keys


@pytest.mark.parametrize("subcommand", sorted(READS))
def test_every_key_of_a_run_is_its_seed_and_a_stream_of_its_ranges(tmp_path, monkeypatch,
                                                                    subcommand):
    seed = 11
    keys = run_keys(tmp_path, monkeypatch, subcommand, seed)
    ranges = [STREAMS[name] for name in READS[subcommand]]
    assert (keys != []) == (ranges != [])
    for key in keys:
        assert key is not None and key[0] == seed, key
        assert any(key[1] in r for r in ranges), key
    # sgld-demo reruns its one chain to check that it repeats itself
    assert len(set(keys)) == (1 if subcommand == "sgld-demo" else len(keys))


def test_gaussian_mean_runs_at_neighbouring_seeds_share_no_key(tmp_path, monkeypatch):
    first = run_keys(tmp_path, monkeypatch, "gaussian-mean", 7)
    second = run_keys(tmp_path, monkeypatch, "gaussian-mean", 8)
    assert len(first) == len(second) == len(DEFAULTS["gaussian-mean"]["configs"]) + 1
    assert set(first).isdisjoint(second)
