"""The A/B harness shared by the scripts in benchmarks/."""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks"))

import _common as bench  # noqa: E402
import bench_enumeration  # noqa: E402
import bench_layers  # noqa: E402
import bench_reach  # noqa: E402


def test_alternation_puts_the_base_first_in_even_pairs():
    calls = []

    def measure(side, src):
        calls.append((side, src))
        return len(calls)

    sides = bench.alternate(4, bench.srcs("base/src"), measure)
    base, here = ("before", "base/src"), ("after", bench.SRC)
    assert calls == [base, here, here, base, base, here, here, base]
    assert sides == {"before": [1, 4, 5, 8], "after": [2, 3, 6, 7]}
    assert bench.alternate(2, bench.srcs(None), measure) == {"after": [9, 10]}


def test_an_unfinished_side_is_not_measured_again():
    sides = bench.alternate(
        3, bench.srcs("base/src"), lambda side, src: None if side == "before" else 1.0
    )
    assert sides == {"after": [1.0, 1.0, 1.0], "before": [None]}


def test_summary_on_hand_made_numbers():
    after = [1.0, 2.0, 3.0, 4.0, 6.0]
    before = [2.0, 2.0, 5.0, 3.0, 8.0]  # pairs: won, tie, won, lost, won
    s = bench.summarize(after, before)
    assert s["after"]["median"] == 3.0
    assert s["before"] == {"median": 3.0, "quartiles": [2.0, 3.0, 6.5], "iqr": 4.5}
    assert s["speedup"] == 1.0
    assert s["pair_speedup"] == 1.33  # median of 2, 1, 5/3, 3/4 and 4/3
    assert (s["pairs_won"], s["pairs"]) == (3, 5)
    assert bench.summarize([2.0, 2.0], [2.0, 2.0])["pairs_won"] == 0
    assert bench.summarize([0.5]) == {"after": {"median": 0.5, "quartiles": None, "iqr": None}}


def test_a_sampled_call_restores_the_profiling_timer():
    handler = signal.getsignal(signal.SIGPROF)
    result, factor = bench.sampled(sum, range(10))
    assert result == 45 and factor > 0  # the probes at both ends at least
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is handler


def test_a_child_past_its_timeout_comes_back_unfinished(tmp_path):
    script = tmp_path / "sleeper.py"
    script.write_text("import time\ntime.sleep(30)\n")
    start = time.perf_counter()
    assert bench.run_child(str(script), bench.SRC, [], timeout=0.5) is None
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("digest_ok", [True, False])
def test_enumeration_exits_1_on_a_digest_mismatch(monkeypatch, capsys, digest_ok):
    (case,) = [c for c in bench_enumeration.CASES if c[4] == 168]
    if not digest_ok:
        case = (*case[:5], "0" * 64)
    monkeypatch.setattr(bench_enumeration, "CASES", [case])
    assert bench_enumeration.main(["--repeats", "1", "--json"]) == (0 if digest_ok else 1)
    assert '"triangle-2-3-7-mod-commutator-4"' in capsys.readouterr().out


def test_every_allowed_unreached_name_is_a_definition():
    assert set(bench_reach.UNREACHED_ALLOWED) <= set(bench_reach.definitions())


def test_the_reach_probe_follows_a_bundled_job():
    (kummer,) = [doc for doc in bench.traffic()["jobs"] if doc["name"] == "kummer"]
    start = time.perf_counter()
    doc = bench_reach.probe({"kummer": lambda: bench_reach.run_documents([kummer])})
    assert time.perf_counter() - start < 2
    for key in (
        "product_quotient.build_pi1",
        "presentation.tietze_simplify",
        "abelian.smith_diagonal",
    ):
        assert doc["reach"][key] == ["kummer"]
    assert not doc["reach"]["coset.CosetTable.trace"]


def test_the_traffic_is_the_frozen_groups():
    sizes = {name: len(docs) for name, docs in bench.traffic().items()}
    assert list(sizes) == list(bench_layers.REPORT_DIGESTS)
    assert list(sizes.values()) == [20, 20, 101, 101, 2, 2, 20, 1]


def test_every_layer_name_is_a_definition():
    names = {key for keys in bench_layers.LAYERS.values() for key in keys}
    assert names <= set(bench_reach.definitions())


@pytest.mark.parametrize("digest_ok", [True, False])
def test_layers_exit_1_on_a_digest_mismatch(monkeypatch, capsys, digest_ok):
    traffic = {"bundled:1": bench.traffic()["bundled:1"]}
    monkeypatch.setattr(bench, "traffic", lambda: traffic)
    monkeypatch.setattr(
        bench,
        "run_child",  # the child in this process, so that it sees the cut traffic
        lambda script, src, argv, timeout=None: {
            **bench_layers.child(argparse.Namespace(repeats=1)),
            "host_factor": 1.0,
        },
    )
    if not digest_ok:
        monkeypatch.setitem(bench_layers.REPORT_DIGESTS, "bundled:1", "0" * 64)
    start = time.perf_counter()
    assert bench_layers.main(["--runs", "1", "--repeats", "1"]) == (0 if digest_ok else 1)
    assert time.perf_counter() - start < 5
    out = capsys.readouterr().out
    assert ("FAILED digest" in out) != digest_ok


def test_layer_self_times_add_up_to_at_most_the_document_time():
    import prodquot.cli as cli

    parse_job = cli.parse_job
    # verify runs abelianized RS, which runs SNF: on this job, timed with
    # their callees' time the layers add up to more than the document's time
    (doc,) = [d for d in bench.traffic()["bundled:1"] if d["name"] == "s3-free-pair"]
    with bench_layers.Layers() as layers:
        seconds, split, _, _ = bench_layers.run_pass([doc], layers)
    assert cli.parse_job is parse_job  # the wrappers are gone
    assert all(s >= 0 for s in split.values())
    assert all(split[layer] > 0 for layer in ("verify", "abel_rs", "snf", "tietze"))
    assert sum(split.values()) <= seconds
