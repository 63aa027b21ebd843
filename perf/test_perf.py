"""Tests of the benchmark's own machinery on tiny inline configs.

Run from the repository root: ``PYTHONPATH=src python -m pytest perf -q``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

from repro.harness.microbench import MicrobenchConfig, run_flock, run_raw_reads
from repro.sim.core import Simulator

from perf import bench, diff
from perf.probe import (COUNTED, LAYER_METRICS, LAYERS, Probe, census_layers,
                        component_stats, digest, installed, layer_metrics)
from perf.workloads import WORKLOADS


def tiny_reads(profile=None):
    return run_raw_reads(44, n_clients=2, warmup_ns=5_000.0,
                         measure_ns=20_000.0, profile=profile)


def tiny_flock(profile=None):
    return run_flock(MicrobenchConfig(n_clients=2, threads_per_client=4,
                                      outstanding=2, warmup_ns=20_000.0,
                                      measure_ns=20_000.0), profile=profile)


@pytest.fixture(autouse=True)
def _no_repro_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            monkeypatch.delenv(key)


def _wrapped_functions():
    targets = [(Simulator, "run"), (Simulator, "run_profiled")]
    for module, cls_name, name, _key in COUNTED:
        targets.append((getattr(importlib.import_module(module), cls_name),
                        name))
    return {(cls, name): cls.__dict__[name] for cls, name in targets}


def test_digest_ignores_host_profile_and_event_count():
    result = tiny_reads()
    before = digest(result)
    result.host = {"wall_s": 123.0, "events": 1, "events_per_sec": 1.0}
    result.profile = {"host": {}}
    result.extras["events"] = 42
    assert digest(result) == before
    result.ops += 1
    assert digest(result) != before


def test_wrappers_keep_results_and_are_restored():
    originals = _wrapped_functions()
    plain = tiny_flock()
    probe = Probe(count_calls=True)
    with installed(probe):
        wrapped = tiny_flock()
    assert digest(wrapped) == digest(plain)
    assert wrapped.host["events"] == plain.host["events"]
    assert probe.first_run is not None and probe.loop_s > 0
    assert probe.calls["flock.rpcs"] > 0
    assert probe.calls["credits.consume"] > 0
    assert _wrapped_functions() == originals
    with pytest.raises(RuntimeError):
        with installed(Probe(count_calls=True)):
            assert Simulator.__dict__["run"] is not originals[(Simulator,
                                                                "run")]
            raise RuntimeError("boom")
    assert _wrapped_functions() == originals


def _record(digest_value="a", events=10):
    return {"digest": digest_value, "events": events, "wall_s": 1.0,
            "setup_s": 0.1, "peak_rss_mb": 50.0, "loop_s": 0.9,
            "mops": 1.0}


def test_wrong_reference_fails_every_run():
    records = [_record(), _record(), _record()]
    assert bench.summarize(records, "a")["fail_rate"] == 0
    wrong = bench.summarize(records, "b")
    assert wrong["fail_rate"] == 1 and wrong["failed"] == 3
    assert wrong["metrics"] == {}
    # Without a reference the runs must agree on digest and events.
    split = bench.summarize([_record(), _record(events=11), None], None)
    assert (split["failed"], split["attempted"]) == (2, 3)
    # A traced run whose digest differs fails too.
    traced = bench.summarize(records, "a", trace=True,
                             traced={"digest": "b"})
    assert (traced["failed"], traced["attempted"]) == (1, 4)


@pytest.mark.parametrize("runner", [tiny_reads, tiny_flock])
def test_layer_events_sum_to_events(runner):
    probe = Probe(count_calls=True)
    with installed(probe):
        result = runner(profile=True)
    layers = census_layers(result.profile)
    assert set(layers) == set(LAYERS)
    assert sum(l["events"] for l in layers.values()) == result.host["events"]
    traced = {"layers": layers, "per_event_ns": 10.0, "calls": probe.calls,
              "true_returns": probe.true_returns,
              "components": component_stats(probe.sim), "ops": result.ops,
              "commit_ratio": 1.0, "wall_s": 2.0}
    metrics = layer_metrics(traced, wall_s=1.0, loop_s=0.5)
    assert list(metrics) == [name for name, _u, _b in LAYER_METRICS]
    assert sum(metrics[l + ".host_pct"] for l in LAYERS) == \
        pytest.approx(100.0)
    assert metrics["trace_overhead"] == 2.0
    assert metrics["switch.traversals"] == metrics["switch.events"] == 0
    if runner is tiny_reads:
        assert metrics["flock.rpcs"] == metrics["credits.consume"] == 0
    else:
        assert metrics["flock.coalescing_degree"] >= 1.0
        assert metrics["credits.consume_ok_ratio"] == 1.0


def test_stray_bench_scale_leaves_digest_unchanged():
    stray = dict(os.environ, REPRO_BENCH_SCALE="0.1")
    env, dropped = bench.child_env(stray, trace=False)
    assert dropped == ["REPRO_BENCH_SCALE"]
    assert not [k for k in env if k.startswith("REPRO_")]
    traced_env, _ = bench.child_env(stray, trace=True)
    assert [k for k in traced_env if k.startswith("REPRO_")] == \
        ["REPRO_PROFILE"]
    code = ("from perf.probe import digest; "
            "from perf.test_perf import tiny_reads; "
            "print(digest(tiny_reads()))")

    def child_digest(child_environ):
        out = subprocess.run([sys.executable, "-c", code], cwd=bench.ROOT,
                             env=child_environ, stdout=subprocess.PIPE,
                             text=True, timeout=120, check=True)
        return out.stdout.split()[-1]

    expected = digest(tiny_reads())
    assert child_digest(env) == expected
    leaked = dict(env, REPRO_BENCH_SCALE="0.1")
    assert child_digest(leaked) != expected


def test_diff_verdicts():
    assert diff.verdict([1.0, 1.0, 1.0], [1.05, 1.05, 1.05], 0.1) == \
        "within bound"
    assert diff.verdict([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], 0.1) == \
        "regressed"
    assert diff.verdict([1.0, 1.5, 2.0], [1.2, 1.2, 1.2], 0.1) == \
        "unresolved"
    assert diff.verdict([2.0, 3.0, 4.0], [1.0, 1.1, 1.2], 0.1) == \
        "within bound"


def test_benchmark_json_matches_the_package():
    with open(bench.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["perf"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == \
        [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["bound"]) for m in spec["end_to_end"]] \
        == list(bench.E2E)
    assert all(m["better"] == "lower" for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(LAYER_METRICS)
