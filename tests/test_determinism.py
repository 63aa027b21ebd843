"""Determinism guard: same config + seed => byte-identical results.

The DES must be reproducible for the bench store to be meaningful: a
regression gate over committed numbers only works when re-running a
benchmark at the same seed yields the same numbers.  These tests run
each benchmark family twice and require the serialized result rows to
be byte-identical — not approximately equal.
"""

import json

from repro.harness import (
    MicrobenchConfig,
    TxnBenchConfig,
    run_erpc,
    run_flock,
    run_flocktx,
    run_raw_reads,
)
from repro.harness.scorecards import scorecard_fig2a

SMALL = MicrobenchConfig(n_clients=3, threads_per_client=4, outstanding=2,
                         warmup_ns=150_000, measure_ns=150_000)


def serialized(result):
    """Canonical byte representation of everything a RunResult reports."""
    return json.dumps({"row": result.row(), "latency": result.latency,
                       "extras": {k: v for k, v in result.extras.items()}},
                      sort_keys=True)


def test_flock_rows_byte_identical():
    a, b = run_flock(SMALL), run_flock(SMALL)
    assert serialized(a) == serialized(b)


def test_erpc_rows_byte_identical():
    a, b = run_erpc(SMALL), run_erpc(SMALL)
    assert serialized(a) == serialized(b)


def test_raw_reads_rows_byte_identical():
    a = run_raw_reads(24, n_clients=3)
    b = run_raw_reads(24, n_clients=3)
    assert serialized(a) == serialized(b)


def test_flocktx_rows_byte_identical():
    cfg = TxnBenchConfig(n_clients=2, threads_per_client=2,
                         coroutines_per_thread=3,
                         subscribers_per_server=600,
                         warmup_ns=200_000, measure_ns=200_000)
    a, b = run_flocktx(cfg), run_flocktx(cfg)
    assert serialized(a) == serialized(b)


def test_audit_does_not_perturb_results():
    """Auditing is observation only: an audited run must produce the
    same numbers as an unaudited one."""
    plain = run_flock(SMALL)
    audited = run_flock(SMALL, audit=True)
    assert serialized(plain) == serialized(audited)


def test_seed_actually_matters():
    """Guard against accidentally ignoring the seed (which would make
    the byte-identical assertions above vacuous)."""
    from dataclasses import replace

    a = run_flock(SMALL)
    b = run_flock(replace(SMALL, seed=SMALL.seed + 1))
    assert serialized(a) != serialized(b)


def test_scorecards_byte_identical_across_runs(tmp_path):
    """The full artifact chain is deterministic: run -> scorecard ->
    JSON file, twice, compared byte for byte."""
    def build(directory):
        results = {q: run_raw_reads(q, n_clients=3) for q in (12, 24)}
        sc = scorecard_fig2a(results)
        sc.meta["bench_scale"] = 1.0
        return sc.write(str(directory))

    p1 = build(tmp_path / "a")
    p2 = build(tmp_path / "b")
    assert open(p1, "rb").read() == open(p2, "rb").read()
