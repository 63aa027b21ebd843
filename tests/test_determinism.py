"""Determinism guard: same config + seed => byte-identical results.

The DES must be reproducible for the bench store to be meaningful: a
regression gate over committed numbers only works when re-running a
benchmark at the same seed yields the same numbers.  These tests run
each benchmark family twice and require the serialized result rows to
be byte-identical — not approximately equal.
"""

import hashlib
import json
import pickle
from dataclasses import replace

import pytest

from repro.harness import (
    IndexBenchConfig,
    MicrobenchConfig,
    TxnBenchConfig,
    run_erpc,
    run_erpc_index,
    run_fasst_txn,
    run_flock,
    run_flock_index,
    run_flocktx,
    run_multitenancy,
    run_raw_reads,
    run_rc,
    run_thread_sched,
    run_ud_rpc,
)
from repro.harness.incastbench import (
    IncastConfig,
    run_incast_flock,
    run_incast_ud,
)
from repro.harness.scorecards import scorecard_fig2a
from repro.obs.telemetry import Telemetry
from repro.obs.audit import AUDIT_ENV
from repro.search.runner import ScenarioConfig, run_scenario_leg
from repro.sim import Simulator

pytestmark = pytest.mark.usefixtures("half_windows")

SMALL = MicrobenchConfig(n_clients=3, threads_per_client=4, outstanding=2,
                         warmup_ns=150_000, measure_ns=150_000)


def serialized(result):
    """Canonical byte representation of everything a RunResult reports."""
    row = {"mops": round(result.mops, 3),
           "median_us": round(result.median_us, 2),
           "p99_us": round(result.p99_us, 2),
           "p999_us": round(result.p999_us, 2),
           "ops": result.ops}
    return json.dumps({"row": row, "latency": result.latency,
                       "extras": {k: v for k, v in result.extras.items()}},
                      sort_keys=True)


SMALL_TXN = TxnBenchConfig(n_clients=2, threads_per_client=2,
                           coroutines_per_thread=3,
                           subscribers_per_server=600,
                           warmup_ns=200_000, measure_ns=200_000)


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
    a, b = run_flocktx(SMALL_TXN), run_flocktx(SMALL_TXN)
    assert serialized(a) == serialized(b)


def test_audit_does_not_perturb_results(monkeypatch):
    """Auditing is observation only: an audited run must produce the
    same numbers as an unaudited one."""
    plain = run_flock(SMALL)
    monkeypatch.setenv(AUDIT_ENV, "1")
    audited = run_flock(SMALL)
    assert audited.audit_report is not None
    assert serialized(plain) == serialized(audited)


def test_traced_result_pickles():
    """A result is plain data: a traced run's result round-trips through
    pickle, the way the parallel executor ships it home."""
    result = run_flock(SMALL, telemetry=Telemetry())
    thawed = pickle.loads(pickle.dumps(result))
    assert serialized(thawed) == serialized(result)
    assert (thawed.slo, thawed.anomalies, thawed.host) == \
        (result.slo, result.anomalies, result.host)


def test_seed_actually_matters():
    """Guard against accidentally ignoring the seed (which would make
    the byte-identical assertions above vacuous)."""
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


#: The incast shape every pinned incast leg runs.
SMALL_INCAST = IncastConfig(n_senders=4, threads_per_client=3,
                            warmup_ns=100_000.0, measure_ns=150_000.0)

#: A small Fig. 11 point: one large-size thread per five.
SMALL_SCHED = MicrobenchConfig(
    n_clients=2, threads_per_client=10, outstanding=2,
    warmup_ns=150_000.0, measure_ns=150_000.0)

#: A small congested search candidate with a size mix and tenant skew.
SMALL_SCENARIO = ScenarioConfig(n_senders=3, threads_per_client=3,
                                large_fraction=0.34, zipf_theta=0.5,
                                warmup_ns=100_000.0, measure_ns=150_000.0)


#: A small HydraList index point: 90 % get / 10 % scan over 2,000 keys.
SMALL_INDEX = IndexBenchConfig(n_clients=3, threads_per_client=3,
                               n_keys=2_000, warmup_ns=100_000.0,
                               measure_ns=150_000.0)


def witness(result):
    """``serialized(result)`` without ``extras["events"]``; a dict of
    named results and plain values (the per-class returns of
    ``run_thread_sched`` and the index runners) is serialized key by
    key, without a top-level ``"events"``."""
    if isinstance(result, dict):
        return json.dumps({k: witness(v) if hasattr(v, "extras") else v
                           for k, v in result.items() if k != "events"},
                          sort_keys=True)
    result.extras.pop("events", None)
    return serialized(result)


def dispatched(result):
    """The events the run dispatched.  Of a dict of named results, only
    the one :meth:`Run.finish` stamped carries the count."""
    if isinstance(result, dict):
        (events,) = [v.host["events"] for v in result.values()
                     if getattr(v, "host", None)]
        return events
    return result.host["events"]


#: For small runs of every runner whose workers run
#: :func:`repro.harness.metrics.closed_loop` or draw think-time jitter,
#: and of the transaction and index runners: the SHA-256 of
#: ``witness(result)`` and the events the run dispatched.
#:
#: A change to a hash means a result changed, usually because two
#: same-instant events swapped order or a worker drew different jitter.
#: Update the hashes only with an intended model change.
#:
#: The event count is host bookkeeping.  A cut that drops dispatches
#: which model nothing (an event that wakes no one, a wake-up or a
#: trigger that would be the loop's next dispatch, an ACK nobody waits
#: on) lowers it and moves no hash.  Update the counts on purpose, with
#: such a cut, and list old and new in CHANGES.md.
ORDER_WITNESS = {
    "flock": (
        "43cca68f0fde702d0d68fe1c08fe35209cb0db1b0fe267d92bd4e4d0b4b141ad",
        31_848, lambda: run_flock(SMALL)),
    "raw_reads": (
        "833bf636818184572edcf23d0d1e475c330030e111b64cfc47c613daeb5baa37",
        126_136, lambda: run_raw_reads(24, n_clients=3)),
    "flocktx": (
        "6b85f84f826513551789bd580ba62f41f51d3a84585d01431d77e647176ef69b",
        21_106, lambda: run_flocktx(SMALL_TXN)),
    "fasst_txn": (
        "fd20fcea0e5c02b8a4405e1bfaf01c0001e108198c824ad396066736198b67cf",
        17_430, lambda: run_fasst_txn(SMALL_TXN)),
    # SmallBank's hot 4 % of accounts drives the store's lock and
    # overwrite paths hardest.
    "flocktx_smallbank": (
        "cec9c0443dc0e16208d59c94a9cf96c41ebd1e0afffc15f68ec8cd542d48b188",
        19_994, lambda: run_flocktx(replace(SMALL_TXN, workload="smallbank"))),
    "fasst_txn_smallbank": (
        "e0b827d1213743a9afd30ce89a2c45d0de6ff4f943d4fad7c2af208a75bcbd0f",
        17_568,
        lambda: run_fasst_txn(replace(SMALL_TXN, workload="smallbank"))),
    "flock_index": (
        "2b8b90e185319ab5990aa345648f8ca4a25e2a7ad225e56695e3fcd19977b61d",
        9_510, lambda: run_flock_index(SMALL_INDEX)),
    "erpc_index": (
        "bcdee4232539c4f64832de0e3781a6b74e131c0b7d28079eb7bbd1b5d1178871",
        8_790, lambda: run_erpc_index(SMALL_INDEX)),
    "incast_congested": (
        "f3e67b145cf6a9772c30a2965ac376c5b13f317e487a262e84b462f095f7bba9",
        22_800, lambda: run_incast_flock(SMALL_INCAST, congested=True)),
    "erpc": (
        "0711a0d36c9fcb1da101895a29017d9e2c3012db39286b110af81f470f67e773",
        34_314, lambda: run_erpc(SMALL)),
    "rc_shared": (
        "1332853f4807c219cf2a0372a3642338981943db0f9ad0ecb34938bf792f63fa",
        25_952, lambda: run_rc(SMALL, threads_per_qp=2)),
    "thread_sched": (
        "9384e82cfbba275018c73826850598081fad1c74dd9ffc2f8a5633bd02838269",
        29_068, lambda: run_thread_sched(SMALL_SCHED, 512, scheduling=True)),
    "incast_ud_congested": (
        "29055b69b1e514c17eea3a26849128d514e3c6230ef8b8aa4cd66c95a4be063d",
        31_243, lambda: run_incast_ud(SMALL_INCAST, congested=True)),
    "scenario_leg_congested": (
        "eafd20de148296bec4b2364c2d49db033675a16316d0e0d5e07e6f38f8391b02",
        19_280, lambda: run_scenario_leg(SMALL_SCENARIO, congested=True)),
    "ud_rpc": (
        "810987a4415e291fc4ff6374cadd524b8cc7dc8ed97dfe83dcd40fe084718810",
        29_625, lambda: run_ud_rpc(12, n_clients=3, warmup_ns=100_000.0,
                                   measure_ns=150_000.0)),
    # 48 QPs of demand against MAX_AQP=32, split 3:1.
    "multitenancy": (
        "459975f03fa9c3b59988beba48238bd14f5e7413be9fe735c431dfc497606f49",
        83_846, lambda: run_multitenancy({"gold": 3.0, "bronze": 1.0},
                                         clients_per_tenant=1, threads=24,
                                         duration_ns=450_000.0)),
}


@pytest.mark.parametrize("name", sorted(ORDER_WITNESS))
def test_results_match_pinned_hash(name, monkeypatch):
    # The hashes and counts are for full-length windows.
    monkeypatch.setenv("REPRO_BENCH_SCALE", "1")
    expected, events, run = ORDER_WITNESS[name]
    result = run()
    n = dispatched(result)
    digest = hashlib.sha256(witness(result).encode()).hexdigest()
    assert digest == expected
    assert n == events


def _stepped_run(sim, until=None):
    """``Simulator.run`` as a loop over :meth:`Simulator.step`: the same
    order, but no in-place path and no horizon (so no ACK is left
    unwaited), hence a dispatch for every wake-up."""
    while sim._ready or sim._heap:
        if not sim._ready and until is not None and sim._heap[0][0] > until:
            break
        sim.step()
    if until is not None:
        sim.now = until


@pytest.mark.parametrize("name", ["flock", "raw_reads", "flocktx",
                                  "incast_congested", "erpc", "ud_rpc"])
def test_stepping_matches_pinned_hash(name, monkeypatch):
    """The in-place wake-ups, the hand-offs and the unwaited ACKs are
    exact: a run that takes none of them gives the pinned results with
    more dispatches.  ``erpc`` and ``ud_rpc`` hand off the ``succeed``
    of their own response paths."""
    monkeypatch.setenv("REPRO_BENCH_SCALE", "1")
    monkeypatch.setattr(Simulator, "run", _stepped_run)
    expected, events, run = ORDER_WITNESS[name]
    result = run()
    assert hashlib.sha256(witness(result).encode()).hexdigest() == expected
    assert dispatched(result) > events
