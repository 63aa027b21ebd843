"""The figure registry: one :class:`FigureSpec` per reproduced figure.

A spec is the one definition of a figure's experiment.  The CLI builds a
subcommand from each spec (its options are the spec's ``defaults``) and
``benchmarks/test_paper_figures.py`` runs every spec at those defaults,
so both run the same sweep, print the same tables and check the same
scorecards.

* ``points(**opts)`` maps each result key — the shape the scorecard
  builder consumes, e.g. ``("flock", outstanding, threads)`` — to the
  :class:`SweepPoint` that computes it.  :meth:`FigureSpec.run` evaluates
  them through :func:`repro.harness.parallel.run_sweep`, so ``--jobs N``
  results are byte-identical to a serial run.
* ``tables(results, **opts)`` returns ``(title, columns, rows)`` triples.
* ``scorecards(results, **opts)`` returns the figure's scorecards; every
  claim threshold lives in those builders
  (:mod:`repro.harness.scorecards`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..config import FlockConfig
from ..obs.scorecard import Scorecard
from .incastbench import IncastConfig, run_incast_flock, run_incast_ud
from .indexbench import IndexBenchConfig, run_erpc_index, run_flock_index
from .microbench import (
    MicrobenchConfig,
    bench_flock_config,
    run_erpc,
    run_flock,
    run_multitenancy,
    run_raw_reads,
    run_rc,
    run_thread_sched,
    run_ud_rpc,
)
from .parallel import SweepPoint, run_sweep
from .scorecards import (
    retention,
    scorecard_ablations,
    scorecard_fig2a,
    scorecard_fig2b,
    scorecard_fig9,
    scorecard_fig10,
    scorecard_fig11,
    scorecard_fig12,
    scorecard_fig14,
    scorecard_fig15,
    scorecard_fig16,
    scorecard_incast,
    scorecard_multitenancy,
    scorecards_fig6_7_8,
)
from .txnbench import TxnBenchConfig, run_fasst_txn, run_flocktx

__all__ = ["FIGURES", "FigureSpec"]

#: ``(title, columns, rows)`` of one paper-style table.
Table = Tuple[str, List[str], List[list]]


@dataclass(frozen=True)
class FigureSpec:
    """One figure: its sweep, its tables and its scorecards."""

    name: str
    help: str
    #: Option name -> default; the defaults are the figure's full sweep.
    defaults: Dict[str, object]
    points: Callable[..., Dict[object, SweepPoint]]
    tables: Callable[..., List[Table]]
    scorecards: Callable[..., List[Scorecard]]

    def run(self, jobs: Optional[int] = None, **opts) -> dict:
        """Evaluate ``points(**opts)``; results keyed like the points."""
        points = self.points(**opts)
        merged = run_sweep(list(points.values()), jobs)
        return {key: result for key, (_label, result) in zip(points, merged)}


# -- Fig. 2: the motivation experiments --------------------------------------

def _fig2a_points(qps, clients):
    # 2 outstanding reads per QP: few QPs cannot saturate the RNIC, so
    # the curve rises, peaks and collapses as in the paper.
    return {q: SweepPoint("fig2a/qps=%d" % q, run_raw_reads, (q,),
                          {"n_clients": clients, "outstanding_per_qp": 2})
            for q in qps}


def _fig2a_tables(results, qps, **_):
    return [("Fig 2(a): RDMA read (RC) throughput vs #QPs",
             ["#QPs", "Mops", "QP cache miss ratio"],
             [[q, round(results[q].mops, 2),
               results[q].extras["qp_cache_miss"]] for q in qps])]


def _fig2b_points(senders, clients):
    points = {n: SweepPoint("fig2b/senders=%d" % n, run_ud_rpc, (n,),
                            {"n_clients": clients})
              for n in senders}
    # The RC read peak that the UD ceiling is compared against.
    points["rc_read"] = SweepPoint("fig2b/rc-read", run_raw_reads, (176,),
                                   {"n_clients": clients})
    return points


def _fig2b_tables(results, senders, **_):
    return [("Fig 2(b): UD RPC throughput vs #senders",
             ["#senders", "Mops", "server CPU", "net-stack frac"],
             [[n, round(results[n].mops, 2), results[n].extras["server_cpu"],
               results[n].extras["server_net_frac"]] for n in senders])]


# -- Figs. 6-8: FLock vs eRPC ------------------------------------------------

def _fig6_points(threads, outstanding, clients):
    points = {}
    for o in outstanding:
        for t in threads:
            cfg = MicrobenchConfig(n_clients=clients, threads_per_client=t,
                                   outstanding=o)
            points[("flock", o, t)] = SweepPoint(
                "fig6/flock/o=%d/t=%d" % (o, t), run_flock, (cfg,))
            points[("erpc", o, t)] = SweepPoint(
                "fig6/erpc/o=%d/t=%d" % (o, t), run_erpc, (cfg,))
    return points


def _fig6_tables(results, threads, outstanding, clients):
    tables = []
    for o in outstanding:
        rows = []
        for t in threads:
            flock, erpc = results[("flock", o, t)], results[("erpc", o, t)]
            rows.append([t, round(flock.mops, 2), round(erpc.mops, 2),
                         round(flock.median_us, 1), round(erpc.median_us, 1),
                         round(flock.p99_us, 1), round(erpc.p99_us, 1),
                         flock.extras["mean_coalescing_degree"]])
        tables.append((
            "Figs 6/7/8: FLock vs eRPC, outstanding=%d (64B RPCs, %d clients)"
            % (o, clients),
            ["thr/client", "FLock Mops", "eRPC Mops", "FLock med us",
             "eRPC med us", "FLock p99 us", "eRPC p99 us", "coalesce deg"],
            rows))
    return tables


# -- Fig. 9: QP sharing approaches -------------------------------------------

def _fig9_points(threads, clients):
    points = {}
    for t in threads:
        cfg = MicrobenchConfig(n_clients=clients, threads_per_client=t,
                               outstanding=8)
        points[("flock", t)] = SweepPoint("fig9/flock/t=%d" % t, run_flock,
                                          (cfg,))
        for system, tpq in (("nosharing", 1), ("farm2", 2), ("farm4", 4)):
            points[(system, t)] = SweepPoint(
                "fig9/%s/t=%d" % (system, t), run_rc, (cfg,),
                {"threads_per_qp": tpq})
    return points


def _fig9_tables(results, threads, clients):
    rows = [[t] + [round(results[(s, t)].mops, 2)
                   for s in ("flock", "nosharing", "farm2", "farm4")]
            + [round(results[(s, t)].p99_us, 1) for s in ("flock", "nosharing")]
            for t in threads]
    return [("Fig 9: QP sharing approaches (64B RPC, 8 outstanding, "
             "%d clients)" % clients,
             ["thr/client", "FLock Mops", "no-share Mops", "FaRM-2 Mops",
              "FaRM-4 Mops", "FLock p99 us", "no-share p99 us"], rows)]


# -- Fig. 10: coalescing -----------------------------------------------------

def _fig10_points(outstanding, clients):
    points = {}
    for o in outstanding:
        cfg = MicrobenchConfig(n_clients=clients, threads_per_client=32,
                               outstanding=o)
        points[(True, o)] = SweepPoint("fig10/on/o=%d" % o, run_flock, (cfg,))
        points[(False, o)] = SweepPoint("fig10/off/o=%d" % o, run_flock,
                                        (cfg,), {"coalescing": False})
    return points


def _fig10_tables(results, outstanding, clients):
    rows = []
    for o in outstanding:
        on, off = results[(True, o)], results[(False, o)]
        rows.append([o, round(off.mops, 2), round(on.mops, 2),
                     round(on.mops / max(off.mops, 1e-9), 2),
                     on.extras["mean_coalescing_degree"]])
    return [("Fig 10: coalescing impact (32 thr/client, %d clients)" % clients,
             ["outstanding", "no-coalesce Mops", "coalesce Mops", "speedup",
              "reqs/message"], rows)]


# -- Fig. 11: thread scheduling ----------------------------------------------

def _fig11_points(sizes, clients):
    points = {}
    for s in sizes:
        cfg = MicrobenchConfig(n_clients=clients, threads_per_client=32,
                               outstanding=8)
        for sched in (False, True):
            points[(s, sched)] = SweepPoint(
                "fig11/%s/s=%d" % ("on" if sched else "off", s),
                run_thread_sched, (cfg, s), {"scheduling": sched})
    return points


def _fig11_tables(results, sizes, **_):
    rows = []
    for s in sizes:
        off, on = results[(s, False)], results[(s, True)]
        rows.append([s, round(off["mops"], 1), round(on["mops"], 1),
                     round(off["large"].median_us, 1),
                     round(on["large"].median_us, 1),
                     round(off["small"].median_us, 1),
                     round(on["small"].median_us, 1),
                     off["mixed_qps"], on["mixed_qps"]])
    return [("Fig 11: thread scheduling (90% 64B + 10% large, per-class)",
             ["large B", "off Mops", "on Mops", "large med off us",
              "large med on us", "small med off us", "small med on us",
              "mixed QPs off", "mixed QPs on"], rows)]


# -- Fig. 12: node scalability -----------------------------------------------

def _fig12_points(clients, nodes):
    points = {}
    for total in clients:
        procs = max(1, total // nodes)
        for threads in (1, 2):
            cfg = MicrobenchConfig(n_clients=nodes, processes_per_client=procs,
                                   threads_per_client=threads, outstanding=8)
            points[("%dt1q" % threads, total)] = SweepPoint(
                "fig12/%dt1q/c=%d" % (threads, total), run_flock, (cfg,),
                {"qps_per_process": 1})
        # Native RC: one dedicated QP per thread across all processes.
        cfg = MicrobenchConfig(n_clients=nodes, threads_per_client=2 * procs,
                               outstanding=8)
        points[("2t2q", total)] = SweepPoint(
            "fig12/2t2q/c=%d" % total, run_rc, (cfg,), {"threads_per_qp": 1})
    return points


def _fig12_tables(results, clients, **_):
    rows = []
    for total in clients:
        one, shared, dedicated = (results[(config, total)]
                                  for config in ("1t1q", "2t1q", "2t2q"))
        rows.append([total, round(one.mops, 2), round(shared.mops, 2),
                     round(dedicated.mops, 2), round(shared.median_us, 1),
                     round(dedicated.median_us, 1), round(shared.p99_us, 1),
                     round(dedicated.p99_us, 1)])
    return [("Fig 12: node scalability (64B RPC, 8 outstanding)",
             ["#clients", "1t/1QP Mops", "2t/1QP Mops", "2t/2QP Mops",
              "2t/1QP med us", "2t/2QP med us", "2t/1QP p99 us",
              "2t/2QP p99 us"], rows)]


# -- Figs. 14-15: transactions -----------------------------------------------

def _txn_points(workload, threads):
    points = {}
    for t in threads:
        cfg = TxnBenchConfig(workload=workload, threads_per_client=t)
        points[("flocktx", t)] = SweepPoint(
            "%s/flocktx/t=%d" % (workload, t), run_flocktx, (cfg,))
        points[("fasst", t)] = SweepPoint(
            "%s/fasst/t=%d" % (workload, t), run_fasst_txn, (cfg,))
    return points


def _txn_table(title, last_column, last_cell, results, threads):
    rows = []
    for t in threads:
        flock, fasst = results[("flocktx", t)], results[("fasst", t)]
        rows.append([t, round(flock.mops, 3), round(fasst.mops, 3),
                     round(flock.median_us, 1), round(fasst.median_us, 1),
                     round(flock.p99_us, 1), round(fasst.p99_us, 1),
                     last_cell(flock, fasst)])
    return [(title, ["thr/client", "FLockTX Mtxn/s", "FaSST Mtxn/s",
                     "FLockTX med us", "FaSST med us", "FLockTX p99 us",
                     "FaSST p99 us", last_column], rows)]


# -- Figs. 16-18: HydraList --------------------------------------------------

def _fig16_points(threads, outstanding, clients):
    points = {}
    for o in outstanding:
        for t in threads:
            cfg = IndexBenchConfig(n_clients=clients, threads_per_client=t,
                                   outstanding=o)
            points[("flock", o, t)] = SweepPoint(
                "fig16/flock/o=%d/t=%d" % (o, t), run_flock_index, (cfg,))
            points[("erpc", o, t)] = SweepPoint(
                "fig16/erpc/o=%d/t=%d" % (o, t), run_erpc_index, (cfg,))
    return points


def _fig16_tables(results, threads, outstanding, **_):
    tables = []
    for o in outstanding:
        rows = []
        for t in threads:
            flock, erpc = results[("flock", o, t)], results[("erpc", o, t)]
            rows.append([t, round(flock["total_mops"], 2),
                         round(erpc["total_mops"], 2),
                         round(flock["get"].median_us, 1),
                         round(erpc["get"].median_us, 1),
                         round(flock["scan"].p99_us, 1),
                         round(erpc["scan"].p99_us, 1)])
        tables.append((
            "Figs 16/17/18: HydraList 90%% get / 10%% scan, outstanding=%d"
            % o,
            ["thr/client", "FLock Mops", "eRPC Mops", "FLock get med us",
             "eRPC get med us", "FLock scan p99 us", "eRPC scan p99 us"],
            rows))
    return tables


# -- Extension: N->1 incast --------------------------------------------------

def _incast_points(senders, threads, outstanding):
    cfg = IncastConfig(n_senders=senders, threads_per_client=threads,
                       outstanding=outstanding)
    return {"%s_%s" % (system, leg): SweepPoint(
                "incast/%s_%s" % (system, leg), fn, (cfg,),
                {"congested": leg == "cong"})
            for system, fn in (("flock", run_incast_flock),
                               ("ud", run_incast_ud))
            for leg in ("base", "cong")}


def _incast_tables(results, senders, **_):
    rows = []
    for system in ("flock", "ud"):
        base, cong = results[system + "_base"], results[system + "_cong"]
        rows.append([system, round(base.mops, 2), round(cong.mops, 2),
                     round(retention(results, system), 3),
                     cong.extras["switch_drops"], cong.extras["ecn_marks"],
                     cong.extras["pfc_pauses"]])
    return [("Extension: %d->1 incast, %dB buffer, ECN/DCQCN (RC legs)"
             % (senders, results["flock_cong"].extras["buffer_bytes"]),
             ["system", "base Mops", "cong Mops", "retention", "drops",
              "marks", "pauses"], rows)]


# -- Ablations: FLock's design constants (DESIGN.md §5) ----------------------

#: Enough fan-in (23 clients x 32 threads x 4 outstanding) that the
#: design constants matter, and a light load where sharing could hurt.
_LOADS = {
    "high": MicrobenchConfig(n_clients=23, threads_per_client=32,
                             outstanding=4),
    "light": MicrobenchConfig(n_clients=23, threads_per_client=8,
                              outstanding=1),
}

#: Table name -> (load, swept knob, values).
_ABLATIONS = {
    "max_aqp": ("high", "max_aqp", (32, 128, 256, 736)),
    "light": ("light", "max_aqp", (32, 256)),
    "max_combine": ("high", "max_combine", (1, 4, 16, 64)),
    "credit_batch": ("high", "credit_batch", (4, 32, 128)),
}


def _ablation_overrides(knob, value):
    """The ``FlockConfig`` fields one ablation row sets.  The combining
    bound is swept at MAX_AQP=64 (~11 threads per active QP), and credits
    renew at half the batch."""
    if knob == "max_combine":
        return {"max_combine": value, "max_aqp": 64}
    if knob == "credit_batch":
        return {"credit_batch": value, "credit_renew_threshold": value // 2}
    return {knob: value}


def _ablation_key(load, knob, value):
    """A row's point: its load and the ``FlockConfig`` fields it changes
    from the paper's.  MAX_AQP=256 and C=32 change none, so the MAX_AQP
    and credit-batch tables share that point."""
    paper = FlockConfig()
    return (load,) + tuple(sorted(
        (name, v) for name, v in _ablation_overrides(knob, value).items()
        if getattr(paper, name) != v))


def _ablations_points():
    points = {}
    for load, knob, values in _ABLATIONS.values():
        for value in values:
            key = _ablation_key(load, knob, value)
            flock_cfg = bench_flock_config(**_ablation_overrides(knob, value))
            points[key] = SweepPoint(
                "/".join(["ablations", load] + ["%s=%d" % kv
                                                for kv in key[1:]]),
                run_flock, (_LOADS[load],), {"flock_cfg": flock_cfg})
    return points


def _ablation_rows(results):
    """``{(table, value): result}`` for every row of every table."""
    return {(table, value): results[_ablation_key(load, knob, value)]
            for table, (load, knob, values) in _ABLATIONS.items()
            for value in values}


def _ablations_tables(results):
    rows = _ablation_rows(results)

    def table(name, cells):
        return [[value] + cells(rows[(name, value)])
                for value in _ABLATIONS[name][2]]

    return [
        ("Ablation: MAX_AQP (32 thr/client, 23 clients)",
         ["MAX_AQP", "Mops", "p99 us", "active QPs", "cache miss",
          "coalesce deg"],
         table("max_aqp", lambda r: [round(r.mops, 2), round(r.p99_us, 1),
                                     r.extras["active_qps"],
                                     r.extras["qp_cache_miss"],
                                     r.extras["mean_coalescing_degree"]])),
        ("Ablation: MAX_AQP at light load (8 thr/client, 1 out)",
         ["MAX_AQP", "Mops", "median us"],
         table("light", lambda r: [round(r.mops, 2), round(r.median_us, 2)])),
        ("Ablation: leader combining bound (MAX_AQP=64)",
         ["max_combine", "Mops", "coalesce deg"],
         table("max_combine", lambda r: [
             round(r.mops, 2), r.extras["mean_coalescing_degree"]])),
        ("Ablation: credit batch size C", ["C", "Mops", "p99 us"],
         table("credit_batch", lambda r: [round(r.mops, 2),
                                          round(r.p99_us, 1)])),
    ]


# -- Extension: multi-tenant QP allocation (§9) ------------------------------

#: Two equally aggressive tenants, weighted 3:1.
_TENANTS = {"gold": 3.0, "bronze": 1.0}


def _multitenancy_points():
    return {"tenants": SweepPoint("multitenancy", run_multitenancy,
                                  (_TENANTS,))}


def _multitenancy_tables(results):
    extras = results["tenants"].extras
    return [("Extension (§9): two tenants, weights 3:1, MAX_AQP=%d"
             % extras["max_aqp"],
             ["tenant", "active QPs", "ops completed"],
             [["%s (w=%g)" % (tenant, weight), extras["active_qps_" + tenant],
               extras["ops_" + tenant]]
              for tenant, weight in _TENANTS.items()])]


FIGURES: Dict[str, FigureSpec] = {spec.name: spec for spec in (
    FigureSpec(
        "fig2a", "RC read scaling (Fig 2a)",
        {"qps": [22, 44, 88, 176, 352, 704, 1408, 2816], "clients": 22},
        _fig2a_points, _fig2a_tables,
        lambda results, **_: [scorecard_fig2a(results)]),
    FigureSpec(
        "fig2b", "UD RPC scaling (Fig 2b)",
        {"senders": [22, 88, 352, 1408, 2816], "clients": 22},
        _fig2b_points, _fig2b_tables,
        lambda results, **_: [scorecard_fig2b(results)]),
    FigureSpec(
        "fig6", "FLock vs eRPC (Figs 6-8)",
        {"threads": [1, 4, 8, 16, 32, 48], "outstanding": [1, 4, 8],
         "clients": 23},
        _fig6_points, _fig6_tables,
        lambda results, **_: scorecards_fig6_7_8(results)),
    FigureSpec(
        "fig9", "sharing approaches (Fig 9)",
        {"threads": [1, 8, 16, 32, 48], "clients": 23},
        _fig9_points, _fig9_tables,
        lambda results, **_: [scorecard_fig9(results)]),
    FigureSpec(
        "fig10", "coalescing ablation (Fig 10)",
        {"outstanding": [1, 4, 8], "clients": 23},
        _fig10_points, _fig10_tables,
        lambda results, **_: [scorecard_fig10(results)]),
    FigureSpec(
        "fig11", "thread scheduling (Fig 11)",
        {"sizes": [512, 768, 1024], "clients": 23},
        _fig11_points, _fig11_tables,
        lambda results, clients, **_: [scorecard_fig11(results, clients)]),
    FigureSpec(
        "fig12", "node scalability (Fig 12)",
        {"clients": [23, 46, 92, 184, 368], "nodes": 23},
        _fig12_points, _fig12_tables,
        lambda results, **_: [scorecard_fig12(results)]),
    FigureSpec(
        "fig14", "TATP transactions (Fig 14)",
        {"threads": [1, 2, 4, 8, 16]},
        partial(_txn_points, "tatp"),
        partial(_txn_table,
                "Fig 14: TATP (Mtxn/s), FLockTX vs FaSST (20 clients, "
                "3 servers)",
                "FaSST losses", lambda flock, fasst: fasst.extras["lost"]),
        lambda results, **_: [scorecard_fig14(results)]),
    FigureSpec(
        "fig15", "Smallbank transactions (Fig 15)",
        {"threads": [1, 2, 4, 8, 16]},
        partial(_txn_points, "smallbank"),
        partial(_txn_table, "Fig 15: Smallbank (Mtxn/s), FLockTX vs FaSST",
                "FLockTX abort rate",
                lambda flock, fasst: flock.extras["abort_rate"]),
        lambda results, **_: [scorecard_fig15(results)]),
    FigureSpec(
        "fig16", "HydraList (Figs 16-18)",
        {"threads": [1, 8, 16, 32], "outstanding": [1, 8], "clients": 22},
        _fig16_points, _fig16_tables,
        lambda results, **_: [scorecard_fig16(results)]),
    FigureSpec(
        "incast", "N->1 incast degradation: FLock vs UD under fabric "
                  "congestion",
        {"senders": 12, "threads": 6, "outstanding": 2},
        _incast_points, _incast_tables,
        lambda results, **_: [scorecard_incast(results)]),
    FigureSpec(
        "ablations", "FLock design constants: MAX_AQP, combining bound, "
                     "credit batch (DESIGN.md §5)",
        {}, _ablations_points, _ablations_tables,
        lambda results: [scorecard_ablations(_ablation_rows(results))]),
    FigureSpec(
        "multitenancy", "two weighted tenants share one server's MAX_AQP "
                        "budget (§9)",
        {}, _multitenancy_points, _multitenancy_tables,
        lambda results: [scorecard_multitenancy(results["tenants"],
                                                list(_TENANTS))]),
)}
