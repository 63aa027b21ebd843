"""Shared test fixtures; importable helpers are in ``sim_helpers``."""

from __future__ import annotations

import os

import pytest

from repro.config import ClusterConfig
from repro.net import build_cluster
from repro.obs import faults
from repro.obs.audit import AUDIT_ENV
from repro.obs.simprof import PROFILE_ENV
from repro.sim import Simulator


@pytest.fixture(autouse=True)
def _no_repro_knobs():
    """Run every test with no ``REPRO_*`` variable set, and restore the
    outer ones after it.  ``monkeypatch`` cannot do this alone: deleting
    an absent variable records nothing, so a variable a test's code sets
    directly (``main(["--scale", ...])`` writes ``REPRO_BENCH_SCALE``)
    would leak into every later test."""
    outer = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for key in outer:
        del os.environ[key]
    yield
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(outer)


@pytest.fixture
def half_windows(monkeypatch):
    """Halve every scaled run's windows (``REPRO_BENCH_SCALE=0.5``), for
    tests whose assertions hold at any window length."""
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")


@pytest.fixture
def audited(monkeypatch):
    """Audit every run (``REPRO_AUDIT=1``, what ``--audit`` sets)."""
    monkeypatch.setenv(AUDIT_ENV, "1")


@pytest.fixture
def profiled(monkeypatch):
    """Take every run's host-time census (``REPRO_PROFILE=1``)."""
    monkeypatch.setenv(PROFILE_ENV, "1")


@pytest.fixture
def inject_fault():
    """``faults.inject`` for one test: every fault it injects is cleared
    when the test ends, whether it passed or failed."""
    yield faults.inject
    faults.clear()


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def small_cluster(sim):
    """(sim, server node, client nodes, fabric) with 2 clients."""
    servers, clients, fabric = build_cluster(sim, ClusterConfig(n_clients=2))
    return sim, servers[0], clients, fabric
