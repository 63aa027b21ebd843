"""Test-only fault injection for auditor mutation tests.

An auditor that never fires is untested: to prove each invariant check
can actually catch the bug class it guards against, the test suite seeds
deliberate accounting bugs (drop a credit refill, leak a CQE,
double-count a cache miss) and asserts the matching auditor — and only
that auditor — reports a violation.

The hook is a module-level set of active fault names.  Instrumented
sites guard with ``if ACTIVE and "name" in ACTIVE`` so the production
path costs one truthiness test of an (almost always) empty set.  Faults
are only ever enabled deliberately: by tests, or by the CLI honoring
the ``REPRO_FAULTS`` environment variable (a comma-separated fault
list) — which the run-store regression test uses to manufacture a
known-bad figure run
(``tests/test_runstore.py::TestRunsCli::test_diff_fails_a_fault_injected_figure_run``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, List, Set

__all__ = ["ACTIVE", "FAULT_NAMES", "FAULTS_ENV", "clear", "inject",
           "inject_from_env", "injected", "is_active"]

#: Environment variable naming faults to activate (comma-separated).
FAULTS_ENV = "REPRO_FAULTS"

#: Names of every fault site wired into the stack; ``inject`` rejects
#: unknown names so a typo cannot silently test nothing.
FAULT_NAMES = frozenset({
    # flock/credits.py: a grant arrives but the credits are never added.
    "credits.drop_refill",
    # verbs/qp.py: a signaled send completion is counted but never
    # DMA-ed into the CQ.
    "verbs.leak_cqe",
    # hw/rnic.py: a QP-cache miss is counted twice in the cache stats.
    "rnic.double_count_miss",
    # harness/microbench.py: the echo handler cost steps up 25x halfway
    # through the measurement window — a manufactured latency
    # changepoint the anomaly detectors must catch
    # (tests/test_cli.py::TestSmallRuns::test_step_fault_fires_goodput_changepoints).
    "bench.step_handler_cost",
})

#: The currently active fault names (empty in production).
ACTIVE: Set[str] = set()


def inject(name: str) -> None:
    """Activate the fault ``name`` (must be a known fault site)."""
    if name not in FAULT_NAMES:
        raise ValueError("unknown fault %r (known: %s)"
                         % (name, ", ".join(sorted(FAULT_NAMES))))
    ACTIVE.add(name)


def clear(name: str = None) -> None:
    """Deactivate ``name``, or every fault when called without one."""
    if name is None:
        ACTIVE.clear()
    else:
        ACTIVE.discard(name)


def inject_from_env() -> List[str]:
    """Activate every fault named in ``REPRO_FAULTS``; returns the names
    activated (empty when the variable is unset).  Unknown names raise,
    exactly like :func:`inject` — a typo'd CI perturbation that silently
    injected nothing would defeat the regression gate it exists for."""
    names = [n.strip() for n in
             os.environ.get(FAULTS_ENV, "").split(",") if n.strip()]
    for name in names:
        inject(name)
    return names


def is_active(name: str) -> bool:
    """True when the fault ``name`` is currently injected."""
    return name in ACTIVE


@contextmanager
def injected(*names: str) -> Iterator[None]:
    """Context manager activating ``names`` for the enclosed block."""
    for name in names:
        inject(name)
    try:
        yield
    finally:
        for name in names:
            ACTIVE.discard(name)
