"""Mutation tests: each auditor catches exactly the bug it guards.

An invariant check that never fires is untested.  Here we seed three
deliberate accounting bugs through :mod:`repro.obs.faults` — drop a
credit refill, leak a CQE, double-count a QP-cache miss — and assert the
matching auditor (and only that auditor) reports a violation, while an
unmutated run stays clean.
"""

import pytest

from repro.harness import MicrobenchConfig, run_flock
from repro.obs import AuditError, faults

pytestmark = pytest.mark.usefixtures("audited")

CFG = MicrobenchConfig(n_clients=3, threads_per_client=4, outstanding=4,
                       warmup_ns=150_000, measure_ns=150_000)


def violating_auditors(inject, fault_name):
    """Run the microbenchmark with ``fault_name`` injected; return the
    set of auditor names that reported violations."""
    inject(fault_name)
    with pytest.raises(AuditError) as excinfo:
        run_flock(CFG)
    report = excinfo.value.report
    return {v.auditor for v in report.violations}, report


def test_baseline_is_clean():
    assert not faults.ACTIVE
    result = run_flock(CFG)
    assert result.audit_report.ok, result.audit_report.format()


def test_dropped_credit_refill_trips_only_credit_auditor(inject_fault):
    auditors, report = violating_auditors(inject_fault, "credits.drop_refill")
    assert auditors == {"credits"}, report.format()
    assert any(v.invariant.startswith("flock.credits.conservation")
               for v in report.violations)


def test_leaked_cqe_trips_only_cqe_auditor(inject_fault):
    auditors, report = violating_auditors(inject_fault, "verbs.leak_cqe")
    assert auditors == {"cqe-conservation"}, report.format()
    v = report.violations[0]
    # The NIC generated CQEs that never reached a completion queue.
    assert v.observed > v.expected


def test_double_counted_cache_miss_trips_only_qp_cache_auditor(inject_fault):
    auditors, report = violating_auditors(inject_fault, "rnic.double_count_miss")
    assert auditors == {"qp-cache"}, report.format()
    assert report.violations
    for v in report.violations:
        assert v.invariant.startswith("rnic.pcie_read_conservation[")
        # The NIC counted misses that fetched no state over PCIe.
        assert v.observed < v.expected


class TestFaultHook:
    def test_unknown_fault_rejected(self, inject_fault):
        with pytest.raises(ValueError):
            inject_fault("no.such.fault")
        assert not faults.ACTIVE

    def test_clear_one_restores(self, inject_fault):
        assert not faults.is_active("verbs.leak_cqe")
        inject_fault("verbs.leak_cqe")
        assert faults.is_active("verbs.leak_cqe")
        faults.clear("verbs.leak_cqe")
        assert not faults.is_active("verbs.leak_cqe")

    def test_clear_one_keeps_the_others(self, inject_fault):
        inject_fault("verbs.leak_cqe")
        inject_fault("credits.drop_refill")
        faults.clear("verbs.leak_cqe")
        assert faults.ACTIVE == {"credits.drop_refill"}
        faults.clear("credits.drop_refill")
        assert not faults.ACTIVE

    def test_clear_all(self, inject_fault):
        inject_fault("verbs.leak_cqe")
        inject_fault("credits.drop_refill")
        faults.clear()
        assert not faults.ACTIVE

    def test_every_declared_fault_site_is_wired(self):
        """Grep-level guard: each FAULT_NAMES entry appears in exactly
        the module its prefix names, so a renamed site cannot silently
        detach from its guard."""
        import os

        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        modules = {
            "credits.drop_refill": os.path.join(root, "flock", "credits.py"),
            "verbs.leak_cqe": os.path.join(root, "verbs", "qp.py"),
            "rnic.double_count_miss": os.path.join(root, "hw", "rnic.py"),
            "bench.step_handler_cost": os.path.join(
                root, "harness", "microbench.py"),
        }
        assert set(modules) == set(faults.FAULT_NAMES)
        for name, path in modules.items():
            with open(path) as fh:
                assert name in fh.read(), "%s not wired in %s" % (name, path)
