"""Invariant auditors: framework units plus clean-run end-to-end passes."""

import pytest

from repro.harness import (
    IncastConfig,
    IndexBenchConfig,
    MicrobenchConfig,
    TxnBenchConfig,
    run_erpc,
    run_flock,
    run_flock_index,
    run_flocktx,
    run_incast_flock,
    run_raw_reads,
)
from repro.obs.audit import (
    AUDIT_ENV,
    AuditContext,
    AuditError,
    AuditReport,
    Violation,
    audit_enabled,
    run_audit,
)
from repro.obs.span import SpanLog
from repro.obs.telemetry import Telemetry, disable, enable
from repro.sim import Simulator

pytestmark = pytest.mark.usefixtures("half_windows")

SMALL = MicrobenchConfig(n_clients=3, threads_per_client=4, outstanding=4,
                         warmup_ns=150_000, measure_ns=150_000)


class TestFramework:
    def test_violation_str_names_auditor_and_invariant(self):
        v = Violation(auditor="credits", invariant="flock.credits",
                      detail="bad", observed=1, expected=2)
        text = str(v)
        assert "credits" in text and "flock.credits" in text
        assert "observed=1" in text and "expected=2" in text

    def test_report_ok_and_format(self):
        report = AuditReport(checks=3)
        assert report.ok
        report.violations.append(Violation("a", "i", "d"))
        assert not report.ok
        assert "1 violations" in report.format()
        assert "FAIL" in report.format()

    def test_report_format_truncates(self):
        report = AuditReport()
        for i in range(30):
            report.violations.append(Violation("a", "i%d" % i, "d"))
        text = report.format(max_violations=5)
        assert "... 25 more violations" in text

    def test_report_to_dict(self):
        report = AuditReport(checks=2)
        report.skipped.append("x: no registry")
        d = report.to_dict()
        assert d["checks"] == 2 and d["ok"] and d["skipped"] == ["x: no registry"]

    def test_audit_error_carries_report(self):
        report = AuditReport()
        report.violations.append(Violation("a", "i", "d"))
        err = AuditError(report)
        assert err.report is report
        assert isinstance(err, AssertionError)

    def test_check_eq_exact_and_float(self):
        ctx = AuditContext(Simulator())
        assert ctx.check_eq("x", 5, 5)
        assert not ctx.check_eq("x", 5, 6)
        # Float mode pads with rtol/atol slack.
        assert ctx.check_eq("y", 1.0 + 1e-12, 1.0, exact=False)
        assert not ctx.check_eq("y", 1.1, 1.0, exact=False)
        assert ctx.report.checks == 4
        assert len(ctx.report.violations) == 2

    def test_audit_enabled_env_parsing(self, monkeypatch):
        for off in ("", "0", "false", "NO", "off"):
            monkeypatch.setenv(AUDIT_ENV, off)
            assert not audit_enabled()
        for on in ("1", "true", "yes"):
            monkeypatch.setenv(AUDIT_ENV, on)
            assert audit_enabled()
        monkeypatch.delenv(AUDIT_ENV)
        assert not audit_enabled()

    def test_empty_sim_audit_is_clean(self):
        report = run_audit(Simulator())
        assert report.ok
        assert report.checks >= 2  # monotone-time always runs
        assert report.skipped  # no components -> recorded skips

    def test_negative_wait_fails_span_audit(self):
        """A wait is recorded like any other interval, so a faulty wait
        producer is caught: a ``pcie_stall`` closed before it opened
        (the open/close calls ``Pcie.read`` makes) fails the audit."""
        sim = Simulator()
        sim.spans = SpanLog()
        span = sim.spans.begin("rpc", track="t0", t=0.0)
        span.open("pcie_stall", 10.0)
        span.close("pcie_stall", 5.0)
        span.finish(20.0)
        report = run_audit(sim)
        assert [v.invariant for v in report.violations] == [
            "spans.phase_monotonicity"]

    def test_auditor_crash_becomes_violation(self):
        def broken(ctx):
            raise RuntimeError("boom")

        report = run_audit(Simulator(), auditors=[("broken", broken)])
        assert not report.ok
        assert report.violations[0].invariant == "auditor.crashed"
        assert "boom" in report.violations[0].detail

    def test_raise_on_violation(self):
        def broken(ctx):
            ctx.check("x", False, "always fails")

        with pytest.raises(AuditError) as excinfo:
            run_audit(Simulator(), auditors=[("broken", broken)],
                      raise_on_violation=True)
        assert not excinfo.value.report.ok


class TestCleanRuns:
    """Every runner passes its own audit on an unmutated model."""

    def _assert_clean(self, result):
        report = result.audit_report
        assert report is not None
        assert report.ok, report.format()
        assert report.checks > 10

    def test_flock_audits_clean(self, audited):
        self._assert_clean(run_flock(SMALL))

    def test_erpc_audits_clean(self, audited):
        self._assert_clean(run_erpc(SMALL))

    def test_raw_reads_audit_clean(self, audited):
        self._assert_clean(run_raw_reads(24, n_clients=3))

    def test_flocktx_audits_clean(self, audited):
        cfg = TxnBenchConfig(n_clients=2, threads_per_client=2,
                             coroutines_per_thread=3,
                             subscribers_per_server=600,
                             warmup_ns=200_000, measure_ns=200_000)
        self._assert_clean(run_flocktx(cfg))

    def test_index_audits_clean(self, audited):
        cfg = IndexBenchConfig(n_clients=2, threads_per_client=3,
                               n_keys=20_000, warmup_ns=200_000,
                               measure_ns=200_000)
        self._assert_clean(run_flock_index(cfg)["get"])

    def test_flock_audit_reports_littles_law_info(self, audited):
        result = run_flock(SMALL)
        laws = {k: v for k, v in result.audit_report.info.items()
                if k.startswith("queues.littles_law")}
        assert laws
        for fig in laws.values():
            assert fig["L"] >= 0 and fig["W_ns"] > 0

    def test_audit_env_opts_runs_in(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV, "1")
        result = run_flock(SMALL)
        assert result.audit_report is not None and result.audit_report.ok

    def test_audit_off_by_default(self, monkeypatch):
        monkeypatch.delenv(AUDIT_ENV, raising=False)
        result = run_flock(SMALL)
        assert result.audit_report is None

    def test_every_audited_run_runs_every_check(self, monkeypatch,
                                                audited):
        """An audited run checks every law whether it has no telemetry
        or shares one with earlier runs: the checks read ledgers only.
        A congested FLock incast leg builds every audited component."""
        seen = []
        check = AuditContext.check

        def spy(ctx, invariant, ok, *args, **kwargs):
            seen.append(invariant)
            return check(ctx, invariant, ok, *args, **kwargs)

        monkeypatch.setattr(AuditContext, "check", spy)
        cfg = IncastConfig(n_senders=4)
        moved = {"net.messages.in_flight", "net.payload_vs_nic_tx",
                 "flock.message_bytes_identity", "flock.rpcs_vs_coalesced",
                 "flock.server_requests_vs_coalesced"}
        reports = [run_incast_flock(cfg, congested=True).audit_report]
        checks_alone = set(seen)
        enable(Telemetry())
        try:
            run_incast_flock(cfg, congested=True)
            del seen[:]
            reports.append(run_incast_flock(cfg,
                                            congested=True).audit_report)
        finally:
            disable()
        for report in reports:
            assert report.ok, report.format()
            assert report.skipped == []
        assert moved <= checks_alone
        # The telemetry also records spans, which adds their own check.
        assert set(seen) == checks_alone | {"spans.phase_monotonicity"}
