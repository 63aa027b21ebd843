"""Every registered figure, at its full default sweep.

One test per :class:`repro.harness.FigureSpec` in
:data:`repro.harness.FIGURES`: the paper's Figs. 2, 6-12 and 14-18 plus
the incast, multi-tenancy and ablation extensions.  A figure's setup
and claims live on its spec and in its scorecard builder
(:mod:`repro.harness.scorecards`); EXPERIMENTS.md scores them against
the paper.  The invariant auditors run on every figure, so a figure
whose bookkeeping drifts fails even when its headline numbers still
look plausible.
"""

import pytest

from repro.harness import FIGURES
from repro.obs.audit import AUDIT_ENV

from conftest import record_scorecard, record_table


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure(name, monkeypatch):
    monkeypatch.setenv(AUDIT_ENV, "1")
    spec = FIGURES[name]
    results = spec.run(**spec.defaults)
    for table in spec.tables(results, **spec.defaults):
        record_table(*table)
    scorecards = spec.scorecards(results, **spec.defaults)
    for scorecard in scorecards:
        record_scorecard(scorecard)
    failed = [sc.format() for sc in scorecards if not sc.passed]
    assert not failed, "\n\n".join(failed)
