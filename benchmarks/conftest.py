"""Benchmark-suite plumbing.

Every benchmark registers the paper-style table it regenerated via
:func:`record_table`; the tables are printed in the terminal summary (so
they survive pytest's output capture and land in ``bench_output.txt``)
and merged into ``benchmarks/results.txt`` for EXPERIMENTS.md.  Sections
are keyed by table title, so re-running a single figure refreshes its
section without discarding the others.  No run ever drops a section:
deleting a bench module means deleting its sections by hand.

Figure benchmarks run a registered :class:`repro.harness.FigureSpec`
through the :func:`run_figure` fixture, which records the spec's tables
and its paper-fidelity scorecards (:func:`record_scorecard`); those land
as ``BENCH_<figure>.json`` files in ``benchmarks/scorecards`` (override
with ``REPRO_SCORECARD_DIR``) and can be diffed against the committed
``benchmarks/baselines`` with ``python -m repro.harness.cli
bench-compare``.  ``REPRO_JOBS`` fans a figure's sweep points across
worker processes with byte-identical results.

The invariant auditors run on every figure benchmark (the fixture forces
``REPRO_AUDIT`` on), so a figure whose bookkeeping drifts fails even
when its headline numbers still look plausible.

Every bench session that produced scorecards is also appended to the
run-history store (``repro.obs.runstore``) with its git context, so
``python -m repro.harness.cli runs list`` / ``runs diff`` can navigate
and compare past sessions.  Set ``REPRO_RUNSTORE=0`` (or ``false``,
``no``, ``off``) to opt out; ``REPRO_RUNSTORE_DIR`` relocates the store.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence

import pytest

from repro.config import env_flag
from repro.harness import FIGURES, bench_scale, format_table
from repro.obs.audit import AUDIT_ENV
from repro.obs.runstore import RunStore

_TABLES: Dict[str, str] = {}
_SCORECARDS: List[object] = []

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")
SCORECARD_DIR = os.environ.get(
    "REPRO_SCORECARD_DIR",
    os.path.join(os.path.dirname(__file__), "scorecards"))


def record_table(title: str, columns: Sequence[str], rows) -> str:
    """Register a reproduced paper table for the terminal summary."""
    text = format_table(title, columns, rows)
    _TABLES[text.splitlines()[0]] = text
    return text


def record_scorecard(scorecard) -> None:
    """Register a figure's ``BENCH_*.json`` scorecard for writing."""
    scorecard.meta.setdefault("bench_scale", bench_scale())
    _SCORECARDS.append(scorecard)


@pytest.fixture
def run_figure(monkeypatch):
    """Run a registered figure's full sweep with the auditors on, record
    its tables and scorecards, and assert every scorecard passed."""
    monkeypatch.setenv(AUDIT_ENV, "1")

    def run(name: str) -> None:
        spec = FIGURES[name]
        results = spec.run(**spec.defaults)
        for table in spec.tables(results, **spec.defaults):
            record_table(*table)
        scorecards = spec.scorecards(results, **spec.defaults)
        for scorecard in scorecards:
            record_scorecard(scorecard)
        failed = [sc.format() for sc in scorecards if not sc.passed]
        assert not failed, "\n\n".join(failed)

    return run


def _is_rule(line: str) -> bool:
    return bool(line) and not line.strip("-")


def _split_tables(text: str) -> List[str]:
    """Split ``results.txt`` text into one section per table.

    A :func:`format_table` table is a title, a rule, a header, a rule,
    its rows and a closing rule; the line after the closing rule starts
    the next table even when no blank line separates them.  Text that is
    not a table stays one section per blank-line-separated chunk.
    """
    sections = []
    for chunk in text.split("\n\n"):
        lines: List[str] = []
        rules = 0
        for line in chunk.strip("\n").splitlines():
            lines.append(line)
            rules += _is_rule(line)
            if rules == 3:
                sections.append("\n".join(lines))
                lines, rules = [], 0
        if lines:
            sections.append("\n".join(lines))
    return sections


def _merge_results(existing: str, tables: Dict[str, str]) -> str:
    """Merge new tables into the ``results.txt`` text ``existing``.

    Sections are keyed by title line.  Sections already on disk keep
    their position (refreshed in place when regenerated); new sections
    are appended.  This lets a single re-run of one figure update its
    table without wiping the rest.  A title that appears twice collapses
    into one section at the first position, holding the later text.
    """
    sections: List[str] = []
    titles: Dict[str, int] = {}
    new = [text.strip("\n") for text in tables.values()]
    for text in _split_tables(existing) + new:
        title = text.splitlines()[0]
        if title in titles:
            sections[titles[title]] = text
        else:
            titles[title] = len(sections)
            sections.append(text)
    return "\n\n".join(sections) + "\n"


def _record_run(terminalreporter) -> None:
    """Append this bench session to the run-history store.

    Best-effort by design: history is a convenience, and a read-only
    filesystem or exotic CI sandbox must never fail the benchmarks
    themselves.
    """
    if not env_flag("REPRO_RUNSTORE", True):
        return
    try:
        rec = RunStore().record(
            _SCORECARDS, label="bench@%s" % bench_scale(),
            meta={"source": "pytest-benchmarks"})
        terminalreporter.write_line(
            "run store: recorded run %d (%d figure(s), config %s)"
            % (rec.run_id, len(rec.figures), rec.fingerprint))
    except OSError as exc:  # pragma: no cover - depends on host fs
        terminalreporter.write_line("run store: not recorded (%s)" % exc)


def pytest_terminal_summary(terminalreporter):
    if _SCORECARDS:
        os.makedirs(SCORECARD_DIR, exist_ok=True)
        terminalreporter.write_line("")
        for scorecard in _SCORECARDS:
            path = scorecard.write(SCORECARD_DIR)
            terminalreporter.write_line(
                "scorecard %s: %s (%s)"
                % (scorecard.figure, path,
                   "PASS" if scorecard.passed else "FAIL"))
        _record_run(terminalreporter)
    if not _TABLES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 70)
    terminalreporter.write_line("Reproduced paper tables/figures")
    terminalreporter.write_line("=" * 70)
    for text in _TABLES.values():
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
    try:
        with open(RESULTS_PATH) as fh:
            existing = fh.read()
    except OSError:
        existing = ""
    merged = _merge_results(existing, _TABLES)
    with open(RESULTS_PATH, "w") as fh:
        fh.write(merged)
