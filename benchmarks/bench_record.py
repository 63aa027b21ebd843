"""Benchmark-suite plumbing; ``conftest.py`` registers its two hooks.

It is a module of its own, not ``conftest.py``, so that the benchmarks
can import it by a name no other test directory uses.

Every benchmark registers the paper-style table it regenerated via
:func:`record_table`; the tables are printed in the terminal summary (so
they survive pytest's output capture and land in ``bench_output.txt``)
and merged into ``benchmarks/results.txt`` for EXPERIMENTS.md.  Sections
are keyed by table title, so re-running a single figure refreshes its
section without discarding the others.  No run ever drops a section:
retiring a figure means deleting its sections by hand.

``results.txt`` takes only tables a run can vouch for
(:func:`vouched_tables`): a full-scale run's tables from tests that
passed with every scorecard passing.  Every other table is merged into
a ``results.txt`` beside the scorecards instead.

``test_paper_figures.py`` runs every registered
:class:`repro.harness.figures.FigureSpec` once, with the invariant auditors on,
and records the spec's tables and its paper-fidelity scorecards
(:func:`record_scorecard`); those land as ``BENCH_<figure>.json`` files
in ``benchmarks/scorecards`` (override with ``REPRO_SCORECARD_DIR``) and
can be diffed against the committed ``benchmarks/baselines`` with
``python -m repro.harness.cli bench-compare``.  ``REPRO_JOBS`` fans a
figure's sweep points across worker processes with byte-identical
results.

Every bench session that produced scorecards is also appended to the
run-history store (``repro.obs.runstore``) with its git context, so
``python -m repro.harness.cli runs list`` / ``runs diff`` can navigate
and compare past sessions; ``REPRO_RUNSTORE_DIR`` relocates the store.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Set, Tuple

from repro.harness.metrics import bench_scale
from repro.harness.tables import format_table
from repro.obs.export import write_atomic
from repro.obs.runstore import RunStore

#: Recorded tables by title line: (text, node id of the recording test).
_TABLES: Dict[str, Tuple[str, str]] = {}
_SCORECARDS: List[object] = []
#: Node ids of tests that failed or recorded a failing scorecard.
_FAILED: Set[str] = set()

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")
SCORECARD_DIR = os.environ.get(
    "REPRO_SCORECARD_DIR",
    os.path.join(os.path.dirname(__file__), "scorecards"))


def _current_test() -> str:
    """Node id of the running test (pytest sets the variable per phase)."""
    return os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" ", 1)[0]


def record_table(title: str, columns: Sequence[str], rows) -> str:
    """Register a reproduced paper table for the terminal summary."""
    text = format_table(title, columns, rows)
    _TABLES[text.splitlines()[0]] = (text, _current_test())
    return text


def record_scorecard(scorecard) -> None:
    """Register a figure's ``BENCH_*.json`` scorecard for writing."""
    scorecard.meta.setdefault("bench_scale", bench_scale())
    _SCORECARDS.append(scorecard)
    if not scorecard.passed:
        _FAILED.add(_current_test())


def pytest_runtest_logreport(report):
    if report.failed:
        _FAILED.add(report.nodeid)


def vouched_tables(tables: Dict[str, Tuple[str, str]], failed: Set[str],
                   scale: float) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Split recorded ``tables`` into those ``results.txt`` may take and
    the rest.

    ``results.txt`` holds full-scale numbers and carries no scale, so a
    run at any other ``scale`` vouches for none of its tables.  At full
    scale a table is vouched for unless the test that recorded it is in
    ``failed``.
    """
    vouched: Dict[str, str] = {}
    other: Dict[str, str] = {}
    for title, (text, test) in tables.items():
        keep = scale == 1.0 and test not in failed
        (vouched if keep else other)[title] = text
    return vouched, other


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
    for text, _test in _TABLES.values():
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
    vouched, other = vouched_tables(_TABLES, _FAILED, bench_scale())
    terminalreporter.write_line("")
    for path, tables in ((RESULTS_PATH, vouched),
                         (os.path.join(SCORECARD_DIR, "results.txt"), other)):
        if not tables:
            continue
        try:
            with open(path) as fh:
                existing = fh.read()
        except OSError:
            existing = ""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_atomic(path, _merge_results(existing, tables))
        terminalreporter.write_line(
            "results: %d table(s) merged into %s" % (len(tables), path))
