"""Run history: an append-only store of benchmark runs.

Scorecards answer "how faithful is *this* run"; the bench store answers
"did it regress against the committed contract".  What neither answers
is *history*: which runs exist, under what code and config, and how any
two of them compare.  A :class:`RunStore` records every bench session
and ``runs record`` as one JSON line in an append-only log
(``runs.jsonl``), each carrying:

* **git context** — commit, branch, and a dirty flag captured at record
  time, so a run is traceable to the code that produced it;
* **a config fingerprint** — a stable hash of the run's figures and
  gating meta (``bench_scale``), so comparable runs are recognizable at
  a glance and incomparable ones are obvious;
* **the full scorecards** — metrics with tolerances, shape checks, and
  meta (including windowed SLO timelines and anomaly blocks, which
  ``explain run:N`` reads back), verbatim.

Records are never rewritten: the store only appends, and run ids are
the 1-based line numbers, so any id mentioned in a CI log or a commit
message stays valid forever.  A line torn by an interrupted append is
skipped on read (``runs list`` names it) and keeps its id; the next
record starts on a fresh line.

:meth:`RunStore.diff` runs the bench store's comparison loop with run
*A* as the baseline contract — the CLI front-end (``repro runs diff A
B``) exits nonzero iff B regresses beyond A's tolerances, as
``tests/test_runstore.py::TestRunsCli::
test_diff_fails_a_fault_injected_figure_run`` checks on real runs.

The store location defaults to ``benchmarks/runstore`` next to the
committed baselines; ``REPRO_RUNSTORE_DIR`` overrides it (tests point
it at tmp paths).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .benchstore import CompareReport, compare_runs
from .scorecard import Scorecard

__all__ = ["RunRecord", "RunStore", "default_store_dir"]

#: Environment override for the store directory.
RUNSTORE_DIR_ENV = "REPRO_RUNSTORE_DIR"


def default_store_dir() -> str:
    """The store directory: ``REPRO_RUNSTORE_DIR`` or the repo's
    ``benchmarks/runstore``."""
    env = os.environ.get(RUNSTORE_DIR_ENV)
    if env:
        return env
    return os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))),
        "benchmarks", "runstore")


def _git(args: List[str], cwd: str) -> Optional[str]:
    """One git query; None when git or the repo is unavailable."""
    try:
        out = subprocess.run(["git"] + args, cwd=cwd, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def git_context(cwd: Optional[str] = None) -> Dict[str, Any]:
    """Commit / branch / dirty flag of the working tree (best effort)."""
    cwd = cwd or os.getcwd()
    commit = _git(["rev-parse", "HEAD"], cwd)
    if commit is None:
        return {"commit": None, "branch": None, "dirty": None}
    branch = _git(["rev-parse", "--abbrev-ref", "HEAD"], cwd)
    status = _git(["status", "--porcelain"], cwd)
    return {"commit": commit, "branch": branch,
            "dirty": bool(status) if status is not None else None}


def config_fingerprint(scorecards: List[Scorecard]) -> str:
    """Stable short hash of the run's shape: which figures ran and under
    what gating meta (``bench_scale``).  Two runs with equal
    fingerprints are meaningfully diffable."""
    shape = sorted((sc.figure, sc.meta.get("bench_scale"))
                   for sc in scorecards)
    digest = hashlib.sha256(
        json.dumps(shape, sort_keys=True).encode()).hexdigest()
    return digest[:12]


@dataclass
class RunRecord:
    """One recorded benchmark run."""

    run_id: int
    #: Unix wall-clock seconds at record time.
    timestamp: float
    #: Free-form label (``--label``, or the recording context's name).
    label: str
    git: Dict[str, Any]
    fingerprint: str
    #: Full scorecard dicts, keyed by figure.
    scorecards: Dict[str, dict]
    #: Extra recorder-supplied context (CI job, hostname, ...).
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def figures(self) -> List[str]:
        """The figures this run produced, sorted."""
        return sorted(self.scorecards)

    @property
    def passed(self) -> bool:
        """True when every scorecard's shape checks held."""
        return all(sc.get("passed", True)
                   for sc in self.scorecards.values())

    def scorecard(self, figure: str) -> Optional[Scorecard]:
        """The run's scorecard for ``figure`` (None when absent)."""
        data = self.scorecards.get(figure)
        return Scorecard.from_dict(data) if data is not None else None

    def to_dict(self) -> dict:
        """JSON form written to the log."""
        return {"run_id": self.run_id, "timestamp": self.timestamp,
                "label": self.label, "git": self.git,
                "fingerprint": self.fingerprint,
                "scorecards": self.scorecards, "meta": self.meta}

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        """Rebuild a record from one log line."""
        return cls(run_id=int(data["run_id"]),
                   timestamp=float(data.get("timestamp", 0.0)),
                   label=data.get("label", ""),
                   git=dict(data.get("git", {})),
                   fingerprint=data.get("fingerprint", ""),
                   scorecards=dict(data.get("scorecards", {})),
                   meta=dict(data.get("meta", {})))

    def summary_row(self) -> List[str]:
        """The ``runs list`` table row."""
        when = time.strftime("%Y-%m-%d %H:%M",
                             time.localtime(self.timestamp))
        commit = (self.git.get("commit") or "")[:10] or "-"
        if self.git.get("dirty"):
            commit += "+"
        return [str(self.run_id), when, self.label or "-", commit,
                self.fingerprint, ",".join(self.figures) or "-",
                "PASS" if self.passed else "FAIL"]


class RunStore:
    """Append-only JSONL store of :class:`RunRecord` entries."""

    def __init__(self, root: Optional[str] = None):
        self.root = root or default_store_dir()
        self.path = os.path.join(self.root, "runs.jsonl")

    # -- writing --------------------------------------------------------

    def record(self, scorecards: List[Scorecard], label: str = "",
               meta: Optional[Dict[str, Any]] = None,
               timestamp: Optional[float] = None) -> RunRecord:
        """Append one run; returns the stored record (with its id)."""
        os.makedirs(self.root, exist_ok=True)
        ignore = os.path.join(self.root, ".gitignore")
        if not os.path.exists(ignore):
            # Run history is machine-local by default; CI uploads it as
            # an artifact instead of committing it.
            with open(ignore, "w") as fh:
                fh.write("*\n")
        rec = RunRecord(
            run_id=self._next_id(),
            timestamp=time.time() if timestamp is None else timestamp,
            label=label,
            git=git_context(),
            fingerprint=config_fingerprint(scorecards),
            scorecards={sc.figure: sc.to_dict() for sc in scorecards},
            meta=dict(meta or {}))
        with open(self.path, "ab+") as fh:
            if fh.tell():  # append mode opens at the end
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    # Close a line torn by an interrupted append, so
                    # this record still lands on line ``run_id``.
                    fh.write(b"\n")
            fh.write(json.dumps(rec.to_dict(), sort_keys=True).encode()
                     + b"\n")
        return rec

    def _next_id(self) -> int:
        return len(self._lines()) + 1

    # -- reading --------------------------------------------------------

    def _lines(self) -> List[str]:
        if not os.path.exists(self.path):
            return []
        with open(self.path) as fh:
            return [line for line in fh if line.strip()]

    def read(self) -> Tuple[List[RunRecord], List[int]]:
        """Every readable run in record order, and the line numbers of
        lines that do not parse (torn by an interrupted append)."""
        records, torn = [], []
        for number, line in enumerate(self._lines(), start=1):
            try:
                records.append(RunRecord.from_dict(json.loads(line)))
            except ValueError:
                torn.append(number)
        return records, torn

    def list(self) -> List[RunRecord]:
        """Every readable recorded run, in record order."""
        return self.read()[0]

    def get(self, ref) -> RunRecord:
        """A run by reference.

        Accepts an id (``4``, ``"4"``, ``"run:4"``), ``"latest"`` /
        ``"run:latest"`` for the most recent run, and negative ids
        counting back from the end (``-1`` / ``"run:-1"`` is the latest,
        ``-2`` the one before).  Raises :class:`KeyError` with the bad
        reference for anything else.
        """
        if isinstance(ref, str):
            ref = ref.split(":", 1)[1] if ref.startswith("run:") else ref
            if ref == "latest":
                ref = -1
            else:
                try:
                    ref = int(ref)
                except ValueError:
                    raise KeyError("bad run reference %r (want an id, "
                                   "run:N, run:-N, or run:latest)" % ref)
        records = self.list()
        if ref < 0:
            if -ref <= len(records):
                return records[ref]
            raise KeyError("no run %r in %s (only %d recorded)"
                           % (ref, self.path, len(records)))
        for rec in records:
            if rec.run_id == ref:
                return rec
        raise KeyError("no run %r in %s" % (ref, self.path))

    # -- comparing ------------------------------------------------------

    def diff(self, a, b) -> CompareReport:
        """Tolerance-aware comparison of run ``b`` against run ``a``.

        Run *A* is the baseline contract: its metric tolerances and its
        passing shape checks gate, exactly as the bench store gates a
        fresh run against committed baselines.  ``report.ok`` is False
        iff B regresses or lacks a figure or gated metric of A.
        """
        base, cur = self.get(a), self.get(b)
        return compare_runs(
            {f: base.scorecard(f) for f in base.figures},
            {f: cur.scorecard(f) for f in cur.figures},
            "absent from run %d" % cur.run_id)
