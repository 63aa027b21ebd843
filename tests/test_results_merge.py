"""``benchmarks/results.txt`` merging: fused chunks, duplicate titles, and
which runs may write the file at all."""

import importlib.util
import os

import pytest

from repro.harness.tables import format_table
from repro.obs.runstore import RUNSTORE_DIR_ENV
from repro.obs.scorecard import Scorecard

_BENCH_RECORD = os.path.join(os.path.dirname(__file__), os.pardir,
                             "benchmarks", "bench_record.py")


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  _BENCH_RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _table(title, value):
    return format_table(title, ["k", "v"], [["a", value], ["b", 2.0]])


def test_fused_duplicated_chunk_is_split_and_refreshed():
    merge = _bench_record()._merge_results
    ycsb_old, aqp, fig10 = (_table("YCSB", 1.0), _table("MAX_AQP", 3.0),
                            _table("Fig 10", 4.0))
    # A stale chunk with two tables and no blank line between them, then
    # a later duplicate of the first one.
    existing = "\n".join([ycsb_old, aqp]) + "\n\n" + fig10 + "\n\n" + \
        ycsb_old + "\n"
    ycsb_new = _table("YCSB", 9.0)
    merged = merge(existing, {"YCSB": ycsb_new})
    assert merged == "\n\n".join([ycsb_new, aqp, fig10]) + "\n"
    # Merging is idempotent and keeps every section's lines verbatim.
    assert merge(merged, {}) == merged
    assert merge(merged, {"YCSB": ycsb_new}) == merged


def test_new_tables_append_and_prose_chunks_survive():
    merge = _bench_record()._merge_results
    fig10 = _table("Fig 10", 4.0)
    existing = "a note\nwithout rules\n\n" + fig10 + "\n"
    merged = merge(existing, {"Fig 14": _table("Fig 14", 5.0)})
    assert merged == "\n\n".join(
        ["a note\nwithout rules", fig10, _table("Fig 14", 5.0)]) + "\n"


class _Reporter:
    def __init__(self):
        self.lines = []

    def write_line(self, line):
        self.lines.append(line)


@pytest.fixture
def bench(tmp_path, monkeypatch):
    """The bench plumbing writing into ``tmp_path``, with one committed
    table in its ``results.txt``."""
    module = _bench_record()
    results = tmp_path / "results.txt"
    results.write_text(_table("Fig 10", 4.0) + "\n")
    monkeypatch.setattr(module, "RESULTS_PATH", str(results))
    monkeypatch.setattr(module, "SCORECARD_DIR", str(tmp_path / "sc"))
    monkeypatch.setenv(RUNSTORE_DIR_ENV, str(tmp_path))
    return module, results


def test_scaled_run_leaves_results_txt_alone(bench, monkeypatch):
    module, results = bench
    before = results.read_bytes()
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
    module.record_table("Fig 10", ["k", "v"], [["a", 0.61], ["b", 2.0]])
    module.pytest_terminal_summary(_Reporter())
    assert results.read_bytes() == before
    beside = results.parent / "sc" / "results.txt"
    assert beside.read_text() == _table("Fig 10", 0.61) + "\n"


def test_failed_scorecard_keeps_its_tables_out(bench, monkeypatch):
    module, results = bench
    before = results.read_bytes()
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    module.record_table("Fig 10", ["k", "v"], [["a", 0.61], ["b", 2.0]])
    failing = Scorecard(figure="fig10")
    failing.add_check("speedup", False)
    module.record_scorecard(failing)
    module.pytest_terminal_summary(_Reporter())
    assert results.read_bytes() == before
    assert (results.parent / "sc" / "BENCH_fig10.json").exists()


def test_full_scale_vouches_for_passing_tests_only():
    vouched = _bench_record().vouched_tables
    tables = {"A": ("a", "t1"), "B": ("b", "t2")}
    assert vouched(tables, {"t2"}, 1.0) == ({"A": "a"}, {"B": "b"})
    assert vouched(tables, set(), 1.0) == ({"A": "a", "B": "b"}, {})
    assert vouched(tables, set(), 0.5) == ({}, {"A": "a", "B": "b"})
