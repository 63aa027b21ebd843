"""``benchmarks/results.txt`` merging: fused chunks and duplicate titles."""

import importlib.util
import os

from repro.harness import format_table

_CONFTEST = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                         "conftest.py")


def _bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _table(title, value):
    return format_table(title, ["k", "v"], [["a", value], ["b", 2.0]])


def test_fused_duplicated_chunk_is_split_and_refreshed():
    merge = _bench_conftest()._merge_results
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
    merge = _bench_conftest()._merge_results
    fig10 = _table("Fig 10", 4.0)
    existing = "a note\nwithout rules\n\n" + fig10 + "\n"
    merged = merge(existing, {"Fig 14": _table("Fig 14", 5.0)})
    assert merged == "\n\n".join(
        ["a note\nwithout rules", fig10, _table("Fig 14", 5.0)]) + "\n"
