"""The ``--metrics`` snapshot of one small congested sweep.

``incast --senders 4`` at ``REPRO_BENCH_SCALE=0.1`` builds every
instrumented layer (RNICs, PCIe, fabric, switch, verbs, FLock client and
server), so its snapshot carries every counter, gauge and histogram the
stack defines.  The tests pin its values, check that recording spans
does not change them, and check the documented metric table against
it.
"""

import hashlib
import json
import os
import re

import pytest

from repro.harness.cli import main

#: sha256 prefix of the canonical snapshot (see :func:`_digest`).
PINNED = "3b3c6ae889ae1b14"

DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                    "observability.md")


def _metrics(tmp_path, *flags, name="m.json"):
    """The snapshot file's text (JSON, or CSV when ``name`` says so)."""
    path = tmp_path / name
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_BENCH_SCALE", "0.1")
        assert main([*flags, "--metrics", str(path),
                     "incast", "--senders", "4"]) == 0
    return path.read_text()


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    return json.loads(_metrics(tmp_path_factory.mktemp("metrics")))


def _rounded(value):
    """Floats to 9 significant digits: the pin survives a float sum
    taken in another order, not a changed count."""
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, float):
        return float("%.9g" % value)
    return value


def _digest(snap) -> str:
    text = json.dumps(_rounded(snap), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_snapshot_is_pinned(snapshot):
    assert (len(snapshot["counters"]), len(snapshot["gauges"]),
            len(snapshot["histograms"])) == (46, 36, 5)
    assert _digest(snapshot) == PINNED


def test_span_recording_leaves_metrics_unchanged(snapshot, tmp_path):
    """``--breakdown`` runs the sweep serially under one span-recording
    telemetry instead of a metrics-only one; the snapshot must not
    notice.
    ``net.link_utilization`` once divided every run's wire bytes by the
    last run's clock here."""
    assert json.loads(_metrics(tmp_path, "--breakdown")) == snapshot


def test_csv_rows_equal_json_values(snapshot, tmp_path):
    """Every ``--metrics FILE.csv`` value parses back to the JSON value
    of the same series (``%g`` once rounded 22 of these rows)."""
    rows = _metrics(tmp_path, name="m.csv").splitlines()
    assert rows[0] == "type,name,field,value"
    kinds = {"counter": "counters", "gauge": "gauges",
             "histogram": "histograms"}
    for row in rows[1:]:
        kind, rest = row.split(",", 1)
        name, field, value = rest.rsplit(",", 2)
        expected = snapshot[kinds[kind]][name]
        if kind == "histogram":
            expected = expected[field]
        assert float(value) == expected, row
    assert len(rows) - 1 == 46 + 36 + 5 * 8


def _expand(name):
    """``a.{b,c}.d`` -> ``a.b.d``, ``a.c.d`` (one brace group)."""
    match = re.search(r"\{([^}]*)\}", name)
    if match is None:
        return [name]
    return [name[:match.start()] + part + name[match.end():]
            for part in match.group(1).split(",")]


def _documented():
    """{kind: names} from the "Metric names by layer" table."""
    with open(DOCS) as fh:
        text = fh.read()
    table = text.split("## Metric names by layer", 1)[1].split("\n## ", 1)[0]
    kinds = ("counters", "gauges", "histograms")
    out = {kind: set() for kind in kinds}
    for line in table.splitlines():
        if not line.startswith("| `"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        for kind, cell in zip(kinds, cells[1:]):
            for name in re.findall(r"`([^`]+)`", cell):
                out[kind].update(_expand(name))
    return out


def test_documented_metric_table_matches_snapshot(snapshot):
    for kind, names in _documented().items():
        seen = {re.sub(r"\{.*\}$", "", name) for name in snapshot[kind]}
        assert names == seen, kind
