"""Artifact files are replaced in one step: a write that fails partway
leaves the old file byte for byte and no temporary file behind."""

import errno
import os

import pytest

from repro.obs import Scorecard
from repro.obs import export
from repro.obs.export import write_atomic


def test_write_replaces_the_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    write_atomic(str(path), "new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_disk_full_partway_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "results.txt"
    path.write_bytes(b"old table\n")

    class HalfWriter:
        """A file that takes half of what it is given, then is full."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(export, "open",
                        lambda *a, **k: HalfWriter(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError):
        write_atomic(str(path), "new table\n" * 100)
    assert path.read_bytes() == b"old table\n"
    assert os.listdir(tmp_path) == ["results.txt"]


def test_scorecard_that_fails_to_serialize_keeps_the_old_file(tmp_path):
    sc = Scorecard(figure="figX")
    sc.add_check("holds", True)
    path = sc.write(str(tmp_path))
    with open(path, "rb") as fh:
        before = fh.read()
    # Sorted last, so a streaming writer has written every other key.
    sc.meta["zz"] = object()
    with pytest.raises(TypeError):
        sc.write(str(tmp_path))
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == [os.path.basename(path)]
