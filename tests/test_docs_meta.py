"""Documentation hygiene: every public item in the library is documented.

Deliverable (e) requires doc comments on every public item; this test
makes that a regression-checked property rather than a promise.  The
same holds for run knobs: every ``REPRO_*`` environment variable the
library reads is listed in the "Run knobs" table of
``docs/observability.md``.
"""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

SKIP_MODULES = set()


def iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in SKIP_MODULES:
            continue
        yield importlib.import_module(info.name)


MODULES = list(iter_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_classes_documented(module):
    for name, cls in inspect.getmembers(module, inspect.isclass):
        if name.startswith("_") or cls.__module__ != module.__name__:
            continue
        assert cls.__doc__, "%s.%s lacks a docstring" % (module.__name__, name)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_functions_documented(module):
    for name, fn in inspect.getmembers(module, inspect.isfunction):
        if name.startswith("_") or fn.__module__ != module.__name__:
            continue
        assert fn.__doc__, "%s.%s lacks a docstring" % (module.__name__, name)


def test_package_exports_resolve():
    """Every name in a package __all__ actually exists."""
    for module in MODULES:
        exported = getattr(module, "__all__", [])
        for name in exported:
            assert hasattr(module, name), (module.__name__, name)


ROOT = pathlib.Path(__file__).resolve().parents[1]

#: The environment knobs the library reads; adding one means adding it
#: here and to the "Run knobs" table in docs/observability.md.
RUN_KNOBS = {
    "REPRO_BENCH_SCALE",
    "REPRO_JOBS",
    "REPRO_AUDIT",
    "REPRO_PROFILE",
    "REPRO_FAULTS",
    "REPRO_RUNSTORE_DIR",
}


def test_run_knob_census():
    """The ``REPRO_*`` names under ``src/`` are exactly the documented
    run knobs, and each has a row in the Run knobs table."""
    found = set()
    for path in (ROOT / "src").rglob("*.py"):
        found.update(re.findall(r"REPRO_[A-Z0-9_]+", path.read_text()))
    assert found == RUN_KNOBS
    doc = (ROOT / "docs" / "observability.md").read_text()
    table = doc.split("## Run knobs", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", table, re.M))
    assert rows == RUN_KNOBS
