"""Documentation hygiene: every public item in the library is documented.

Deliverable (e) requires doc comments on every public item; this test
makes that a regression-checked property rather than a promise.  The
same holds for run knobs: every ``REPRO_*`` environment variable the
library reads is listed in the "Run knobs" table of
``docs/observability.md``, every defaulted parameter has a caller that
sets it, and every definition under ``src/repro`` has a reader.  The
"Programmatic use" snippet of ``docs/observability.md`` runs as written.
EXPERIMENTS.md's tables are ``benchmarks/results.txt`` sections,
verbatim.
"""

import ast
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

#: The environment knobs the library and the benchmark suite read;
#: adding one means adding it here and to the "Run knobs" table in
#: docs/observability.md.
RUN_KNOBS = {
    "REPRO_BENCH_SCALE",
    "REPRO_JOBS",
    "REPRO_AUDIT",
    "REPRO_PROFILE",
    "REPRO_FAULTS",
    "REPRO_RUNSTORE_DIR",
    "REPRO_SCORECARD_DIR",
}


def test_run_knob_census():
    """The ``REPRO_*`` names under ``src/`` and ``benchmarks/`` are
    exactly the documented run knobs, and each has a row in the Run
    knobs table."""
    found = set()
    for path in [*(ROOT / "src").rglob("*.py"),
                 *(ROOT / "benchmarks").rglob("*.py")]:
        found.update(re.findall(r"REPRO_[A-Z0-9_]+", path.read_text()))
    assert found == RUN_KNOBS
    doc = (ROOT / "docs" / "observability.md").read_text()
    table = doc.split("## Run knobs", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", table, re.M))
    assert rows == RUN_KNOBS


#: Directories whose calls count as callers in the parameter census.
CALLER_DIRS = ("src", "tests", "benchmarks", "perf", "examples")

#: Defaulted parameters the census finds no caller for, each kept
#: because a caller sets it where a name match cannot see it.
PARAMETER_ALLOWLIST = {
    "repro.baselines.erpc.ErpcServer(n_workers)":
        "tests/test_baselines.py builds it as server_cls(..., n_workers=1)",
    "repro.hw.memory.MemoryRegion(remote_read)":
        "Memory.register(**perms) forwards it (tests/test_verbs.py)",
    "repro.hw.memory.MemoryRegion(remote_atomic)":
        "Memory.register(**perms) forwards it (tests/test_verbs.py)",
}


def _defaulted(fn, method):
    """``(name, position)`` of each defaulted parameter of ``fn``; the
    position is None for keyword-only ones and skips ``self``."""
    args = fn.args
    pos = args.posonlyargs + args.args
    if method and pos:
        pos = pos[1:]
    first = len(pos) - len(args.defaults)
    out = [(a.arg, i) for i, a in enumerate(pos) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _public_signatures(tree, module):
    """``(label, callee, param, position)`` for every defaulted parameter
    of a public function, or of a public class's ``__init__`` (called
    by the class name) or public method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for p, i in _defaulted(node, False):
                yield "%s.%s(%s)" % (module, node.name, p), node.name, p, i
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                decorators = {ast.unparse(d) for d in fn.decorator_list}
                if fn.name == "__init__":
                    callee, label = node.name, node.name
                elif fn.name.startswith("_") or "property" in decorators:
                    continue
                else:
                    callee, label = fn.name, node.name + "." + fn.name
                method = "staticmethod" not in decorators
                for p, i in _defaulted(fn, method):
                    yield "%s.%s(%s)" % (module, label, p), callee, p, i


def _name(expr):
    return getattr(expr, "attr", None) or getattr(expr, "id", None)


def _keys(node):
    """The constant keys of a dict literal (none for anything else)."""
    return {k.value for k in getattr(node, "keys", ())
            if isinstance(k, ast.Constant)}


#: Node types that hold no calls: the census walk skips them.
_LEAVES = (ast.expr_context, ast.operator, ast.cmpop, ast.unaryop,
           ast.boolop, ast.Constant, ast.Name, ast.alias)


def _calls(tree):
    """``(callee, positional count, keywords)`` for every call in
    ``tree``.  ``super().__init__`` calls its class's bases;
    ``partial(f, ...)`` and ``SweepPoint(key, f, args, kwargs)`` call
    ``f``; a ``*`` splat passes every position and a ``**{...}`` literal
    its keys."""
    stack = [(tree, ())]
    while stack:
        node, bases = stack.pop()
        if isinstance(node, ast.ClassDef):
            bases = [_name(b) for b in node.bases]
        stack.extend((child, bases) for child in ast.iter_child_nodes(node)
                     if not isinstance(child, _LEAVES))
        if not isinstance(node, ast.Call):
            continue
        callee, args = _name(node.func), node.args
        kws = {k.arg for k in node.keywords if k.arg}
        for k in node.keywords:
            if k.arg is None:
                kws |= _keys(k.value)
        npos = (1 << 30 if any(isinstance(a, ast.Starred) for a in args)
                else len(args))
        yield callee, npos, kws
        if (callee == "__init__" and isinstance(node.func.value, ast.Call)
                and _name(node.func.value.func) == "super"):
            for base in bases:
                yield base, npos, kws
        elif callee == "partial" and args:
            yield _name(args[0]), npos - 1, kws
        elif callee == "SweepPoint" and len(args) >= 3:
            yield (_name(args[1]), len(getattr(args[2], "elts", ())),
                   _keys(args[3]) if len(args) > 3 else set())


def test_every_defaulted_parameter_has_a_caller():
    """ROADMAP's knob census rule, over every public signature in
    ``src/repro`` outside ``config.py`` (whose model fields scenario
    configs set by name and the time-scale oracle rescales): a defaulted
    parameter no call in the repo sets is a constant, not a knob.
    Calls match by callee name; a class name calls its ``__init__``."""
    trees = {path: ast.parse(path.read_text())
             for d in CALLER_DIRS for path in sorted((ROOT / d).rglob("*.py"))}
    set_kws, set_pos = {}, {}
    for tree in trees.values():
        for callee, npos, kws in _calls(tree):
            set_kws.setdefault(callee, set()).update(kws)
            set_pos[callee] = max(set_pos.get(callee, 0), npos)
    unset = set()
    src = ROOT / "src"
    for path, tree in trees.items():
        if src not in path.parents or path == src / "repro" / "config.py":
            continue
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for label, callee, p, i in _public_signatures(tree, module):
            if p in set_kws.get(callee, ()):
                continue
            if i is not None and set_pos.get(callee, 0) > i:
                continue
            unset.add(label)
    assert unset == set(PARAMETER_ALLOWLIST)


#: Where a definition's reader may be: code that runs, the CI workflow,
#: and DESIGN.md's paper-API tables.  Tests are not readers.
READER_DIRS = ("src", "perf", "benchmarks", "examples")

_WORD = re.compile(r"[A-Za-z_]\w*")

#: A string literal that can name a definition: one token, as in a
#: ``getattr`` name or a metric or fault name.  Prose has spaces.
_TOKEN = re.compile(r"[\w.:%-]+")


def _code_names(tree):
    """Every name the code in ``tree`` uses, as ``(bare, name)``: bare
    identifiers are bare; attributes, keywords and the words of a
    one-token string literal (a name passed to ``getattr``) are not.
    Docstrings, comments, prose strings, imports and ``__all__`` lists
    are not readers: a re-export uses nothing.  Neither is an attribute
    of a module imported from outside ``repro`` and ``perf``: ``gc.collect``
    reads no method named ``collect``."""
    skip, foreign = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skip.add(id(node.value))
        elif isinstance(node, ast.Assign) and any(
                _name(t) == "__all__" for t in node.targets):
            skip.update(id(n) for n in ast.walk(node.value))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top not in ("repro", "perf"):
                    foreign.add(alias.asname or top)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield True, node.id
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name)
                    and node.value.id in foreign):
                yield False, node.attr
        elif isinstance(node, ast.keyword) and node.arg:
            yield False, node.arg
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip and _TOKEN.fullmatch(node.value)):
            for word in _WORD.findall(node.value):
                yield False, word


def test_every_definition_has_a_reader():
    """ROADMAP item 6's rule over every ``def`` and ``class`` under
    ``src/repro``, dunders aside: its name is used by code in
    ``src/``, ``perf/``, ``benchmarks/`` or ``examples/``, by a command
    in the CI workflow, or in DESIGN.md.  A method is read only through
    an attribute, a keyword or a word of a one-token string, never a
    bare name: a local variable that shares its name reads nothing, and
    neither does a re-export (an import or an ``__all__`` entry) or a
    prose string.  There is no
    allow-list: a paper API no code calls stays only if DESIGN.md names
    it.  Names match by spelling, so a method that shares its name with
    a used attribute or string passes unread."""
    bare, read, defined = set(), set(), []
    for d in READER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = ast.parse(path.read_text())
            for is_bare, name in _code_names(tree):
                (bare if is_bare else read).add(name)
            if d != "src":
                continue
            methods = {id(node) for cls in ast.walk(tree)
                       if isinstance(cls, ast.ClassDef)
                       for node in cls.body
                       if isinstance(node, ast.FunctionDef)}
            for node in ast.walk(tree):
                if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not (node.name.startswith("__")
                                 and node.name.endswith("__"))):
                    defined.append((node.name, id(node) in methods,
                                    "%s:%d" % (path.relative_to(ROOT),
                                               node.lineno)))
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    read.update(_WORD.findall(re.sub(r"(?m)^\s*#.*$", "", ci)))
    read.update(_WORD.findall((ROOT / "DESIGN.md").read_text()))
    unread = sorted(where for name, method, where in defined
                    if name not in read and (method or name not in bare))
    assert unread == []


def test_programmatic_use_snippet_runs(monkeypatch, tmp_path):
    """The fenced block under "Programmatic use" in
    docs/observability.md runs as written, so its import paths cannot
    rot."""
    doc = (ROOT / "docs" / "observability.md").read_text()
    section = doc.split("## Programmatic use", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)\n```", section, re.S)
    assert len(blocks) == 1
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "docs/observability.md", "exec"), {})
    assert (tmp_path / "run.trace.json").stat().st_size > 0


def test_experiments_tables_are_results_sections():
    """Every fenced block in EXPERIMENTS.md sits under a
    ``<!-- results.txt -->`` marker and equals the ``results.txt``
    section with the same title line, byte for byte."""
    results = (ROOT / "benchmarks" / "results.txt").read_text()
    sections = {text.splitlines()[0]: text
                for text in results.strip("\n").split("\n\n")}
    doc = (ROOT / "EXPERIMENTS.md").read_text()
    blocks = re.findall(r"```\n(.*?)\n```", doc, re.S)
    marked = re.findall(r"<!-- results\.txt -->\n```\n(.*?)\n```", doc, re.S)
    assert blocks and marked == blocks
    for block in blocks:
        assert block == sections.get(block.splitlines()[0]), block
