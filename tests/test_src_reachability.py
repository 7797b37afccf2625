"""``src/repro`` holds only what a run uses.

Every function, method and class defined under ``src/repro`` must be read
by code outside ``tests/``: the library itself, ``benchmarks/``,
``examples/`` or ``tools/``.  Code that exists only so that tests can call
it belongs in ``tests/`` (the references live in ``tests/helpers.py``).
Likewise every defaulted field of a config object must be set by one of
those trees: a field only tests set is a knob with one value in use, and
belongs in a module constant.

The check works on names, read with :mod:`ast`; nothing is imported.  A
definition counts as used when its name is read somewhere in those trees
as a variable, an attribute or an imported name.  Re-exports in
``__init__.py`` modules do not count, and the method names listed in the
end-to-end tracer's ``GROUPS`` table do, since the tracer wraps them by
name.  ``KEPT`` names each definition that stays although only tests read
it, with the reason, and ``KEPT_FIELDS`` each config field that stays
although only tests set it.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
USERS = ("src", "benchmarks", "examples", "tools")
TRACER = ROOT / "benchmarks" / "e2e" / "tracer.py"

#: Definitions only tests read that stay in ``src/``, each with its reason.
KEPT = {
    "graph_to_json": "the graph IR's JSON form; tests round-trip every zoo graph through it",
    "graph_from_json": "the graph IR's JSON form; tests round-trip every zoo graph through it",
    "BandwidthEstimator.failure_fraction": "tests observe how failed transfers enter the estimator's window",
    "BandwidthEstimator.passive_fraction": "tests observe how passive samples enter the estimator's window",
    "ServerFaultPlan.chaos": "builds the random crash schedules of the gateway and driver chaos tests",
    "OutageTrace": "the bandwidth trace with dark intervals that the fault tests drive",
}

#: Config objects whose defaulted fields must be set outside ``tests/``:
#: every ``*Config`` class and these.
CONFIG_OBJECTS = ("NetworkParams", "FaultPlan", "ServerFaultPlan", "ServerProfile",
                  "ExitSpec")

#: Config fields only tests set that stay, each with its reason.
KEPT_FIELDS = {
    "SystemConfig.streaming": "the simulated streaming runtime, which no run reaches yet (ROADMAP item 7)",
    "StreamingConfig.codecs": "the ('fp32',) degenerate-identity pins need it",
    "StreamingConfig.allow_lossy": "lossy codecs stay opt-in",
    "NetworkParams.jitter_sigma": "the zero-jitter exactness pins need it",
}


def _definitions():
    """(qualified name, path, line) of every def and class, methods and
    nested classes included; definitions local to a function are skipped."""
    found = []

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((prefix + child.name, path, child.lineno))
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.", path)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text()), "", path.relative_to(ROOT))
    return found


def _tracer_names():
    """The strings of the tracer's ``GROUPS`` table: the modules, classes
    and methods it wraps."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "GROUPS":
            return {c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    raise AssertionError(f"no GROUPS table in {TRACER}")


def _used_names():
    used = _tracer_names()
    for tree_name in USERS:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            reexports = path.name == "__init__.py"
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    used.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports:
                    used.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return used


def _test_only():
    """``{qualified name: "path:line"}`` of every definition, dunders
    aside, whose name nothing outside ``tests/`` reads."""
    used = _used_names()
    found = {}
    for qualname, path, line in _definitions():
        name = qualname.rsplit(".", 1)[-1]
        if name not in used and not (name.startswith("__") and name.endswith("__")):
            found[qualname] = f"{path}:{line}"
    return found


def test_every_definition_is_used_outside_tests():
    unused = {name: where for name, where in _test_only().items() if name not in KEPT}
    assert not unused, (
        "read only from tests/ (delete, move to tests/, or add to KEPT with a reason): "
        + ", ".join(f"{name} ({where})" for name, where in sorted(unused.items())))


def test_kept_names_are_still_test_only():
    """An entry whose name is gone or now used outside tests is stale."""
    stale = sorted(set(KEPT) - set(_test_only()))
    assert not stale, f"stale KEPT entries: {stale}"


def _config_fields():
    """``{class: (field, ...)}`` of every config object, fields in
    declaration order, and the set of its defaulted ``"Class.field"``."""
    fields, defaulted = {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and (
                    node.name.endswith("Config") or node.name in CONFIG_OBJECTS):
                annotated = [stmt for stmt in node.body
                             if isinstance(stmt, ast.AnnAssign)
                             and isinstance(stmt.target, ast.Name)]
                fields[node.name] = tuple(stmt.target.id for stmt in annotated)
                defaulted.update(f"{node.name}.{stmt.target.id}"
                                 for stmt in annotated if stmt.value is not None)
    return fields, defaulted


def _set_fields(fields):
    """``"Class.field"`` of every field set outside ``tests/``: by keyword
    or position in a call of the class, or by keyword in a
    ``dataclasses.replace`` call (which counts for every config object
    with a field of that name, since the object's class is not known)."""
    found = set()
    for tree_name in USERS:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                callee = getattr(func, "id", None) or getattr(func, "attr", None)
                if callee == "replace":
                    found.update(f"{cls}.{kw.arg}" for kw in node.keywords
                                 for cls, names in fields.items() if kw.arg in names)
                elif callee in fields:
                    for arg, name in zip(node.args, fields[callee]):
                        if isinstance(arg, ast.Starred):
                            break
                        found.add(f"{callee}.{name}")
                    found.update(f"{callee}.{kw.arg}" for kw in node.keywords if kw.arg)
    return found


def _test_only_fields():
    fields, defaulted = _config_fields()
    return defaulted - _set_fields(fields)


def test_every_config_field_is_set_outside_tests():
    unset = sorted(_test_only_fields() - set(KEPT_FIELDS))
    assert not unset, (
        "set only by tests (make it a module constant, or add it to "
        f"KEPT_FIELDS with a reason): {', '.join(unset)}")


def test_kept_fields_are_still_test_only():
    """An entry whose field is gone or now set outside tests is stale."""
    stale = sorted(set(KEPT_FIELDS) - _test_only_fields())
    assert not stale, f"stale KEPT_FIELDS entries: {stale}"
