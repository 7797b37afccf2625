"""Every imported name is read by the module that imports it.

This is ruff's F401 rule (an unused import), which CI's ``ruff check .``
enforces, written with :mod:`ast` so that it also runs where ruff is not
installed.  A name counts as read when the module loads or deletes it
anywhere, annotations included, or names it inside a string annotation
(a forward reference).  As in ``pyproject.toml``, the ``__init__``
modules of ``src/repro`` are exempt (they re-export the public API), and
so are ``from __future__`` imports and imports marked ``# noqa`` or
``# noqa: F401``.
"""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "examples", "tools")
NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _annotations(tree):
    """Every annotation expression of the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            yield from (a.annotation for a in params if a.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree):
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    forward = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(forward) if isinstance(n, ast.Name))
    return names


def _unread_imports(path):
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    read = _read_names(tree)
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        noqa = NOQA.search(lines[node.lineno - 1])
        if noqa and (noqa.group("codes") is None or "F401" in noqa.group("codes").upper()):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in read:
                unread.append(f"{path.relative_to(ROOT)}:{node.lineno} {bound}")
    return unread


def test_every_import_is_read():
    unread = []
    for tree_name in TREES:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            relative = path.relative_to(ROOT)
            if relative.parts[:2] == ("src", "repro") and path.name == "__init__.py":
                continue
            unread += _unread_imports(path)
    assert not unread, "imported but never read (F401): " + ", ".join(unread)
