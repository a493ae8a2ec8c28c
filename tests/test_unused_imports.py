"""No module of the package imports a name it never uses.

The CI docs job runs ``ruff check --select F401`` over ``src/repro``;
ruff is not a dependency, so this test keeps the rule enforceable
without it.  It reads every module with :mod:`ast` and flags each
top-level import whose bound name appears nowhere else in the module.
A name counts as used when the code reads it, when a string annotation
names it, or when ``__all__`` lists it.  Package ``__init__`` modules
are exempt: their imports are the package's re-exports.
"""

from __future__ import annotations

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """Names a top-level import statement binds in the module."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    names = []
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname:
            names.append(alias.asname)
        elif isinstance(node, ast.Import):
            names.append(alias.name.split(".")[0])
        else:
            names.append(alias.name)
    return names


def _annotations(tree: ast.Module):
    """Every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, names inside string annotations and the
    entries of ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed)
                         if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(path: pathlib.Path) -> list[tuple[int, str]]:
    """``(line, name)`` of each unused top-level import of ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    return [(node.lineno, name) for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in _bound_names(node) if name not in used]


def test_no_unused_top_level_imports():
    found = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scanner_sees_usage_forms(tmp_path):
    """Reads, string annotations and ``__all__`` count as uses; a bare
    import does not."""
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Sequence\n"
        "from json import dumps, loads\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Sequence[int]'):\n"
        "    return np.zeros(3)\n",
        encoding="utf-8")
    assert unused_imports(module) == [(2, "os"), (5, "loads")]
