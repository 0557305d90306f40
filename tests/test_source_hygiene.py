"""Source checks that need no linter: every module-level import in the
package's modules is used, and every private module-level function or
class is referenced somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pgraphs"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module body's imports that no expression reads
    and `__all__` does not list."""
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name.partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in bound if name not in read]


def test_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == ["os", "e"]
    assert unused_imports("import a.b\n__all__ = ['x']\nfrom m import x\na.b.f()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """module:name of each module-level function or class named with one
    leading underscore that no code of any module names, outside the
    definition's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    named = set()
    for tree in trees.values():
        for top in tree.body:
            own = top.name if isinstance(top, defs) else None
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    named.add(name)
    return [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, defs)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in named
    ]


def test_check_sees_a_private_def_without_callers():
    sources = {
        "a": "def _loop():\n    _loop()\ndef _used(): pass\nclass _Kept: pass\n",
        "b": "import a\na._used()\nx: 'a._Kept'\ny = a._Kept\ndef __getattr__(n): pass\n",
    }
    assert unreferenced_private_defs(sources) == ["a:_loop"]


def test_private_defs_are_referenced():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_private_defs(sources) == []
