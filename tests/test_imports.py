"""Every name a module imports is used in that module, and so is every
private name it defines.

A stdlib `ast` pass, so the check needs no lint package. Package
`__init__.py` files are skipped for imports: their imports are re-exports.
A private module-level function, class or constant (one name starting with
a single underscore) that its own module never reads is left over from a
deletion.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sqlscout"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def unused_private_names(source: str) -> list[str]:
    """Private top-level names read nowhere but in their own definition."""
    tree = ast.parse(source)
    defined: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node
    read = {sub.id for node in tree.body for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            and defined.get(sub.id) is not node}
    return [f"line {node.lineno}: {name}"
            for name, node in sorted(defined.items()) if name not in read]


def test_unused_imports_are_found():
    source = "import os\nimport a.b\nfrom x import y as z, w\nprint(w, a)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: z"]


def test_no_module_imports_a_name_it_never_uses():
    found = {
        str(path.relative_to(SRC)): unused
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_unused_private_names_are_found():
    source = (
        "_CAP = 3\n_USED: int = 1\n__all__ = []\n"
        "def _orphan():\n    return _orphan()\n"
        "class _Helper:\n    _x = 1\n"
        "def public():\n    return _USED\n"
    )
    assert unused_private_names(source) == [
        "line 1: _CAP", "line 6: _Helper", "line 4: _orphan"]


def test_no_module_defines_a_private_name_it_never_uses():
    found = {
        str(path.relative_to(SRC)): unused
        for path in sorted(SRC.rglob("*.py"))
        if (unused := unused_private_names(path.read_text(encoding="utf-8")))
    }
    assert found == {}
