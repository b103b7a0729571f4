"""Every name a module imports is used in that module, every private name
it defines is too, and every public constant it defines is read somewhere.

A stdlib `ast` pass, so the check needs no lint package. Package
`__init__.py` files are skipped for imports: their imports are re-exports.
A private module-level function, class or constant (one name starting with
a single underscore) that its own module never reads is left over from a
deletion. So is a public UPPERCASE constant that no file of the program,
its tests, its tools or its benchmark reads.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sqlscout"
READERS = [ROOT / "src", ROOT / "tests", ROOT / "tools", ROOT / "e2ebench"]
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


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


def public_constants(source: str) -> dict[str, int]:
    """Module-level UPPERCASE names the source assigns, with their line."""
    found = {}
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id):
                found[target.id] = node.lineno
    return found


def names_read(source: str) -> set[str]:
    """Every name the source loads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_public_constants_and_reads_are_found():
    source = "A = 1\nB_2: int = A\nC, d = 3, 4\nlower = 5\n_P = 6\nprint(x.C)\n"
    assert public_constants(source) == {"A": 1, "B_2": 2}
    assert names_read(source) == {"A", "int", "print", "x", "C"}


def test_every_public_constant_is_read_somewhere():
    read = set().union(*(names_read(path.read_text(encoding="utf-8"))
                         for root in READERS for path in sorted(root.rglob("*.py"))))
    unread = {
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name, line in public_constants(path.read_text(encoding="utf-8")).items()
        if name not in read
    }
    assert unread == set()
