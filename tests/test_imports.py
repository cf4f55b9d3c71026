"""Module boundaries: no module of the package imports another's private names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sentinel"


def private_imports(path: Path) -> list[str]:
    """Each ``from .<module> import _<name>`` in a file, as ``file:line name``
    (dunder names such as ``__version__`` are public)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno} {'.' * node.level}{node.module or ''}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


def test_no_private_cross_module_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [hit for path in modules for hit in private_imports(path)] == []
