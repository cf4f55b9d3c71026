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


def csv_uses(path: Path, names: set[str]) -> list[str]:
    """Each use of ``csv.<name>`` for a name in ``names`` in a file, as
    ``file:line``, whether called as ``csv.<name>`` or imported by name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "csv")
            or (isinstance(node, ast.ImportFrom) and node.module == "csv"
                and names & {alias.name for alias in node.names})]


def test_csv_writer_only_in_data():
    # every result table goes through data.write_table, so every table
    # follows one cell rule
    hits = [hit for path in sorted(PACKAGE.glob("*.py"))
            for hit in csv_uses(path, {"writer"})]
    assert hits and all(hit.startswith("data.py:") for hit in hits), hits


def test_csv_readers_only_in_data():
    # every table the program takes in goes through data.read_table, so
    # every input is decoded, numbered and refused by one rule
    hits = [hit for path in sorted(PACKAGE.glob("*.py"))
            for hit in csv_uses(path, {"reader", "DictReader"})]
    assert hits and all(hit.startswith("data.py:") for hit in hits), hits


def module_imports(path: Path, name: str) -> list[str]:
    """Each ``import <name>`` or ``from <name> import ...`` in a file, as
    ``file:line``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if (isinstance(node, ast.Import)
                and any(alias.name.split(".")[0] == name for alias in node.names))
            or (isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").split(".")[0] == name)]


def test_ctypes_only_in_nn():
    # every hold of a BLAS library's threads, and what run.json records of
    # them, goes through nn's one lookup
    hits = [hit for path in sorted(PACKAGE.glob("*.py"))
            for hit in module_imports(path, "ctypes")]
    assert hits and all(hit.startswith("nn.py:") for hit in hits), hits


def test_thread_pools_only_in_evaluate():
    # evaluate's pool runs inside an outer hold of numpy's OpenBLAS, which is
    # what makes each worker's own nested hold safe; a pool elsewhere would
    # have no such hold
    hits = [hit for path in sorted(PACKAGE.glob("*.py"))
            for hit in module_imports(path, "concurrent")]
    assert hits and all(hit.startswith("evaluate.py:") for hit in hits), hits
