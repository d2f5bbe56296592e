"""The package's public surface."""

import prodquot


def test_every_exported_name_resolves():
    missing = [name for name in prodquot.__all__ if not hasattr(prodquot, name)]
    assert not missing


def test_no_unused_module_imports():
    """Every name a module imports is read somewhere in that module
    (``__init__`` re-exports and ``__future__`` features excepted)."""
    import ast
    from pathlib import Path

    unused = []
    for path in sorted(Path(prodquot.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused


# Definitions kept without a caller in the package: test oracles and small
# API helpers for callers outside it.
UNUSED_ALLOWED = {
    "CosetTable.trace",  # oracle: follows a word through a coset table
    "SubgroupPresentation.expand",  # oracle: a subgroup word back in the parent
    "identity_perm",  # API helper next to perm_from_cycles
    "emit_job",  # API helper: the canonical text of a parsed job
    "Permutation.order",  # API helper: the order of one permutation
    "Presentation.relator_texts",  # API helper: the relators as job text
    "Word.generators",  # API helper: the generators a word uses
}


def _is_property(method) -> bool:
    import ast

    return any(
        (isinstance(d, ast.Name) and d.id in ("property", "cached_property"))
        or (isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter"))
        for d in method.decorator_list
    )


def test_every_definition_is_used():
    """Every module-level function or class is named somewhere else in the
    package or exported in ``__all__``; every property is read as an
    attribute, and every other method is called as ``obj.name(...)``."""
    import ast
    from pathlib import Path

    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(prodquot.__file__).parent.glob("*.py"))
    }
    named = set(prodquot.__all__)
    attributes, called = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for fname, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            members = [(node.name, node.name in named | attributes)]
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, defs) and not m.name.startswith("__"):
                        uses = attributes if _is_property(m) else called
                        members.append((f"{node.name}.{m.name}", m.name in uses))
            unused += [
                f"{fname}: {qual}"
                for qual, used in members
                if not used and qual not in UNUSED_ALLOWED
            ]
    assert not unused


def test_every_data_file_is_package_data():
    """A built install ships every file under ``prodquot/data`` (selftest
    reads ``data/snf_cases.json``, ``run --bundled`` the jobs)."""
    import tomllib
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "prodquot"
    with open(root / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["prodquot"]
    shipped = {path for pattern in globs for path in package.glob(pattern)}
    data = {path for path in (package / "data").rglob("*") if path.is_file()}
    assert data and not data - shipped
