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
