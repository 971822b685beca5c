"""The package's own source: no module imports a name it never reads."""

import ast
from pathlib import Path

import latticeflow

PACKAGE = Path(latticeflow.__file__).parent


def unread_imports(path: Path) -> list:
    """`file:line: name` for each name `path` imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}"
                  for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read():
    # `__init__` imports names to re-export them
    unread = [u for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py" for u in unread_imports(path)]
    assert unread == []
