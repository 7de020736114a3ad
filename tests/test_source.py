"""Static checks on the maltkit sources."""

import ast
from pathlib import Path

import pytest

import maltkit

SRC = Path(maltkit.__file__).parent


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never mentions (`__init__` re-exports)."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports(SRC / module) == []
