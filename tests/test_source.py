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


MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")

# The table fields of the structures: each holds its table as a read-only
# array in the shape its readers index, or (add, mul, act and table on
# rings, modules and operations) the flat exchange view of one.
TABLE_FIELDS = {"add", "mul", "act", "table", "dot", "bleft", "bright", "actions", "d", "delta",
                "proj", "addition", "multiplication", "action", "values"}


def table_reshapes(source: str) -> list[str]:
    """Calls that reshape, or np.asarray, a table field of a structure:
    `np.reshape(x.f, ..)`, `np.asarray(x.f)` and `x.f.reshape(..)`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if isinstance(func.value, ast.Name) and func.value.id == "np":
            target = node.args[0] if func.attr in ("reshape", "asarray") and node.args else None
        else:
            target = func.value if func.attr == "reshape" else None
        if isinstance(target, ast.Attribute) and target.attr in TABLE_FIELDS:
            out.append(f"line {node.lineno}: {ast.unparse(node)}")
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports(SRC / module) == []


@pytest.mark.parametrize("module", MODULES)
def test_tables_are_read_in_their_stored_shape(module):
    assert table_reshapes((SRC / module).read_text()) == []


def test_table_reshape_check_finds_each_form():
    source = ("a = np.reshape(R.mul, (2, 2))\nb = np.asarray(form.d)\n"
              "c = op.values.reshape(-1)\nd = np.reshape(rows, (2, 2))\ne = np.asarray(h.map)\n")
    assert [hit.split(":")[0] for hit in table_reshapes(source)] == ["line 1", "line 2", "line 3"]
