"""Static checks on the maltkit sources."""

import ast
from pathlib import Path

import pytest

import maltkit

SRC = Path(maltkit.__file__).parent
TESTS = Path(__file__).parent


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
# the maltkit modules by name, then the test modules as tests/<name>
SOURCES = [SRC / m for m in MODULES] + sorted(TESTS.glob("*.py"))

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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: (
    p.name if p.parent == SRC else f"tests/{p.name}"))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("module", MODULES)
def test_tables_are_read_in_their_stored_shape(module):
    assert table_reshapes((SRC / module).read_text()) == []


def test_table_reshape_check_finds_each_form():
    source = ("a = np.reshape(R.mul, (2, 2))\nb = np.asarray(form.d)\n"
              "c = op.values.reshape(-1)\nd = np.reshape(rows, (2, 2))\ne = np.asarray(h.map)\n")
    assert [hit.split(":")[0] for hit in table_reshapes(source)] == ["line 1", "line 2", "line 3"]


# Top-level definitions that no `mk` verb reaches, each kept for the caller
# outside maltkit named here; a module name stands for all its definitions.
OUTSIDE_CALLERS = {
    "catalog": "perfbench/workloads.py builds the benchmark's structures with it",
    "rings.cyclic_ring": "perfbench/workloads.py",
    "rings.dual_numbers_f2": "perfbench/workloads.py",
    "rings.module_over_self": "perfbench/workloads.py",
    "rings.zero_module": "perfbench/workloads.py",
    "rings.submodule": "perfbench/workloads.py",
    "abgroup.smith_normal_form": "perfbench/spans.py traces it by name",
}


def reachability(src: Path, allowed: dict):
    """(unreached, needless): the top-level defs and classes reached neither
    from `cli.main` nor from an allow-list entry, and the entries that name
    nothing or only what `cli.main` reaches.  A reached definition reaches
    every top-level def, class and assignment, in any module, named by a
    name or attribute it mentions: name level, so it may only overcount."""
    defs = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[path.stem, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.update(((path.stem, n.id), node) for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name))
    by_name = {}
    for key in defs:
        by_name.setdefault(key[1], []).append(key)

    def reached(roots):
        seen, todo = set(), list(roots)
        while todo:
            if (key := todo.pop()) not in seen:
                seen.add(key)
                todo.extend(k for node in ast.walk(defs[key]) for k in by_name.get(
                    node.id if isinstance(node, ast.Name) else getattr(node, "attr", None), ()))
        return seen

    entries = {e: [k for k in defs if e in (k[0], ".".join(k))] for e in allowed}
    from_main = reached([("cli", "main")])
    seen = reached([("cli", "main")] + sum(entries.values(), []))
    unreached = sorted(".".join(k) for k, node in defs.items()
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and k not in seen)
    return unreached, sorted(e for e, keys in entries.items() if set(keys) <= from_main)


def test_every_definition_serves_a_verb_or_a_named_caller():
    assert reachability(SRC, OUTSIDE_CALLERS) == ([], [])


def test_reachability_check_finds_an_uncalled_definition(tmp_path):
    (tmp_path / "cli.py").write_text("from .b import used\n\ndef main():\n    return used()\n")
    (tmp_path / "b.py").write_text(
        "LIMIT = 3\n\ndef used():\n    return helper(LIMIT)\n\ndef helper(k):\n    return k\n\n"
        "def spare():\n    return 0\n\nclass Kept:\n    pass\n")
    assert reachability(tmp_path, {}) == (["b.Kept", "b.spare"], [])
    assert reachability(tmp_path, {"b.Kept": "a caller", "b.used": "a caller"}) == (
        ["b.spare"], ["b.used"])
    assert reachability(tmp_path, {"b": "a caller", "b.gone": "a caller"}) == ([], ["b.gone"])
