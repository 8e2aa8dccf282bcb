"""Every top-level name of tests/_oracles.py is read: a test module imports it
(or reads it as ``_oracles.name``), or a name read that way reads it in turn.
A frozen copy that its tests no longer compare against fails here instead of
lingering."""
import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _definitions(tree: ast.Module) -> dict:
    """{name: statement} of the module's imports, definitions and assignments."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update({(a.asname or a.name).split(".")[0]: node for a in node.names})
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign):
            out.update({t.id: node for t in node.targets if isinstance(t, ast.Name)})
    return out


def _read_by_tests() -> set:
    names = set()
    for path in TESTS.glob("*.py"):
        if path.name == "_oracles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "_oracles":
                names.update(a.name for a in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "_oracles"):
                names.add(node.attr)
    return names


def test_every_oracle_is_read():
    path = TESTS / "_oracles.py"
    defined = _definitions(ast.parse(path.read_text(), str(path)))
    reached, todo = set(), sorted(_read_by_tests())
    while todo:
        name = todo.pop()
        if name in reached or name not in defined:
            continue
        reached.add(name)
        todo += [n.id for n in ast.walk(defined[name]) if isinstance(n, ast.Name)]
    assert not set(defined) - reached, sorted(set(defined) - reached)
